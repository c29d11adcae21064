import numpy as np
import pytest

from advspan.boolfun import load_function
from advspan.errors import (
    DecompositionFailureError,
    NoNullWitnessError,
    WitnessViolationError,
    WrongBranchError,
)
from advspan.matkernel import eig_hermitian, unitary_eigensystem
from advspan.spanprog import CanonicalSpanProgram
from advspan.spectral import (
    anchor_measure,
    build_input_graph,
    build_program_graph,
    edge_list,
    effective_gap_profile,
    jordan_decompose,
    phase_gap_profile,
    psd_spectral_bound_check,
    reflection_unitary,
    zero_witness_vectors,
)

from conftest import (
    NPN3_CANONICAL,
    anchor_vector,
    corpus_specs,
    dense_adjacency,
    dense_delta,
    dense_unitary,
    input_adjacency,
    input_biadjacency,
    pi_projector,
)
from test_spanprog import parity_example_gram_solution


def in_pi_frame(delta, pi):
    """jordan_decompose's input for two dense projectors, written in Pi's
    eigenbasis Q_Pi: (Q_Pi^T basis_Delta, rank of Delta, kept coordinates)."""
    pi_vals, q_pi = np.linalg.eigh(pi)
    vals, vecs = np.linalg.eigh(delta)
    return q_pi.T @ vecs[:, ::-1], int((vals > 0.5).sum()), pi_vals > 0.5


def b_true_singular_values(g, ig) -> np.ndarray:
    """b_true's singular values, descending, from its restriction to T: outside
    T, b_true is an isometry on the dropped coordinates and zero on the kept ones."""
    dropped = g.n * g.m
    low = np.linalg.svd(ig.biadjacency(), compute_uv=False)
    outside = [np.ones(dropped - int((~ig.keep).sum())), np.zeros(dropped + 1 - int(ig.keep.sum()))]
    return np.sort(np.concatenate([low, *outside]))[::-1]


def resolve(bundle, s):
    """(input graph, its Jordan decomposition on T) of one input."""
    ig = build_input_graph(bundle.graph, bundle.program, s)
    return ig, jordan_decompose(ig.delta_basis, ig.delta_rank, ig.keep)


@pytest.fixture(scope="module")
def worked_parity_program():
    from advspan.spanprog import canonical_from_gram

    f = load_function("PARITY:2")
    return canonical_from_gram(f, parity_example_gram_solution())


def test_program_graph_layout(worked_parity_program):
    g = build_program_graph(worked_parity_program)
    # dimension |F0| + 1 + |I| with |I| = 2 n m = 4 at m = 1
    assert g.dim == 7 and g.b_g.shape == (2, 5)
    assert np.allclose(g.b_g[:, 0], np.ones(2) / (3 * np.sqrt(2.0)))
    assert np.allclose(g.b_g[:, 1:], worked_parity_program.matrix, atol=1e-12)
    # the thin SVD: rank |F0| = 2, orthonormal factors that rebuild B_G
    assert len(g.sigma) == 2
    assert np.abs(g.u_r.T @ g.u_r - np.eye(2)).max() <= 1e-12
    assert np.abs(g.v_r.T @ g.v_r - np.eye(2)).max() <= 1e-12
    assert np.abs((g.u_r * g.sigma) @ g.v_r.T - g.b_g).max() <= 1e-12


def test_adjacency_square_is_block_gram(worked_parity_program):
    g = build_program_graph(worked_parity_program)
    a_g = dense_adjacency(g)
    assert np.abs(a_g[:2, :2]).max() == 0.0 and np.abs(a_g[2:, 2:]).max() == 0.0
    assert np.array_equal(a_g[:2, 2:], g.b_g)
    square = a_g @ a_g
    assert np.allclose(square[:2, :2], g.b_g @ g.b_g.T)
    assert np.allclose(square[2:, 2:], g.b_g.T @ g.b_g)
    assert np.abs(square[:2, 2:]).max() <= 1e-12


def test_input_graph_matches_worked_parity_matrices(worked_parity_program):
    g = build_program_graph(worked_parity_program)
    # true input x = 10: Pi-bar selects I_{1,0} and I_{2,1}
    b_true = input_biadjacency(g, 0b10)[0]
    assert np.allclose(b_true[:2, 1:], [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]], atol=1e-12)
    assert np.allclose(b_true[2:, 1:], np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)
    assert np.allclose(b_true[:2, 0], np.ones(2) / (3 * np.sqrt(2.0)))
    assert np.abs(b_true[2:, 0]).max() == 0.0
    # false input w = 00: B' transpose carries A^T next to Pi-bar(00)
    assert np.allclose(
        input_biadjacency(g, 0b00)[1].T,
        np.hstack([worked_parity_program.matrix.T, np.diag([0.0, 1.0, 0.0, 1.0])]),
        atol=1e-12,
    )
    # the biadjacency on T and the isometry outside it give b_true's singular values
    for s in range(4):
        ig = build_input_graph(g, worked_parity_program, s)
        assert len(ig.keep) == 4 and ig.delta_rank == 2  # dim T = 2 rank(B_G)
        dense = np.linalg.svd(input_biadjacency(g, s)[0], compute_uv=False)
        assert np.abs(b_true_singular_values(g, ig) - dense).max() <= 1e-12


def test_pi_projector_zero_count(corpus):
    for bundle in corpus:
        g = bundle.graph
        for s in bundle.f.inputs:
            diag = np.diag(pi_projector(g, s))
            assert int((diag == 0.0).sum()) == bundle.f.n * bundle.program.m
            assert set(np.unique(diag)) <= {0.0, 1.0}


def test_program_graph_resolves_delta_once(corpus, solved):
    """One thin SVD of B_G resolves Delta: I - Delta = U_r U_r^T (+) V_r V_r^T.
    The dense reference, an eigh of the adjacency, is accurate to about
    eps sigma_max / sigma_min: 1.1e-12 on 00111101, where that ratio is 1e4."""
    for bundle in [*corpus, solved("00111101")]:
        g = bundle.graph
        nf0 = g.num_false
        complement = np.zeros((g.dim, g.dim))
        complement[:nf0, :nf0] = g.u_r @ g.u_r.T
        complement[nf0:, nf0:] = g.v_r @ g.v_r.T
        assert np.abs(np.eye(g.dim) - complement - dense_delta(g)).max() <= 1e-11


@pytest.mark.parametrize("spec", [*corpus_specs(), *NPN3_CANONICAL])
def test_low_rank_spectra_match_dense_oracles(solved, spec):
    """On every input, the anchor measure on T reproduces <0|U_s^T|0>, T = 1..16,
    from a Schur eigensystem of the dense U_s, and the report's effective-gap
    rows equal the sums read off an eigh of the dense A_G(s)."""
    bundle = solved(spec)
    f, g, w = bundle.f, bundle.graph, bundle.program.witness_size
    delta = dense_delta(g)
    powers = np.arange(1, 17)
    rows = bundle.report["lemma_checks"]["effective_gap"]
    for s in f.inputs:
        phases, overlaps = anchor_measure(*resolve(bundle, s))
        dense_phases, vectors = unitary_eigensystem(dense_unitary(g, s, delta))
        dense_overlaps = np.abs(vectors.conj().T @ anchor_vector(g)) ** 2
        low = np.exp(1j * np.outer(powers, phases)) @ overlaps
        dense = np.exp(1j * np.outer(powers, dense_phases)) @ dense_overlaps
        assert np.abs(low - dense).max() <= 1e-10, (spec, s)
        if f.value(s) == 0:
            label = f"{s:0{f.n}b}"
            a_gs, mu0 = input_adjacency(g, s)
            eigenvalues, eigenvectors = np.linalg.eigh(a_gs)
            mu0_weights = eigenvectors[mu0] ** 2
            mine = [row for row in rows if row["input"] == label]
            assert len(mine) == 5
            for row in mine:
                expected = mu0_weights[np.abs(eigenvalues) <= row["c"] / w].sum()
                assert row["lhs"] == pytest.approx(expected, abs=1e-12), (spec, label, row["c"])


def test_zero_witness_bound_is_relative_to_its_target(corpus):
    """Both overlap ratios are exact by construction, so each check's bound
    is 1e-9 times the ratio it expects, on false and true inputs alike."""
    for bundle in corpus:
        report = bundle.report
        expected = {row["input"]: row["expected"] for row in report["lemma_checks"]["zero_witness"]}
        bounds = {chk["name"][len("zero_witness_ratio[") : -1]: chk["bound"]
                  for chk in report["checks"] if chk["name"].startswith("zero_witness_ratio[")}
        assert bounds == {label: 1e-9 * ratio for label, ratio in expected.items()}


def test_zero_witness_constants_across_corpus(corpus):
    for bundle in corpus:
        f, prog = bundle.f, bundle.program
        w = prog.witness_size
        for s in f.inputs:
            psi, _, _ = zero_witness_vectors(prog, s)
            if f.value(s) == 1:
                assert psi[0] ** 2 == pytest.approx(9.0 * w, rel=1e-9)
                assert psi @ psi == pytest.approx(10.0 * w, rel=1e-9)
            else:
                t_hat = np.concatenate([prog.target, np.zeros(len(psi) - len(prog.target))])
                assert (t_hat @ psi) ** 2 == pytest.approx(1.0 / (9.0 * w), rel=1e-9)
                assert psi @ psi == pytest.approx(1.0 + w, rel=1e-9)


def test_zero_witness_rejects_corrupted_program(solved):
    prog = solved("PARITY:2").program
    broken = CanonicalSpanProgram(
        f=prog.f,
        m=prog.m,
        witness_size=prog.witness_size,
        vectors=prog.vectors * 1.01,  # breaks the pair sums
        matrix=prog.matrix * 1.01,
        target=prog.target,
    )
    with pytest.raises(WitnessViolationError):
        zero_witness_vectors(broken, prog.f.f1[0])


def test_reflection_unitary_is_unitary(corpus):
    for bundle in corpus[:4]:
        g = bundle.graph
        delta = dense_delta(g)
        for s in bundle.f.inputs:
            u = dense_unitary(g, s, delta)
            assert np.abs(u.T @ u - np.eye(g.dim)).max() <= 1e-9
            u_t = reflection_unitary(build_input_graph(g, bundle.program, s))
            assert np.abs(u_t.T @ u_t - np.eye(len(u_t))).max() <= 1e-12


def test_reflection_phases_come_in_pairs(solved):
    phases, _ = resolve(solved("PARITY:2"), 0b10)[1].eigen_system()
    nonreal = np.sort(phases[np.abs(np.abs(phases) - np.pi) > 1e-12])
    nonreal = nonreal[np.abs(nonreal) > 1e-12]
    assert np.allclose(nonreal, -nonreal[::-1], atol=1e-9)  # +- pairs
    assert set(np.round(phases[np.isclose(np.abs(phases), 0.0, atol=1e-12)], 12)) <= {0.0}


def test_jordan_identity_cases():
    eye = np.eye(4)
    jd = jordan_decompose(*in_pi_frame(eye, eye))
    assert not len(jd.theta)
    assert np.allclose(jd.reconstruct_unitary(), eye)
    jd2 = jordan_decompose(*in_pi_frame(np.zeros((4, 4)), eye))
    assert not len(jd2.theta)
    assert np.allclose(jd2.reconstruct_unitary(), -eye)


def test_jordan_two_lines_at_45_degrees():
    delta = np.diag([1.0, 0.0])
    direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
    pi = np.outer(direction, direction)
    jd = jordan_decompose(*in_pi_frame(delta, pi))
    assert len(jd.theta) == 1
    assert not len(jd.b)  # no 1-d directions
    assert jd.theta[0] == pytest.approx(np.pi / 2.0, abs=1e-12)
    phases, _ = jd.eigen_system()
    assert np.allclose(np.sort(phases), [-np.pi / 2.0, np.pi / 2.0])  # eigenvalues -+ i


def test_jordan_shared_projector_gives_plus_one():
    rng = np.random.default_rng(31)
    basis = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :3]
    p = basis @ basis.T
    jd = jordan_decompose(*in_pi_frame(p, p))
    assert not len(jd.theta)
    assert np.allclose(jd.reconstruct_unitary(), np.eye(6), atol=1e-9)


def test_jordan_commuting_projectors_are_one_dimensional():
    rng = np.random.default_rng(37)
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    delta = q @ np.diag([1, 1, 1, 0, 0, 0, 0, 0.0]) @ q.T
    pi = q @ np.diag([1, 0, 1, 1, 0, 0, 1, 0.0]) @ q.T
    jd = jordan_decompose(*in_pi_frame(delta, pi))
    assert not len(jd.theta)
    assert len(jd.b) == 8


def test_jordan_rejects_a_basis_that_is_not_orthonormal():
    """jordan_decompose trusts its basis; the identity-resolution check
    catches one that is off by a relative 1e-7."""
    q = np.linalg.qr(np.random.default_rng(43).standard_normal((6, 6)))[0]
    basis, rank, keep = in_pi_frame(q[:, :3] @ q[:, :3].T, np.diag([1.0, 1, 0, 1, 0, 0]))
    assert len(jordan_decompose(basis, rank, keep).theta) == 3
    with pytest.raises(DecompositionFailureError):
        jordan_decompose(basis * (1.0 + 1e-7), rank, keep)


def test_jordan_blocks_carry_rank_one_projections(corpus):
    for bundle in corpus[:3]:
        for s in bundle.f.inputs:
            ig, jd = resolve(bundle, s)
            delta = np.eye(len(ig.keep)) - ig.w @ ig.w.T
            pi = np.diag(ig.keep.astype(float))
            # Pi projects each block onto w = cos(theta/2) v + sin(theta/2) v_perp
            cos_h, sin_h = np.cos(jd.theta / 2.0), np.sin(jd.theta / 2.0)
            w, w_perp = jd.v * cos_h + jd.v_perp * sin_h, jd.v_perp * cos_h - jd.v * sin_h
            assert np.all((0.0 < jd.theta) & (jd.theta < np.pi))
            assert np.allclose(jd.theta, 2.0 * np.arccos(np.abs((jd.v * w).sum(axis=0))), atol=1e-9)
            for cols, image in ((jd.v, delta @ jd.v), (0 * jd.v_perp, delta @ jd.v_perp),
                                (w, pi @ w), (0 * w_perp, pi @ w_perp)):
                assert np.linalg.norm(image - cols, axis=0).max(initial=0.0) <= 1e-8


def test_jordan_reconstruction_matches_reflection(corpus):
    for bundle in corpus:
        for s in bundle.f.inputs:
            ig, jd = resolve(bundle, s)
            u = reflection_unitary(ig)
            assert np.linalg.norm(jd.reconstruct_unitary() - u, 2) <= 1e-8
            phases, vectors = jd.eigen_system()
            assert np.abs(vectors.conj().T @ vectors - np.eye(len(u))).max() <= 1e-8
            check = u @ vectors - vectors * np.exp(1j * phases)[None, :]
            assert np.abs(check).max() <= 1e-7


def test_true_input_fixed_vector(corpus):
    """For f(s) = 1 the kernel witness embeds into a U_s eigenvalue-one
    eigenvector with the 9/10 overlap."""
    for bundle in corpus:
        f, prog, g = bundle.f, bundle.program, bundle.graph
        for s in f.f1:
            psi, _, _ = zero_witness_vectors(prog, s)
            phi = np.concatenate([np.zeros(g.num_false), psi])
            u = dense_unitary(g, s)
            assert np.linalg.norm(u @ phi - phi) <= 1e-7 * np.linalg.norm(phi)
            ratio = psi[0] ** 2 / (phi @ phi)  # psi starts at mu0
            assert ratio >= 0.9 - 1e-6


def test_effective_gap_profile(corpus):
    for bundle in corpus:
        f, prog, g = bundle.f, bundle.program, bundle.graph
        w = prog.witness_size
        for s in f.f0:
            ig = build_input_graph(g, prog, s)
            rows = effective_gap_profile(ig, w, [0.0, 0.05, 0.1, 0.5, 1.0, 2.0])
            a_gs, mu0 = input_adjacency(g, s)
            eigenvalues, eigenvectors = np.linalg.eigh(a_gs)
            overlaps = eigenvectors[mu0] ** 2
            for c, lhs, rhs in rows:
                assert lhs <= rhs + 1e-6
                assert lhs == pytest.approx(overlaps[np.abs(eigenvalues) <= c / w].sum(), abs=1e-12)
            assert rows[0][1] <= 1e-9  # c = 0: kernel vectors are orthogonal to |0>
        with pytest.raises(WrongBranchError):
            effective_gap_profile(build_input_graph(g, prog, f.f1[0]), w, [0.1])


def test_effective_gap_full_spectrum_case(solved):
    bundle = solved("PARITY:2")
    prog, g = bundle.program, bundle.graph
    w = prog.witness_size
    ig = build_input_graph(g, prog, bundle.f.f0[0])
    big_c = w * (np.abs(np.linalg.eigvalsh(input_adjacency(g, bundle.f.f0[0])[0])).max() + 1.0)
    ((_, lhs, rhs),) = effective_gap_profile(ig, w, [big_c])
    assert lhs == pytest.approx(1.0, abs=1e-9)  # whole spectrum: full mass of |0>
    assert rhs > 1.0


def test_bipartite_spectrum_is_symmetric(corpus):
    for bundle in corpus[:6]:
        g, prog = bundle.graph, bundle.program
        for s in bundle.f.inputs:
            ev = np.linalg.eigvalsh(input_adjacency(g, s)[0])
            assert np.abs(np.sort(ev) + np.sort(-ev)[::-1]).max() <= 1e-8
            # the upper half is b_true's singular values, read off T
            low = b_true_singular_values(g, build_input_graph(g, prog, s))
            assert np.abs(np.sort(ev)[::-1][: len(low)] - low).max() <= 1e-8


def test_phase_gap_profile(corpus):
    for bundle in corpus:
        f, prog = bundle.f, bundle.program
        w = prog.witness_size
        for s in f.f0:
            phases, overlaps = anchor_measure(*resolve(bundle, s))
            grid = [0.0, 1.0 / (50.0 * w), 0.01, 0.1, 1.0, np.pi]
            rows = phase_gap_profile(phases, overlaps, w, grid, f.value(s))
            for theta, lhs, rhs in rows:
                assert lhs <= rhs + 1e-6
            assert rows[0][1] <= 1e-9  # Theta = 0: zero-phase vectors miss |0>
            assert rows[-1][1] <= 1.0 + 1e-9  # Theta = pi: completeness
        with pytest.raises(WrongBranchError):
            phase_gap_profile(*anchor_measure(*resolve(bundle, f.f1[0])), w, [0.1], 1)


def test_psd_bound_scalar_case():
    rows = psd_spectral_bound_check(np.zeros((1, 1)), np.array([1.0]), [0.0, 1.0, 2.0])
    assert rows[0][1] == 0.0  # gamma = 0: empty sum
    assert rows[1][1] == pytest.approx(1.0)  # X' = [1]: single eigenpair
    assert rows[1][2] == pytest.approx(4.0)  # delta = 1, rhs = 4 gamma
    assert rows[2][1] == pytest.approx(1.0)


def test_psd_bound_random_planted_kernels():
    rng = np.random.default_rng(41)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        kernel_dim = int(rng.integers(1, dim))
        eigvals = np.concatenate([np.zeros(kernel_dim), rng.uniform(0.2, 3.0, dim - kernel_dim)])
        x = (basis * eigvals) @ basis.T
        t = rng.standard_normal(dim)
        if np.linalg.norm(nullvec := basis[:, :kernel_dim].T @ t) < 1e-3:
            t += basis[:, 0]  # make sure the kernel sees t
        for gamma, lhs, rhs in psd_spectral_bound_check(x, t, [0.1, 0.5, 1.0, 5.0]):
            assert lhs <= rhs + 1e-6


def test_psd_bound_requires_null_witness():
    with pytest.raises(NoNullWitnessError):
        psd_spectral_bound_check(np.eye(3), np.array([1.0, 0.0, 0.0]), [1.0])


def test_gap_bound_composition(solved):
    """The graph-side route to the effective gap: X = B' B'^T plus the target
    dyad reproduces the adjacency overlap sums, and the 8 gamma^2 / delta
    bound with delta = 1/(9W(W+1)) equals 72 c^2 (1 + 1/W) identically."""
    for spec in ("PARITY:2", "OR:2"):
        bundle = solved(spec)
        f, prog, g = bundle.f, bundle.program, bundle.graph
        w = prog.witness_size
        delta_floor = 1.0 / (9.0 * w * (w + 1.0))
        for c in (0.13, 0.71):
            gamma = c / w
            assert abs(8.0 * gamma**2 / delta_floor - 72.0 * c**2 * (1.0 + 1.0 / w)) <= 1e-12 * max(
                1.0, 72.0 * c**2 * (1.0 + 1.0 / w)
            )
        for s in f.f0:
            b_true, b_false = input_biadjacency(g, s)
            x = b_false @ b_false.T
            t_hat = np.concatenate([prog.target, np.zeros(x.shape[0] - len(prog.target))])
            assert np.abs(b_true @ b_true.T - (x + np.outer(t_hat, t_hat))).max() <= 1e-12
            # kernel overlap delta realized by the false witness
            psi, _, _ = zero_witness_vectors(prog, s)
            assert (t_hat @ psi) ** 2 / (psi @ psi) == pytest.approx(delta_floor, rel=1e-9)
            # adjacency-eigenvector sum equals the biadjacency-side sum
            a_gs, mu0 = input_adjacency(g, s)
            es = eig_hermitian(a_gs)
            adj_overlaps = es.eigenvectors[mu0] ** 2
            scale = np.abs(es.eigenvalues).max()
            es_x = eig_hermitian(x + np.outer(t_hat, t_hat))
            t_overlaps = np.abs(es_x.eigenvectors.T @ t_hat) ** 2
            for gamma in (0.17 / w, 0.77 / w):
                nz = (np.abs(es.eigenvalues) > 1e-8 * scale) & (np.abs(es.eigenvalues) <= gamma)
                lhs = float(adj_overlaps[nz].sum())
                sel = (es_x.eigenvalues > 1e-8 * scale) & (es_x.eigenvalues <= gamma**2)
                via_biadjacency = float((t_overlaps[sel] / es_x.eigenvalues[sel]).sum())
                assert lhs == pytest.approx(via_biadjacency, abs=1e-7)
                assert lhs <= 8.0 * gamma**2 / delta_floor + 1e-6


def test_edge_list_roundtrip(solved):
    g = solved("PARITY:2").graph
    a_g = dense_adjacency(g)
    rebuilt = np.zeros_like(a_g)
    for r, c, wgt in edge_list(a_g):
        rebuilt[r, c] = wgt
    assert np.array_equal(rebuilt, a_g)
    # the program graph reads the same edges, in the same order, off B_G
    assert g.edges() == edge_list(a_g)


@pytest.mark.parametrize(
    "table",
    ["00000001", "00000011", "00000110", "00000111", "00010110", "00011000", "00011001", "00011110"],
)
def test_jordan_decomposes_every_input_of_hard_3bit_tables(solved, table):
    """Tables whose inputs the eigenvector classification of Delta Pi Delta
    could not split; the CS decomposition must resolve all of them."""
    for s in solved(table).f.inputs:
        ig, jd = resolve(solved(table), s)
        assert np.linalg.norm(jd.reconstruct_unitary() - reflection_unitary(ig), 2) <= 1e-8
