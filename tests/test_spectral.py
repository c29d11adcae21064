import numpy as np
import pytest

from advspan.boolfun import load_function
from advspan.errors import (
    NoNullWitnessError,
    WitnessViolationError,
    WrongBranchError,
)
from advspan.matkernel import eig_hermitian
from advspan.spanprog import CanonicalSpanProgram
from advspan.spectral import (
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

from test_spanprog import parity_example_gram_solution


@pytest.fixture(scope="module")
def worked_parity_program():
    from advspan.spanprog import canonical_from_gram

    f = load_function("PARITY:2")
    return canonical_from_gram(f, parity_example_gram_solution())


def test_program_graph_layout(worked_parity_program):
    g = build_program_graph(worked_parity_program)
    # dimension |F0| + 1 + |I| with |I| = 2 n m = 4 at m = 1
    assert g.a_g.shape == (7, 7)
    assert np.allclose(g.b_g[:, 0], np.ones(2) / (3 * np.sqrt(2.0)))
    assert np.allclose(g.b_g[:, 1:], worked_parity_program.matrix, atol=1e-12)
    # adjacency blocks: zero diagonal blocks, B_G off-diagonal
    assert np.abs(g.a_g[:2, :2]).max() == 0.0
    assert np.abs(g.a_g[2:, 2:]).max() == 0.0
    assert np.array_equal(g.a_g[:2, 2:], g.b_g)


def test_adjacency_square_is_block_gram(worked_parity_program):
    g = build_program_graph(worked_parity_program)
    square = g.a_g @ g.a_g
    assert np.allclose(square[:2, :2], g.b_g @ g.b_g.T)
    assert np.allclose(square[2:, 2:], g.b_g.T @ g.b_g)
    assert np.abs(square[:2, 2:]).max() <= 1e-12


def test_input_graph_matches_worked_parity_matrices(worked_parity_program):
    g = build_program_graph(worked_parity_program)
    # true input x = 10: Pi-bar selects I_{1,0} and I_{2,1}
    ig = build_input_graph(g, worked_parity_program, 0b10)
    assert np.allclose(ig.b_true[:2, 1:], [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0]], atol=1e-12)
    assert np.allclose(ig.b_true[2:, 1:], np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)
    assert np.allclose(ig.b_true[:2, 0], np.ones(2) / (3 * np.sqrt(2.0)))
    assert np.abs(ig.b_true[2:, 0]).max() == 0.0
    # false input w = 00: B' transpose carries A^T next to Pi-bar(00)
    ig0 = build_input_graph(g, worked_parity_program, 0b00)
    assert np.allclose(
        ig0.b_false.T,
        np.hstack([worked_parity_program.matrix.T, np.diag([0.0, 1.0, 0.0, 1.0])]),
        atol=1e-12,
    )


def test_pi_projector_zero_count(corpus):
    for bundle in corpus:
        g = bundle.graph
        for s in bundle.f.inputs:
            diag = np.diag(g.pi_projector(s))
            assert int((diag == 0.0).sum()) == bundle.f.n * bundle.program.m
            assert set(np.unique(diag)) <= {0.0, 1.0}


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
        for s in bundle.f.inputs:
            u = reflection_unitary(g, s)
            assert np.abs(u.T @ u - np.eye(g.dim)).max() <= 1e-9


def test_reflection_phases_come_in_pairs(solved):
    bundle = solved("PARITY:2")
    g = bundle.graph
    jd = jordan_decompose(g.delta, g.pi_projector(0b10))
    phases, _ = jd.eigen_system()
    nonreal = np.sort(phases[np.abs(np.abs(phases) - np.pi) > 1e-12])
    nonreal = nonreal[np.abs(nonreal) > 1e-12]
    assert np.allclose(nonreal, -nonreal[::-1], atol=1e-9)  # +- pairs
    assert set(np.round(phases[np.isclose(np.abs(phases), 0.0, atol=1e-12)], 12)) <= {0.0}


def test_jordan_identity_cases():
    eye = np.eye(4)
    jd = jordan_decompose(eye, eye)
    assert not jd.two_dim
    assert np.allclose(jd.reconstruct_unitary(), eye)
    jd2 = jordan_decompose(np.zeros((4, 4)), eye)
    assert not jd2.two_dim
    assert np.allclose(jd2.reconstruct_unitary(), -eye)


def test_jordan_two_lines_at_45_degrees():
    delta = np.diag([1.0, 0.0])
    direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
    pi = np.outer(direction, direction)
    jd = jordan_decompose(delta, pi)
    assert len(jd.two_dim) == 1
    assert not jd.one_dim
    assert jd.two_dim[0].theta == pytest.approx(np.pi / 2.0, abs=1e-12)
    phases, _ = jd.eigen_system()
    assert np.allclose(np.sort(phases), [-np.pi / 2.0, np.pi / 2.0])  # eigenvalues -+ i


def test_jordan_shared_projector_gives_plus_one():
    rng = np.random.default_rng(31)
    basis = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :3]
    p = basis @ basis.T
    jd = jordan_decompose(p, p)
    assert not jd.two_dim
    assert np.allclose(jd.reconstruct_unitary(), np.eye(6), atol=1e-9)


def test_jordan_commuting_projectors_are_one_dimensional():
    rng = np.random.default_rng(37)
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    delta = q @ np.diag([1, 1, 1, 0, 0, 0, 0, 0.0]) @ q.T
    pi = q @ np.diag([1, 0, 1, 1, 0, 0, 1, 0.0]) @ q.T
    jd = jordan_decompose(delta, pi)
    assert not jd.two_dim
    assert len(jd.one_dim) == 8


def test_jordan_blocks_carry_rank_one_projections(corpus):
    for bundle in corpus[:3]:
        g = bundle.graph
        for s in bundle.f.inputs:
            pi = g.pi_projector(s)
            jd = jordan_decompose(g.delta, pi)
            for blk in jd.two_dim:
                assert 0.0 < blk.theta < np.pi
                assert blk.theta == pytest.approx(
                    2.0 * np.arccos(abs(blk.v @ blk.w)), abs=1e-9
                )
                assert np.linalg.norm(g.delta @ blk.v - blk.v) <= 1e-8
                assert np.linalg.norm(g.delta @ blk.v_perp) <= 1e-8
                assert np.linalg.norm(pi @ blk.w - blk.w) <= 1e-8
                assert np.linalg.norm(pi @ blk.w_perp) <= 1e-8


def test_jordan_reconstruction_matches_reflection(corpus):
    for bundle in corpus:
        g = bundle.graph
        for s in bundle.f.inputs:
            jd = jordan_decompose(g.delta, g.pi_projector(s))
            u = reflection_unitary(g, s)
            assert np.abs(jd.reconstruct_unitary() - u).max() <= 1e-8
            phases, vectors = jd.eigen_system()
            assert np.abs(vectors.conj().T @ vectors - np.eye(g.dim)).max() <= 1e-8
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
            u = reflection_unitary(g, s)
            assert np.linalg.norm(u @ phi - phi) <= 1e-7 * np.linalg.norm(phi)
            ratio = phi[g.mu0_index] ** 2 / (phi @ phi)
            assert ratio >= 0.9 - 1e-6


def test_effective_gap_profile(corpus):
    for bundle in corpus:
        f, prog, g = bundle.f, bundle.program, bundle.graph
        w = prog.witness_size
        for s in f.f0:
            ig = build_input_graph(g, prog, s)
            rows = effective_gap_profile(ig, w, [0.0, 0.05, 0.1, 0.5, 1.0, 2.0])
            eigenvalues, eigenvectors = np.linalg.eigh(ig.a_gs)
            overlaps = eigenvectors[ig.mu0_index] ** 2
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
    big_c = w * (np.abs(np.linalg.eigvalsh(ig.a_gs)).max() + 1.0)
    ((_, lhs, rhs),) = effective_gap_profile(ig, w, [big_c])
    assert lhs == pytest.approx(1.0, abs=1e-9)  # whole spectrum: full mass of |0>
    assert rhs > 1.0


def test_bipartite_spectrum_is_symmetric(corpus):
    for bundle in corpus[:6]:
        g, prog = bundle.graph, bundle.program
        for s in bundle.f.inputs:
            ig = build_input_graph(g, prog, s)
            ev = np.linalg.eigvalsh(ig.a_gs)
            assert np.abs(np.sort(ev) + np.sort(-ev)[::-1]).max() <= 1e-8


def test_phase_gap_profile(corpus):
    for bundle in corpus:
        f, prog, g = bundle.f, bundle.program, bundle.graph
        w = prog.witness_size
        anchor = g.mu0_vector()
        for s in f.f0:
            jd = jordan_decompose(g.delta, g.pi_projector(s))
            grid = [0.0, 1.0 / (50.0 * w), 0.01, 0.1, 1.0, np.pi]
            rows = phase_gap_profile(jd, w, grid, anchor, f.value(s))
            for theta, lhs, rhs in rows:
                assert lhs <= rhs + 1e-6
            assert rows[0][1] <= 1e-9  # Theta = 0: zero-phase vectors miss |0>
            assert rows[-1][1] <= 1.0 + 1e-9  # Theta = pi: completeness
        jd_true = jordan_decompose(g.delta, g.pi_projector(f.f1[0]))
        with pytest.raises(WrongBranchError):
            phase_gap_profile(jd_true, w, [0.1], anchor, 1)


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
            ig = build_input_graph(g, prog, s)
            x = ig.b_false @ ig.b_false.T
            t_hat = np.concatenate([prog.target, np.zeros(x.shape[0] - len(prog.target))])
            assert np.abs(ig.b_true @ ig.b_true.T - (x + np.outer(t_hat, t_hat))).max() <= 1e-12
            # kernel overlap delta realized by the false witness
            psi, _, _ = zero_witness_vectors(prog, s)
            assert (t_hat @ psi) ** 2 / (psi @ psi) == pytest.approx(delta_floor, rel=1e-9)
            # adjacency-eigenvector sum equals the biadjacency-side sum
            es = eig_hermitian(ig.a_gs)
            adj_overlaps = es.eigenvectors[ig.mu0_index] ** 2
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
    edges = edge_list(g.a_g)
    rebuilt = np.zeros_like(g.a_g)
    for r, c, wgt in edges:
        rebuilt[r, c] = wgt
    assert np.array_equal(rebuilt, g.a_g)


@pytest.mark.parametrize(
    "table",
    ["00000001", "00000011", "00000110", "00000111", "00010110", "00011000", "00011001", "00011110"],
)
def test_jordan_decomposes_every_input_of_hard_3bit_tables(solved, table):
    """Tables whose inputs the eigenvector classification of Delta Pi Delta
    could not split; the CS decomposition must resolve all of them."""
    g = solved(table).graph
    for s in solved(table).f.inputs:
        jd = jordan_decompose(g.delta, g.pi_projector(s))
        assert np.abs(jd.reconstruct_unitary() - reflection_unitary(g, s)).max() <= 1e-8
