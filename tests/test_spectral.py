import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advspan import verify
from advspan.advsdp import build_witness_sdp, solve_sdp
from advspan.boolfun import load_function
from advspan.errors import NoNullWitnessError, WitnessViolationError, WrongBranchError
from advspan.matkernel import DEFAULT_ZERO_TOL
from advspan.spanprog import CanonicalSpanProgram, canonical_from_gram
from advspan.spectral import (
    MOMENTS,
    ProgramGraph,
    anchor_measure,
    build_input_graph,
    build_program_graph,
    edge_list,
    effective_gap_profile,
    moments,
    phase_gap_profile,
    psd_spectral_bound_check,
    rank_spread,
    walk_moments,
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
    padding_on_first_coordinate,
    pi_projector,
    unitary_eigensystem,
)
from test_spanprog import worked_parity_canonical


def two_reflections(v):
    """(graph, input graph) of U = (2 Pi - I)(I - 2 v v^T) on mu0 | I with
    n = 1, for orthonormal columns v of length 1 + 2m, at input 0: Pi keeps
    mu0 and the first m coordinates of I, and drops the last m."""
    dim, rank = v.shape
    g = ProgramGraph(n=1, m=(dim - 1) // 2, num_false=0, b_g=np.zeros((0, dim)), sigma=np.ones(rank),
                     v=v, rank=rank, near_ranks=())
    return g, build_input_graph(g, SimpleNamespace(f=SimpleNamespace(table=(0, 0)))).select([0])


def measure_of(g, ig):
    """anchor_measure(ig) of the first input as {rounded phase: total weight},
    after checking its moments against the matrix-free walk."""
    phases, weights = (row[0] for row in anchor_measure(ig))
    assert np.abs(moments(phases, weights) - walk_moments(g)[0]).max() <= 1e-12
    out: dict[float, float] = {}
    for phase, weight in zip(np.round(np.abs(phases), 12), weights):
        out[phase] = out.get(phase, 0.0) + weight
    return {phase: weight for phase, weight in out.items() if weight > 1e-12}


def reconstruction(g, ig) -> np.ndarray:
    """The report's jordan_reconstruction values, one per input of the stack:
    the closed-form moments against those of the walk on g."""
    return np.abs(moments(*anchor_measure(ig)) - walk_moments(g)[ig.inputs]).max(axis=1)


def b_true_singular_values(g, ig, s) -> np.ndarray:
    """b_true's singular values on input s, descending, from its restriction to
    T: outside T, b_true is an isometry on the dropped coordinates and zero on
    the kept ones."""
    dropped = g.n * g.m
    low = np.linalg.svd(ig.biadjacency()[s], compute_uv=False)
    outside = [np.ones(dropped - int((~ig.keep).sum())), np.zeros(dropped + 1 - int(ig.keep.sum()))]
    return np.sort(np.concatenate([low, *outside]))[::-1]


def resolve(bundle):
    """The input graphs of every input, stacked."""
    return build_input_graph(bundle.graph, bundle.program)


def rebuilt_u_r(g) -> np.ndarray:
    """U_r = B_G V_r diag(sigma)^-1, the left singular vectors of the cut."""
    return g.b_g @ g.v_r / g.sigma[: g.rank]


@pytest.fixture(scope="module")
def worked_parity_program():
    return worked_parity_canonical()


def test_program_graph_layout(worked_parity_program):
    g = build_program_graph(worked_parity_program)
    # dimension |F0| + 1 + |I| with |I| = 2 n m = 4 at m = 1
    assert g.dim == 7 and g.b_g.shape == (2, 5)
    assert np.allclose(g.b_g[:, 0], np.ones(2) / (3 * np.sqrt(2.0)))
    assert np.allclose(g.b_g[:, 1:], worked_parity_program.matrix, atol=1e-12)
    # the thin SVD: rank |F0| = 2, far from the cut, orthonormal factors that rebuild B_G
    assert g.rank == len(g.sigma) == 2 and g.near_ranks == ()
    u_r = rebuilt_u_r(g)
    assert np.abs(u_r.T @ u_r - np.eye(2)).max() <= 1e-12
    assert np.abs(g.v_r.T @ g.v_r - np.eye(2)).max() <= 1e-12
    assert np.abs((u_r * g.sigma) @ g.v_r.T - g.b_g).max() <= 1e-12


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
    ig = build_input_graph(g, worked_parity_program)
    assert ig.w.shape == (4, 4, 2)  # dim T = 2 rank(B_G) on each of the 4 inputs
    for s in range(4):
        dense = np.linalg.svd(input_biadjacency(g, s)[0], compute_uv=False)
        assert np.abs(b_true_singular_values(g, ig, s) - dense).max() <= 1e-12


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
        u_r = rebuilt_u_r(g)
        complement[:nf0, :nf0] = u_r @ u_r.T
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
    powers = np.arange(1, MOMENTS + 1)
    rows = bundle.report["lemma_checks"]["effective_gap"]
    measure = anchor_measure(resolve(bundle))
    for s in f.inputs:
        phases, overlaps = measure[0][s], measure[1][s]
        dense_phases, vectors = unitary_eigensystem(dense_unitary(g, s, delta))
        dense_overlaps = np.abs(vectors.conj().T @ anchor_vector(g)) ** 2
        low = moments(phases, overlaps)
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
        psi_false, psi_true = zero_witness_vectors(prog)[0]
        for s, psi in [*zip(f.f1, psi_true), *zip(f.f0, psi_false)]:
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
        orbit=prog.orbit,
    )
    # every input fails; the error names the first in input order, a false one
    with pytest.raises(WitnessViolationError, match="false witness for input 00:"):
        zero_witness_vectors(broken)


def test_reflection_unitary_is_unitary(corpus):
    for bundle in corpus[:4]:
        g = bundle.graph
        delta = dense_delta(g)
        for s in bundle.f.inputs:
            u = dense_unitary(g, s, delta)
            assert np.abs(u.T @ u - np.eye(g.dim)).max() <= 1e-9


def test_reflection_phases_come_in_pairs(solved):
    """The dense U_s has its non-real phases in +- pairs, and every phase the
    closed form puts weight on is one of them."""
    bundle = solved("PARITY:2")
    phases, _ = unitary_eigensystem(dense_unitary(bundle.graph, 0b10))
    nonreal = np.sort(phases[np.abs(np.abs(phases) - np.pi) > 1e-12])
    nonreal = nonreal[np.abs(nonreal) > 1e-12]
    assert np.allclose(nonreal, -nonreal[::-1], atol=1e-9)  # +- pairs
    assert set(np.round(phases[np.isclose(np.abs(phases), 0.0, atol=1e-12)], 12)) <= {0.0}
    closed, weights = (row[0b10] for row in anchor_measure(resolve(bundle)))
    for phase in closed[weights > 1e-12]:
        assert np.abs(np.exp(1j * phases) - np.exp(1j * phase)).min() <= 1e-9


# non-constant truth tables of 1 to 3 bits, as bitstrings
SMALL_TABLES = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 2 ** 2**n - 2).map(lambda code: format(code, f"0{2**n}b")))


def graphs_of(table: str):
    """(program graph, input graphs of every input) of a table's canonical program."""
    f = load_function(table)
    program = canonical_from_gram(f, solve_sdp(build_witness_sdp(f)))
    g = build_program_graph(program)
    return g, build_input_graph(g, program)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(SMALL_TABLES)
def test_anchor_measure_is_a_probability_measure(table):
    """On any non-constant table with n <= 3, the anchor's measure has
    nonnegative weights summing to 1 on every input: |0> is a unit vector."""
    _, ig = graphs_of(table)
    weights = anchor_measure(ig)[1]
    assert weights.min() >= 0.0
    assert np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-12


def measure_distance(a, b, gap: float = 1e-3) -> float:
    """The largest difference between the weights two measures (phases,
    weights) on the circle put on a cluster of atoms: sorted, atoms of
    either measure closer than gap join one cluster."""
    phases = np.angle(np.exp(1j * np.concatenate([a[0], b[0]])))
    order = np.argsort(phases)
    label = np.cumsum(np.diff(phases[order], prepend=phases[order[0]]) > gap)
    if phases[order[0]] + 2.0 * np.pi - phases[order[-1]] <= gap:
        label[label == label[-1]] = 0  # the cluster across -pi = pi
    return float(np.abs(np.bincount(label, weights=np.concatenate([a[1], -b[1]])[order])).max())


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(SMALL_TABLES)
def test_anchor_measure_equals_the_dense_spectral_measure(table):
    """On any non-constant table with n <= 3, the closed-form measure equals
    the weights |<e_k|0>|^2 on the phases of a Schur eigensystem of the
    dense U_s, to 1e-10 on every cluster of atoms.  Atoms closer than 1e-3
    form one cluster: SDP noise splits U_s's eigenvalue -1 into phases
    within 2e-4 of pi (00000001), and inside such a cluster the dense
    Schur vectors share out the weight differently, by up to 3e-8; over
    all 270 tables with n <= 3 no cluster differs by more than 1.1e-12."""
    g, ig = graphs_of(table)
    delta, anchor = dense_delta(g), anchor_vector(g)
    closed_phases, closed_weights = anchor_measure(ig)
    for s in range(len(closed_phases)):
        phases, vectors = unitary_eigensystem(dense_unitary(g, s, delta))
        dense = phases, np.abs(vectors.conj().T @ anchor) ** 2
        assert measure_distance(dense, (closed_phases[s], closed_weights[s])) <= 1e-10, (table, s)


def test_jordan_identity_cases():
    """Delta = I (V_r empty): U = 2 Pi - I fixes |0>.  Delta = 0 (V_r = I):
    U = -(2 Pi - I) negates it."""
    assert measure_of(*two_reflections(np.zeros((5, 0)))) == pytest.approx({0.0: 1.0})
    assert measure_of(*two_reflections(np.eye(5))) == pytest.approx({round(np.pi, 12): 1.0})


def test_jordan_two_lines_at_45_degrees():
    """range(I - Delta) is the line through mu0 and a dropped coordinate, at
    45 degrees to range(Pi): U turns by -+pi/2, and U^2 |0> = -|0>."""
    g, ig = two_reflections(np.array([[1.0], [0.0], [1.0]]) / np.sqrt(2.0))
    assert ig.cosines[0] == pytest.approx([np.sqrt(0.5)], abs=1e-15)
    assert measure_of(g, ig) == pytest.approx({round(np.pi / 2.0, 12): 1.0})
    assert walk_moments(g)[0, :2] == pytest.approx([0.0, -1.0], abs=1e-15)


def test_jordan_shared_projector_gives_plus_one():
    """Delta = Pi: V_r spans the dropped coordinates, every cosine is 0, and
    U fixes |0> at every power."""
    v = np.zeros((7, 3))
    v[4:] = np.linalg.qr(np.random.default_rng(31).standard_normal((3, 3)))[0]
    g, ig = two_reflections(v)
    assert np.abs(ig.cosines).max() <= 1e-15
    assert measure_of(g, ig) == pytest.approx({0.0: 1.0})
    assert walk_moments(g)[0] == pytest.approx(np.ones(MOMENTS), abs=1e-15)


def test_jordan_commuting_projectors_are_one_dimensional():
    """V_r spans two kept directions (one through mu0) and one dropped one,
    so Delta and Pi commute: every cosine is 0 or 1, and |0> sits at phase pi
    with its weight in range(I - Delta), at 0 with the rest."""
    rng = np.random.default_rng(37)
    v = np.zeros((9, 3))
    v[:5, :2] = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    v[7, 2] = 1.0
    g, ig = two_reflections(v)
    assert np.minimum(np.abs(ig.cosines), np.abs(ig.cosines - 1.0)).max() <= 1e-12
    inside = float(v[0] @ v[0])
    assert measure_of(g, ig) == pytest.approx({round(np.pi, 12): inside, 0.0: 1.0 - inside})


def test_jordan_rejects_a_basis_that_is_not_orthonormal(solved):
    """jordan_reconstruction fails loudly on every input when the walk's V_r is
    off by a relative 1e-7 or misses its first column."""
    for spec in ("MAJ:3", "MAJ:4", "00111101"):
        bundle = solved(spec)
        g = bundle.graph
        for bad in (dataclasses.replace(g, v=g.v * (1.0 + 1e-7)),
                    dataclasses.replace(g, v=g.v[:, 1:], rank=g.rank - 1)):
            assert reconstruction(bad, resolve(bundle)).min() > 1e-8, spec


def test_jordan_blocks_carry_rank_one_projections(corpus):
    """Pi (I - Delta) Pi = sum_k c_k^2 |k><k| over the kept T coordinates, and
    the dropped ones diagonalize (I - Pi)(I - Delta)(I - Pi) too."""
    for bundle in corpus[:3]:
        ig = resolve(bundle)
        for s in bundle.f.inputs:
            kept, dropped = ig.w[s][ig.keep], ig.w[s][~ig.keep]
            assert np.abs(kept @ kept.T - np.diag(ig.cosines[s] ** 2)).max() <= 1e-12
            gram = dropped @ dropped.T
            assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12


def test_jordan_reconstruction_matches_reflection(corpus):
    """The closed-form moments match U_s applied to |0> on every input, and
    the measure is a probability measure."""
    for bundle in corpus:
        ig = resolve(bundle)
        assert reconstruction(bundle.graph, ig).max() <= 1e-12
        weights = anchor_measure(ig)[1]
        assert weights.min() >= 0.0 and weights.sum(axis=1) == pytest.approx(np.ones(len(weights)), abs=1e-12)


def test_true_input_fixed_vector(corpus):
    """For f(s) = 1 the kernel witness embeds into a U_s eigenvalue-one
    eigenvector with the 9/10 overlap."""
    for bundle in corpus:
        f, prog, g = bundle.f, bundle.program, bundle.graph
        for s, psi in zip(f.f1, zero_witness_vectors(prog)[0][1]):
            phi = np.concatenate([np.zeros(g.num_false), psi])
            u = dense_unitary(g, s)
            assert np.linalg.norm(u @ phi - phi) <= 1e-7 * np.linalg.norm(phi)
            ratio = psi[0] ** 2 / (phi @ phi)  # psi starts at mu0
            assert ratio >= 0.9 - 1e-6


def test_effective_gap_profile(corpus):
    for bundle in corpus:
        f, prog, g = bundle.f, bundle.program, bundle.graph
        w = prog.witness_size
        ig = build_input_graph(g, prog)
        grid = [0.0, 0.05, 0.1, 0.5, 1.0, 2.0]
        lhs, rhs = effective_gap_profile(ig.select(list(f.f0)), w, grid)
        assert lhs.shape == (len(f.f0), len(grid)) and (lhs <= rhs + 1e-6).all()
        assert lhs[:, 0].max() <= 1e-9  # c = 0: kernel vectors are orthogonal to |0>
        for i, s in enumerate(f.f0):
            a_gs, mu0 = input_adjacency(g, s)
            eigenvalues, eigenvectors = np.linalg.eigh(a_gs)
            overlaps = eigenvectors[mu0] ** 2
            for c, value in zip(grid, lhs[i]):
                assert value == pytest.approx(overlaps[np.abs(eigenvalues) <= c / w].sum(), abs=1e-12)
        with pytest.raises(WrongBranchError):
            effective_gap_profile(ig.select([*f.f0, f.f1[0]]), w, [0.1])


def test_effective_gap_full_spectrum_case(solved):
    bundle = solved("PARITY:2")
    prog, g = bundle.program, bundle.graph
    w = prog.witness_size
    ig = build_input_graph(g, prog).select([bundle.f.f0[0]])
    big_c = w * (np.abs(np.linalg.eigvalsh(input_adjacency(g, bundle.f.f0[0])[0])).max() + 1.0)
    (lhs,), (rhs,) = effective_gap_profile(ig, w, [big_c])
    assert lhs == pytest.approx([1.0], abs=1e-9)  # whole spectrum: full mass of |0>
    assert rhs > 1.0


def test_bipartite_spectrum_is_symmetric(corpus):
    for bundle in corpus[:6]:
        g, prog = bundle.graph, bundle.program
        ig = build_input_graph(g, prog)
        for s in bundle.f.inputs:
            ev = np.linalg.eigvalsh(input_adjacency(g, s)[0])
            assert np.abs(np.sort(ev) + np.sort(-ev)[::-1]).max() <= 1e-8
            # the upper half is b_true's singular values, read off T
            low = b_true_singular_values(g, ig, s)
            assert np.abs(np.sort(ev)[::-1][: len(low)] - low).max() <= 1e-8


def test_phase_gap_profile(corpus):
    for bundle in corpus:
        f, prog = bundle.f, bundle.program
        w = prog.witness_size
        phases, overlaps = anchor_measure(resolve(bundle))
        values = np.array(f.table)
        f0 = list(f.f0)
        grid = [0.0, 1.0 / (50.0 * w), 0.01, 0.1, 1.0, np.pi]
        lhs, rhs = phase_gap_profile(phases[f0], overlaps[f0], w, grid, values[f0])
        assert lhs.shape == (len(f0), len(grid)) and (lhs <= rhs + 1e-6).all()
        assert lhs[:, 0].max() <= 1e-9  # Theta = 0: zero-phase vectors miss |0>
        assert lhs[:, -1].max() <= 1.0 + 1e-9  # Theta = pi: completeness
        with pytest.raises(WrongBranchError):
            phase_gap_profile(phases, overlaps, w, [0.1], values)


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
        for s, psi in zip(f.f0, zero_witness_vectors(prog)[0][0]):
            b_true, b_false = input_biadjacency(g, s)
            x = b_false @ b_false.T
            t_hat = np.concatenate([prog.target, np.zeros(x.shape[0] - len(prog.target))])
            assert np.abs(b_true @ b_true.T - (x + np.outer(t_hat, t_hat))).max() <= 1e-12
            # kernel overlap delta realized by the false witness
            assert (t_hat @ psi) ** 2 / (psi @ psi) == pytest.approx(delta_floor, rel=1e-9)
            # adjacency-eigenvector sum equals the biadjacency-side sum
            a_gs, mu0 = input_adjacency(g, s)
            lam, vec = np.linalg.eigh(a_gs)
            adj_overlaps = vec[mu0] ** 2
            scale = np.abs(lam).max()
            lam_x, vec_x = np.linalg.eigh(x + np.outer(t_hat, t_hat))
            t_overlaps = np.abs(vec_x.T @ t_hat) ** 2
            for gamma in (0.17 / w, 0.77 / w):
                nz = (np.abs(lam) > 1e-8 * scale) & (np.abs(lam) <= gamma)
                lhs = float(adj_overlaps[nz].sum())
                sel = (lam_x > 1e-8 * scale) & (lam_x <= gamma**2)
                via_biadjacency = float((t_overlaps[sel] / lam_x[sel]).sum())
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
    """Tables whose inputs put Jordan angles at or near 0 and pi/2, where
    the CS layout of earlier versions split them: the closed form matches
    the walk on every input well inside the report's 1e-8 bound."""
    bundle = solved(table)
    assert reconstruction(bundle.graph, resolve(bundle)).max() <= 1e-12


def test_rank_cut_rows_only_where_the_cut_is_ambiguous(solved, monkeypatch):
    """No rounded canonical program has a singular value of B_G within
    RANK_WINDOW of the cut, so the corpus and the 13 NPN classes report no
    rank_cut row.  Moving two singular values (real, near 5e-4) of
    00000011's program, its padding on coordinate 0 alone, to 1.28 and 0.90
    times the cut makes it ambiguous: ranks 4 and 6 are resolved beside 5,
    and they agree, so verify reports one passing rank_cut row per input;
    ranks 3 and 4 span a real singular value and do not agree.  (Moved the
    same way, the program with its padding spread over the coordinates has
    ranks 4 and 6 differing by 2.6e-7 to 1.4e-6; the fixture only needs some
    program with an ambiguous cut.)"""
    for spec in [*corpus_specs(), *NPN3_CANONICAL]:
        bundle = solved(spec)
        assert bundle.graph.near_ranks == ()
        assert not any(chk["name"].startswith("rank_cut[") for chk in bundle.report["checks"])
    bundle = solved("00000011")
    p = padding_on_first_coordinate(bundle.program, bundle.solution)
    u, sigma, vh = np.linalg.svd(np.hstack([p.target[:, None], p.matrix]), full_matrices=False)
    cut = DEFAULT_ZERO_TOL * max(1.0, sigma[0])
    sigma[-2:] = (1.28 * cut, 0.90 * cut)
    moved = (u * sigma) @ vh
    q = dataclasses.replace(p, target=moved[:, 0], matrix=moved[:, 1:])
    g = build_program_graph(q)
    assert (g.rank, g.near_ranks) == (5, (4, 6))
    assert rank_spread(g, q, (3, 4)).min() > 1e-8
    # the input graphs read only the program graph, so verify on 00000011 with
    # this graph in place of its own reports the rows the moved program gets
    monkeypatch.setattr("advspan.spectral.build_program_graph", lambda program: g)
    report = verify("00000011").report
    rows = [chk for chk in report["checks"] if chk["name"].startswith("rank_cut[")]
    assert [chk["name"] for chk in rows] == [f"rank_cut[{s:03b}]" for s in q.f.inputs]
    assert all(chk["pass"] and chk["bound"] == 1e-8 for chk in rows)
