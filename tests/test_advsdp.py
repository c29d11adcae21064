import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from advspan import advsdp
from advspan.advsdp import (
    DEFAULT_TOL,
    adversary_ratio,
    build_witness_sdp,
    extract_certificate,
    round_factor,
    schur_complement,
    solve_sdp,
)
from advspan import verify
from advspan.boolfun import difference_matrix, element_maps, load_function
from advspan.pipeline import ADV_RTOL
from advspan.errors import BadSpecError, CheckError, NoConvergenceError

from advspan.matkernel import gram_factor

from conftest import (
    automorphisms, corpus_specs, dense_constraints, full_schur_complement, gram_blocks, group_order, random_tables,
    reference_pair_normal, reference_solve_sdp, tables_up_to_three_bits, unreduced,
)


def test_build_dimensions_parity2():
    sdp = build_witness_sdp(load_function("PARITY:2"))
    assert (sdp.n, sdp.num_inputs) == (2, 4)  # two Gram blocks of side 4
    assert len(sdp.pairs) == 4  # |F0| * |F1| = 2 * 2
    assert dense_constraints(sdp).shape[0] == 4 + 4  # equalities + one row bound per input


def test_build_dimensions_or2_and_identity():
    or2 = build_witness_sdp(load_function("OR:2"))
    assert (or2.n, or2.num_inputs) == (2, 4)
    assert len(or2.pairs) == 3  # |F0| = 1, |F1| = 3
    ident = build_witness_sdp(load_function("01"))  # AND:1 = identity on one bit
    assert (ident.n, ident.num_inputs) == (1, 2)
    assert len(ident.pairs) == 1


def test_build_rejects_constant():
    with pytest.raises(BadSpecError, match="undefined for constant functions"):
        build_witness_sdp(load_function("0000"))


def test_solve_rejects_too_small_tol(solved):
    with pytest.raises(BadSpecError, match="tol must be finite and at least"):
        solve_sdp(solved("PARITY:2").sdp, tol=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_solve_rejects_tol_that_is_not_finite_or_is_below_the_floor(solved, tol):
    with pytest.raises(BadSpecError, match="tol must be finite and at least"):
        solve_sdp(solved("PARITY:2").sdp, tol=tol)


def test_parity2_value(solved):
    assert solved("PARITY:2").solution.xi == pytest.approx(2.0, abs=1e-4)


def identity_rank_one_oracle():
    """Brute force over rank-one X for the 1-bit identity: X = v v^T with
    v = (a, 1/a) forced by the pair constraint; minimize max(a^2, 1/a^2)."""
    grid = np.linspace(0.5, 2.0, 300001)
    return float(np.maximum(grid**2, grid**-2).min())


def test_identity_value_against_rank_one_oracle(solved):
    xi = solved("01").solution.xi
    assert xi == pytest.approx(identity_rank_one_oracle(), abs=1e-4)
    assert xi == pytest.approx(1.0, abs=1e-4)


def or2_dual_grid_oracle():
    """Max adversary ratio over the two-parameter family Gamma[00,01] =
    Gamma[00,10] = a, Gamma[00,11] = b (the symmetric family for OR_2)."""
    f = load_function("OR:2")
    best = 0.0
    for a, b in itertools.product(np.linspace(0.0, 1.0, 101), repeat=2):
        if a == 0.0 and b == 0.0:
            continue
        g = np.zeros((4, 4))
        g[0b00, 0b01] = g[0b01, 0b00] = a
        g[0b00, 0b10] = g[0b10, 0b00] = a
        g[0b00, 0b11] = g[0b11, 0b00] = b
        denom = 0.0
        for i in (1, 2):
            mask = np.array(
                [[float(f.bit(x, i) != f.bit(y, i)) for y in range(4)] for x in range(4)]
            )
            denom = max(denom, np.linalg.norm(g * mask, 2))
        best = max(best, np.linalg.norm(g, 2) / denom)
    return best


def test_or2_value_against_grid_oracle(solved):
    oracle = or2_dual_grid_oracle()
    assert oracle == pytest.approx(np.sqrt(2.0), abs=1e-3)
    assert solved("OR:2").solution.xi == pytest.approx(np.sqrt(2.0), abs=1e-3)


def parity_symmetric_family_oracle(n):
    """Grid search over Gamma weighted by Hamming distance (odd distances
    only), an independent lower-bound oracle for ADV(PARITY:n)."""
    dim = 2**n
    dist = np.array([[bin(x ^ y).count("1") for y in range(dim)] for x in range(dim)])
    layers = [np.where(dist == d, 1.0, 0.0) for d in range(1, n + 1, 2)]
    weights_grid = (
        np.linspace(-2, 2, 161) if len(layers) > 1 else np.array([0.0])
    )
    best = 0.0
    for w in weights_grid:
        g = layers[0] + (w * layers[1] if len(layers) > 1 else 0.0)
        denom = 0.0
        for i in range(n):
            mask = np.array(
                [[float(((x >> i) & 1) != ((y >> i) & 1)) for y in range(dim)] for x in range(dim)]
            )
            denom = max(denom, np.linalg.norm(g * mask, 2))
        best = max(best, np.linalg.norm(g, 2) / denom)
    return best


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parity_adv_matches_symmetric_oracle(solved, n):
    oracle = parity_symmetric_family_oracle(n)
    assert oracle == pytest.approx(float(n), abs=1e-2)
    xi = solved(f"PARITY:{n}").solution.xi
    assert xi == pytest.approx(float(n), abs=1e-2)
    assert oracle <= xi + 1e-4  # the family max is a lower bound on the SDP value


def test_solution_residual_invariants(corpus):
    for bundle in corpus:
        sol = bundle.solution
        res = sol.residuals
        assert res["primal_equality"] <= 1e-6
        assert res["min_eigenvalue"] >= -1e-7
        assert res["row_sum_violation"] <= 1e-6
        assert abs(res["beta_sum"] - 1.0) <= 1e-6
        row_sums = gram_blocks(sol.sdp, sol.class_blocks).diagonal(axis1=1, axis2=2).sum(axis=0)
        assert np.all(row_sums <= sol.xi + 1e-6)


def test_certificate_values(solved):
    parity = solved("PARITY:2")
    assert parity.certificate.value == pytest.approx(2.0, abs=1e-3)
    or2 = solved("OR:2")  # exercises the dropped-beta path (input 11 has slack)
    assert or2.certificate.value == pytest.approx(np.sqrt(2.0), abs=1e-3)


def test_dropped_inputs_keep_alpha_at_the_scale_z_allows():
    """At tol 1e-9 the interior-point dual of 11000000 leaves beta ~5e-11 on
    the slack inputs 110 and 111, below the drop threshold, and alpha ~1.2e-6
    on their pairs, inside the |alpha_wx| <= 2 sqrt(beta_w beta_x) that Z >= 0
    allows: they are dropped and the certificate is exact.  An alpha beyond
    that bound is a degenerate dual."""
    result = verify("11000000", tol=1e-9)
    sol, sdp = result.solution, result.solution.sdp
    assert sol.beta[0b110] < 1e-10 and sol.beta[0b111] < 1e-10
    assert np.all(result.certificate.gamma[0b110:] == 0.0)
    assert result.certificate.value == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert result.report["status"] == "PASS"
    alpha = sol.alpha.copy()
    alpha[sdp.pairs.index((0b110, 0b000))] = 1e-4
    with pytest.raises(CheckError, match="beta vanished on inputs"):
        extract_certificate(dataclasses.replace(sol, alpha=alpha), sol.sdp.f)


def test_certificate_zero_pattern_is_exact(corpus):
    for bundle in corpus:
        f, gamma = bundle.f, bundle.certificate.gamma
        for x in f.inputs:
            for y in f.inputs:
                if f.value(x) == f.value(y):
                    assert gamma[x, y] == 0.0


def test_strong_duality_across_corpus(corpus):
    """The certificate's ratio meets xi within the report's strong_duality_gap
    bound, max(1e-5, 100 tol) max(1, xi)."""
    for bundle in corpus:
        xi = bundle.solution.xi
        assert abs(xi - bundle.certificate.value) <= max(ADV_RTOL, 100.0 * DEFAULT_TOL) * max(1.0, xi)


def test_adversary_ratio_identity_function():
    f = load_function("01")
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert adversary_ratio(gamma, f) == pytest.approx(1.0)


def test_adversary_ratio_invariances(solved):
    bundle = solved("PARITY:2")
    gamma = bundle.certificate.gamma
    base = adversary_ratio(gamma, bundle.f)
    for c in (0.5, 3.0, 1e4):
        assert adversary_ratio(c * gamma, bundle.f) == pytest.approx(base, rel=1e-9)
    assert adversary_ratio(-gamma, bundle.f) == pytest.approx(base, rel=1e-9)


def test_adversary_ratio_errors():
    f = load_function("PARITY:2")
    with pytest.raises(CheckError, match="undefined for the zero matrix"):
        adversary_ratio(np.zeros((4, 4)), f)
    bad = np.zeros((4, 4))
    bad[0, 3] = bad[3, 0] = 1.0  # f(00) = f(11) = 0
    with pytest.raises(CheckError, match=r"Gamma\[0,3\] = 1\.000e\+00 but f\(0\) = f\(3\)"):
        adversary_ratio(bad, f)


def test_solver_is_deterministic():
    sdp = build_witness_sdp(load_function("OR:2"))
    a = solve_sdp(sdp)
    b = solve_sdp(sdp)
    assert a.class_blocks.tobytes() == b.class_blocks.tobytes()
    assert a.xi == b.xi
    assert a.alpha.tobytes() == b.alpha.tobytes()


def test_no_convergence_reports_residuals(monkeypatch):
    sdp = build_witness_sdp(load_function("PARITY:2"))
    monkeypatch.setattr(advsdp, "MAX_ITERATIONS", 3)
    with pytest.raises(NoConvergenceError, match="after 3 iterations: the iteration cap") as err:
        solve_sdp(sdp)
    residuals = err.value.residuals
    assert residuals["iterations"] == 3
    assert len(residuals["history"]) == 3
    assert residuals["primal_infeasibility"] >= 0.0 and residuals["dual_infeasibility"] >= 0.0


def test_failed_cholesky_stops_with_the_finished_iterations(monkeypatch):
    """A Cholesky factorization of an iterate that fails means roundoff has
    left the cone's interior: solve_sdp raises NoConvergenceError with the
    residuals and the history of the iterations it finished, never LinAlgError."""
    sdp = build_witness_sdp(load_function("MAJ:3"))
    assert solve_sdp(sdp).residuals["iterations"] > 4
    cholesky, calls = np.linalg.cholesky, []

    def fail_fourth_call(a):
        calls.append(a.shape)
        if len(calls) == 4:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(advsdp.np.linalg, "cholesky", fail_fourth_call)
    with pytest.raises(NoConvergenceError, match="interior") as err:
        solve_sdp(sdp)
    residuals = err.value.residuals
    assert residuals["iterations"] == 3
    assert len(residuals["history"]) == 3
    assert residuals["primal_infeasibility"] >= 0.0 and residuals["dual_infeasibility"] >= 0.0


def test_schur_solver_leaves_m_for_the_second_direction():
    """The predictor and the corrector solve with the same M: the LU runs on
    a copy, once per right-hand side, so M stays as it was, indefinite M
    included."""
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    m = q @ np.diag([3.0, 2.0, 1.0, -1.0, 0.5, 2.0]) @ q.T
    m = 0.5 * (m + m.T)
    r = rng.standard_normal(6)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(m)
    for matrix in (m, m @ m.T + np.eye(6)):
        saved, solve = matrix.copy(), advsdp._solver(matrix)
        for rhs in (r, 2.0 * r):
            assert np.allclose(matrix @ solve(rhs), rhs, rtol=1e-12, atol=1e-12)
        assert np.array_equal(matrix, saved)


def test_schur_solver_raises_on_an_exactly_singular_lu():
    """An LU that meets an exactly zero pivot raises LinAlgError naming a
    singular Newton system, never a warning and a solve that divides by zero."""
    m = np.diag([2.0, -1.0, 1.0])
    m[2, 2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="the Newton system is singular"):
            advsdp._solver(m)(np.ones(3))


def test_singular_newton_system_stops_with_the_last_finite_iterate(monkeypatch):
    """A Newton system that is exactly singular, here M with its last row and
    column zeroed on the fourth step, so that its LU meets a zero pivot:
    solve_sdp raises NoConvergenceError naming it, carrying the residuals and
    the history of the three iterations it finished, all finite, never
    LinAlgError."""
    sdp = build_witness_sdp(load_function("MAJ:3"))
    assert solve_sdp(sdp).residuals["iterations"] > 4
    solver, calls = advsdp._solver, []

    def singular_fourth_call(m):
        calls.append(m.shape)
        if len(calls) == 4:
            m[-1] = m[:, -1] = 0.0
        return solver(m)

    monkeypatch.setattr(advsdp, "_solver", singular_fourth_call)
    with pytest.raises(NoConvergenceError, match="the Newton system is singular") as err:
        solve_sdp(sdp)
    residuals = err.value.residuals
    assert residuals["iterations"] == len(residuals["history"]) == 3
    assert all(np.isfinite(value) for row in residuals["history"] for value in row.values())
    assert all(np.isfinite(residuals[key]) for key in ("primal_equality", "min_eigenvalue", "duality_gap"))


def test_residual_history_has_one_row_per_iteration(corpus):
    keys = {"mu", "gap", "primal_infeasibility", "dual_infeasibility", "step_primal", "step_dual"}
    for bundle in corpus:
        res = bundle.solution.residuals
        assert isinstance(res["iterations"], int)
        assert len(res["history"]) == res["iterations"]
        for row in res["history"]:
            assert set(row) == keys
            assert 0.0 < row["step_primal"] <= 1.0 and 0.0 < row["step_dual"] <= 1.0
        mus = [row["mu"] for row in res["history"]]
        assert mus[-1] < 1e-3 * mus[0]


def test_pair_constraints_touch_only_differing_coordinates():
    """Each pair row reads X_j[w,x] and X_j[x,w] of its own pair, and only on
    coordinates j where w and x differ, in the class block of C_{j, w_j}; the
    layout puts both ends of an entry in the same class block by construction."""
    sdp = build_witness_sdp(load_function("MAJ:3"))
    shape, rows = (2 * sdp.n, sdp.side, sdp.side), dense_constraints(sdp)
    for p, (w, x) in enumerate(sdp.pairs):
        support = np.flatnonzero(rows[p, : sdp.stack_size])
        assert len(support) > 0
        for flat in support:
            b, r, c = np.unravel_index(flat, shape)
            j = b // 2
            assert {int(sdp.members[b, r]), int(sdp.members[b, c])} == {w, x}
            assert sdp.f.bit(w, j + 1) != sdp.f.bit(x, j + 1)
            assert b % 2 == sdp.f.bit(w, j + 1)


@pytest.mark.parametrize("spec, sizes", [("OR:5", (17, 15)), ("MAJ:5", (22, 10)), ("PARITY:5", (16, 16)),
                                         ("OR:4", (9, 7)), ("MAJ:4", (11, 5)), ("01", (2, 0))])
def test_class_blocks_partition_each_coordinate(spec, sizes):
    """Class block b = 2j + c lists C_{j,c} = {s : s_j xor f(s) = c} in
    increasing order, padded with -1 to the largest class; the two classes of
    a coordinate partition the inputs, and the identity's second class is empty."""
    f = load_function(spec)
    sdp = build_witness_sdp(f)
    assert sdp.side == max(sizes)
    for j in range(f.n):
        for c in range(2):
            expected = [s for s in f.inputs if f.bit(s, j + 1) ^ f.value(s) == c]
            assert len(expected) == sizes[c]
            assert sdp.members[2 * j + c].tolist() == expected + [-1] * (sdp.side - len(expected))


def test_padding_takes_no_direction():
    """A class smaller than the stack's side is zero-padded.  The solver
    factors each block completed by the identity on its padding, but no
    direction ever moves the padding: the final iterate, which the solution
    keeps as its class blocks, is zero there."""
    sdp = build_witness_sdp(load_function("MAJ:4"))  # classes of 11 and 5
    stack = solve_sdp(sdp).class_blocks
    members = sdp.members[sdp.classes]
    padding = (members[:, :, None] < 0) | (members[:, None, :] < 0)
    assert padding.any() and np.all(stack[padding] == 0.0)


@pytest.mark.parametrize("spec", ["00000011", "MAJ:3", "OR:4", "MAJ:5", "PARITY:5",
                                  "00101010010110010110010110111111",  # a group of order 2
                                  "11111110000110010100100010100111"])  # a trivial group
def test_rounding_normal_matrix_is_the_schur_pair_block(spec):
    """round_factor's J J^T, 4 times the pair block of schur_complement at
    X = V V^T on the representative class blocks and Z^-1 = I, matches the
    dense J J^T (E^T J J^T E on the pair orbits, E the identity when the
    group is trivial) at the factor before and after rounding."""
    sdp = build_witness_sdp(load_function(spec))
    assert sdp.orbits.order == group_order(sdp.f)
    blocks = solve_sdp(sdp).class_blocks
    for factor in (gram_factor(blocks), round_factor(sdp, blocks)):
        stack = factor @ factor.transpose(0, 2, 1)
        oracle = reference_pair_normal(sdp, gram_blocks(sdp, stack))
        normal = advsdp._pair_normal(sdp, stack)
        assert np.abs(normal - oracle).max() <= 1e-13 * np.abs(oracle).max()


def orbit_average(orbits, v: np.ndarray) -> np.ndarray:
    """v averaged in place over each orbit (Orbits.label): a whole class-block
    stack, or [stack | u | xi] with one u per input (xi is fixed)."""
    size = min(len(v), len(orbits.label))
    label = orbits.label[:size]
    v[:size] = np.bincount(label, weights=v[:size])[label] / np.bincount(label)[label]
    return v


def orbit_coordinates(sdp, v: np.ndarray) -> np.ndarray:
    """The flat [whole stack | u per input | xi] in the solver's coordinates:
    the representative class blocks, u at the least input of each orbit, xi."""
    nb = sdp.stack_size
    stack = v[:nb].reshape(2 * sdp.n, sdp.side, sdp.side)[sdp.classes]
    return np.concatenate([stack.ravel(), v[nb:-1][sdp.gather["input_reps"]], v[-1:]])


def class_block_stack(sdp, rng) -> np.ndarray:
    """A random stack positive definite on each class block, zero on the padding."""
    stack = np.zeros((2 * sdp.n, sdp.side, sdp.side))
    for b, size in enumerate(sdp.sizes):
        g = rng.standard_normal((size, size))
        stack[b, :size, :size] = g @ g.T + 0.1 * np.eye(size)
    return stack


def member(table: str, g: int) -> str:
    """The table of f o g, g = pi 2^n + m an element of element_maps: a
    permuted and negated member."""
    f = load_function(table)
    return "".join(str(f.table[s]) for s in element_maps(f.n, g)[0])


def spread(label: np.ndarray, v: np.ndarray) -> float:
    """The largest max - min of v over the elements sharing a label."""
    high, low = np.full(label.max() + 1, -np.inf), np.full(label.max() + 1, np.inf)
    np.maximum.at(high, label, v)
    np.minimum.at(low, label, v)
    present = np.isfinite(high)
    return float((high[present] - low[present]).max())


# groups under which some pair's orbit holds every (u, v) of its u, so the
# Schur complement builds that u's rows as a whole slice; 00000111 loops over F1
WHOLE_RUNS = ["00000111", "00011011"]


@pytest.mark.parametrize("spec", corpus_specs() + ["OR:4", "MAJ:4", "AND:4", "PARITY:4"] + random_tables(4, 2, 1)
                         + WHOLE_RUNS)
def test_block_solver_matches_dense_reference(spec):
    """The Schur complement from GEMMs on the F0 x F1 grid, at the rows of one
    representative per orbit of Aut(f) and summed over each orbit's columns,
    equals D^-1/2 P^T A (X (x) Z^-1 (+) diag(x/z)) A^T P D^-1/2 with the dense
    constraint rows A on the class blocks, the solver never forming the
    Kronecker product, from the representative class blocks and one (u, xi)
    ratio per input orbit; the whole M of the test oracle equals A (...) A^T.
    X and Z^-1 are drawn block-diagonal over the classes, the only form the
    solver's iterates take, and averaged over the orbits, as the solver
    keeps them.  OR:4 (|F0| = 1) and AND:4 (|F1| = 1) run its loop over the
    smaller side from either side; the two random tables have trivial groups."""
    sdp = build_witness_sdp(load_function(spec))
    s, k, nb = sdp.num_inputs, sdp.side, sdp.stack_size
    rng = np.random.default_rng(3)
    x = np.concatenate([class_block_stack(sdp, rng).ravel(), rng.uniform(0.1, 2.0, s + 1)])
    z_inv = class_block_stack(sdp, rng).ravel()
    orbit_average(sdp.orbits, x)
    orbit_average(sdp.orbits, z_inv)
    x, lp_ratio, z_inv = x[:nb].reshape(-1, k, k), x[nb:], z_inv.reshape(-1, k, k)
    a = dense_constraints(sdp)
    kron = np.zeros((a.shape[1], a.shape[1]))
    for b in range(2 * sdp.n):
        kron[b * k * k : (b + 1) * k * k, b * k * k : (b + 1) * k * k] = np.kron(x[b], z_inv[b])
    kron[nb:, nb:] = np.diag(lp_ratio)
    ref = a @ kron @ a.T
    assert np.abs(full_schur_complement(sdp, x, z_inv, lp_ratio) - ref).max() <= 1e-12 * np.abs(ref).max()
    ref = sdp.orbits.expand.T @ ref @ sdp.orbits.expand
    got = schur_complement(sdp, x[sdp.classes], z_inv[sdp.classes],
                           np.append(lp_ratio[sdp.gather["input_reps"]], lp_ratio[-1]))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_group_orders_of_the_builtins(n):
    def order(spec):
        return len(automorphisms(load_function(spec))[0])

    assert order(f"OR:{n}") == math.factorial(n)
    assert order(f"MAJ:{n}") == math.factorial(n)
    assert order(f"PARITY:{n}") == math.factorial(n) * 2 ** (n - 1)


@pytest.mark.parametrize("spec", ["OR:5", "MAJ:5", "PARITY:4", "00010110", "0001011001101000"])
def test_automorphisms_fix_f_and_a_member_has_the_same_order(spec):
    """Every element fixes f, none repeats, and coordinates[g, j] is where a
    flip of x_{j+1} lands under g.  A member under a permutation and a
    weight-2 negation has a conjugate group, of the same order."""
    f = load_function(spec)
    images, coordinates = automorphisms(f)
    table = np.array(f.table)
    assert np.all(table[images] == table) and len(np.unique(images, axis=0)) == len(images)
    flips = 1 << (f.n - 1 - np.arange(f.n))
    assert np.array_equal(images[:, flips] ^ images[:, :1], 1 << (f.n - 1 - coordinates))
    g = 3 * 2**f.n + 0b11  # the fourth permutation, negating the last two inputs
    assert len(automorphisms(load_function(member(spec, g)))[0]) == len(images)


def test_random_five_bit_table_has_a_trivial_group():
    table = random_tables(5, 1, 2)[0]
    assert len(automorphisms(load_function(table))[0]) == 1
    assert build_witness_sdp(load_function(table)).orbits.order == 1


# 01, 10 and four 5-bit tables of default_rng(7) with a trivial group:
# |F0| < |F1|, |F0| = |F1| and two with |F0| > |F1|, where the pairs run F1-major
TRIVIAL = ["01", "10", "11111110000110010100100010100111", "00110000011110111101011100101000",
           "10000010011001000101101101111100", "01000000000101001101100101001001"]


@pytest.mark.parametrize("spec", TRIVIAL)
def test_trivial_group_is_the_order_one_orbits(spec):
    """A trivial Aut(f) is the order-1 case of the orbit path: every row,
    input and class block is its own representative, no stabilizer moves an
    entry, the pairs (w, x) run over r x o, u-major, r the smaller side, and
    the report resolves every input."""
    f = load_function(spec)
    sdp = build_witness_sdp(f)
    orbits, rows = sdp.orbits, len(sdp.pairs) + sdp.num_inputs
    assert orbits.order == group_order(f) == 1
    for index, size in ((orbits.row, rows), (orbits.reps, rows), (orbits.inputs, sdp.num_inputs),
                        (sdp.classes, 2 * f.n)):
        assert np.array_equal(index, np.arange(size))
    assert len(sdp.stabilizer[0]) == 0
    r, o = sorted((f.f0, f.f1), key=len)
    assert sdp.pairs == tuple((u, v) if f.value(u) == 0 else (v, u) for u in r for v in o)
    assert verify(spec).report["orbits"] == {"order": 1, "representatives": [f"{s:0{f.n}b}" for s in f.inputs]}


@pytest.mark.parametrize("spec, order, side, reduced", [("MAJ:5", 120, 288, 20), ("PARITY:5", 1920, 288, 5),
                                                        ("OR:5", 120, 63, 11), ("MAJ:4", 24, 71, 13)])
def test_reduced_schur_sides(spec, order, side, reduced):
    sdp = build_witness_sdp(load_function(spec))
    assert (sdp.orbits.order, len(sdp.pairs) + sdp.num_inputs, len(sdp.orbits.reps)) == (order, side, reduced)


@pytest.mark.parametrize("spec", ["0110100000000000", "OR:4", "MAJ:3", "PARITY:3", "00001111"])
def test_small_schur_complements_are_reduced(spec):
    """No Schur complement is too small for the orbits: MAJ:3, PARITY:3 and
    00001111 (side 24, groups of order 6, 24 and 8) are reduced like OR:4
    (31) and 0110100000000000 (55, order 6); M's side never decides the
    path."""
    sdp = build_witness_sdp(load_function(spec))
    assert sdp.orbits.order == group_order(sdp.f) > 1
    assert len(sdp.orbits.reps) < len(sdp.pairs) + sdp.num_inputs


def test_orbit_path_is_taken_exactly_when_the_group_is_nontrivial():
    """build_witness_sdp solves f on the orbits of its whole group Aut(f),
    of order 1 exactly when it is trivial, whatever the side of M: on all
    270 non-constant tables with n <= 3 (every one but 01 and 10 has a
    nontrivial group), and on 4- and 5-bit tables with trivial groups,
    groups of order 2 and 4, and the symmetric functions."""
    small = tables_up_to_three_bits()
    larger = random_tables(4, 12, 0) + random_tables(5, 3, 2) + ["OR:4", "MAJ:5", ORDER_TWO]
    orders = {}
    for table in small + larger:
        f = load_function(table)
        orders[table] = group_order(f)
        assert build_witness_sdp(f).orbits.order == orders[table], table
    assert len(small) == 270 and [t for t in small if orders[t] == 1] == ["01", "10"]
    assert {orders[t] for t in larger} == {1, 2, 4, 24, 120}


@pytest.mark.parametrize("spec", ["MAJ:3", "OR:4", "MAJ:4", "PARITY:4", "OR:5", member("MAJ:5", 77)] + WHOLE_RUNS)
def test_orbits_commute_with_the_constraints(spec):
    """An orbit-averaged x gives A x constant on the pair and input orbits,
    to roundoff (each row sums its coordinates in its own order), and the
    solver's A on its orbit coordinates gives those values at the
    representative rows; an orbit-constant y gives A^T y exactly constant on
    the entry and input orbits, and the solver's A^T gives it exactly at the
    representative entries and inputs."""
    sdp = build_witness_sdp(load_function(spec))
    orbits, a = sdp.orbits, dense_constraints(sdp)
    rng = np.random.default_rng(1)
    x = orbit_average(orbits, rng.standard_normal(sdp.stack_size + sdp.num_inputs + 1))
    ax = a @ x
    assert spread(orbits.row, ax) <= 1e-13 * np.abs(ax).max()
    assert np.abs(advsdp._apply(sdp, orbit_coordinates(sdp, x)) - ax[orbits.reps]).max() <= 1e-13 * np.abs(ax).max()
    y = rng.standard_normal(len(orbits.reps))
    aty = a.T @ y[orbits.row]
    assert spread(orbits.label, aty[:-1]) == 0.0
    assert np.array_equal(advsdp._apply_adjoint(sdp, y)[:-1], orbit_coordinates(sdp, aty)[:-1])


@pytest.mark.parametrize("spec", ["MAJ:4", "PARITY:4", "MAJ:5", member("MAJ:5", 77)])
def test_solution_is_exactly_constant_on_its_orbits(spec):
    """alpha on the pair orbits, beta on the input orbits and the Gram blocks
    on the entry orbits: the solver keeps its iterates invariant, not only
    nearly so."""
    sdp = build_witness_sdp(load_function(spec))
    sol, orbits = solve_sdp(sdp), sdp.orbits
    assert spread(orbits.row, np.concatenate([sol.alpha, sol.beta])) == 0.0
    assert spread(orbits.label[: sdp.stack_size], orbits.expand_stack(sol.class_blocks)) == 0.0


@pytest.mark.parametrize("spec, count", [("MAJ:5", 2), ("PARITY:5", 1), ("MAJ:4", 2), (member("MAJ:5", 77), 2),
                                         ("OR:5", 2), ("00011011", 3)])
def test_class_block_orbit_counts(spec, count):
    """Aut(f) maps class blocks onto class blocks; its representatives are
    the least block of each orbit.  A negation flips the class, so under
    PARITY:5 all ten blocks form one orbit and under MAJ:5 the two classes of
    each coordinate stay apart."""
    classes = build_witness_sdp(load_function(spec)).classes
    assert len(classes) == count and classes[0] == 0 and np.all(np.diff(classes) > 0)


@pytest.mark.parametrize("spec", ["MAJ:5", "PARITY:5", "OR:5", "MAJ:4", "PARITY:4", member("MAJ:5", 77)] + WHOLE_RUNS)
def test_orbit_averaged_stack_is_its_representatives_expanded(spec):
    """Every class block of an orbit-averaged stack equals, bitwise, the
    block of its representative permuted by a group element, padding
    included."""
    sdp = build_witness_sdp(load_function(spec))
    stack = orbit_average(sdp.orbits, class_block_stack(sdp, np.random.default_rng(4)).ravel())
    reps = stack.reshape(2 * sdp.n, sdp.side, sdp.side)[sdp.classes]
    assert np.array_equal(sdp.orbits.expand_stack(reps), stack)


def every_block(monkeypatch, spec):
    """The SDP of spec with each class block its own representative: the
    solver's block algebra then runs on every block, averaged over whole
    orbits, on the same reduced Newton system."""
    with monkeypatch.context() as patch:
        patch.setattr(advsdp, "_block_orbits", lambda f, members, heads, negations: (
            np.arange(len(members)), np.arange(members.size * members.shape[1])))
        return build_witness_sdp(load_function(spec))


@pytest.mark.parametrize("spec", ["MAJ:4", "PARITY:4", member("MAJ:5", 77), "OR:5"])
def test_representative_blocks_give_the_every_block_step(spec, monkeypatch):
    """At an orbit-averaged random iterate, mu, Z^-1, the predictor's and the
    corrector's directions and their step lengths from one class block per
    orbit equal those from every block within 1e-12 relative."""
    sdp, whole = build_witness_sdp(load_function(spec)), every_block(monkeypatch, spec)
    assert len(whole.classes) == 2 * sdp.n > len(sdp.classes)
    orbits, s = sdp.orbits, sdp.num_inputs
    rng = np.random.default_rng(6)
    x = orbit_average(orbits, np.concatenate([class_block_stack(sdp, rng).ravel(), rng.uniform(0.5, 2.0, s), [4.0]]))
    z = orbit_average(orbits, np.concatenate([class_block_stack(sdp, rng).ravel(), rng.uniform(0.5, 2.0, s + 1)]))
    y = rng.standard_normal(len(orbits.reps))

    def step(sdp, x, z):
        cost = np.zeros_like(x)
        cost[-1] = 1.0
        rhs = np.concatenate([np.ones(sdp.pair_rows), np.zeros(len(sdp.row_size) - sdp.pair_rows)])
        rp = rhs - advsdp._apply(sdp, x)
        return advsdp._newton_step(sdp, x, y, z, rp, cost - advsdp._apply_adjoint(sdp, y) - z)

    got = step(sdp, orbit_coordinates(sdp, x), orbit_coordinates(sdp, z))
    ref = step(whole, orbit_coordinates(whole, x), orbit_coordinates(whole, z))
    assert abs(got[0] - ref[0]) <= 1e-12 * ref[0]
    assert np.abs(got[1] - ref[1][sdp.classes]).max() <= 1e-12 * np.abs(ref[1]).max()
    for direction, ref_direction in zip(got[2:], ref[2:]):
        # every block's direction, at the representative blocks
        dx, dz = (np.concatenate([d[: whole.stack_size].reshape(whole.class_shape)[sdp.classes].ravel(),
                                  d[whole.stack_size:]]) for d in (ref_direction[0], ref_direction[2]))
        for a, b in zip(direction, (dx, ref_direction[1], dz, *ref_direction[3:])):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert min(direction[3:]) < 1.0  # not both lengths capped at 1


ORDER_TWO = "00101010010110010110010110111111"  # a 5-bit table whose group has order 2


@pytest.mark.parametrize("spec", ["MAJ:5", "PARITY:5", "OR:5", member("MAJ:5", 77), ORDER_TWO])
def test_reduced_constraints_are_adjoint_under_the_orbit_sizes(spec):
    """On random invariant iterates in orbit coordinates, the solver's A and
    A^T are adjoint under the orbit sizes: <A x, y> summed with each reduced
    row's orbit size equals <x, A^T y> summed with each entry's multiplicity,
    within 1e-12 relative."""
    sdp = build_witness_sdp(load_function(spec))
    assert sdp.orbits is not None
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.standard_normal(len(sdp.multiplicity))
        advsdp._symmetrize(sdp, x[: math.prod(sdp.class_shape)])
        y = rng.standard_normal(len(sdp.row_size))
        ax, aty = advsdp._apply(sdp, x), advsdp._apply_adjoint(sdp, y)
        left, right = (sdp.row_size * ax) @ y, (sdp.multiplicity * x) @ aty
        assert abs(left - right) <= 1e-12 * (np.abs(sdp.row_size * ax) @ np.abs(y))


@pytest.mark.parametrize("spec", ["MAJ:5", "PARITY:5", ORDER_TWO, "MAJ:3", random_tables(5, 1, 2)[0]])
def test_stack_is_expanded_once_per_solve(spec, monkeypatch):
    """The solver expands its representatives' stack to the whole stack
    once, after the loop, at every order of the group, 1 included."""
    calls = []
    expand_stack = advsdp.Orbits.expand_stack

    def counted(self, reps):
        calls.append(reps.shape)
        return expand_stack(self, reps)

    monkeypatch.setattr(advsdp.Orbits, "expand_stack", counted)
    sdp = build_witness_sdp(load_function(spec))
    solve_sdp(sdp)
    assert sdp.orbits.order == group_order(sdp.f)
    assert calls == [sdp.class_shape]


def test_residuals_report_the_path_taken():
    """residuals["orbits"]: the group's order, M's side before and after the
    reduction and the class blocks factored per iteration, on every
    nontrivial group however small (MAJ:3: M of side 24 reduced to 9); order
    1, M unreduced and every class block factored when the group is
    trivial."""
    assert solve_sdp(build_witness_sdp(load_function("MAJ:5"))).residuals["orbits"] == {
        "order": 120, "schur_side": 288, "reduced_side": 20, "blocks_factored": 4}
    assert solve_sdp(build_witness_sdp(load_function("PARITY:5"))).residuals["orbits"]["blocks_factored"] == 2
    assert solve_sdp(build_witness_sdp(load_function("MAJ:3"))).residuals["orbits"] == {
        "order": 6, "schur_side": 24, "reduced_side": 9, "blocks_factored": 4}
    for spec in ("01", random_tables(5, 1, 2)[0]):
        f = load_function(spec)
        side = len(f.f0) * len(f.f1) + 2**f.n
        assert group_order(f) == 1 and solve_sdp(build_witness_sdp(f)).residuals["orbits"] == {
            "order": 1, "schur_side": side, "reduced_side": side, "blocks_factored": 4 * f.n}


def test_order_two_table_converges_on_its_orbits_at_tight_tol():
    """1101100101001001 has a group of order 2 and M of side 80, so it is
    solved on its orbits.  At tol 1e-9 it converges in as many iterations as
    the loop on all of M (17 each; the count itself moves with the order of
    a sum, so it is not pinned).  Averaging the whole stack over its
    orbits after every step, as the solver once did, stalled it near a
    primal infeasibility of 8e-9 until the iterates left the cone's interior
    after 29."""
    f = load_function("1101100101001001")
    sol = solve_sdp(build_witness_sdp(f), tol=1e-9)
    assert sol.residuals["orbits"]["order"] == 2
    assert sol.residuals["iterations"] == solve_sdp(unreduced(f), tol=1e-9).residuals["iterations"]


def test_certificate_norms_come_from_one_stacked_svd(corpus):
    """||Gamma|| and the n norms ||Gamma o D_i|| from one stacked SVD equal
    the separate ones bitwise."""
    for bundle in corpus:
        f, gamma = bundle.f, bundle.certificate.gamma
        norms = [np.linalg.norm(gamma * difference_matrix(f, i), 2) for i in range(1, f.n + 1)]
        assert adversary_ratio(gamma, f) == np.linalg.norm(gamma, 2) / max(norms)


@pytest.mark.parametrize("spec, orbits", [("MAJ:5", 1), ("OR:5", 1), ("PARITY:5", 1), (member("MAJ:5", 77), 1),
                                          ("0000000001111111", 2)])  # x1 and (x2 or x3 or x4)
def test_certificate_reads_one_coordinate_per_orbit(spec, orbits):
    """extract_certificate reads ||Gamma o D_i|| at one coordinate per orbit
    of Aut(f), as Gamma is constant on the orbits; its ratio equals
    adversary_ratio over all n coordinates within 1e-12 relative."""
    f = load_function(spec)
    sol = solve_sdp(build_witness_sdp(f))
    assert len(np.unique(sol.sdp.classes // 2)) == orbits
    value = extract_certificate(sol, f).value
    ref = adversary_ratio(extract_certificate(sol, f).gamma, f)
    assert abs(value - ref) <= 1e-12 * ref


def test_certificate_beta_alignment_reported(corpus):
    """The duality chain treats sqrt(beta) as a top eigenvector of Gamma;
    observed alignments are reported here, not asserted to equal one."""
    values = {b.spec: b.certificate.beta_alignment for b in corpus}
    for spec, val in values.items():
        assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9
    print("beta alignment <beta|Gamma|beta> / ||Gamma|| by function:", values)


def test_iteration_cap_below_convergence_raises(monkeypatch):
    """The cap raises unless the loop's own stopping test held: no cap below
    the converging count returns an unconverged solution."""
    sdp = build_witness_sdp(load_function("OR:2"))
    converging = solve_sdp(sdp).residuals["iterations"]
    for cap in range(converging):
        monkeypatch.setattr(advsdp, "MAX_ITERATIONS", cap)
        with pytest.raises(NoConvergenceError):
            solve_sdp(sdp)
    monkeypatch.setattr(advsdp, "MAX_ITERATIONS", converging)
    assert solve_sdp(sdp).residuals["iterations"] == converging


def threshold(k: int, n: int) -> str:
    """Th_k^n, true on the inputs of weight at least k: OR and AND by name,
    the rest as truth tables."""
    if k == 1:
        return f"OR:{n}"
    if k == n:
        return f"AND:{n}"
    return "".join(str(int(bin(s).count("1") >= k)) for s in range(2**n))


CLOSED_FORMS = [(threshold(k, n), np.sqrt(k * (n - k + 1))) for n in range(1, 6) for k in range(1, n + 1)]
CLOSED_FORMS += [(f"PARITY:{n}", float(n)) for n in range(1, 6)]


@pytest.mark.parametrize("spec, adv", CLOSED_FORMS)
def test_five_bit_closed_forms(spec, adv):
    """ADV(Th_k^n) = sqrt(k (n - k + 1)) for 1 <= k <= n <= 5, OR, AND and
    MAJ among them, and ADV(PARITY:n) = n, on the solution and on its
    certificate."""
    f = load_function(spec)
    sol = solve_sdp(build_witness_sdp(f))
    assert sol.xi == pytest.approx(adv, rel=1e-6)
    assert extract_certificate(sol, f).value == pytest.approx(adv, rel=1e-6)


@pytest.mark.parametrize("table", random_tables(4, 12, 0))
def test_random_four_bit_tables_verify(table):
    """Generic 4-bit tables, none of them symmetric, pass every check."""
    assert verify(table).report["status"] == "PASS"


@pytest.mark.parametrize("table", random_tables(5, 2, 0))
def test_random_five_bit_tables_solve(table):
    f = load_function(table)
    sol = solve_sdp(build_witness_sdp(f))
    assert abs(sol.xi - extract_certificate(sol, f).value) <= 1e-6


@pytest.mark.parametrize("spec", corpus_specs() + ["OR:4", "MAJ:4", "AND:4"] + WHOLE_RUNS + random_tables(5, 2, 0)
                         + TRIVIAL[4:5])
def test_class_blocks_follow_the_full_block_path(spec):
    """Splitting each Gram block over its two classes, and solving on the
    orbits of Aut(f) (WHOLE_RUNS among them, and a trivial group with
    |F0| > |F1|, whose pairs run F1-major), loses nothing: the same
    interior-point loop on the n full blocks of side 2^n (reference_solve_sdp)
    takes as many iterations to the same xi, and keeps every entry between
    two classes at exactly zero, the entries a class-block solution does not
    hold.  alpha and beta are not compared: where the dual optimum is not
    unique they move while xi holds, by up to 2.3e-4 on the 3-bit tables
    (00001110)."""
    f = load_function(spec)
    sol = solve_sdp(build_witness_sdp(f))
    ref = reference_solve_sdp(f)
    assert sol.residuals["iterations"] == ref.residuals["iterations"]
    assert abs(sol.xi - ref.xi) <= 1e-9 * max(1.0, ref.xi)
    cls = (f.bits ^ np.array(f.table)[:, None]).T  # the class of each input in each coordinate
    between = cls[:, :, None] != cls[:, None, :]
    assert np.all(ref.residuals["gram_blocks"][between] == 0.0)


# non-constant truth tables of 1 to 4 bits, as bitstrings
TABLES = st.integers(1, 4).flatmap(lambda n: st.integers(1, 2 ** 2**n - 2).map(lambda code: format(code, f"0{2**n}b")))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(TABLES)
def test_random_tables_meet_strong_duality_on_the_full_block_path(table):
    """On any non-constant table: the certificate's ratio meets xi within the
    strong_duality_gap bound, beta sums to 1 within tol, and the loop on the
    full Gram blocks takes as many iterations.  Derandomized, so every run
    draws the same tables."""
    f = load_function(table)
    sol = solve_sdp(build_witness_sdp(f))
    xi = sol.xi
    assert abs(xi - extract_certificate(sol, f).value) <= max(ADV_RTOL, 100.0 * DEFAULT_TOL) * max(1.0, xi)
    assert abs(sol.beta.sum() - 1.0) <= DEFAULT_TOL
    assert sol.residuals["iterations"] == reference_solve_sdp(f).residuals["iterations"]


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(TABLES, st.integers(0, 2**16))
def test_members_follow_the_path_of_their_function(table, g):
    """A table and its member f o g under an input permutation and negation g
    pose the same SDP with relabelled rows, so the solver takes as many
    iterations to the same xi."""
    f = load_function(table)
    g %= math.factorial(f.n) * 2**f.n
    a = solve_sdp(build_witness_sdp(f))
    b = solve_sdp(build_witness_sdp(load_function(member(table, g))))
    assert a.residuals["iterations"] == b.residuals["iterations"]
    assert abs(a.xi - b.xi) <= 1e-9 * max(1.0, a.xi)
