import dataclasses

import numpy as np
import pytest

from advspan import advsdp, spanprog, verify
from advspan.advsdp import SdpSolution, build_witness_sdp, extract_certificate, solve_sdp
from advspan.boolfun import load_function
from advspan.errors import BadSpecError, CheckError
from advspan.matkernel import DEFAULT_RANK_TOL
from advspan.spanprog import (
    CanonicalSpanProgram,
    SpanProgram,
    canonical_from_gram,
    evaluate,
    literal_masks,
    program_witness_size,
)
from advspan.spectral import build_program_graph

from conftest import (
    NPN3_CANONICAL, column_range, corpus_specs, gram_blocks, pair_sums, reference_evaluate, whole_gram_program,
)


def parity_example_program():
    """The two-row parity program from the worked example: t = [1,1],
    columns I_{1,0}, I_{1,1}, I_{2,0}, I_{2,1}."""
    return SpanProgram(
        block_sizes=((1, 1), (1, 1)),
        matrix=np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]),
        target=np.array([1.0, 1.0]),
        orbit=np.arange(4),
    )


def or2_example_program():
    """A = [1 1] over I_{1,1} and I_{2,1}, t = [1]."""
    return SpanProgram(
        block_sizes=((0, 1), (0, 1)),
        matrix=np.array([[1.0, 1.0]]),
        target=np.array([1.0]),
        orbit=np.arange(4),
    )


def test_parity_program_true_branch():
    ev = evaluate(parity_example_program())
    assert ev.value[0b01]
    assert ev.witness_size[0b01] == pytest.approx(2.0, abs=1e-9)  # witness z = [1, 1]
    assert ev.residual[0b01] <= 1e-7


def test_parity_program_false_branch():
    ev = evaluate(parity_example_program())
    assert not ev.value[0b00]
    assert np.allclose(np.abs(ev.witness[0b00]), [0.0, 1.0], atol=1e-9)  # y = [0, 1]
    assert ev.witness_size[0b00] == pytest.approx(2.0, abs=1e-9)


def test_parity_program_witness_sizes():
    p = parity_example_program()
    assert evaluate(p).witness_size == pytest.approx([2.0] * 4, abs=1e-9)
    assert program_witness_size(p) == pytest.approx(2.0, abs=1e-9)


def test_or2_program():
    p = or2_example_program()
    ev = evaluate(p)
    assert not ev.value[0b00]
    assert np.allclose(ev.witness[0b00], [1.0])
    assert ev.witness_size[0b00] == pytest.approx(2.0, abs=1e-9)  # ||y^T A||^2
    assert ev.value[0b11]
    assert ev.witness_size[0b11] == pytest.approx(0.5, abs=1e-9)  # z = [1/2, 1/2]
    assert program_witness_size(p) == pytest.approx(2.0, abs=1e-9)


def test_single_literal_program():
    p = SpanProgram(block_sizes=((0, 1),), matrix=np.array([[1.0]]), target=np.array([1.0]), orbit=np.arange(2))
    assert program_witness_size(p) == pytest.approx(1.0, abs=1e-9)
    assert evaluate(p).value.tolist() == [False, True]


@pytest.mark.parametrize("block_sizes, matrix, target, message", [
    (((1, 1),), np.ones((1, 3)), np.ones(1), r"matrix shape \(1, 3\) != \(1, 2\)"),
    (((1, 1),), np.ones((2, 2)), np.ones(1), r"matrix shape \(2, 2\) != \(1, 2\)"),
    (((0, 1),), np.ones((1, 1)), np.zeros(1), "target vector must be nonzero"),
])
def test_span_program_rejects_bad_fields(block_sizes, matrix, target, message):
    """A matrix whose width disagrees with block_sizes or whose height
    disagrees with the target, and a zero target."""
    with pytest.raises(CheckError, match=message):
        SpanProgram(block_sizes=block_sizes, matrix=matrix, target=target, orbit=np.arange(2))


def test_exactly_one_branch_on_the_example_programs():
    for p, f in ((parity_example_program(), load_function("PARITY:2")),
                 (or2_example_program(), load_function("OR:2"))):
        assert evaluate(p).value.tolist() == [f.value(s) == 1 for s in f.inputs]


def assert_matches_reference(p, label) -> None:
    """The stacked evaluation takes each input's branch and witness size from
    the per-input lstsq / null-space reference."""
    ev = evaluate(p)
    for s in range(2**p.n):
        value, _, size = reference_evaluate(p, s)
        assert bool(ev.value[s]) is value, (label, s)
        assert ev.witness_size[s] == pytest.approx(size, rel=1e-9), (label, s)


def test_selection_masks_group_unequal_blocks():
    """OR:2's program keeps 0, 1 or 2 columns and the single-literal program
    0 or 1, so their inputs fall into groups of different widths."""
    or2 = or2_example_program()
    assert literal_masks(or2.block_sizes).sum(axis=1).tolist() == [0, 1, 1, 2]
    single = SpanProgram(block_sizes=((0, 1),), matrix=np.array([[1.0]]), target=np.array([1.0]), orbit=np.arange(2))
    for label, p in (("parity", parity_example_program()), ("or2", or2), ("single", single),
                     ("or3", or_n_example_program(3))):
        assert_matches_reference(p, label)


@pytest.mark.parametrize("seed", range(12))
def test_stacked_evaluate_matches_per_input_reference(solved, corpus, seed):
    """On the corpus and on seeded random 4-bit tables, the stacked SVD takes
    the reference's branch on every input, with witness sizes within 1e-9
    relative."""
    rng = np.random.default_rng(seed)
    table = "".join(map(str, rng.integers(0, 2, 16)))
    while len(set(table)) == 1:
        table = "".join(map(str, rng.integers(0, 2, 16)))
    bundles = [solved(table)] + (corpus if seed == 0 else [])
    for bundle in bundles:
        assert_matches_reference(bundle.program.witness_program(), bundle.spec)


def parity_example_gram_solution():
    """All-ones class blocks, the class-block part of all-ones Gram blocks:
    every v_{s,j} the same unit scalar is feasible and optimal for parity
    with m = 1."""
    f = load_function("PARITY:2")
    sdp = build_witness_sdp(f)
    return SdpSolution(
        sdp=sdp,
        class_blocks=np.ones(sdp.class_shape),
        xi=2.0,
        alpha=np.full(4, 0.5),
        beta=np.full(4, 0.25),
        residuals={},
    )


def worked_parity_canonical() -> CanonicalSpanProgram:
    """The worked example for PARITY:2: every v_{s,j} the same unit scalar,
    m = 1.  It aligns the two classes of each coordinate, so it is not a
    program canonical_from_gram builds: that reads no entry between two
    classes."""
    f = load_function("PARITY:2")
    f0, vectors = np.array(f.f0), np.ones((4, 2, 1))
    matrix = np.zeros((2, 2, 2, 1))
    matrix[np.arange(2)[:, None], np.arange(2), 1 - f.bits[f0]] = vectors[f0]
    return CanonicalSpanProgram(f=f, witness_size=2.0, vectors=vectors, matrix=matrix.reshape(2, -1),
                                target=np.ones(2) / (3 * np.sqrt(2.0)), orbit=np.arange(4))


def test_canonical_from_all_ones_gram_reads_only_the_class_blocks():
    """A solution holds only the class blocks of the all-ones Gram blocks,
    all ones, so each coordinate's two classes get a column each (m = 2) in
    place of the worked example's shared one, with the same AA^T, pair sums
    and witness size."""
    f = load_function("PARITY:2")
    prog = canonical_from_gram(f, parity_example_gram_solution())
    assert prog.m == 2
    assert prog.witness_size == pytest.approx(2.0)
    worked = worked_parity_canonical()
    assert np.abs(prog.matrix @ prog.matrix.T - worked.matrix @ worked.matrix.T).max() <= 1e-12
    # zero blocks on agreeing literals, vectors elsewhere
    for r, w in enumerate(f.f0):
        for j in (1, 2):
            agree = column_range(prog.witness_program(), j, f.bit(w, j))
            assert np.all(prog.matrix[r, agree] == 0.0)
    assert np.abs(pair_sums(prog) - 1.0).max() <= 1e-9
    assert np.allclose(prog.target, np.ones(2) / (3 * np.sqrt(2.0)))


def test_canonical_pair_sums_across_corpus(corpus):
    for bundle in corpus:
        assert np.abs(pair_sums(bundle.program) - 1.0).max() <= 1e-6


def test_canonical_witness_size_matches_adv(corpus):
    for bundle in corpus:
        prog = bundle.program
        wsize = program_witness_size(prog.witness_program())
        assert abs(wsize - bundle.solution.xi) <= 1e-3 * bundle.solution.xi


def test_canonical_evaluates_like_f(corpus):
    for bundle in corpus:
        p = bundle.program.witness_program()
        assert evaluate(p).value.tolist() == [bundle.f.value(s) == 1 for s in bundle.f.inputs]


def test_canonical_witnesses_are_attained_by_stored_vectors(corpus):
    """The stored vectors realize valid witnesses of size sum_j ||v_{s,j}||^2
    (the canonical accounting); the true minimum can only be smaller."""
    for bundle in corpus:
        f, prog = bundle.f, bundle.program
        p = prog.witness_program()
        n, m = f.n, prog.m
        masks, sizes = literal_masks(p.block_sizes), evaluate(p).witness_size
        for s in f.inputs:
            stored = prog.stored_witness_sizes[s]
            assert stored == pytest.approx(prog.witness_size, rel=1e-9)  # tight padding
            if f.value(s) == 1:
                z = np.zeros(2 * n * m)
                for j in range(1, n + 1):
                    z[column_range(p, j, f.bit(s, j))] = prog.vectors[s, j - 1]
                residual = np.linalg.norm(prog.matrix @ z - np.ones(len(f.f0)))
                assert residual <= 1e-6
                assert z @ z == pytest.approx(stored, rel=1e-9)
            else:
                y = np.zeros(len(f.f0))
                y[f.f0.index(s)] = 1.0
                assert np.linalg.norm(y @ prog.matrix[:, masks[s]]) <= 1e-12
                pulled = y @ prog.matrix
                assert pulled @ pulled == pytest.approx(stored, rel=1e-9)
            assert sizes[s] <= stored + 1e-4


@pytest.mark.parametrize("spec", corpus_specs() + ["OR:4", "MAJ:4"])
def test_shared_layout_matches_whole_gram_reference(solved, spec):
    """Giving every coordinate one shared R^m changes no inner product the
    program reads: AA^T, B_G's singular values and the stored witness sizes
    match the factor of the whole Gram matrix, and m is the widest block's
    rank plus one private dimension per deficient input."""
    bundle = solved(spec)
    f, sol, prog = bundle.f, bundle.solution, bundle.program
    ref = whole_gram_program(f, sol)
    assert np.abs(prog.matrix @ prog.matrix.T - ref.matrix @ ref.matrix.T).max() <= 1e-11
    sigma, sigma_ref = (np.linalg.svd(build_program_graph(p).b_g, compute_uv=False) for p in (prog, ref))
    assert np.abs(sigma - sigma_ref).max() <= 1e-11
    assert np.abs(prog.stored_witness_sizes - ref.stored_witness_sizes).max() <= 1e-12
    blocks = gram_blocks(sol.sdp, sol.class_blocks)
    eigenvalues = np.linalg.eigvalsh(blocks)
    ranks = (eigenvalues > DEFAULT_RANK_TOL * max(1.0, eigenvalues.max())).sum(axis=1)
    row_sums = blocks.diagonal(axis1=1, axis2=2).sum(axis=0)
    w_size = max(sol.xi, row_sums.max())
    deficient = int((w_size - row_sums > 1e-12 * max(1.0, w_size)).sum())
    assert prog.m == ranks.max() + deficient


@pytest.mark.parametrize("spec", [*corpus_specs(), *NPN3_CANONICAL, "OR:5", "MAJ:5", "PARITY:5"])
def test_rounding_meets_pair_constraints_to_roundoff(solved, spec):
    """The Gauss-Newton rounding makes every pair sum 1 to roundoff and moves W
    by at most 1e-6 relative; it leaves the solution, so xi and the certificate
    are the solver's, bit for bit."""
    bundle = solved(spec)
    f, sol, prog = bundle.f, bundle.solution, bundle.program
    assert np.abs(pair_sums(prog) - 1.0).max() <= 1e-12
    row_sums = gram_blocks(sol.sdp, sol.class_blocks).diagonal(axis1=1, axis2=2).sum(axis=0)
    unrounded = max(sol.xi, row_sums.max())
    assert abs(prog.witness_size - unrounded) <= 1e-6 * unrounded
    before = (sol.xi, sol.alpha.tobytes(), sol.beta.tobytes(), sol.class_blocks.tobytes())
    canonical_from_gram(f, sol)
    assert (sol.xi, sol.alpha.tobytes(), sol.beta.tobytes(), sol.class_blocks.tobytes()) == before
    assert bundle.report["adv"]["xi"] == sol.xi
    assert extract_certificate(sol, f).gamma.tobytes() == bundle.certificate.gamma.tobytes()


@pytest.mark.parametrize("spec, steps", [("1011010001111100", 4), ("MAJ:5", 1)])
def test_rounding_stops_at_roundoff(spec, steps, monkeypatch):
    """round_factor steps until the worst pair residual is roundoff: four
    steps take 1011010001111100's from 1.9e-8 to within 1e-13, where two
    left it at 6.7e-10, and MAJ:5 gets there in one."""
    normals = []
    pair_normal = advsdp._pair_normal
    monkeypatch.setattr(advsdp, "_pair_normal", lambda sdp, stack: normals.append(1) or pair_normal(sdp, stack))
    f = load_function(spec)
    sol = solve_sdp(build_witness_sdp(f))
    prog = canonical_from_gram(f, sol)
    assert len(normals) == steps
    assert np.abs(pair_sums(prog) - 1.0).max() <= 1e-13


def test_canonical_target_normalization(corpus):
    for bundle in corpus:
        prog = bundle.program
        expected = np.ones(len(bundle.f.f0)) / (3.0 * np.sqrt(prog.witness_size))
        assert np.allclose(prog.target, expected, atol=1e-12)


def test_canonical_rejects_infeasible_gram():
    f = load_function("PARITY:2")
    sdp = build_witness_sdp(f)
    broken = SdpSolution(
        sdp=sdp,
        class_blocks=np.tile(np.eye(2), (4, 1, 1)),  # PSD but violates every pair constraint
        xi=2.0,
        alpha=np.zeros(4),
        beta=np.full(4, 0.25),
        residuals={},
    )
    with pytest.raises(CheckError, match="pair-sum constraint residual 1.000e\\+00"):
        canonical_from_gram(f, broken)


def test_canonical_rejects_a_gram_factor_that_misses_x():
    """gram_factor truncates an eigenvalue of -5e-6 on blocks of scale 1e3,
    above its -1e-8 * scale floor, so the factor lets the blocks through but
    misses them by 5e-6."""
    f = load_function("PARITY:2")
    sdp = build_witness_sdp(f)
    blocks = np.broadcast_to(np.diag([1e3, -5e-6]), sdp.class_shape).copy()
    broken = SdpSolution(sdp=sdp, class_blocks=blocks, xi=2.0, alpha=np.zeros(4), beta=np.full(4, 0.25),
                         residuals={})
    with pytest.raises(CheckError, match="Gram factorization does not reproduce X within 1e-6"):
        canonical_from_gram(f, broken)


@pytest.mark.parametrize("build", [extract_certificate, lambda sol, f: canonical_from_gram(f, sol)],
                         ids=["extract_certificate", "canonical_from_gram"])
def test_rejects_a_function_other_than_the_solved_one(solved, build):
    """MAJ:3's solution with its negation 11101000, whose F0 is MAJ:3's F1."""
    with pytest.raises(BadSpecError, match="f = 11101000 is not the solved function 00010111"):
        build(solved("MAJ:3").solution, load_function("11101000"))


def test_canonical_rejects_a_corrupted_copied_row(monkeypatch):
    """The last check reads every pair row on the assembled vectors, so it
    covers the rows coordinate_factors copies onto the blocks that are not
    representatives: on MAJ:4 (2 of 8 class blocks solved) zeroing one
    copied row raises, though the representatives' own rows are intact."""
    f = load_function("MAJ:4")
    sol = solve_sdp(build_witness_sdp(f))
    sdp = sol.sdp
    block = next(b for b in range(2 * f.n) if b not in sdp.classes)
    s = int(sdp.members[block, 0])
    coordinate_factors = spanprog.coordinate_factors

    def corrupted(sdp, v):
        vectors = coordinate_factors(sdp, v)
        vectors[s, block // 2] = 0.0
        return vectors

    canonical_from_gram(f, sol)
    monkeypatch.setattr(spanprog, "coordinate_factors", corrupted)
    with pytest.raises(CheckError, match="pair-sum constraint residual"):
        canonical_from_gram(f, sol)


def or_n_example_program(n):
    """The 1 x n all-ones program for OR_n from the worked example."""
    return SpanProgram(
        block_sizes=tuple((0, 1) for _ in range(n)),
        matrix=np.ones((1, n)),
        target=np.array([1.0]),
        orbit=np.arange(2**n),
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_or_n_example_witness_size_is_n(n):
    """Direct computation on the all-ones OR_n program: the all-zero input
    with witness y = [1] pulls back to ||y^T A||^2 = n (not n^2)."""
    p = or_n_example_program(n)
    ev = evaluate(p)
    assert not ev.value[0]
    assert np.allclose(ev.witness[0], [1.0])
    assert ev.witness_size[0] == pytest.approx(float(n), abs=1e-9)
    assert program_witness_size(p) == pytest.approx(float(n), abs=1e-9)


def test_near_degenerate_membership_warns():
    """A program whose membership residual sits within a decade of the branch
    threshold WITNESS_RTOL ||t|| warns: the true input's column [1, 5e-8]
    leaves t = [1, 0] a residual of 5e-8 ||t||."""
    p = SpanProgram(block_sizes=((0, 1),), matrix=np.array([[1.0], [5e-8]]), target=np.array([1.0, 0.0]),
                    orbit=np.arange(2))
    with pytest.warns(UserWarning, match="near-degenerate span program: membership residual 5.000e-08"):
        ev = evaluate(p)
    assert ev.value.tolist() == [False, True]


@pytest.mark.parametrize("spec", ["MAJ:3", "00000011", "MAJ:5"])
def test_stored_vectors_bound_the_evaluated_witness_sizes(solved, spec):
    """wsize_le_stored: the stored vectors are witnesses, so no evaluated
    witness size exceeds its stored one by more than 1e-9 W."""
    chk = next(c for c in solved(spec).report["checks"] if c["name"] == "wsize_le_stored")
    assert chk["pass"] and chk["bound"] == 1e-9 and chk["value"] <= 1e-10


def test_wsize_le_stored_fails_on_a_perturbed_program(monkeypatch):
    """Shrinking the evaluated program's matrix by 1% makes every positive
    witness 1/0.99 longer than the stored vectors, so the check fails."""
    witness_program = CanonicalSpanProgram.witness_program
    monkeypatch.setattr(CanonicalSpanProgram, "witness_program",
                        lambda self: dataclasses.replace(witness_program(self), matrix=0.99 * self.matrix))
    report = verify("MAJ:3").report
    chk = next(c for c in report["checks"] if c["name"] == "wsize_le_stored")
    assert not chk["pass"] and chk["value"] > 0.01
    assert report["status"] == "FAIL"
