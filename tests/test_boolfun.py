import itertools
import math

import numpy as np
import pytest

from advspan.boolfun import (
    BooleanFunction,
    Formula,
    difference_matrix,
    element_maps,
    formula_size,
    input_maps,
    kw_partition,
    load_function,
    minimal_formula,
)
from advspan.errors import BadSpecError, CheckError

from conftest import reference_formula_size, reference_minimal_formula


def test_load_builtins():
    assert load_function("PARITY:2").table == (0, 1, 1, 0)
    assert load_function("OR:2").table == (0, 1, 1, 1)
    assert load_function("AND:3").table == (0,) * 7 + (1,)
    assert load_function("MAJ:3").table == (0, 0, 0, 1, 0, 1, 1, 1)


def test_load_bitstring():
    f = load_function("10010110")
    assert f.n == 3
    assert f.table == (1, 0, 0, 1, 0, 1, 1, 0)


@pytest.mark.parametrize("n, table, message", [
    (6, (0,) * 64, r"arity 6 outside 1\.\.5"),
    (2, (0, 1, 1), r"table length 3 != 2\^2"),
    (1, (0, 2), "table entries must be 0/1"),
])
def test_boolean_function_rejects_bad_tables(n, table, message):
    """BooleanFunction built directly, past load_function's own checks."""
    with pytest.raises(BadSpecError, match=message):
        BooleanFunction(n, table)


def test_load_rejects_bad_specs():
    for spec in ("XOR:2", "OR:0", "OR:6", "010", "01102", "", "OR:x"):
        with pytest.raises(BadSpecError):
            load_function(spec)


def test_difference_matrix_small():
    f1 = load_function("01")
    assert np.array_equal(difference_matrix(f1, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
    f2 = load_function("PARITY:2")
    d1 = difference_matrix(f2, 1)
    assert d1[0b00, 0b10] == 1.0  # differ in x_1
    assert d1[0b00, 0b01] == 0.0  # agree on x_1
    for i in (1, 2):
        assert np.all(np.diag(difference_matrix(f2, i)) == 0.0)
    with pytest.raises(BadSpecError, match=r"coordinate 3 outside 1\.\.2"):
        difference_matrix(f2, 3)


def test_difference_matrices_sum_to_hamming_distance():
    for n in (1, 2, 3, 4):
        f = BooleanFunction(n, tuple([0] * (2**n - 1) + [1]))
        total = sum(difference_matrix(f, i) for i in range(1, n + 1))
        for x, y in itertools.product(range(2**n), repeat=2):
            assert total[x, y] == bin(x ^ y).count("1")


def test_element_maps_match_a_direct_construction():
    """Every element g = pi 2^n + m at n <= 4, pi the pi-th tuple of
    itertools.permutations: element_maps gives the input s maps to, x_j of it
    being x_{pi(j)} of s xor m_j, and the coordinate j moves to, pi^-1(j); a
    batch of any shape gives the same maps."""
    for n in (1, 2, 3, 4):
        g = np.arange(math.factorial(n) * 2**n)
        images, coordinates = element_maps(n, g)
        assert images.shape == (len(g), 2**n) and coordinates.shape == (len(g), n)
        for k, pi in enumerate(itertools.permutations(range(n))):
            for m in range(2**n):
                row = k * 2**n + m
                for s in range(2**n):
                    x = [(s >> (n - 1 - j)) & 1 for j in range(n)]
                    image = sum((x[pi[j]] ^ (m >> (n - 1 - j)) & 1) << (n - 1 - j) for j in range(n))
                    assert images[row, s] == image
                assert coordinates[row].tolist() == [pi.index(j) for j in range(n)]
        batch = element_maps(n, g.reshape(-1, 2**n))
        assert np.array_equal(batch[0], images.reshape(-1, 2**n, 2**n))
        assert np.array_equal(batch[1], coordinates.reshape(-1, 2**n, n))


def test_input_maps_hold_one_row_per_permutation():
    """input_maps(5) keeps the 120 permutations' maps, not the 3840
    elements' (element_maps derives those): its arrays hold 74,432 bytes,
    under 100 KB."""
    assert sum(a.nbytes for a in input_maps(5)) < 100_000


def enumerate_tables_up_to(n, max_leaves):
    """Independent brute force: all truth tables of formulas with <= max_leaves
    leaves, by direct recursive enumeration of formula shapes."""
    literals = []
    for var in range(1, n + 1):
        for neg in (False, True):
            tab = tuple(
                1 - ((s >> (n - var)) & 1) if neg else ((s >> (n - var)) & 1)
                for s in range(2**n)
            )
            literals.append(tab)
    by_size = {1: set(literals)}
    for k in range(2, max_leaves + 1):
        acc = set()
        for i in range(1, k):
            for t1 in by_size.get(i, ()):
                for t2 in by_size.get(k - i, ()):
                    acc.add(tuple(a & b for a, b in zip(t1, t2)))
                    acc.add(tuple(a | b for a, b in zip(t1, t2)))
        by_size[k] = acc
    reachable = {}
    for k in range(1, max_leaves + 1):
        for tab in by_size.get(k, ()):
            reachable.setdefault(tab, k)
    return reachable


def test_formula_size_examples():
    assert formula_size(load_function("01")) == 1  # single literal
    assert formula_size(load_function("OR:2")) == 2
    assert formula_size(load_function("PARITY:2")) == 4


def test_formula_size_matches_brute_force_enumeration():
    oracle = enumerate_tables_up_to(2, 5)
    parity = load_function("PARITY:2")
    assert oracle[parity.table] == 4  # no 3-leaf formula computes parity
    for code in range(1, 15):
        table = tuple((code >> (3 - s)) & 1 for s in range(4))
        f = BooleanFunction(2, table)
        assert formula_size(f, max_leaves=5) == oracle[table]


def test_formula_size_budget_and_arity_limits():
    assert formula_size(load_function("PARITY:3"), max_leaves=7) is None  # L(parity_3) > 7
    with pytest.raises(BadSpecError, match="exhaustive synthesis supports n <= 4, got 5"):
        formula_size(BooleanFunction(5, tuple([0, 1] * 16)))
    for cap in (0, 13):  # the table stops at MAX_LEAVES = 12
        with pytest.raises(BadSpecError):
            minimal_formula(load_function("OR:2"), max_leaves=cap)


def test_formula_table_matches_the_dict_search_up_to_three_bits():
    """The array table gives the dict-based search's leaf count under every
    cap, and the same decomposition, on every table of up to 3 bits."""
    for n in (1, 2, 3):
        tables = [BooleanFunction(n, tuple((code >> s) & 1 for s in range(2**n))) for code in range(2 ** 2**n)]
        for cap in range(1, 13):
            for f in tables:
                assert formula_size(f, max_leaves=cap) == reference_formula_size(f, cap)
                assert minimal_formula(f, max_leaves=cap) == reference_minimal_formula(f, cap)


@pytest.mark.parametrize("spec, leaves", [
    ("OR:4", 4), ("AND:4", 4), ("MAJ:4", 8), ("0001011101111110", 12),
    ("PARITY:4", None),  # L(parity_4) = 16 > 12
])
def test_formula_size_at_four_bits(spec, leaves):
    f = load_function(spec)
    assert formula_size(f) == leaves
    formula = minimal_formula(f)
    if leaves is not None:
        assert formula.truth_table(4) == f.table and formula.leaves() == leaves
    else:
        assert formula is None


def test_minimal_formula_roundtrip():
    for spec in ("OR:2", "PARITY:2", "MAJ:3", "0111", "1001"):
        f = load_function(spec)
        formula = minimal_formula(f)
        assert formula.truth_table(f.n) == f.table
        assert formula.leaves() == formula_size(f)


def test_kw_partition_single_literal():
    f = load_function("01")
    part = kw_partition(Formula.literal(1), f)
    part.verify()
    assert len(part.rectangles) == 1
    rect = part.rectangles[0]
    assert (set(rect.xs), set(rect.ys), rect.color) == ({0}, {1}, 1)


def test_kw_partition_or2():
    f = load_function("OR:2")
    part = kw_partition(Formula.gate("OR", Formula.literal(1), Formula.literal(2)), f)
    part.verify()
    assert len(part.rectangles) == 2
    covered = {(x, y) for r in part.rectangles for x in r.xs for y in r.ys}
    assert covered == {(0b00, 0b01), (0b00, 0b10), (0b00, 0b11)}


def test_kw_partition_parity2():
    f = load_function("PARITY:2")
    part = kw_partition(minimal_formula(f), f)
    part.verify()
    assert len(part.rectangles) == 4
    covered = {(x, y) for r in part.rectangles for x in r.xs for y in r.ys}
    assert covered == {(x, y) for x in f.f0 for y in f.f1}


def test_kw_partition_rejects_wrong_formula():
    with pytest.raises(CheckError, match="formula does not compute the function"):
        kw_partition(Formula.gate("AND", Formula.literal(1), Formula.literal(2)), load_function("OR:2"))


def test_kw_partitions_verify_across_corpus():
    for spec in ("OR:3", "MAJ:3", "0110", "1011", "0001"):
        f = load_function(spec)
        part = kw_partition(minimal_formula(f), f)
        part.verify()
        assert len(part.rectangles) == formula_size(f)


def restrict(a, rect, f0_order, f1_order):
    out = np.zeros_like(a)
    for i, x in enumerate(f0_order):
        for j, y in enumerate(f1_order):
            if x in rect.xs and y in rect.ys:
                out[i, j] = a[i, j]
    return out


def test_spectral_norm_squared_subadditive_over_rectangles():
    rng = np.random.default_rng(29)
    for spec in ("PARITY:2", "OR:2", "MAJ:3"):
        f = load_function(spec)
        part = kw_partition(minimal_formula(f), f)
        f0, f1 = f.f0, f.f1
        for _ in range(20):
            a = rng.standard_normal((len(f0), len(f1)))
            pieces = sum(
                np.linalg.norm(restrict(a, r, f0, f1), 2) ** 2 for r in part.rectangles
            )
            assert np.linalg.norm(a, 2) ** 2 <= pieces + 1e-9


def test_formula_bound_holds_for_parity3(solved):
    """The one n = 3 family member beyond 8 leaves: L(parity_3) = 10 within
    the 12-leaf budget, and ADV = 3 <= sqrt(10)."""
    f = load_function("PARITY:3")
    leaves = formula_size(f, max_leaves=12)
    assert leaves == 10
    assert solved("PARITY:3").solution.xi <= np.sqrt(leaves) + 1e-6
