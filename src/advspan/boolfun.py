"""Boolean functions as truth tables, difference matrices, and De Morgan formulas.

Input strings are indexed by their integer value with the most significant
bit being x_1; this convention is fixed project-wide.  Coordinates are
1-based in every public signature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ArityTooLargeError,
    BadSpecError,
    FormulaMismatchError,
    IndexOutOfRangeError,
)

MAX_ARITY = 5
_BUILTINS = ("OR", "AND", "PARITY", "MAJ")


def input_bits(n: int) -> np.ndarray:
    """The (2^n, n) 0/1 table of every n-bit input: row s, column j-1 is x_j
    of s, the most significant bit being x_1."""
    return (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table of an n-ary boolean function."""

    n: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ARITY:
            raise BadSpecError(f"arity {self.n} outside 1..{MAX_ARITY}")
        if len(self.table) != 2**self.n:
            raise BadSpecError(f"table length {len(self.table)} != 2^{self.n}")
        if any(v not in (0, 1) for v in self.table):
            raise BadSpecError("table entries must be 0/1")

    def value(self, s: int) -> int:
        return self.table[s]

    def bit(self, s: int, j: int) -> int:
        """Bit x_j of input string s (j is 1-based, MSB = x_1)."""
        if not 1 <= j <= self.n:
            raise IndexOutOfRangeError(f"coordinate {j} outside 1..{self.n}")
        return (s >> (self.n - j)) & 1

    @property
    def bits(self) -> np.ndarray:
        """The (2^n, n) 0/1 table of every input: bits[s, j-1] = x_j of s (MSB = x_1)."""
        return input_bits(self.n)

    @property
    def inputs(self) -> range:
        return range(2**self.n)

    @property
    def f0(self) -> tuple[int, ...]:
        return tuple(s for s in self.inputs if self.table[s] == 0)

    @property
    def f1(self) -> tuple[int, ...]:
        return tuple(s for s in self.inputs if self.table[s] == 1)

    @property
    def is_constant(self) -> bool:
        return len(set(self.table)) == 1

    def name(self) -> str:
        return "".join(str(v) for v in self.table)


def load_function(spec: str) -> BooleanFunction:
    """Parse "OR:n" / "AND:n" / "PARITY:n" / "MAJ:n" or a raw truth-table bitstring."""
    spec = spec.strip()
    if ":" in spec:
        name, _, arity = spec.partition(":")
        name = name.upper()
        if name not in _BUILTINS:
            raise BadSpecError(f"unknown builtin {name!r}")
        try:
            n = int(arity)
        except ValueError:
            raise BadSpecError(f"bad arity in {spec!r}") from None
        if not 1 <= n <= MAX_ARITY:
            raise BadSpecError(f"arity {n} outside 1..{MAX_ARITY}")
        table = []
        for s in range(2**n):
            ones = bin(s).count("1")
            if name == "OR":
                table.append(1 if ones > 0 else 0)
            elif name == "AND":
                table.append(1 if ones == n else 0)
            elif name == "PARITY":
                table.append(ones % 2)
            else:  # MAJ
                table.append(1 if 2 * ones > n else 0)
        return BooleanFunction(n, tuple(table))
    if set(spec) <= {"0", "1"} and len(spec) >= 2:
        n = len(spec).bit_length() - 1
        if 2**n != len(spec):
            raise BadSpecError(f"table length {len(spec)} is not a power of two")
        return BooleanFunction(n, tuple(int(ch) for ch in spec))
    raise BadSpecError(f"cannot parse function spec {spec!r}")


def difference_matrix(f: BooleanFunction, i: int) -> np.ndarray:
    """0/1 matrix with entry (x, y) = 1 exactly when x_i != y_i."""
    if not 1 <= i <= f.n:
        raise IndexOutOfRangeError(f"coordinate {i} outside 1..{f.n}")
    bits = f.bits[:, i - 1]
    return (bits[:, None] != bits[None, :]).astype(float)


@lru_cache(maxsize=None)
def input_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every input permutation and negation g = (pi, m) of n bits, row
    pi 2^n + m with pi numbered as itertools.permutations (0 the identity):
    the input each s maps to, x_j of the image being x_{pi(j)} of s xor m_j,
    of shape (n! 2^n, 2^n), and the coordinate each j moves to, pi^-1(j), of
    shape (n! 2^n, n).  With them, the input each t comes from under pi
    alone, of shape (n!, 2^n), and the Hadamard matrix (-1)^(u.v) of side
    2^n.  Built on first use, once per n."""
    perms = np.array(list(itertools.permutations(range(n))))
    bits = input_bits(n)
    permuted = bits[:, perms] @ (1 << (n - 1 - np.arange(n)))  # (2^n, n!)
    images = (permuted.T[:, None, :] ^ np.arange(2**n)[:, None]).reshape(-1, 2**n)
    sources = np.empty_like(permuted.T)
    sources[np.arange(len(perms))[:, None], permuted.T] = np.arange(2**n)
    walsh = 1.0 - 2.0 * ((bits @ bits.T) & 1)
    return images, np.repeat(np.argsort(perms, axis=1), 2**n, axis=0), sources, walsh


def automorphism_cosets(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aut(f), the input permutations and negations g with f(g(s)) = f(s) for
    every s, as cosets of its pure negations: (perms, shifts, negations) with
    Aut(f) the union over k of (perms[k], shifts[k] xor N), N = negations.
    Output negation is not included: it swaps F0 and F1.

    With a = (-1)^f and b_pi = a o pi^-1 (pi alone, no negation), (pi, m)
    fixes f exactly when sum_t a(t xor m) b_pi(t) = 2^n.  The XOR
    convolution theorem gives that sum for every m at once as
    H (H a . H b_pi) / 2^n, H the Hadamard matrix: three small GEMMs over the
    n! permutations instead of a look-up per candidate and input."""
    _, _, sources, walsh = input_maps(f.n)
    size = 2**f.n
    sign = 1.0 - 2.0 * np.array(f.table)
    correlation = ((np.take(sign, sources) @ walsh) * (sign @ walsh)) @ walsh  # 2^n times the sum, exact
    fixes = correlation == size * size
    perms = np.flatnonzero(fixes.any(axis=1))
    return perms, fixes[perms].argmax(axis=1), np.flatnonzero(fixes[0])


# ---------------------------------------------------------------------------
# De Morgan formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Formula:
    """Binary AND/OR tree over literals and negated literals.

    op is "AND"/"OR" for gates and "LIT" for leaves; var is the 1-based
    coordinate for leaves, negated applies only to leaves.
    """

    op: str
    var: int = 0
    negated: bool = False
    left: "Formula | None" = None
    right: "Formula | None" = None

    @staticmethod
    def literal(var: int, negated: bool = False) -> "Formula":
        return Formula("LIT", var=var, negated=negated)

    @staticmethod
    def gate(op: str, left: "Formula", right: "Formula") -> "Formula":
        if op not in ("AND", "OR"):
            raise BadSpecError(f"unknown gate {op!r}")
        return Formula(op, left=left, right=right)

    def leaves(self) -> int:
        if self.op == "LIT":
            return 1
        return self.left.leaves() + self.right.leaves()

    def evaluate(self, s: int, n: int) -> int:
        if self.op == "LIT":
            b = (s >> (n - self.var)) & 1
            return 1 - b if self.negated else b
        a = self.left.evaluate(s, n)
        b = self.right.evaluate(s, n)
        return a & b if self.op == "AND" else a | b

    def truth_table(self, n: int) -> tuple[int, ...]:
        return tuple(self.evaluate(s, n) for s in range(2**n))


def _table_code(table: tuple[int, ...]) -> int:
    code = 0
    for s, v in enumerate(table):
        code |= v << s
    return code


@lru_cache(maxsize=8)
def _formula_dp(n: int, max_leaves: int):
    """Tables reachable with at most max_leaves leaves, plus witness parents.

    Returns (best, parent): best maps table-code -> minimal leaf count,
    parent maps table-code -> ("LIT", var, negated) or (op, code1, code2).
    Bottom-up over exact minimal counts; correctness follows from
    L(g op h) decompositions using minimal subformulas only.
    """
    full = (1 << (2**n)) - 1
    best: dict[int, int] = {}
    parent: dict[int, tuple] = {}
    levels: list[list[int]] = [[]]  # levels[k] = codes first reached at k leaves

    first = []
    for var in range(1, n + 1):
        for negated in (False, True):
            code = _table_code(
                tuple(
                    (1 - ((s >> (n - var)) & 1)) if negated else ((s >> (n - var)) & 1)
                    for s in range(2**n)
                )
            )
            if code not in best:
                best[code] = 1
                parent[code] = ("LIT", var, negated)
                first.append(code)
    levels.append(first)

    for k in range(2, max_leaves + 1):
        fresh: list[int] = []
        for i in range(1, k // 2 + 1):
            a = np.array(levels[i], dtype=np.uint32)
            b = np.array(levels[k - i], dtype=np.uint32)
            if len(a) == 0 or len(b) == 0:
                continue
            # chunk the outer products to bound memory on n = 4
            step = max(1, (1 << 22) // max(1, len(b)))
            for lo in range(0, len(a), step):
                blk = a[lo : lo + step]
                for op, prod in (
                    ("AND", blk[:, None] & b[None, :]),
                    ("OR", blk[:, None] | b[None, :]),
                ):
                    codes, idx = np.unique(prod, return_index=True)
                    for code, flat in zip(codes.tolist(), idx.tolist()):
                        if code not in best:
                            best[code] = k
                            parent[code] = (op, int(blk[flat // len(b)]), int(b[flat % len(b)]))
                            fresh.append(code)
        levels.append(fresh)
        if len(best) == full + 1:
            break
    return best, parent


def formula_size(f: BooleanFunction, max_leaves: int = 12) -> int | None:
    """Minimal leaf count of a De Morgan formula for f, or None past max_leaves."""
    if f.n > 4:
        raise ArityTooLargeError(f"exhaustive synthesis supports n <= 4, got {f.n}")
    if not 1 <= max_leaves <= 12:
        raise BadSpecError("max_leaves must lie in 1..12")
    best, _ = _formula_dp(f.n, max_leaves)
    return best.get(_table_code(f.table))


def minimal_formula(f: BooleanFunction, max_leaves: int = 12) -> Formula | None:
    """A leaf-minimal De Morgan formula computing f, or None past max_leaves."""
    if f.n > 4:
        raise ArityTooLargeError(f"exhaustive synthesis supports n <= 4, got {f.n}")
    best, parent = _formula_dp(f.n, max_leaves)
    code = _table_code(f.table)
    if code not in best:
        return None

    def rebuild(c: int) -> Formula:
        node = parent[c]
        if node[0] == "LIT":
            return Formula.literal(node[1], negated=node[2])
        return Formula.gate(node[0], rebuild(node[1]), rebuild(node[2]))

    return rebuild(code)


# ---------------------------------------------------------------------------
# Karchmer-Wigderson rectangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """Combinatorial rectangle X x Y colored by a coordinate where they differ."""

    xs: frozenset[int]
    ys: frozenset[int]
    color: int


@dataclass(frozen=True)
class RectanglePartition:
    f: BooleanFunction
    rectangles: tuple[Rectangle, ...]

    def verify(self) -> None:
        """Raise if the rectangles fail to partition F0 x F1 monochromatically."""
        seen: set[tuple[int, int]] = set()
        for r in self.rectangles:
            for x in r.xs:
                for y in r.ys:
                    if (x, y) in seen:
                        raise FormulaMismatchError(f"pair ({x}, {y}) covered twice")
                    seen.add((x, y))
                    if self.f.bit(x, r.color) == self.f.bit(y, r.color):
                        raise FormulaMismatchError(
                            f"pair ({x}, {y}) agrees on coordinate {r.color}"
                        )
        want = {(x, y) for x in self.f.f0 for y in self.f.f1}
        if seen != want:
            raise FormulaMismatchError("rectangles do not cover F0 x F1")


def kw_partition(formula: Formula, f: BooleanFunction) -> RectanglePartition:
    """Monochromatic rectangle partition of F0 x F1 induced by a formula for f.

    Follows the protocol-from-formula recursion: an AND splits the false
    side by which child fails (first child wins ties), an OR splits the
    true side by which child succeeds, and a leaf colors its literal.
    One rectangle per leaf, including empty ones.
    """
    if formula.truth_table(f.n) != f.table:
        raise FormulaMismatchError("formula does not compute the function")

    rects: list[Rectangle] = []

    def recurse(node: Formula, xs: frozenset[int], ys: frozenset[int]) -> None:
        if node.op == "LIT":
            rects.append(Rectangle(xs, ys, node.var))
            return
        lt = node.left
        if node.op == "AND":
            x_left = frozenset(x for x in xs if lt.evaluate(x, f.n) == 0)
            recurse(node.left, x_left, ys)
            recurse(node.right, xs - x_left, ys)
        else:
            y_left = frozenset(y for y in ys if lt.evaluate(y, f.n) == 1)
            recurse(node.left, xs, y_left)
            recurse(node.right, xs, ys - y_left)

    recurse(formula, frozenset(f.f0), frozenset(f.f1))
    return RectanglePartition(f, tuple(rects))
