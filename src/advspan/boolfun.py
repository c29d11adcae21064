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

from .errors import BadSpecError, CheckError

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
            raise BadSpecError(f"coordinate {j} outside 1..{self.n}")
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
        raise BadSpecError(f"coordinate {i} outside 1..{f.n}")
    bits = f.bits[:, i - 1]
    return (bits[:, None] != bits[None, :]).astype(float)


@lru_cache(maxsize=None)
def input_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The input permutations pi of n bits, numbered as itertools.permutations
    (0 the identity), one row each: the input each s maps to under pi alone,
    x_j of the image being x_{pi(j)} of s, of shape (n!, 2^n); the coordinate
    each j moves to, pi^-1(j), of shape (n!, n); the input each t comes from
    under pi, of shape (n!, 2^n); and the Hadamard matrix (-1)^(u.v) of side
    2^n.  Built on first use, once per n.

    The permutation and negation g = (pi, m), which maps s to pi(s) xor m, is
    numbered g = pi 2^n + m; element_maps reads its maps off the first two."""
    perms = np.array(list(itertools.permutations(range(n))))
    bits = input_bits(n)
    permuted = (1 << (n - 1 - np.arange(n))) @ bits.T[perms]  # (n!, 2^n)
    sources = np.empty_like(permuted)
    sources[np.arange(len(perms))[:, None], permuted] = np.arange(2**n)
    walsh = 1.0 - 2.0 * ((bits @ bits.T) & 1)
    return permuted, np.argsort(perms, axis=1), sources, walsh


def element_maps(n: int, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maps of the elements g = pi 2^n + m (input_maps), for g of any
    shape: the input each s maps to, pi(s) xor m, of shape g.shape + (2^n,),
    and the coordinate each j moves to, pi^-1(j), of shape g.shape + (n,)."""
    permuted, coordinates, _, _ = input_maps(n)
    g = np.asarray(g)
    return permuted[g >> n] ^ (g & (2**n - 1))[..., None], coordinates[g >> n]


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


MAX_LEAVES = 12
_OPS = ("LIT", "AND", "OR")  # parent[code, 0] indexes this


@lru_cache(maxsize=None)
def _formula_dp(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The least leaf count of a De Morgan formula for every n-bit table, up
    to MAX_LEAVES, and the decomposition that reaches it.

    Two read-only arrays indexed by table code (bit s = f(s)): best[code] is
    the least leaf count, 0 when it exceeds MAX_LEAVES, and parent[code] is
    (op, left, right), op indexing _OPS, a literal storing (var, negated) and
    a gate its children's codes.  Bottom-up over exact minimal counts, which
    suffices because a minimal formula's subformulas are minimal.  Level k
    joins the codes first reached at i and k - i leaves, for each split i,
    each chunk of level i, AND before OR, and lists the codes it reaches first
    in that order, each chunk's in increasing code; a code keeps the first
    pair of the row-major outer product that reaches it.  Built on first use,
    once per n.
    """
    size = 1 << 2**n
    best = np.zeros(size, np.int8)
    parent = np.zeros((size, 3), np.int64)
    bits = input_bits(n)
    literals = np.stack([bits, 1 - bits], axis=2).reshape(2**n, 2 * n).T @ (1 << np.arange(2**n))
    best[literals] = 1
    parent[literals, 1] = np.repeat(np.arange(1, n + 1), 2)  # x1, not x1, x2, ...
    parent[literals, 2] = np.tile([0, 1], n)
    levels = [None, literals.astype(np.uint16)]  # levels[k]: the codes first reached at k leaves
    for k in range(2, MAX_LEAVES + 1):
        fresh = []
        for i in range(1, k // 2 + 1):
            b = levels[k - i]
            step = max(1, (1 << 22) // max(1, len(b)))  # chunk the outer products to bound memory on n = 4
            for lo in range(0, len(levels[i]), step):
                blk = levels[i][lo : lo + step]
                for op, join in ((1, np.bitwise_and), (2, np.bitwise_or)):
                    prod = join.outer(blk, b).ravel()
                    flat = np.flatnonzero(best[prod] == 0)
                    first = np.full(size, len(prod))
                    np.minimum.at(first, prod[flat], flat)
                    codes = np.flatnonzero(first < len(prod))
                    best[codes] = k
                    rows, cols = np.divmod(first[codes], len(b))
                    parent[codes] = np.column_stack([np.full(len(codes), op), blk[rows], b[cols]])
                    fresh.append(codes.astype(np.uint16))
        levels.append(np.concatenate(fresh))
    best.flags.writeable = parent.flags.writeable = False
    return best, parent


def _least_leaves(f: BooleanFunction, max_leaves: int) -> tuple[int, int | None]:
    """f's table code and its least leaf count, None past max_leaves."""
    if f.n > 4:
        raise BadSpecError(f"exhaustive synthesis supports n <= 4, got {f.n}")
    if not 1 <= max_leaves <= MAX_LEAVES:
        raise BadSpecError(f"max_leaves must lie in 1..{MAX_LEAVES}")
    code = sum(v << s for s, v in enumerate(f.table))
    leaves = int(_formula_dp(f.n)[0][code])
    return code, (leaves if 0 < leaves <= max_leaves else None)


def formula_size(f: BooleanFunction, max_leaves: int = MAX_LEAVES) -> int | None:
    """Minimal leaf count of a De Morgan formula for f, or None past max_leaves."""
    return _least_leaves(f, max_leaves)[1]


def minimal_formula(f: BooleanFunction, max_leaves: int = MAX_LEAVES) -> Formula | None:
    """A leaf-minimal De Morgan formula computing f, or None past max_leaves."""
    code, leaves = _least_leaves(f, max_leaves)
    if leaves is None:
        return None
    parent = _formula_dp(f.n)[1]

    def rebuild(c: int) -> Formula:
        op, left, right = parent[c].tolist()
        if op == 0:
            return Formula.literal(left, negated=bool(right))
        return Formula.gate(_OPS[op], rebuild(left), rebuild(right))

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
                        raise CheckError(f"pair ({x}, {y}) covered twice")
                    seen.add((x, y))
                    if self.f.bit(x, r.color) == self.f.bit(y, r.color):
                        raise CheckError(
                            f"pair ({x}, {y}) agrees on coordinate {r.color}"
                        )
        want = {(x, y) for x in self.f.f0 for y in self.f.f1}
        if seen != want:
            raise CheckError("rectangles do not cover F0 x F1")


def kw_partition(formula: Formula, f: BooleanFunction) -> RectanglePartition:
    """Monochromatic rectangle partition of F0 x F1 induced by a formula for f.

    Follows the protocol-from-formula recursion: an AND splits the false
    side by which child fails (first child wins ties), an OR splits the
    true side by which child succeeds, and a leaf colors its literal.
    One rectangle per leaf, including empty ones.
    """
    if formula.truth_table(f.n) != f.table:
        raise CheckError("formula does not compute the function")

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
