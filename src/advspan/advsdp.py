"""Witness-size SDP for the general adversary bound, and its dual certificate.

The primal minimizes xi over PSD matrices X indexed by (input, coordinate)
pairs subject to
    sum_{j : w_j != x_j} X[(w,j),(x,j)] = 1          for every (w,x) in F0 x F1,
    sum_j X[(s,j),(s,j)] <= xi                        for every input s.
The optimum equals ADV(f), the maximum over adversary matrices Gamma of
||Gamma|| / max_i ||Gamma o D_i||.  A constraint reads X[(w,j),(x,j)] only
where w_j != x_j with w in F0 and x in F1, that is where w and x lie in the
same class C_{j,c} = {s : s_j xor f(s) = c} (c = w_j = 1 - x_j), or on the
diagonal.  The constraint pattern is therefore disconnected into 2n classes,
and by the matrix-completion argument of Fukuda, Kojima, Murota and Nakata
(SIAM J. Optim. 2001) the cone is exactly the product of 2n PSD cones, one
class block X_{j,c} per class: zeroing every other entry keeps a PSD X PSD
(the class blocks are principal submatrices), feasible and as good.  The
HKM iterates below never leave this form either, so the full solver run on
the n Gram blocks X_j of side 2^n would keep their entries between classes
at exactly zero.

The solver is a primal-dual interior-point method: the HKM search direction
(Helmberg, Rendl, Vanderbei and Wolkowicz, SIAM J. Optim. 1996) with
Mehrotra's predictor-corrector, as in SDPT3.  The variable is
v = (vec(X_{0,0}) vec(X_{0,1}) ... vec(X_{n-1,1}), slacks u, xi) in the cone
PSD^{2n} x R+^(S+1) (xi >= max row sum >= 0), and the equalities are the
pair rows and the S rows sum_j X_j[s,s] + u_s - xi = 0.  Their multipliers y
give the dual directly: alpha = y_pair and beta = -y_row, which assemble into
the adversary-matrix certificate via Gamma[w,x] = alpha_{w,x} / sqrt(beta_w beta_x).
The class blocks share one stack of side K = max |C_{j,c}|; a smaller class
is zero-padded, and the padding holds zero in X, Z and every direction, so it
adds nothing to <X, Z> or mu.

Each iteration solves one Schur complement system, M_ik = tr(A_i X A_k Z^-1)
plus the (u, xi) part.  Every constraint puts entries (E_ab + E_ba) / 2 into
class blocks: a pair row one per coordinate where w and x differ, a row sum
one at (s,s) of the class block of s in each coordinate.  Within class block
(j,c) every F0 member pairs with every F1 member, so over the pair grid
F0 x F1 every pair-pair term of M is a sum over the 4n (class block, X or
Z^-1) of one F0-side times one F1-side matrix, gathered from the stack with
zeros off the class, and M is built from GEMMs (schur_complement).  M has
side |F0||F1| + 2^n (at most 288 at n = 5), and neither the dense constraint
matrix nor a matrix of side n 4^n is ever formed.  Each iterate's class
blocks are factored once, X_b = L L^T and Z_b = L L^T (a padded block with
the identity on its padding): Z^-1 is L_Z^-T L_Z^-1, the largest step keeping
V + a dV PSD is read off lambda_min(L^-1 dV L^-T), and a failed factorization
means roundoff has left the cone's interior.  No eigh runs inside the loop;
eigvalsh of L^-1 dV L^-T is the only spectral call.

Each Newton system is solved on the orbits of Aut(f), the input
permutations and negations g with f o g = f (output negation is excluded:
it swaps F0 and F1).  g acts on the three index sets of the SDP: the pair
rows (w,x) -> (g(w), g(x)), the inputs s -> g(s) (the row sums and the
slacks u), and the stack entries X_j[s,t] -> X_{j'}[g(s), g(t)], j' the
coordinate g moves j to; it maps class blocks onto class blocks and the
constraints onto themselves.  The reduction is exact.  By the automorphism
principle of Hoyer, Lee and Spalek (quant-ph/0611054) an optimal adversary
matrix may be taken invariant, and more than that the HKM central path from
X = Z = I is unique, hence invariant, so every iterate and every Newton
system commutes with the group (Gatermann and Parrilo, J. Pure Appl.
Algebra 2004).  With the rows' 0/1 orbit-membership matrix P and
D = P^T P, dy = P d and M dy = r reduce to D^-1/2 P^T M P D^-1/2 (D^1/2 d)
= D^-1/2 P^T r: M is built only at one representative row per orbit,
summed over each orbit's columns, and is symmetric positive definite of side
the number of orbits (MAJ:5 288 -> 20, PARITY:5 288 -> 5, MAJ:4 71 -> 13).
y and Z then move by orbit-constant steps, but dX comes through products
with Z^-1, so X is averaged over its orbits after every step, or roundoff
lets it drift (a prototype that reduced only the Newton system lost primal
feasibility on MAJ:4).  So is Z^-1: computed from the per-block Cholesky
factors, which no permutation commutes with, it is invariant only to about
eps cond(Z), cond(Z) ~ 1/mu, and the representative rows would stop
representing their orbits near the optimum.  Z is averaged too, which moves
it by at most an ulp.  Averaged, every class block of X, Z and Z^-1 is an
exact permutation of the least block of its orbit under the group, so the
block algebra runs on those representatives only (4 of MAJ:5's 20 blocks of
X and Z, 2 of PARITY:5's): the Cholesky factors and their inverses, Z^-1,
X R_d Z^-1, the products of both directions and the eigvalsh of the step
lengths.  Each product that A reads reaches the whole stack through one
gather (Orbits.from_reps); the averages keep each representative invariant
under its own stabilizer.  A step length read off one representative in
place of the least over its orbit differs at the roundoff that cond(X)
amplifies, about 1e-8 relative near the optimum.  A function whose group is
trivial, as almost every random table, solves on all of M and every block
exactly as before, and so does one whose M has side below MIN_REDUCED_SIDE,
where the reduction's own calls cost more than they save.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .boolfun import BooleanFunction, automorphism_cosets, input_maps
from .errors import (
    ConstantFunctionError,
    DegenerateDualError,
    NoConvergenceError,
    PatternViolationError,
    ZeroMatrixError,
)

DEFAULT_TOL = 1e-7
MIN_TOL = 1e-9
MAX_ITERATIONS = 100
BETA_DROP_TOL = 1e-10
# The side of the smallest Schur complement solved on the orbits of Aut(f).
# Below it M and the class blocks cost less to build and factor than the
# reduction's own calls each iteration (the averages, the gathers and the
# expand GEMVs).  Build and solve reduced, against the same on all of M and
# every block (process time, 1 BLAS thread, interleaved medians): the 254
# 3-bit tables (side <= 24) 1.10 times as long, OR:4 and AND:4 (31) 1.03
# and 1.04; 4-bit tables of weight 2 (44) 0.95-1.05 and of weight 3 (55)
# 0.96-1.17 by group order, 1.17 at order 2; OR:5 and AND:5 (63) 0.78 and
# 0.80, MAJ:4 (71) 0.88.  At n <= 5 the sides 56 to 63 hold only OR:5, AND:5
# and their members.
MIN_REDUCED_SIDE = 56


@dataclass(frozen=True)
class Orbits:
    """The orbits of Aut(f), of order |G| > 1, on the SDP's three index sets
    and on its class blocks.

    label holds the orbit of each entry of the class-block stack (the padding
    is one orbit of zeros), then of each slack u_s, that is of each input;
    weight is 1 / orbit size per element, so the orbit average of v is
    bincount(label, v)[label] * weight (average).  row maps each equality
    row, the pairs then the inputs, to its reduced row: the pair orbits
    first, sorted by their representative's u on the Schur complement's loop
    side, then the input orbits.  reps holds the representative equality row
    of each reduced row, scale sqrt(orbit size), and expand = P D^-1/2, P the
    0/1 orbit-membership matrix of the rows and D = P^T P: its columns are
    orthonormal, M reduces to expand^T M expand and dy = expand dy_reduced.
    blocks lists the least class block of each orbit of the group on the 2n
    class blocks, and from_reps maps the stack onto those blocks: entry e of
    the stack is entry from_reps[e] of the representatives' stack, the one a
    group element carries onto e, and the padding reads the zero after it.
    inputs holds the least member of each input's orbit.
    """

    order: int
    label: np.ndarray
    weight: np.ndarray
    row: np.ndarray
    reps: np.ndarray
    expand: np.ndarray
    scale: np.ndarray
    blocks: np.ndarray
    from_reps: np.ndarray
    inputs: np.ndarray

    def average(self, v: np.ndarray) -> np.ndarray:
        """v averaged over each orbit, in place: a class-block stack, or a flat
        variable [stack | u | xi] (xi is fixed by the group)."""
        size = min(len(v), len(self.label))
        label = self.label[:size]
        v[:size] = np.bincount(label, weights=v[:size])[label] * self.weight[:size]
        return v

    def expand_stack(self, reps: np.ndarray) -> np.ndarray:
        """The whole class-block stack, flat, from the stack of the
        representative blocks; exact for a stack constant on its orbits."""
        return np.take(np.append(reps, 0.0), self.from_reps)


@dataclass(frozen=True)
class WitnessSdp:
    """Standard-form data for the witness-size SDP of one function.

    Class block b = 2j + c holds X_{j,c}, the Gram block of coordinate j
    (0-based) on the class C_{j,c} = {s : s_j xor f(s) = c}; members[b] lists
    its inputs in increasing order, then -1 on the padding up to the common
    side K.  The flat variable vector is [vec(X_0) ... vec(X_{2n-1}) | u | xi]
    with X_b[i,k] at (b K + i) K + k.  Equality rows cover the F0 x F1 pair
    constraints followed by the slack-completed row-sum constraints
    sum_j X_j[s,s] + u_s = xi, with X_j[s,s] at diagonal[j, s].  Pair row p
    sums (X_j[w,x] + X_j[x,w]) / 2 over the entries e with entry_pair[e] = p,
    one per 0-based j with w_j != x_j, at entry_index[e] and entry_mirror[e].
    padding indexes the padding's diagonal in the stack [X; Z] of the class
    blocks the solver factors: every block, or one per orbit (Orbits.blocks).

    gather holds the flat indices that schur_complement reads from the stack
    [X | 0 | Z^-1 | 0] (the two stacks, each followed by one zero), one array
    per product term, pointing at that zero off the class; gather["blocks"],
    of shape (n, 2^n, 2^n), maps the stack onto the n Gram blocks X_j of side
    2^n (to_blocks).  gather["runs"] lists the rows schur_complement builds,
    one GEMM per u on the smaller side of F0 x F1, and gather["pair_reps"]
    and gather["input_reps"] the pairs and inputs at those rows.

    orbits holds the orbits of Aut(f) on the pair rows, the inputs, the
    stack entries and the class blocks (Orbits), the map of the equality
    rows onto the reduced Newton system and of the representative blocks
    onto the stack; None when the group is trivial or M has side below
    MIN_REDUCED_SIDE, and every row of M is then built and solved and every
    class block factored.
    """

    f: BooleanFunction
    pairs: tuple[tuple[int, int], ...]
    members: np.ndarray
    entry_pair: np.ndarray
    entry_index: np.ndarray
    entry_mirror: np.ndarray
    diagonal: np.ndarray
    padding: np.ndarray
    gather: dict
    orbits: Orbits | None

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def num_inputs(self) -> int:
        return 2**self.f.n

    @property
    def side(self) -> int:
        """K, the side of every padded class block."""
        return self.members.shape[1]

    @property
    def sizes(self) -> np.ndarray:
        """|C_{j,c}| per class block b = 2j + c."""
        return (self.members >= 0).sum(axis=1)

    @property
    def stack_size(self) -> int:
        """2n K^2, the entries of the class-block stack in the flat variable."""
        return self.members.size * self.side


def build_witness_sdp(f: BooleanFunction) -> WitnessSdp:
    """Index the constraint system on the 2n class blocks; one equality per
    (w,x), one row bound per s, the gather indices of schur_complement, and
    the orbits of Aut(f), computed once per function."""
    if f.is_constant:
        raise ConstantFunctionError("ADV is undefined for constant functions (F0 x F1 is empty)")
    n, s = f.n, 2**f.n
    pairs = tuple(itertools.product(f.f0, f.f1))
    bits, f0, f1 = f.bits, np.array(f.f0), np.array(f.f1)
    cls = bits ^ np.array(f.table)[:, None]  # (s, j): the c of the class of s in coordinate j
    block = 2 * np.arange(n) + cls
    pos = np.where(cls, np.cumsum(cls, axis=0), np.cumsum(1 - cls, axis=0)) - 1  # place within the class
    side = int(np.bincount(block.ravel(), minlength=2 * n).max())
    members = np.full((2 * n, side), -1)
    members[block, pos] = np.arange(s)[:, None]
    zero = members.size * side  # the zero after each stack, at zero and 2 zero + 1
    c = cls.T
    # entries[j, s, t]: where X_j[s,t] sits in the stack, or zero between two classes
    entries = np.where(c[:, :, None] == c[:, None, :],
                       ((block.T * side + pos.T) * side)[:, :, None] + pos.T[:, None, :], zero)

    pair, j = np.nonzero((bits[f0][:, None, :] != bits[f1][None, :, :]).reshape(len(pairs), n))
    w, x = f0[pair // len(f1)], f1[pair % len(f1)]

    def both(flat: np.ndarray, axis: int, swapped: bool) -> np.ndarray:
        """flat read in X, then in Z^-1 (swapped: Z^-1, then X), along axis."""
        halves = (flat, flat + zero + 1)
        return np.concatenate(halves[::-1] if swapped else halves, axis=axis)

    def terms(u: np.ndarray, v: np.ndarray, swapped: bool = False) -> np.ndarray:
        """X_{j,c}[u,v] for u, v on two sides, stacked over (t, j, c)."""
        flat = np.where(c[:, None, u, None] == np.arange(2)[:, None, None], entries[:, None, u[:, None], v], zero)
        return both(flat.reshape(2 * n, len(u), len(v)), 0, swapped)

    def by_row(v: np.ndarray, swapped: bool = False) -> np.ndarray:
        """X_j[s,v] for every input s and v on one side, in the class of s in
        each coordinate j, stacked over (s, t, j)."""
        return both(entries[:, :, v].transpose(1, 0, 2), 1, swapped)

    # the Schur complement loops over the smaller side r of F0 x F1; its
    # arrays read (X, Z^-1), the other side's (Z^-1, X)
    (r, o), swap = ((f0, f1), False) if len(f0) <= len(f1) else ((f1, f0), True)
    gather = {
        "same_r": terms(r, r), "same_o": terms(o, o, True), "across": terms(r, o, True), "back": terms(o, r),
        "row_f0": by_row(f0), "row_f1": by_row(f1, True), "swap": swap, "blocks": entries,
    }
    orbits = _orbits(f, members, r, o, swap) if len(pairs) + s >= MIN_REDUCED_SIDE else None
    if orbits is not None:
        reps = orbits.reps[orbits.reps < len(pairs)]  # the pair rows, sorted by their u
        u, v = np.divmod(reps, len(f1))
        u, v = (v, u) if swap else (u, v)
        bounds = np.flatnonzero(np.diff(u)) + 1
        runs = [(int(u[start]), None if stop - start == len(o) else v[start:stop], slice(start, stop))
                for start, stop in zip(np.r_[0, bounds], np.r_[bounds, len(u)])]
        gather["pair_reps"], gather["input_reps"] = reps, orbits.reps[len(reps):] - len(pairs)
    else:  # every pair is a row, in pair order: the rows (u, v) of one u lie |F1| apart when r is F1
        nr, no = len(r), len(o)
        runs = [(u, None, slice(u, nr * no, nr) if swap else slice(u * no, (u + 1) * no)) for u in range(nr)]
        gather["pair_reps"], gather["input_reps"] = slice(None), slice(None)
    gather["runs"] = runs
    factored = members if orbits is None else members[orbits.blocks]
    b, i = np.nonzero(factored < 0)
    padding = (b * side + i) * side + i
    return WitnessSdp(f=f, pairs=pairs, members=members, entry_pair=pair,
                      entry_index=entries[j, w, x], entry_mirror=entries[j, x, w],
                      diagonal=entries[:, np.arange(s), np.arange(s)],
                      padding=np.concatenate([padding, factored.size * side + padding]), gather=gather, orbits=orbits)


def _orbits(f: BooleanFunction, members: np.ndarray, r: np.ndarray, o: np.ndarray, swap: bool) -> Orbits | None:
    """The orbits of Aut(f) on the inputs, the pairs, the stack entries and
    the class blocks, each labelled by its smallest member; None when the
    group is trivial.

    No orbit is gathered under the whole group.  Aut(f) is a union of cosets
    (pi, m_pi xor N), N its pure negations, so the smallest input of the orbit
    of s is the least over pi of the smallest input of pi(s) xor m_pi xor N.
    Every g taking s to that s0 is h k, h one such element and k in the
    stabilizer G_s0, whose members are the (pi, pi(s0) xor s0) in the group;
    so the smallest (s0, j', t') in the orbit of X_j[s,t] is s0 with the
    smallest image of (h(j), h(t)) under G_s0, one minimum over each
    stabilizer for every (j, t) at once.  Pairs (u, v), u on the smaller side
    r, are labelled the same way through u."""
    perms, shifts, negations = automorphism_cosets(f)
    if len(perms) * len(negations) == 1:
        return None
    images, coordinates, _, _ = input_maps(f.n)
    n, num = f.n, 2**f.n
    heads = perms * num + shifts  # one element of each coset
    head_images = images[heads]
    inputs = np.arange(num)
    to_least = negations[(inputs[:, None] ^ negations).argmin(axis=1)]  # t xor it is the least of t xor N
    shift = to_least[head_images]
    coset = (head_images ^ shift).argmin(axis=0)  # the coset taking s lowest
    lowest = head_images[coset, inputs] ^ shift[coset, inputs]
    h = heads[coset] ^ shift[coset, inputs]  # an element taking s to lowest[s]
    reps = np.flatnonzero(lowest == inputs)
    in_negations = np.zeros(num, dtype=bool)
    in_negations[negations] = True
    rep, k = np.nonzero(in_negations[head_images[:, reps] ^ reps].T)  # the stabilizer of each rep, in turn
    member = heads[k] ^ head_images[k, reps[rep]] ^ reps[rep]
    starts = np.searchsorted(rep, np.arange(len(reps)))
    moved = images[member]
    least_input = np.minimum.reduceat(moved, starts)  # (reps, 2^n)
    least_entry = np.minimum.reduceat(coordinates[member][:, :, None] * num + moved[:, None, :], starts)
    which, h_images = np.searchsorted(reps, lowest), images[h]

    s, t = members[:, :, None], members[:, None, :]
    code = lowest[s] * (n * num) + least_entry[which[s], coordinates[h][s, np.arange(2 * n)[:, None, None] // 2],
                                               h_images[s, t]]
    entry = np.where((s < 0) | (t < 0), n * num * num, code).ravel()  # the padding is one orbit of zeros

    pair_code = lowest[r][:, None] * num + least_input[which[r][:, None], h_images[r[:, None], o]]
    pair_code = (pair_code.T if swap else pair_code).ravel()  # in pair order, w-major over F0 x F1
    present = np.zeros(num * num, dtype=bool)
    present[pair_code] = True
    pair_reps = np.flatnonzero(present)
    row = np.concatenate([(np.cumsum(present) - 1)[pair_code], len(pair_reps) + which])
    size = np.bincount(row)
    expand = np.zeros((len(row), len(size)))
    expand[np.arange(len(row)), row] = 1.0 / np.sqrt(size[row])
    position = np.empty(num, dtype=int)
    position[r], position[o] = np.arange(len(r)), np.arange(len(o))
    u, v = position[pair_reps // num], position[pair_reps % num]
    first = np.concatenate([v * len(r) + u if swap else u * len(o) + v, len(pair_code) + reps])
    label = np.concatenate([entry, n * num * num + 1 + lowest])
    blocks, from_reps = _block_orbits(f, members, heads, negations)
    return Orbits(order=len(perms) * len(negations), label=label, weight=1.0 / np.bincount(label)[label], row=row,
                  reps=first, expand=expand, scale=np.sqrt(size), blocks=blocks, from_reps=from_reps,
                  inputs=lowest)


def _block_orbits(f: BooleanFunction, members: np.ndarray, heads: np.ndarray,
                  negations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least class block of each orbit of Aut(f) on the 2n class blocks,
    and for every stack entry the flat index of the entry of its block's
    representative that one group element carries onto it (the padding
    indexes the zero after the representatives' stack).

    g = (pi, m) moves coordinate j to j' = pi^-1(j) and maps s to t with
    t_j' = s_j xor m_j', and f(t) = f(s), so it carries class block (j, c)
    onto (j', c xor m_j').  That needs only the |G| x 2n block images, never
    the image of every input; one element per block is then applied."""
    images, coordinates, _, _ = input_maps(f.n)
    n, num, side = f.n, 2**f.n, members.shape[1]
    elements = (heads[:, None] ^ negations).ravel()  # every element of the group, the identity first
    moved = coordinates[elements][:, np.arange(2 * n) // 2]  # (|G|, 2n): where the coordinate of block b goes
    flip = ((elements % num)[:, None] >> (n - 1 - moved)) & 1
    block_images = 2 * moved + (np.arange(2 * n) % 2 ^ flip)
    least = block_images.min(axis=0)
    blocks = np.flatnonzero(least == np.arange(2 * n))
    carry = elements[(block_images[:, least] == np.arange(2 * n)).argmax(axis=0)]  # carry[b] maps least[b] onto b
    back = np.empty((2 * n, num), dtype=int)
    back[np.arange(2 * n)[:, None], images[carry]] = np.arange(num)  # the inverse of carry[b]
    place = np.full((2 * n, num), -1)
    b, i = np.nonzero(members >= 0)
    place[b, members[b, i]] = i  # the position of s in block b
    source = place[least[:, None], back[np.arange(2 * n)[:, None], members]]  # read only off the padding
    flat = (np.searchsorted(blocks, least)[:, None, None] * side + source[:, :, None]) * side + source[:, None, :]
    padding = (members[:, :, None] < 0) | (members[:, None, :] < 0)
    return blocks, np.where(padding, len(blocks) * side * side, flat).ravel()


def _pair_values(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """The pair rows of A applied to the flat variable v."""
    both = v[sdp.entry_index] + v[sdp.entry_mirror]
    return 0.5 * np.bincount(sdp.entry_pair, weights=both, minlength=len(sdp.pairs))


def _apply(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """A v: the pair rows, then the row-sum rows sum_j X_j[s,s] + u_s - xi."""
    num_inputs = sdp.num_inputs
    rows = v[sdp.diagonal].sum(axis=0) + v[-1 - num_inputs : -1] - v[-1]
    return np.concatenate([_pair_values(sdp, v), rows])


def _apply_adjoint(sdp: WitnessSdp, y: np.ndarray) -> np.ndarray:
    """A^T y on the flat variable; no (b,i,k) repeats or is also a (b,k,i)."""
    num_pairs, num_inputs = len(sdp.pairs), sdp.num_inputs
    v = np.zeros(sdp.stack_size + num_inputs + 1)
    half = 0.5 * y[:num_pairs][sdp.entry_pair]
    v[sdp.entry_index] = half
    v[sdp.entry_mirror] = half
    v[sdp.diagonal] = y[num_pairs:]
    v[-1 - num_inputs : -1] = y[num_pairs:]
    v[-1] = -y[num_pairs:].sum()
    return v


def to_blocks(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """The n Gram blocks X_j of side 2^n, of shape (n, 2^n, 2^n), from the
    class stack at the head of the flat v; zero between two classes."""
    return np.append(v[: sdp.stack_size], 0.0)[sdp.gather["blocks"]]


def _to_stack(sdp: WitnessSdp, blocks: np.ndarray) -> np.ndarray:
    """The class-block stack, flat, from Gram blocks of shape (n, 2^n, 2^n);
    the entries between two classes are dropped."""
    stack = np.zeros(sdp.stack_size + 1)
    stack[sdp.gather["blocks"]] = blocks  # every entry between two classes lands on the spare last slot
    return stack[:-1]


def pair_sums(sdp: WitnessSdp, blocks: np.ndarray) -> np.ndarray:
    """The pair rows of A on Gram blocks of shape (n, 2^n, 2^n):
    sum_{j : w_j != x_j} (X_j[w,x] + X_j[x,w]) / 2 for every pair (w,x)."""
    return _pair_values(sdp, _to_stack(sdp, blocks))


def schur_complement(sdp: WitnessSdp, x: np.ndarray, z_inv: np.ndarray, lp_ratio: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The HKM Schur complement M[i,k] = tr(A_i X A_k Z^-1) + sum_l a_il a_kl x_l / z_l,
    on the orbits of Aut(f): expand^T M expand (Orbits), or M itself when the
    group is trivial.

    x and z_inv are stacks of the 2n class blocks and lp_ratio is x / z on
    (u, xi), all constant on their orbits, so M commutes with the group and
    only M's rows at one representative per orbit are built, in out when
    given (the solver reuses one buffer, since a fresh M, 0.66 MB at n = 5,
    every iteration page-faults); summed over each orbit's columns and scaled
    they are the reduced system.  Pair rows (w,x) and (w',x') meet in class
    block (j,c) when all four inputs lie in C_{j,c}, where their entry is
    X[w,w'] Z^-1[x,x'] + Z^-1[w,w'] X[x,x'] + Z^-1[w,x'] X[x,w'] + X[w,x'] Z^-1[x,w']
    over 4, summed over the blocks.  Gathered from the stack with zeros off
    the class (WitnessSdp.gather), each term is a sum over the 4n (block, X
    or Z^-1) of an F0-side matrix times an F1-side one, so the first two are
    one GEMM over 4n products and the last two another, run for all the rows
    of one u on the smaller side at a time (gather["runs"]).  A pair-row entry
    is sum_j (Z^-1[w,s] X[x,s] + X[w,s] Z^-1[x,s]) / 2 over the coordinates j
    where s shares the class of w and x, a matmul over 2n products per s,
    and the row-row block is sum_j X_j o Z_j^-1 plus the (u, xi) part.
    """
    g, num_inputs, orbits = sdp.gather, sdp.num_inputs, sdp.orbits
    a, b = g["row_f0"].shape[2], g["row_f1"].shape[2]  # |F0|, |F1|
    p, k = a * b, 4 * sdp.n
    src = np.zeros((2, sdp.stack_size + 1))  # [X | 0 | Z^-1 | 0]
    src[0, :-1] = x.ravel()
    src[1, :-1] = z_inv.ravel()
    flat = src.ravel()

    pair_reps, input_reps = g["pair_reps"], g["input_reps"]
    q, size = (p, p + num_inputs) if orbits is None else (len(pair_reps), len(orbits.reps))  # pair rows, all rows
    rows = np.empty((size, p + num_inputs)) if out is None else out
    same_r = np.take(flat, g["same_r"])
    same_r *= 0.25
    across = np.take(flat, g["across"])
    across *= 0.25
    nr, no = across.shape[1:]
    same_o = np.take(flat, g["same_o"])  # (k, v, v')
    back = np.take(flat, g["back"])  # (k, v, u')
    for u, v, run in g["runs"]:
        # the rows (u, v) for v in the run, as (v, u', v')
        block = rows[run, :p].reshape(-1, a, b)
        block = block.transpose(0, 2, 1) if g["swap"] else block
        so, bk = (same_o, back) if v is None else (same_o[:, v], back[:, v])
        np.add((same_r[:, u].T @ so.reshape(k, -1)).reshape(nr, -1, no).transpose(1, 0, 2),
               (bk.reshape(k, -1).T @ across[:, u]).reshape(-1, nr, no), out=block)
    ws = np.take(flat, g["row_f0"])
    ws *= 0.5
    pair_row = np.matmul(ws.transpose(0, 2, 1), np.take(flat, g["row_f1"])).reshape(num_inputs, p)
    row_block = np.take(src[0] * src[1], g["blocks"]).sum(axis=0)
    row_block += lp_ratio[-1]
    row_block[np.diag_indices(num_inputs)] += lp_ratio[:-1]
    rows[:q, p:] = pair_row[:, pair_reps].T
    rows[q:, :p] = pair_row[input_reps]
    rows[q:, p:] = row_block[input_reps]
    if orbits is None:
        return rows
    reduced = rows @ orbits.expand
    reduced *= orbits.scale[:, None]
    return reduced


def _pair_normal(sdp: WitnessSdp, stack: np.ndarray) -> np.ndarray:
    """J J^T of the pair constraints at the class-block stack X = V V^T, on
    the pair orbits when sdp.orbits is set: 4 times the pair block of
    schur_complement at Z^-1 = I (see round_factor)."""
    size = len(sdp.pairs) if sdp.orbits is None else len(sdp.gather["pair_reps"])
    identity = np.broadcast_to(np.eye(sdp.side), (2 * sdp.n, sdp.side, sdp.side))
    return 4.0 * schur_complement(sdp, stack, identity, np.zeros(sdp.num_inputs + 1))[:size, :size]


def round_factor(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """Two least-norm Gauss-Newton steps on the Gram factors v_j (rows v_{s,j})
    towards the pair constraints sum_{j : w_j != x_j} <v_{w,j}|v_{x,j}> = 1,
    after Peyrl and Parrilo's rounding, done in the factor space, so that
    X = V V^T stays PSD.

    Each step is dV_j = -L_j V_j, L_j the Gram-block part of 2 A^T lambda
    with lambda = (J J^T)^-1 r.  At X = V V^T and Z^-1 = I on every class
    block the pair block of the Schur complement, tr(A_i X A_k Z^-1), is
    J J^T / 4: its cross terms read Z^-1 between F0 and F1, which is zero.  So
    schur_complement builds J J^T, on the pair orbits when sdp.orbits is set
    (X and r are then constant on them), and J is never formed.  A step takes
    r to about |r|^2 / sigma_min(J)^2, so two reach roundoff only where J is
    well conditioned: the worst pair residual of MAJ:5 falls from 1.1e-8 to
    2.7e-15 in one step, that of 1011010001111100 from 1.9e-8 to 5.5e-9 and
    6.7e-10, which two more steps would take to 4.4e-15.
    """
    num_pairs, orbits = len(sdp.pairs), sdp.orbits
    for _ in range(2):
        stack = _to_stack(sdp, v @ v.transpose(0, 2, 1))
        residual = _pair_values(sdp, stack) - 1.0
        normal = _pair_normal(sdp, stack)
        if orbits is not None:  # the pair columns of Orbits.expand: the pair orbits lead the reduced rows
            expand = orbits.expand[:num_pairs, : len(normal)]
            residual = residual @ expand
        factor, info = scipy.linalg.lapack.dpotrf(normal, lower=0, clean=0)
        if info == 0:
            lam = scipy.linalg.lapack.dpotrs(factor, residual, lower=0)[0]
        else:  # J J^T singular: the least-norm multipliers
            lam = np.linalg.lstsq(normal, residual, rcond=None)[0]
        lam = np.concatenate([lam if orbits is None else expand @ lam, np.zeros(sdp.num_inputs)])
        v = v - 2.0 * to_blocks(sdp, _apply_adjoint(sdp, lam)) @ v
    return v


def _solver(m: np.ndarray):
    """Solve with M: Cholesky in place, or LU where M is numerically singular
    (as it gets near the optimum when f ignores a variable).  The Cholesky of
    the Fortran-ordered M^T writes only M's lower triangle, so after a failed
    one the upper triangle and the saved diagonal restore M for the LU.
    LAPACK is called directly, without the checks of scipy's wrappers."""
    diagonal = m.diagonal().copy()
    factor, info = scipy.linalg.lapack.dpotrf(m.T, lower=0, overwrite_a=1, clean=0)
    if info == 0:
        return lambda r: scipy.linalg.lapack.dpotrs(factor, r, lower=0)[0]
    lower = np.tril_indices(len(m), -1)
    m[lower] = m.T[lower]
    m[np.diag_indices(len(m))] = diagonal
    factor = scipy.linalg.lu_factor(m, overwrite_a=True, check_finite=False)
    return lambda r: scipy.linalg.lu_solve(factor, r, check_finite=False)


def _inverse_factors(blocks: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L = chol(V) of each block V of the stack;
    LinAlgError where a block is not positive definite."""
    factors = np.linalg.cholesky(blocks)
    for factor in factors:
        factor[...] = scipy.linalg.lapack.dtrtri(factor, lower=1)[0]
    return factors


def _newton_step(sdp: WitnessSdp, x: np.ndarray, y: np.ndarray, z: np.ndarray, rp: np.ndarray, rd: np.ndarray,
                 m: np.ndarray | None = None):
    """One Mehrotra predictor-corrector step of the HKM method from the
    iterate (x, y, z), with rp = b - A x and rd = c - A^T y - z.  Returns mu,
    the stack Z^-1, and for the predictor, then the corrector, the direction
    (dx, dy, dz) and its step lengths, each at most 1 (the corrector's cut to
    the fraction of the way to the boundary that it takes).  m is a buffer
    for the Schur complement's rows.  None where a class block of X or Z is
    not positive definite: roundoff has left the cone's interior.

    With a nontrivial group (sdp.orbits) the Newton system is solved on its
    orbits, X, Z and Z^-1 are constant on the entry orbits (averaged), and so
    in exact arithmetic is every direction; each class block is then a
    permutation of its orbit's representative, and only the representatives
    (Orbits.blocks) are factored, inverted and multiplied; each product that
    A reads reaches the whole stack through one gather (Orbits.expand_stack).
    Otherwise every block is.
    """
    n, num_inputs, nb, orbits = sdp.n, sdp.num_inputs, sdp.stack_size, sdp.orbits
    shape = (2 * n, sdp.side, sdp.side)
    reps, to_stack = (slice(None), np.ravel) if orbits is None else (orbits.blocks, orbits.expand_stack)
    xb = x[:nb].reshape(shape)
    xr = xb[reps]
    count = len(xr)
    blocks = np.concatenate([xr, z[:nb].reshape(shape)[reps]])
    blocks.reshape(-1)[sdp.padding] = 1.0  # factor X_b + I and Z_b + I on the padding
    try:
        l_inv = _inverse_factors(blocks)
    except np.linalg.LinAlgError:
        return None
    l_inv.reshape(-1)[sdp.padding] = 0.0  # so Z^-1 and every direction keep the padding at zero
    order = n * num_inputs + num_inputs + 1
    mu = float(x @ z) / order
    z_inv = l_inv[count:].transpose(0, 2, 1) @ l_inv[count:]
    if orbits is not None:
        # Z^-1 from the factors is invariant only to about eps cond(Z), cond(Z) ~ 1/mu
        z_inv = orbits.average(to_stack(z_inv)).reshape(shape)
    zr_inv = z_inv[reps]
    lp_x, lp_z = x[nb:], z[nb:]
    reduced = _solver(schur_complement(sdp, xb, z_inv, lp_x / lp_z, out=m))
    solve = reduced if orbits is None else lambda r: orbits.expand @ reduced(r @ orbits.expand)
    x_rd_zinv = xr @ rd[:nb].reshape(shape)[reps] @ zr_inv
    lp_rd = lp_x * rd[nb:] / lp_z

    def direction(rc_zinv: np.ndarray, rc_lp: np.ndarray):
        """(dx, dy, dz) with A dx = rp, A^T dy + dz = rd and the linearized
        HKM centring dX = sym((R_c - X dZ) Z^-1), given R_c Z^-1 and r_c / z."""
        dy = solve(rp + _apply(sdp, np.concatenate([to_stack(x_rd_zinv - rc_zinv), lp_rd - rc_lp])))
        dz = rd - _apply_adjoint(sdp, dy)
        dxb = rc_zinv - xr @ dz[:nb].reshape(shape)[reps] @ zr_inv
        dxb += dxb.transpose(0, 2, 1)
        dxb *= 0.5
        return np.concatenate([to_stack(dxb), rc_lp - lp_x * dz[nb:] / lp_z]), dy, dz

    def max_step(dx: np.ndarray, dz: np.ndarray) -> tuple[float, float]:
        """Largest a_p and a_d with X + a_p dX and Z + a_d dZ PSD and
        (u, xi) + a dv >= 0 on each side.  With V = L L^T and l_inv the stack
        of L^-1 for the class blocks of X then Z, V + a dV is PSD while
        a lambda_min(L^-1 dV L^-T) >= -1, so one eigvalsh of the blocks
        L^-1 dV L^-T gives both lengths.  A padded block adds zero
        eigenvalues, which leave the length unchanged: it is unbounded as
        long as lambda_min >= 0."""
        dv = np.concatenate([dx[:nb].reshape(shape)[reps], dz[:nb].reshape(shape)[reps]])
        low = np.linalg.eigvalsh(l_inv @ dv @ l_inv.transpose(0, 2, 1)).min(axis=1)
        steps = []
        for lam, v, d in ((float(low[:count].min()), x, dx), (float(low[count:].min()), z, dz)):
            shrink = d[nb:] < 0
            steps.append(min(np.inf if lam >= 0 else -1.0 / lam,
                             float((v[nb:][shrink] / -d[nb:][shrink]).min(initial=np.inf))))
        return steps[0], steps[1]

    # Mehrotra: an affine predictor sets the centring sigma, then one corrector
    dx, dy, dz = direction(-xr, -lp_x)
    step_p, step_d = (min(1.0, step) for step in max_step(dx, dz))
    predictor = dx, dy, dz, step_p, step_d
    sigma = min(1.0, ((x + step_p * dx) @ (z + step_d * dz) / order / mu) ** 3)
    dxb, dzb = dx[:nb].reshape(shape)[reps], dz[:nb].reshape(shape)[reps]
    dx, dy, dz = direction(sigma * mu * zr_inv - xr - dxb @ dzb @ zr_inv,
                           (sigma * mu - dx[nb:] * dz[nb:]) / lp_z - lp_x)
    # the fraction of the way to the boundary, as in SDPT3
    fraction = 0.9 + 0.09 * min(step_p, step_d)
    step_p, step_d = (min(1.0, fraction * step) for step in max_step(dx, dz))
    return mu, z_inv, predictor, (dx, dy, dz, step_p, step_d)


@dataclass(frozen=True)
class SdpSolution:
    """Primal-dual output of solve_sdp.

    blocks, of shape (n, 2^n, 2^n), holds the Gram blocks
    X_j[w,x] = <v_{w,j}|v_{x,j}>, assembled once from the solver's class
    blocks with zeros between two classes; they are the whole primal, since
    no constraint reads an entry between two coordinates.  alpha holds one
    multiplier per equality constraint (keyed like WitnessSdp.pairs) and
    beta one nonnegative multiplier per input; at the optimum sum(beta) = 1
    and sum(alpha) equals xi.
    """

    sdp: WitnessSdp
    blocks: np.ndarray
    xi: float
    alpha: np.ndarray
    beta: np.ndarray
    residuals: dict

    @property
    def dual_objective(self) -> float:
        return float(self.alpha.sum())


def solve_sdp(
    sdp: WitnessSdp,
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> SdpSolution:
    """Follow the central path until the duality gap closes.

    Stops when the largest primal and dual infeasibilities, |xi - sum(alpha)|
    and <X, Z> + <(u, xi), (z_u, z_xi)> all fall below tol * max(1, xi); raises
    NoConvergenceError (with residuals attached) at the iteration cap or when
    roundoff leaves an iterate on the cone's boundary.  residuals["history"]
    has one row per iteration: mu, the gap and both infeasibilities at the
    iterate it started from, and the step lengths it took.
    residuals["orbits"] says which path the solve took: None on all of M and
    every class block, else the group's order, M's side before and after the
    reduction, and the class blocks factored per iteration (X's and Z's
    representatives).  Deterministic: fixed start X_b = Z_b = I on every
    class block.
    """
    if not (np.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"tol must be finite and at least {MIN_TOL:g}")
    n, num_inputs, num_pairs = sdp.n, sdp.num_inputs, len(sdp.pairs)
    nb = sdp.stack_size
    b = np.concatenate([np.ones(num_pairs), np.zeros(num_inputs)])
    cost = np.zeros(nb + num_inputs + 1)
    cost[-1] = 1.0

    # X_j = I and u = 1 satisfy the row sums with xi = n + 1
    x, z, y = np.zeros_like(cost), np.zeros_like(cost), np.zeros(num_pairs + num_inputs)
    x[sdp.diagonal], x[nb:], x[-1] = 1.0, 1.0, n + 1.0
    z[sdp.diagonal], z[nb:] = 1.0, 1.0

    history: list[dict] = []
    iterations = 0
    orbits = sdp.orbits
    # the Schur complement's rows, refilled every iteration
    m = np.empty((num_pairs + num_inputs if orbits is None else len(orbits.reps), num_pairs + num_inputs))
    while True:
        rp = b - _apply(sdp, x)
        rd = cost - _apply_adjoint(sdp, y) - z
        xi = float(x[-1])
        complementarity = float(x @ z)
        gap = xi - float(y[:num_pairs].sum())
        primal_inf, dual_inf = float(np.abs(rp).max()), float(np.abs(rd).max())
        scale = tol * max(1.0, abs(xi))
        if max(primal_inf, dual_inf, abs(gap), complementarity) <= scale:
            break
        if iterations == max_iterations:
            break
        step = _newton_step(sdp, x, y, z, rp, rd, m)
        if step is None:
            break  # roundoff has left the cone's interior
        mu, _, _, (dx, dy, dz, step_p, step_d) = step
        x += step_p * dx
        y += step_d * dy
        z += step_d * dz
        if orbits is not None:  # dX comes through products with Z^-1, so X drifts without this
            orbits.average(x)
            orbits.average(z)
        iterations += 1
        history.append({"mu": mu, "gap": gap, "primal_infeasibility": primal_inf,
                        "dual_infeasibility": dual_inf, "step_primal": step_p, "step_dual": step_d})

    alpha, beta = y[:num_pairs], -y[num_pairs:]
    stack, sizes = x[:nb].reshape(2 * n, sdp.side, sdp.side), sdp.sizes
    residuals = {
        "primal_equality": float(np.abs(_pair_values(sdp, x) - 1.0).max()),
        "row_sum_violation": float(max(0.0, (x[sdp.diagonal].sum(axis=0) - xi).max())),
        # the class blocks without their padding, grouped by size (a class may be empty)
        "min_eigenvalue": min(float(np.linalg.eigvalsh(stack[sizes == k, :k, :k]).min())
                              for k in np.unique(sizes[sizes > 0])),
        "duality_gap": abs(gap),
        "beta_sum": float(beta.sum()),
        "primal_infeasibility": primal_inf,
        "dual_infeasibility": dual_inf,
        "complementarity": complementarity,
        "iterations": iterations,
        "tolerance": tol,
        "history": history,
        "orbits": None if orbits is None else {
            "order": orbits.order, "schur_side": num_pairs + num_inputs, "reduced_side": len(orbits.reps),
            "blocks_factored": 2 * len(orbits.blocks),
        },
    }
    if max(primal_inf, dual_inf, abs(gap), complementarity) > scale:
        stop = "the iteration cap" if iterations == max_iterations else "the iterates left the cone's interior"
        raise NoConvergenceError(
            f"no convergence after {iterations} iterations, at {stop} "
            f"(infeasibility {primal_inf:.2e}/{dual_inf:.2e}, "
            f"gap {gap:.2e}, complementarity {complementarity:.2e})",
            residuals,
        )
    return SdpSolution(sdp=sdp, blocks=to_blocks(sdp, x), xi=xi, alpha=alpha, beta=beta, residuals=residuals)


@dataclass(frozen=True)
class AdversaryCertificate:
    """Dual adversary matrix and its ratio ||Gamma|| / max_i ||Gamma o D_i||.

    beta_alignment records <beta|Gamma|beta> / ||Gamma|| for the unit
    vector with entries sqrt(beta_s): the duality chain treats it as a top
    eigenvector, which is reported here rather than asserted.
    """

    f: BooleanFunction
    gamma: np.ndarray
    value: float
    beta_alignment: float


def extract_certificate(sol: SdpSolution, f: BooleanFunction) -> AdversaryCertificate:
    """Build Gamma[w,x] = alpha_{w,x} / sqrt(beta_w beta_x) from the dual.

    Inputs with beta_s below 1e-10 carry no weight in the dual optimum and
    are dropped (their Gamma rows/columns stay zero).  That is only legal
    when the matching alpha multipliers vanish with beta: the dual slack
    Z_j = diag(beta) - sum_{w_j != x_j} alpha_wx (E_wx + E_xw) / 2 is PSD, so
    |alpha_wx| <= 2 sqrt(beta_w beta_x), and an interior-point dual sits at
    that scale (beta_s ~ mu on a slack input, alpha ~ sqrt(mu)).  An alpha
    beyond that bound, by more than 1e-6 max(1, max|alpha|), reports the
    dual as degenerate.
    """
    num_inputs = 2**f.n
    gamma = np.zeros((num_inputs, num_inputs))
    alpha_scale = max(1.0, float(np.abs(sol.alpha).max()) if len(sol.alpha) else 0.0)
    dropped = sol.beta < BETA_DROP_TOL
    beta_plus = np.maximum(sol.beta, 0.0)
    w, x = np.array(sol.sdp.pairs).reshape(-1, 2).T
    on_dropped = dropped[w] | dropped[x]
    beyond = on_dropped & (np.abs(sol.alpha) > 2.0 * np.sqrt(beta_plus[w] * beta_plus[x]) + 1e-6 * alpha_scale)
    if beyond.any():
        p = int(np.argmax(beyond))
        raise DegenerateDualError(
            f"beta vanished on inputs {sorted(int(s) for s in (w[p], x[p]) if dropped[s])} "
            f"but alpha[{w[p]},{x[p]}] = {sol.alpha[p]:.3e} exceeds what Z >= 0 allows"
        )
    kept = ~on_dropped
    w, x = w[kept], x[kept]
    gamma[w, x] = gamma[x, w] = sol.alpha[kept] / np.sqrt(sol.beta[w] * sol.beta[x])
    norm, denom = _ratio_norms(gamma, f)
    beta_hat = np.sqrt(np.maximum(sol.beta, 0.0))
    beta_hat /= np.linalg.norm(beta_hat)
    alignment = float(beta_hat @ gamma @ beta_hat) / norm
    return AdversaryCertificate(f=f, gamma=gamma, value=norm / denom, beta_alignment=alignment)


def adversary_ratio(gamma, f: BooleanFunction) -> float:
    """||Gamma|| / max_i ||Gamma o D_i|| for an adversary matrix of f."""
    norm, denom = _ratio_norms(gamma, f)
    return norm / denom


def _ratio_norms(gamma, f: BooleanFunction) -> tuple[float, float]:
    """||Gamma|| and max_i ||Gamma o D_i|| of an adversary matrix of f, from
    one stacked SVD of Gamma and the n matrices Gamma o D_i."""
    g = np.asarray(gamma)
    scale = float(np.abs(g).max()) if g.size else 0.0
    if scale == 0.0:
        raise ZeroMatrixError("adversary ratio is undefined for the zero matrix")
    table = np.array(f.table)
    wrong = (table[:, None] == table[None, :]) & (np.abs(g) > 1e-12 * scale)
    if wrong.any():
        x, y = np.unravel_index(np.argmax(wrong), wrong.shape)
        raise PatternViolationError(f"Gamma[{x},{y}] = {g[x, y]:.3e} but f({x}) = f({y})")
    bits = f.bits.T
    differ = (bits[:, :, None] != bits[:, None, :]).astype(float)  # D_i, (n, 2^n, 2^n)
    norms = np.linalg.svd(np.concatenate([g[None], g * differ]), compute_uv=False)[:, 0]
    return float(norms[0]), float(norms[1:].max())
