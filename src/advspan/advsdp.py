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
matrix nor a matrix of side n 4^n is ever formed.  M is solved by LU with
partial pivoting, once for each of the two Mehrotra directions (_solver);
all the linear algebra is numpy's.  Each iterate's class blocks are factored
once, X_b = L L^T and Z_b = L L^T (a padded block with the identity on its
padding), and the factors are inverted in one call: Z^-1 is L_Z^-T L_Z^-1,
the largest step keeping V + a dV PSD is read off lambda_min(L^-1 dV L^-T),
and a failed factorization means roundoff has left the cone's interior.
No eigh runs inside the loop; eigvalsh of L^-1 dV L^-T is the only spectral
call.

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
The iterate itself lives in orbit coordinates (WitnessSdp): X and Z as the
least class block of each orbit of the group on the 2n class blocks (2 of
MAJ:5's 10, 1 of PARITY:5's), every other block being an exact permutation
of its representative; u and z_u as one entry per input orbit; y as one
multiplier per row orbit.  A and A^T act there through index maps built once
per function: A reads each representative row's entries in the
representatives' stack, A^T writes each representative entry from the
multiplier of the row orbit that reads it, and <X, Z> and mu count each
entry with the size of its block's orbit.  dy is D^-1/2 times the reduced
system's solution for D^1/2 r, and no vector of the whole stack is formed
inside the loop: the Cholesky factors and their inverses, Z^-1, X R_d Z^-1,
both directions and the eigvalsh of the step lengths all run on the
representatives.  A representative is invariant under its block's
stabilizer, and the iterate keeps it so.  y and Z move by orbit-constant
steps, since A^T reads one multiplier per row orbit, so Z stays exactly
invariant.  But dX and the products that A reads come through products with
Z^-1, so both are averaged over the stabilizer orbits before they are used,
and A then reads what the reduced system sums over the row orbits, and X
stays exactly invariant (without the average roundoff lets X drift: a
prototype that reduced only the Newton system lost primal feasibility on
MAJ:4, and one that averaged X after each step in place of dX stalled at
tol 1e-9 on tables the loop on all of M solves).  So is Z^-1: computed from
the per-block Cholesky factors, which no permutation commutes with, it is
invariant only to about eps cond(Z), cond(Z) ~ 1/mu.  A step length read
off one representative in place of the least over its orbit differs at the
roundoff that cond(X) amplifies, about 1e-8 relative near the optimum.
alpha and beta are expanded once, after the loop, and the whole stack only
to check the final residuals: the solution keeps the representative class
blocks, and nothing downstream forms a Gram block of side 2^n.  A function
whose group is trivial, as almost every random table, is the order-1 case
of the same loop: every block, row and input is its own representative,
every map is the identity, no stabilizer moves an entry, and M is already
the reduced system, so schur_complement skips the reduction's GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boolfun import BooleanFunction, automorphism_cosets, element_maps
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


@dataclass(frozen=True)
class Orbits:
    """The orbits of Aut(f), of order |G|, on the SDP's three index sets and
    on its class blocks; a trivial group has order 1 and every map the
    identity.

    label holds the orbit of each entry of the class-block stack (the padding
    is one orbit of zeros), then of each input.  row maps each equality row,
    the pairs then the inputs, to its reduced row: the pair orbits first,
    sorted by their representative's u on the Schur complement's loop side,
    then the input orbits, in the order of their least members.  reps holds
    the representative equality row of each reduced row.  from_reps maps the
    stack onto the representative class blocks (WitnessSdp.classes): entry e
    of the stack is entry from_reps[e] of the representatives' stack, the one
    a group element carries onto e, and the padding reads the zero after it.
    inputs holds the least member of each input's orbit.
    """

    order: int
    label: np.ndarray
    row: np.ndarray
    reps: np.ndarray
    from_reps: np.ndarray
    inputs: np.ndarray

    @cached_property
    def expand(self) -> np.ndarray:
        """P D^-1/2, P the 0/1 orbit-membership matrix of the rows and
        D = P^T P: its columns are orthonormal and M reduces to
        expand^T M expand.  Built on first use, which schur_complement makes
        only when the order is above 1 (at order 1 it is the identity)."""
        size = np.bincount(self.row)
        expand = np.zeros((len(self.row), len(size)))
        expand[np.arange(len(self.row)), self.row] = 1.0 / np.sqrt(size[self.row])
        return expand

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
    side K.  The whole stack is [vec(X_0) ... vec(X_{2n-1})] with X_b[i,k] at
    (b K + i) K + k.  Equality rows cover the F0 x F1 pair constraints
    followed by the slack-completed row-sum constraints
    sum_j X_j[s,s] + u_s = xi, with X_j[s,s] at diagonal[j, s].  pairs lists
    each (w, x), w in F0, in the order of the pair rows: over r x o, u-major,
    r the smaller of F0 and F1 (F0 on a tie), which the Schur complement
    loops over.  Pair row p sums (X_j[w,x] + X_j[x,w]) / 2 over the entries e
    with entry_pair[e] = p, one per 0-based j with w_j != x_j, at
    entry_index[e] and entry_mirror[e].

    The solver works in orbit coordinates: the variable
    [vec(X_b) for b in classes | u_k | xi], classes the least class block of
    each orbit of the group on the 2n class blocks and u_k one slack per
    input orbit, with one multiplier per reduced row (Orbits.row).  Its maps,
    each the identity when the group is trivial:
    rep_pair, rep_index and rep_mirror are the entries of the pair rows at
    their orbits' representatives, in the representatives' stack, and
    rep_diagonal[j, k] is X_j[s,s] there, s the least input of input orbit k.
    entry_row is the reduced row whose constraint reads each entry of the
    representatives' stack (len(row_size) where none does), for A^T;
    row_size the orbit size of each reduced row; multiplicity the number of
    entries of the whole variable each one stands for (its block orbit's
    size; its input orbit's size for u_k; 1 for xi), so <x, z> is
    sum multiplicity x z.  stabilizer holds the representative entries that
    their block's stabilizer moves (none when the group is trivial; never the
    padding, which stays zero), the orbit of each among them, numbered from
    0, and 1 / its size.  block_rows[b, i] is the row (block K + position) of
    the representatives' stack that member i of class block b copies.
    padding indexes the padding's diagonal in the stack [X; Z] of the
    representative blocks.

    gather holds the flat indices that schur_complement reads from
    [X | 0 | Z^-1 | 0] (the two stacks of the representative blocks, each
    followed by one zero), one array per product term, pointing at that zero
    off the class (row_r and row_o at the input representatives only), and
    gather["row_sums"] those of the row-sum rows there.
    gather["runs"] lists the pair rows schur_complement builds, one GEMM per
    u in r, and gather["input_reps"] the inputs of the row-sum rows it builds.

    orbits holds the orbits of Aut(f) (Orbits), of order 1 when the group is
    trivial.
    """

    f: BooleanFunction
    pairs: tuple[tuple[int, int], ...]
    members: np.ndarray
    entry_pair: np.ndarray
    entry_index: np.ndarray
    entry_mirror: np.ndarray
    diagonal: np.ndarray
    classes: np.ndarray
    rep_pair: np.ndarray
    rep_index: np.ndarray
    rep_mirror: np.ndarray
    rep_diagonal: np.ndarray
    entry_row: np.ndarray
    row_size: np.ndarray
    multiplicity: np.ndarray
    stabilizer: tuple[np.ndarray, np.ndarray, np.ndarray]
    block_rows: np.ndarray
    padding: np.ndarray
    gather: dict
    orbits: Orbits

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
        """2n K^2, the entries of the whole class-block stack."""
        return self.members.size * self.side

    @property
    def class_shape(self) -> tuple[int, int, int]:
        """The shape of the representatives' stack the solver works on."""
        return len(self.classes), self.side, self.side

    @property
    def pair_rows(self) -> int:
        """The reduced pair rows, which lead the reduced rows."""
        return len(self.row_size) - self.rep_diagonal.shape[1]


def build_witness_sdp(f: BooleanFunction) -> WitnessSdp:
    """Index the constraint system on the 2n class blocks; one equality per
    (w,x), one row bound per s, the orbits of Aut(f), and the solver's maps
    and the gather indices of schur_complement in orbit coordinates,
    computed once per function."""
    if f.is_constant:
        raise ConstantFunctionError("ADV is undefined for constant functions (F0 x F1 is empty)")
    n, s = f.n, 2**f.n
    bits, f0, f1 = f.bits, np.array(f.f0), np.array(f.f1)
    # the Schur complement loops over the smaller side r of F0 x F1, and the
    # pairs run over r x o, u-major; r's arrays read (X, Z^-1), o's (Z^-1, X)
    r, o = (f0, f1) if len(f0) <= len(f1) else (f1, f0)
    ends = np.repeat(r, len(o)), np.tile(o, len(r))  # (u, v) of every pair
    w, x = ends if r is f0 else ends[::-1]
    pairs = tuple(zip(w.tolist(), x.tolist()))
    cls = bits ^ np.array(f.table)[:, None]  # (s, j): the c of the class of s in coordinate j
    block = 2 * np.arange(n) + cls
    pos = np.where(cls, np.cumsum(cls, axis=0), np.cumsum(1 - cls, axis=0)) - 1  # place within the class
    side = int(np.bincount(block.ravel(), minlength=2 * n).max())
    members = np.full((2 * n, side), -1)
    members[block, pos] = np.arange(s)[:, None]
    stack_size = members.size * side
    c = cls.T
    # entries[j, s, t]: where X_j[s,t] sits in the stack, or stack_size between two classes
    entries = np.where(c[:, :, None] == c[:, None, :],
                       ((block.T * side + pos.T) * side)[:, :, None] + pos.T[:, None, :], stack_size)
    pair, j = np.nonzero(bits[w] != bits[x])
    entry_index, entry_mirror = entries[j, w[pair], x[pair]], entries[j, x[pair], w[pair]]
    diagonal = entries[:, np.arange(s), np.arange(s)]

    num_rows = len(pairs) + s
    orbits, classes = _orbits(f, members, r, o)
    from_reps, row, row_reps = orbits.from_reps, orbits.row, orbits.reps
    zero = len(classes) * side * side  # the zero after each representatives' stack, at zero and 2 zero + 1
    to_rep = np.append(from_reps, zero)
    rep_entries = to_rep[entries]  # X_j[s,t] in the representatives' stack
    input_reps = row_reps[row_reps >= len(pairs)] - len(pairs)
    num_pair_rows = len(row_reps) - len(input_reps)

    def both(flat: np.ndarray, axis: int, swapped: bool) -> np.ndarray:
        """flat read in X, then in Z^-1 (swapped: Z^-1, then X), along axis."""
        halves = (flat, flat + zero + 1)
        return np.concatenate(halves[::-1] if swapped else halves, axis=axis)

    def terms(u: np.ndarray, v: np.ndarray, swapped: bool = False) -> np.ndarray:
        """X_{j,c}[u,v] for u, v on two sides, stacked over (t, j, c)."""
        flat = np.where(c[:, None, u, None] == np.arange(2)[:, None, None], rep_entries[:, None, u[:, None], v], zero)
        return both(flat.reshape(2 * n, len(u), len(v)), 0, swapped)

    def by_row(v: np.ndarray, swapped: bool = False) -> np.ndarray:
        """X_j[s,v] for each representative input s and v on one side, in the
        class of s in each coordinate j, stacked over (s, t, j)."""
        return both(rep_entries[:, input_reps[:, None], v].transpose(1, 0, 2), 1, swapped)

    gather = {
        "same_r": terms(r, r), "same_o": terms(o, o, True), "across": terms(r, o, True), "back": terms(o, r),
        "row_r": by_row(r), "row_o": by_row(o, True),
        "row_sums": rep_entries[:, input_reps], "input_reps": input_reps,
    }
    u, v = np.divmod(row_reps[:num_pair_rows], len(o))  # the pair rows, sorted by their u
    bounds = np.flatnonzero(np.diff(u)) + 1
    gather["runs"] = [(int(u[start]), None if stop - start == len(o) else v[start:stop], slice(start, stop))
                      for start, stop in zip(np.r_[0, bounds], np.r_[bounds, len(u)])]

    is_rep = np.zeros(num_rows, dtype=bool)
    is_rep[row_reps] = True
    kept = is_rep[pair]  # the entries of the representative pair rows
    touch = np.full(stack_size, num_rows)  # the equality row reading each entry of the stack
    touch[entry_index] = touch[entry_mirror] = pair
    touch[diagonal] = len(pairs) + np.arange(s)
    rep_flat = (classes[:, None] * side * side + np.arange(side * side)).ravel()
    row_size = np.bincount(row).astype(float)
    label = orbits.label[rep_flat]
    moved = np.flatnonzero((np.bincount(label)[label] > 1) & (from_reps[rep_flat] < zero))
    label = np.unique(label[moved], return_inverse=True)[1]  # numbered from 0, so bincount stays short
    block_rows = to_rep[np.arange(2 * n)[:, None] * side * side + np.arange(side) * (side + 1)] // side
    reps_of = np.bincount(block_rows[:, 0] // side, minlength=len(classes) + 1)[:-1]  # an empty class has none
    b, i = np.nonzero(members[classes] < 0)
    padding = (b * side + i) * side + i
    return WitnessSdp(
        f=f, pairs=pairs, members=members, entry_pair=pair, entry_index=entry_index, entry_mirror=entry_mirror,
        diagonal=diagonal, classes=classes, rep_pair=row[pair[kept]], rep_index=to_rep[entry_index[kept]],
        rep_mirror=to_rep[entry_mirror[kept]], rep_diagonal=to_rep[diagonal[:, input_reps]],
        entry_row=np.append(row, len(row_reps))[touch[rep_flat]], row_size=row_size,
        multiplicity=np.concatenate([np.repeat(reps_of, side * side), row_size[num_pair_rows:], [1]]),
        stabilizer=(moved, label, 1.0 / np.bincount(label)[label]), block_rows=block_rows,
        padding=np.concatenate([padding, zero + padding]), gather=gather, orbits=orbits)


def _orbits(f: BooleanFunction, members: np.ndarray, r: np.ndarray, o: np.ndarray) -> tuple[Orbits, np.ndarray]:
    """The orbits of Aut(f) on the inputs, the pairs, the stack entries and
    the class blocks, each labelled by its smallest member, and the least
    class block of each block orbit (_block_orbits).

    No orbit is gathered under the whole group.  Aut(f) is a union of cosets
    (pi, m_pi xor N), N its pure negations, so the smallest input of the orbit
    of s is the least over pi of the smallest input of pi(s) xor m_pi xor N.
    Every g taking s to that s0 is h k, h one such element and k in the
    stabilizer G_s0, whose members are the (pi, pi(s0) xor s0) in the group;
    so the smallest (s0, j', t') in the orbit of X_j[s,t] is s0 with the
    smallest image of (h(j), h(t)) under G_s0, one minimum over each
    stabilizer for every (j, t) at once.  Pairs (u, v), u on the smaller side
    r, are labelled the same way through u.  The maps of the coset heads,
    the stabilizers' members and the h are read through element_maps, so
    no element's images are stored beyond these."""
    perms, shifts, negations = automorphism_cosets(f)
    n, num = f.n, 2**f.n
    heads = perms * num + shifts  # one element of each coset
    head_images, _ = element_maps(n, heads)
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
    moved, moved_coordinates = element_maps(n, member)
    least_input = np.minimum.reduceat(moved, starts)  # (reps, 2^n)
    least_entry = np.minimum.reduceat(moved_coordinates[:, :, None] * num + moved[:, None, :], starts)
    which = np.searchsorted(reps, lowest)
    h_images, h_coordinates = element_maps(n, h)

    s, t = members[:, :, None], members[:, None, :]
    code = lowest[s] * (n * num) + least_entry[which[s], h_coordinates[s, np.arange(2 * n)[:, None, None] // 2],
                                               h_images[s, t]]
    entry = np.where((s < 0) | (t < 0), n * num * num, code).ravel()  # the padding is one orbit of zeros

    # in pair order, r x o u-major, so the rows are numbered in pair order at order 1
    pair_code = (lowest[r][:, None] * num + least_input[which[r][:, None], h_images[r[:, None], o]]).ravel()
    present = np.zeros(num * num, dtype=bool)
    present[pair_code] = True
    pair_reps = np.flatnonzero(present)
    row = np.concatenate([(np.cumsum(present) - 1)[pair_code], len(pair_reps) + which])
    position = np.empty(num, dtype=int)
    position[r], position[o] = np.arange(len(r)), np.arange(len(o))
    u, v = position[pair_reps // num], position[pair_reps % num]
    first = np.concatenate([u * len(o) + v, len(pair_code) + reps])
    label = np.concatenate([entry, n * num * num + 1 + lowest])
    blocks, from_reps = _block_orbits(f, members, heads, negations)
    return Orbits(order=len(perms) * len(negations), label=label, row=row, reps=first, from_reps=from_reps,
                  inputs=lowest), blocks


def _block_orbits(f: BooleanFunction, members: np.ndarray, heads: np.ndarray,
                  negations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least class block of each orbit of Aut(f) on the 2n class blocks,
    and for every stack entry the flat index of the entry of its block's
    representative that one group element carries onto it (the padding
    indexes the zero after the representatives' stack).

    g = (pi, m) moves coordinate j to j' = pi^-1(j) and maps s to t with
    t_j' = s_j xor m_j', and f(t) = f(s), so it carries class block (j, c)
    onto (j', c xor m_j').  That needs only the |G| x 2n block images, never
    the image of every input: pi^-1 is read once per coset, whose members all
    share pi, and the images of one element per block are then applied."""
    n, num, side = f.n, 2**f.n, members.shape[1]
    elements = (heads[:, None] ^ negations).ravel()  # every element of the group, the identity first
    coordinates = np.repeat(element_maps(n, heads)[1], len(negations), axis=0)  # a coset shares its pi
    moved = coordinates[:, np.arange(2 * n) // 2]  # (|G|, 2n): where the coordinate of block b goes
    flip = ((elements % num)[:, None] >> (n - 1 - moved)) & 1
    block_images = 2 * moved + (np.arange(2 * n) % 2 ^ flip)
    least = block_images.min(axis=0)
    blocks = np.flatnonzero(least == np.arange(2 * n))
    carry = elements[(block_images[:, least] == np.arange(2 * n)).argmax(axis=0)]  # carry[b] maps least[b] onto b
    back = np.empty((2 * n, num), dtype=int)
    back[np.arange(2 * n)[:, None], element_maps(n, carry)[0]] = np.arange(num)  # the inverse of carry[b]
    place = np.full((2 * n, num), -1)
    b, i = np.nonzero(members >= 0)
    place[b, members[b, i]] = i  # the position of s in block b
    source = place[least[:, None], back[np.arange(2 * n)[:, None], members]]  # read only off the padding
    flat = (np.searchsorted(blocks, least)[:, None, None] * side + source[:, :, None]) * side + source[:, None, :]
    padding = (members[:, :, None] < 0) | (members[:, None, :] < 0)
    return blocks, np.where(padding, len(blocks) * side * side, flat).ravel()


def _pair_values(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """The pair rows of A applied to the whole stack at the head of v."""
    both = v[sdp.entry_index] + v[sdp.entry_mirror]
    return 0.5 * np.bincount(sdp.entry_pair, weights=both, minlength=len(sdp.pairs))


def factor_pair_sums(sdp: WitnessSdp, vectors: np.ndarray) -> np.ndarray:
    """The pair rows of A at the Gram blocks of coordinate factors, rows
    v_{s,j} = vectors[s, j] of shape (2^n, n, m): every class block of the
    whole stack is built straight from its members' rows, block b from the
    rows vectors[members[b], b // 2] and zero on its padding, by one batched
    V V^T, so no Gram block of side 2^n is formed."""
    rows = np.concatenate([vectors, np.zeros((1, *vectors.shape[1:]))])  # members' -1 reads the zero row
    v = rows[sdp.members, np.arange(2 * sdp.n)[:, None] // 2]
    return _pair_values(sdp, (v @ v.transpose(0, 2, 1)).ravel())


def class_pair_sums(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """The pair rows of A at their orbits' representatives, on the
    representatives' stack: at the head of the flat v, or v itself of shape
    WitnessSdp.class_shape."""
    v = v.ravel()
    both = v[sdp.rep_index] + v[sdp.rep_mirror]
    return 0.5 * np.bincount(sdp.rep_pair, weights=both, minlength=sdp.pair_rows)


def _apply(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """A v in orbit coordinates: the pair rows at their representatives, then
    the row sums sum_j X_j[s,s] + u_k - xi at the least input s of each input
    orbit k."""
    inputs = sdp.rep_diagonal.shape[1]
    rows = v[sdp.rep_diagonal].sum(axis=0) + v[-1 - inputs : -1] - v[-1]
    return np.concatenate([class_pair_sums(sdp, v), rows])


def _apply_adjoint(sdp: WitnessSdp, y: np.ndarray) -> np.ndarray:
    """A^T y in orbit coordinates, y one multiplier per reduced row: each
    entry of the representatives' stack is read by at most one row (with
    weight 1/2 in a pair row, 1 on the diagonal), u_k by its input orbit's
    row, and xi by every input row, once per member of each orbit."""
    q = sdp.pair_rows
    reads = np.concatenate([0.5 * y[:q], y[q:], [0.0]])
    return np.concatenate([reads[sdp.entry_row], y[q:], [-(sdp.row_size[q:] * y[q:]).sum()]])


def schur_complement(sdp: WitnessSdp, x: np.ndarray, z_inv: np.ndarray, lp_ratio: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The HKM Schur complement M[i,k] = tr(A_i X A_k Z^-1) + sum_l a_il a_kl x_l / z_l,
    on the orbits of Aut(f): expand^T M expand (Orbits), which at order 1 is
    M itself, returned without the reduction's GEMM.

    x and z_inv are stacks of the representative class blocks and lp_ratio
    is x / z on (u_k, xi), all constant on their orbits, so M commutes with
    the group and only M's rows at one representative per orbit are built,
    in out when given (the solver reuses one buffer, since a fresh M, 0.66 MB
    at n = 5, every iteration page-faults); summed over each orbit's columns
    and scaled they are the reduced system.  Pair rows (w,x) and (w',x') meet
    in class block (j,c) when all four inputs lie in C_{j,c}, where their
    entry is
    X[w,w'] Z^-1[x,x'] + Z^-1[w,w'] X[x,x'] + Z^-1[w,x'] X[x,w'] + X[w,x'] Z^-1[x,w']
    over 4, summed over the blocks.  Gathered with zeros off the class
    (WitnessSdp.gather), through the group element that carries each block's
    representative onto it, each term is a sum over the 4n (block, X or
    Z^-1) of an F0-side matrix times an F1-side one, so the first two are
    one GEMM over 4n products and the last two another, run for all the rows
    of one u in r at a time (gather["runs"]).  An entry of a
    row-sum row and a pair column is
    sum_j (Z^-1[w,s] X[x,s] + X[w,s] Z^-1[x,s]) / 2 over the coordinates j
    where s shares the class of w and x, a matmul over 2n products per
    representative input s; its transpose fills the pair rows' input
    columns.  The row-row block is sum_j X_j o Z_j^-1 plus the (u, xi) part.
    """
    g, num_inputs, orbits = sdp.gather, sdp.num_inputs, sdp.orbits
    nr, no = g["row_r"].shape[2], g["row_o"].shape[2]  # |r|, |o|
    p, k = nr * no, 4 * sdp.n
    src = np.zeros((2, x.size + 1))  # [X | 0 | Z^-1 | 0]
    src[0, :-1] = x.ravel()
    src[1, :-1] = z_inv.ravel()
    flat = src.ravel()

    input_reps, q = g["input_reps"], sdp.pair_rows
    rows = np.empty((len(sdp.row_size), p + num_inputs)) if out is None else out
    same_r = np.take(flat, g["same_r"])
    same_r *= 0.25
    across = np.take(flat, g["across"])
    across *= 0.25
    same_o = np.take(flat, g["same_o"])  # (k, v, v')
    back = np.take(flat, g["back"])  # (k, v, u')
    for u, v, run in g["runs"]:
        # the rows (u, v) for v in the run, as (v, u', v')
        block = rows[run, :p].reshape(-1, nr, no)
        so, bk = (same_o, back) if v is None else (same_o[:, v], back[:, v])
        np.add((same_r[:, u].T @ so.reshape(k, -1)).reshape(nr, -1, no).transpose(1, 0, 2),
               (bk.reshape(k, -1).T @ across[:, u]).reshape(-1, nr, no), out=block)
    ws = np.take(flat, g["row_r"])
    ws *= 0.5
    rows[q:, :p] = np.matmul(ws.transpose(0, 2, 1), np.take(flat, g["row_o"])).reshape(len(input_reps), p)
    row_block = rows[q:, p:]
    np.take(src[0] * src[1], g["row_sums"]).sum(axis=0, out=row_block)
    row_block += lp_ratio[-1]
    row_block[np.arange(len(input_reps)), input_reps] += lp_ratio[:-1]
    if orbits.order == 1:  # every row is its own orbit: M is the reduced system
        rows[:q, p:] = rows[q:, :p].T
        return rows
    # M is symmetric, so the pair rows' input columns of the reduced system
    # are the transpose of its input rows' pair columns, and neither the
    # pair rows' input columns nor any other input's pair columns are built
    scale, size = np.sqrt(sdp.row_size)[:, None], len(sdp.row_size)
    reduced = np.empty((size, size))
    np.matmul(rows[:, :p], orbits.expand[:p, :q], out=reduced[:, :q])
    reduced[:, :q] *= scale
    np.matmul(row_block, orbits.expand[p:, q:], out=reduced[q:, q:])
    reduced[q:, q:] *= scale[q:]
    reduced[:q, q:] = reduced[q:, :q].T
    return reduced


def _pair_normal(sdp: WitnessSdp, stack: np.ndarray) -> np.ndarray:
    """J J^T of the pair constraints at the representatives' stack X = V V^T,
    on the pair orbits: 4 times the pair block of schur_complement at
    Z^-1 = I (see round_factor)."""
    q = sdp.pair_rows
    identity = np.broadcast_to(np.eye(sdp.side), sdp.class_shape)
    return 4.0 * schur_complement(sdp, stack, identity, np.zeros(len(sdp.row_size) - q + 1))[:q, :q]


def round_factor(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """Least-norm Gauss-Newton steps on the factors v_b (rows v_{s,b}) of the
    representative class blocks towards the pair constraints
    sum_{j : w_j != x_j} <v_{w,j}|v_{x,j}> = 1, after Peyrl and Parrilo's
    rounding, done in the factor space, so that X = V V^T stays PSD.

    Each step is dV_b = -L_b V_b, L_b the class-block part of 2 A^T lambda
    with J J^T lambda = r, solved on the pair orbits like the Newton system.
    At X = V V^T and Z^-1 = I on every class block the pair block of the
    Schur complement, tr(A_i X A_k Z^-1), is J J^T / 4: its cross terms read
    Z^-1 between F0 and F1, which is zero.  So schur_complement builds J J^T
    and J is never formed.

    A step takes r to about |r|^2 / sigma_min(J)^2, so the steps go on until
    the worst pair residual is roundoff, or until a step no longer halves it
    (the smaller of the two is kept).  A Gram entry <v_{w,b}|v_{x,b}> of
    vectors of length at most K <= 2^n is computed to within
    2^n eps |v_{w,b}| |v_{x,b}| (Higham's gamma_K), the sum over at most 2n
    halves adds 2n eps times the same sizes, and by Cauchy-Schwarz
    sum_j |v_{w,j}| |v_{x,j}| <= W, the largest row sum
    sum_j |v_{s,j}|^2; subtracting 1 is exact this close to it.  So a
    residual within (2^n + 2n) eps max(1, W) is roundoff.  MAJ:5 gets there
    in one step, from 1.1e-8; 1011010001111100 in four, 1.9e-8 -> 5.5e-9 ->
    6.7e-10 -> 1.1e-11 -> 4.4e-15.
    """
    q = sdp.pair_rows
    scale = np.sqrt(sdp.row_size[:q])
    no_rows = np.zeros(len(sdp.row_size) - q)

    def residual(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        stack = v @ v.transpose(0, 2, 1)
        r = class_pair_sums(sdp, stack) - 1.0
        return stack, r, float(np.abs(r).max())

    stack, r, worst = residual(v)
    w_size = float(stack.ravel()[sdp.rep_diagonal].sum(axis=0).max())
    bound = (2**sdp.n + 2 * sdp.n) * np.finfo(float).eps * max(1.0, w_size)
    while worst > bound:
        normal = _pair_normal(sdp, stack)
        # Cholesky tests that J J^T is positive definite; roundoff lets it
        # pass some exactly singular ones (1100's [[2, 2], [2, 2]]), where
        # the LU then meets a zero pivot
        try:
            np.linalg.cholesky(normal)
            lam = np.linalg.solve(normal, r * scale)
        except np.linalg.LinAlgError:  # J J^T singular: the least-norm multipliers
            lam = np.linalg.lstsq(normal, r * scale, rcond=None)[0]
        step = _apply_adjoint(sdp, np.concatenate([lam / scale, no_rows]))[: stack.size].reshape(stack.shape)
        moved = v - 2.0 * step @ v
        moved_stack, moved_r, moved_worst = residual(moved)
        if moved_worst < worst:
            v, stack, r = moved, moved_stack, moved_r
        if not moved_worst <= 0.5 * worst:
            break
        worst = moved_worst
    return v


def coordinate_factors(sdp: WitnessSdp, v: np.ndarray) -> np.ndarray:
    """Rows v_{s,j} of a factor of each coordinate's Gram block X_j, of shape
    (2^n, n, r), from factors v of the representative class blocks whose
    columns past each block's rank are zero (gram_factor, round_factor).

    Class block b copies its representative's rows through the group element
    that carries one onto the other (WitnessSdp.block_rows).  Coordinate j
    puts the rows of its class (j, 0) in its first columns and those of
    (j, 1) in the next, so the two classes stay orthogonal, as X_j is zero
    between them, and r = max_j rank X_{j,0} + rank X_{j,1} = max_j rank X_j.
    """
    n, side, width = sdp.n, sdp.side, v.shape[2]
    rows = np.concatenate([v.reshape(-1, width), np.zeros((1, width))])
    rank = np.append(np.count_nonzero(np.abs(v).max(axis=1), axis=1), 0)[sdp.block_rows[:, 0] // side]
    offset = np.zeros(2 * n, dtype=int)
    offset[1::2] = rank[0::2]
    vectors = np.zeros((sdp.num_inputs, n, int((rank[0::2] + rank[1::2]).max())))
    for b in range(2 * n):
        inside = sdp.members[b] >= 0
        columns = slice(offset[b], offset[b] + rank[b])
        vectors[sdp.members[b, inside], b // 2, columns] = rows[sdp.block_rows[b, inside], : rank[b]]
    return vectors


def _solver(m: np.ndarray):
    """Solve with M by LU with partial pivoting (numpy's LAPACK gesv), once
    per right-hand side.  M is symmetric positive definite on the central
    path but loses rank near the optimum on some tables (when f ignores a
    variable, and on others), where LU still solves it; LinAlgError naming
    a singular Newton system where the LU meets an exactly zero pivot."""

    def solve(r: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(m, r)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError("the Newton system is singular") from None

    return solve


def _inverse_factors(blocks: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L = chol(V) of each block V of the stack,
    all inverted in one np.linalg.inv call; LinAlgError where a block is not
    positive definite."""
    return np.linalg.inv(np.linalg.cholesky(blocks))


def _symmetrize(sdp: WitnessSdp, stack: np.ndarray) -> np.ndarray:
    """The representatives' stack, flat, averaged in place over the orbits of
    each block's stabilizer (WitnessSdp.stabilizer); only the entries some
    stabilizer moves are touched, none when the group is trivial."""
    moved, label, weight = sdp.stabilizer
    stack[moved] = np.bincount(label, weights=stack[moved])[label] * weight
    return stack


def _newton_step(sdp: WitnessSdp, x: np.ndarray, y: np.ndarray, z: np.ndarray, rp: np.ndarray, rd: np.ndarray,
                 m: np.ndarray | None = None):
    """One Mehrotra predictor-corrector step of the HKM method from the
    iterate (x, y, z) in orbit coordinates (WitnessSdp), with rp = b - A x
    and rd = c - A^T y - z.  Returns mu, the stack Z^-1, and for the
    predictor, then the corrector, the direction (dx, dy, dz) and its step
    lengths, each at most 1 (the corrector's cut to the fraction of the way
    to the boundary that it takes).  m is a buffer for the Schur complement's
    rows.  Raises LinAlgError naming the cause where the step fails: a class
    block of X or Z that is not positive definite (roundoff has left the
    cone's interior), a singular Newton system or a direction that is not
    finite.

    Only the representative class blocks are factored, inverted and
    multiplied.  Z^-1, the products A reads and dX are averaged over each
    block's stabilizer, so that X + a dX stays invariant (see the module
    docstring).  The reduced Newton system gives D^1/2 dy from D^1/2 r
    (Orbits), D the row orbits' sizes.
    """
    n, num_inputs, shape = sdp.n, sdp.num_inputs, sdp.class_shape
    nb, count = shape[0] * shape[1] * shape[2], shape[0]
    xr = x[:nb].reshape(shape)
    blocks = np.concatenate([xr, z[:nb].reshape(shape)])
    blocks.reshape(-1)[sdp.padding] = 1.0  # factor X_b + I and Z_b + I on the padding
    try:
        l_inv = _inverse_factors(blocks)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("the iterates left the cone's interior") from None
    l_inv.reshape(-1)[sdp.padding] = 0.0  # so Z^-1 and every direction keep the padding at zero
    order = n * num_inputs + num_inputs + 1
    weight = sdp.multiplicity
    mu = float(x @ (weight * z)) / order
    z_inv = l_inv[count:].transpose(0, 2, 1) @ l_inv[count:]
    _symmetrize(sdp, z_inv.reshape(-1))
    lp_x, lp_z = x[nb:], z[nb:]
    reduced = _solver(schur_complement(sdp, xr, z_inv, lp_x / lp_z, out=m))
    scale = np.sqrt(sdp.row_size)
    x_rd_zinv = xr @ rd[:nb].reshape(shape) @ z_inv
    lp_rd = lp_x * rd[nb:] / lp_z

    def direction(rc_zinv: np.ndarray, rc_lp: np.ndarray):
        """(dx, dy, dz) with A dx = rp, A^T dy + dz = rd and the linearized
        HKM centring dX = sym((R_c - X dZ) Z^-1), given R_c Z^-1 and r_c / z."""
        # averaged over the stabilizers, A reads what the reduced Newton system
        # sums over the row orbits, and what X + a dX reads once averaged
        product = _symmetrize(sdp, (x_rd_zinv - rc_zinv).ravel())
        dy = reduced((rp + _apply(sdp, np.concatenate([product, lp_rd - rc_lp]))) * scale) / scale
        if not np.isfinite(dy).all():
            raise np.linalg.LinAlgError("the Newton direction is not finite")
        dz = rd - _apply_adjoint(sdp, dy)
        dxb = rc_zinv - xr @ dz[:nb].reshape(shape) @ z_inv
        dxb += dxb.transpose(0, 2, 1)
        dxb *= 0.5
        _symmetrize(sdp, dxb.reshape(-1))  # so X + a dX stays invariant
        return np.concatenate([dxb.ravel(), rc_lp - lp_x * dz[nb:] / lp_z]), dy, dz

    def max_step(dx: np.ndarray, dz: np.ndarray) -> tuple[float, float]:
        """Largest a_p and a_d with X + a_p dX and Z + a_d dZ PSD and
        (u, xi) + a dv >= 0 on each side.  With V = L L^T and l_inv the stack
        of L^-1 for the class blocks of X then Z, V + a dV is PSD while
        a lambda_min(L^-1 dV L^-T) >= -1, so one eigvalsh of the blocks
        L^-1 dV L^-T gives both lengths.  A padded block adds zero
        eigenvalues, which leave the length unchanged: it is unbounded as
        long as lambda_min >= 0."""
        dv = np.concatenate([dx[:nb].reshape(shape), dz[:nb].reshape(shape)])
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
    sigma = min(1.0, ((x + step_p * dx) @ (weight * (z + step_d * dz)) / order / mu) ** 3)
    dxb, dzb = dx[:nb].reshape(shape), dz[:nb].reshape(shape)
    dx, dy, dz = direction(sigma * mu * z_inv - xr - dxb @ dzb @ z_inv,
                           (sigma * mu - dx[nb:] * dz[nb:]) / lp_z - lp_x)
    # the fraction of the way to the boundary, as in SDPT3
    fraction = 0.9 + 0.09 * min(step_p, step_d)
    step_p, step_d = (min(1.0, fraction * step) for step in max_step(dx, dz))
    return mu, z_inv, predictor, (dx, dy, dz, step_p, step_d)


@dataclass(frozen=True)
class SdpSolution:
    """Primal-dual output of solve_sdp.

    class_blocks, of shape WitnessSdp.class_shape, holds the representative
    class blocks X_{j,c}[w,x] = <v_{w,j}|v_{x,j}> of the final iterate,
    zero on their padding; with the group elements that carry them onto the
    other blocks (Orbits.expand_stack) they are the whole primal, since no
    constraint reads an entry between two classes or two coordinates.
    alpha holds one multiplier per equality constraint (keyed like
    WitnessSdp.pairs) and beta one nonnegative multiplier per input; at the
    optimum sum(beta) = 1 and sum(alpha) equals xi.
    """

    sdp: WitnessSdp
    class_blocks: np.ndarray
    xi: float
    alpha: np.ndarray
    beta: np.ndarray
    residuals: dict

    @property
    def dual_objective(self) -> float:
        return float(self.alpha.sum())


def solve_sdp(sdp: WitnessSdp, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Follow the central path until the duality gap closes.

    Stops when the largest primal and dual infeasibilities, |xi - sum(alpha)|
    and <X, Z> + <(u, xi), (z_u, z_xi)> all fall below tol * max(1, xi); raises
    NoConvergenceError, naming the cause and carrying the residuals of the
    last finite iterate, after MAX_ITERATIONS (read at each call) or at a
    failed step: the LinAlgError of _newton_step, or a new iterate that is
    not finite.  residuals["history"] has one row per iteration: mu, the gap
    and both infeasibilities at the iterate it started from, and the step
    lengths it took.
    residuals["orbits"] holds the group's order (1 when Aut(f) is trivial),
    M's side before and after the reduction, and the class blocks factored
    per iteration (X's and Z's representatives).  Deterministic:
    fixed start X_b = Z_b = I on every class block.

    The iterate lives in orbit coordinates (WitnessSdp): X and Z as their
    representative class blocks, u and z_u one entry per input orbit, y one
    multiplier per reduced row; the infeasibilities are read at the
    representative rows and entries, and <X, Z> counts each entry with its
    multiplicity.  alpha and beta are expanded once, after the loop, and the
    whole stack only for residuals["primal_equality"] and
    residuals["row_sum_violation"]; the solution holds the representatives
    (SdpSolution.class_blocks).
    """
    if not (np.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"tol must be finite and at least {MIN_TOL:g}")
    n, num_inputs, num_pairs, orbits = sdp.n, sdp.num_inputs, len(sdp.pairs), sdp.orbits
    shape, q, weight = sdp.class_shape, sdp.pair_rows, sdp.multiplicity
    nb = shape[0] * shape[1] * shape[2]
    b = np.concatenate([np.ones(q), np.zeros(len(sdp.row_size) - q)])
    cost = np.zeros(len(weight))
    cost[-1] = 1.0

    # X_b = I and u = 1 satisfy the row sums with xi = n + 1
    x, z, y = np.zeros_like(cost), np.zeros_like(cost), np.zeros(len(sdp.row_size))
    diagonal = np.arange(sdp.side)
    x[:nb].reshape(shape)[:, diagonal, diagonal] = z[:nb].reshape(shape)[:, diagonal, diagonal] = \
        sdp.members[sdp.classes] >= 0
    x[nb:], x[-1] = 1.0, n + 1.0
    z[nb:] = 1.0

    history: list[dict] = []
    stop = "the iteration cap"
    # the Schur complement's rows, refilled every iteration
    m = np.empty((len(sdp.row_size), num_pairs + num_inputs))
    while True:
        rp = b - _apply(sdp, x)
        rd = cost - _apply_adjoint(sdp, y) - z
        xi = float(x[-1])
        complementarity = float(x @ (weight * z))
        gap = xi - float((sdp.row_size[:q] * y[:q]).sum())
        primal_inf, dual_inf = float(np.abs(rp).max()), float(np.abs(rd).max())
        converged = max(primal_inf, dual_inf, abs(gap), complementarity) <= tol * max(1.0, abs(xi))
        if converged or len(history) == MAX_ITERATIONS:
            break
        try:
            mu, _, _, (dx, dy, dz, step_p, step_d) = _newton_step(sdp, x, y, z, rp, rd, m)
            iterate = x + step_p * dx, y + step_d * dy, z + step_d * dz
            if not all(np.isfinite(v).all() for v in iterate):
                raise np.linalg.LinAlgError("the new iterate is not finite")
        except np.linalg.LinAlgError as exc:
            stop = str(exc)
            break
        x, y, z = iterate
        history.append({"mu": mu, "gap": gap, "primal_infeasibility": primal_inf,
                        "dual_infeasibility": dual_inf, "step_primal": step_p, "step_dual": step_d})

    stack = x[:nb].reshape(shape)
    whole = orbits.expand_stack(stack)
    alpha, beta = y[orbits.row[:num_pairs]], -y[orbits.row[num_pairs:]]
    sizes = sdp.sizes[sdp.classes]
    residuals = {
        "primal_equality": float(np.abs(_pair_values(sdp, whole) - 1.0).max()),
        "row_sum_violation": float(max(0.0, (whole[sdp.diagonal].sum(axis=0) - xi).max())),
        # the class blocks without their padding, grouped by size (a class may be empty)
        "min_eigenvalue": min(float(np.linalg.eigvalsh(stack[sizes == k, :k, :k]).min())
                              for k in np.unique(sizes[sizes > 0])),
        "duality_gap": abs(gap),
        "beta_sum": float(beta.sum()),
        "primal_infeasibility": primal_inf,
        "dual_infeasibility": dual_inf,
        "complementarity": complementarity,
        "iterations": len(history),
        "tolerance": tol,
        "history": history,
        "orbits": {"order": orbits.order, "schur_side": num_pairs + num_inputs, "reduced_side": len(sdp.row_size),
                   "blocks_factored": 2 * len(sdp.classes)},
    }
    if not converged:
        raise NoConvergenceError(
            f"no convergence after {len(history)} iterations: {stop}; "
            f"infeasibility {primal_inf:.2e}/{dual_inf:.2e}, "
            f"gap {gap:.2e}, complementarity {complementarity:.2e}",
            residuals,
        )
    return SdpSolution(sdp=sdp, class_blocks=stack, xi=xi, alpha=alpha, beta=beta, residuals=residuals)


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
    # Gamma is constant on the orbits of Aut(f), so ||Gamma o D_i|| is too:
    # one coordinate per orbit, the coordinates of the representative blocks
    norm, denom = _ratio_norms(gamma, f, np.unique(sol.sdp.classes // 2))
    beta_hat = np.sqrt(np.maximum(sol.beta, 0.0))
    beta_hat /= np.linalg.norm(beta_hat)
    alignment = float(beta_hat @ gamma @ beta_hat) / norm
    return AdversaryCertificate(f=f, gamma=gamma, value=norm / denom, beta_alignment=alignment)


def adversary_ratio(gamma, f: BooleanFunction) -> float:
    """||Gamma|| / max_i ||Gamma o D_i|| for an adversary matrix of f."""
    norm, denom = _ratio_norms(gamma, f)
    return norm / denom


def _ratio_norms(gamma, f: BooleanFunction, coordinates: np.ndarray | None = None) -> tuple[float, float]:
    """||Gamma|| and max_i ||Gamma o D_i|| of an adversary matrix of f, from
    one stacked SVD of Gamma and the matrices Gamma o D_i, i over the given
    coordinates (0-based; all n when None)."""
    g = np.asarray(gamma)
    scale = float(np.abs(g).max()) if g.size else 0.0
    if scale == 0.0:
        raise ZeroMatrixError("adversary ratio is undefined for the zero matrix")
    table = np.array(f.table)
    wrong = (table[:, None] == table[None, :]) & (np.abs(g) > 1e-12 * scale)
    if wrong.any():
        x, y = np.unravel_index(np.argmax(wrong), wrong.shape)
        raise PatternViolationError(f"Gamma[{x},{y}] = {g[x, y]:.3e} but f({x}) = f({y})")
    bits = f.bits.T if coordinates is None else f.bits.T[coordinates]
    differ = (bits[:, :, None] != bits[:, None, :]).astype(float)  # D_i, (coordinates, 2^n, 2^n)
    norms = np.linalg.svd(np.concatenate([g[None], g * differ]), compute_uv=False)[:, 0]
    return float(norms[0]), float(norms[1:].max())
