"""Exact linear algebra over a finite field, with one row-reduction kernel.

A vector of F_q^m is one int: its m coordinates are base-q digits, the
first most significant (gf.pack).  A symbol of F_{q^m} is the same int as
its coefficient vector, and over F_2 the int is the bit-packed row.  Every
F_q vector this module takes or returns has that form: the inputs of
`span`, `rref` and `kernel`, the rows of a Subspace and its `vectors()`.

`ext_rref` is the one general Gauss-Jordan loop.  It works on rows of
field elements, so over an odd prime field F_q = FieldCtx(q, 1) `rref` (and
through it `span`) unpacks the vectors into their digits, reduces them and
packs the result; the extension-field functions (generalized Hamming
weights, parity checks, generator ranks) call it with their FieldCtx.
The one specialization is `_gf2_pivots`, F_2 elimination of packed rows by
the pivot at each row's top bit.  Over F_2, `gf2_rank`, `_span_distance`
and `rref` (so `span`) all work through it on the ints, with no digits.

A subspace is stored through its unique reduced-row-echelon basis, packed,
so subspace equality is plain tuple equality and sets of subspaces
deduplicate exactly.  Each public function given packed vectors and their
length m, and a Subspace given its rows, checks them with gf.check_ints,
so no rank kernel sees a bad one; a Subspace trusts its rows are in RREF.
"""

from __future__ import annotations

import itertools
from operator import xor

from .errors import InvalidParams, SearchTooLarge
from .gf import Value, add_packed, check_ints, pack, prime_field, unpack

_ENUM_GUARD = 1 << 20       # cap on q^ambient for subspace enumeration
_ENUM_COUNT_CAP = 1 << 22   # cap on the number of subspaces materialized
EXT_BASES_GUARD = 10 ** 6   # cap on the bases enumerate_ext_rref_bases lists


def _checked(vectors, ambient: int, q: int) -> list[int]:
    """The packed vectors as a list, each checked to be an int in [0, q^ambient)."""
    vectors = list(vectors)
    check_ints(vectors, q ** ambient, "vector")
    return vectors


def _coordinates(vectors, ambient: int, q: int) -> list[tuple]:
    """The digit rows of packed vectors, each checked to be an int in [0, q^ambient)."""
    return [unpack(v, q, ambient) for v in _checked(vectors, ambient, q)]


def rref(vectors, ambient: int, q: int) -> tuple[tuple[int, ...], int]:
    """Unique reduced row echelon form of the packed vectors, zero rows
    last, and its rank.

    Over F_2 the pivots of `_gf2_pivots`, highest top bit first, are the
    echelon rows; each pivot's bit is cleared from the rows above it.
    """
    if q != 2:
        rows, rank, _ = ext_rref(_coordinates(vectors, ambient, q), ambient, prime_field(q))
        return tuple(pack(r, q) for r in rows), rank
    vectors = _checked(vectors, ambient, 2)
    rows = [row for _, row in sorted(_gf2_pivots(vectors, {}, ambient).items(), reverse=True)]
    for i, row in enumerate(rows):
        bit = 1 << (row.bit_length() - 1)
        for j in range(i):
            if rows[j] & bit:
                rows[j] ^= row
    return tuple(rows) + (0,) * (len(vectors) - len(rows)), len(rows)


def _gf2_pivots(rows, pivots: dict, full: int) -> dict:
    """Eliminate bit-packed F_2 rows (ints >= 0) into `pivots`, a dict from
    top bit to row: each row is reduced by the pivot at its top bit until it
    is zero or its top bit is new, and then kept as that bit's pivot.  Stops
    once there are `full` pivots; returns `pivots`, extended in place."""
    for row in rows:
        while row and (top := row.bit_length()) in pivots:
            row ^= pivots[top]
        if row:
            pivots[top] = row
            if len(pivots) == full:
                break
    return pivots


def gf2_rank(packed) -> int:
    """Rank over F_2 of rows bit-packed into ints >= 0: the number of
    `_gf2_pivots`, with no width to stop at."""
    return len(_gf2_pivots(packed, {}, -1))


def packed_rank(vectors, ambient: int, q: int) -> int:
    """Rank of vectors of F_q^ambient, each packed into an int (gf.pack)."""
    if q == 2:
        return gf2_rank(_checked(vectors, ambient, 2))
    return ext_rank(_coordinates(vectors, ambient, q), ambient, prime_field(q))


class Subspace(Value):
    """An F_q-linear subspace of F_q^ambient: the packed rows of its RREF
    basis.  Each row must be an int in [0, q^ambient), since _gf2_pivots loops
    on a negative one; that the rows are in RREF is trusted.  Build one with
    `span`, which reduces its input."""

    __slots__ = ("q", "ambient", "rows")

    def __init__(self, q: int, ambient: int, rows: tuple):
        check_ints(rows, q ** ambient if rows else 0, "member row")  # no rows, no power
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[int]:
        """All q^dim member vectors, packed: zero, then for each row in turn
        the sums of the vectors so far with each nonzero multiple of it."""
        q = self.q
        vecs = [0]
        for row in self.rows:
            multiples = [row]
            for _ in range(q - 2):
                multiples.append(add_packed(multiples[-1], row, q))
            vecs += [add_packed(v, m, q) for v in vecs for m in multiples]
        return vecs


def span(vectors, ambient: int, q: int) -> Subspace:
    """Canonical subspace spanned by the packed vectors of F_q^ambient."""
    rows, rank = rref(vectors, ambient, q)
    return Subspace(q, ambient, rows[:rank])


def span_distance(a, b, ambient: int, q: int) -> int:
    """dim(A + B) - dim(A ∩ B) for the spans A, B of the packed vectors a, b,
    each checked to lie in F_q^ambient: 2 rank(a ∪ b) - rank a - rank b."""
    return _span_distance(_checked(a, ambient, q), _checked(b, ambient, q), ambient, q)


def _span_distance(a, b, ambient: int, q: int) -> int:
    """span_distance of checked vectors.

    Over F_2, `_gf2_pivots` reduces a to pivots pa, b to pivots pb, then
    pb's rows into pa, which leaves pa a basis of A + B; each call stops at
    `ambient` pivots.  When A or B alone is all of F_2^ambient, so is A + B,
    and the distance is 2 ambient - rank a - rank b with no merge.
    """
    if q == 2:
        ra = len(pa := _gf2_pivots(a, {}, ambient))
        rb = len(pb := _gf2_pivots(b, {}, ambient))
        if ra == ambient or rb == ambient:
            return 2 * ambient - ra - rb
        return 2 * len(_gf2_pivots(pb.values(), pa, ambient)) - ra - rb
    return (2 * packed_rank([*a, *b], ambient, q)
            - packed_rank(a, ambient, q) - packed_rank(b, ambient, q))


def subspace_pair_distance(u: Subspace, v: Subspace) -> int:
    if u.q != v.q or u.ambient != v.ambient:
        raise InvalidParams("subspace distance needs a common ambient space")
    return _span_distance(u.rows, v.rows, u.ambient, u.q)


def kernel(rows, ncols: int, q: int) -> Subspace:
    """Null space {x : rows . x = 0} of the matrix with the given packed rows,
    as a subspace of F_q^ncols."""
    basis = ext_kernel_basis(_coordinates(rows, ncols, q), ncols, prime_field(q))
    return span([pack(v, q) for v in basis], ncols, q)


def subspace_count(ambient: int, dim: int, q: int) -> int:
    """Number of dim-dimensional subspaces of F_q^ambient: the Gaussian
    binomial, an exact quotient."""
    if dim < 0 or dim > ambient:
        return 0
    num = den = 1
    for i in range(dim):
        num *= q ** (ambient - i) - 1
        den *= q ** (dim - i) - 1
    return num // den


def enumerate_subspaces(q: int, ambient: int, dim: int):
    """Yield every dim-dimensional subspace of F_q^ambient exactly once.

    Deterministic order: lexicographic on the flattened RREF basis, which
    for rows of one length is the order of the tuples of packed rows.
    Guarded by q^ambient <= 2^20 and by the total subspace count.
    """
    if dim < 0 or dim > ambient:
        raise InvalidParams(f"dimension {dim} out of range for ambient {ambient}")
    if q ** ambient > _ENUM_GUARD:
        raise SearchTooLarge(f"q^ambient = {q ** ambient} exceeds {_ENUM_GUARD}")
    if subspace_count(ambient, dim, q) > _ENUM_COUNT_CAP:
        raise SearchTooLarge("too many subspaces to materialize")
    return (Subspace(q, ambient, tuple(pack(r, q) for r in b))
            for b in _rref_bases(q, 1, ambient, dim))


def _rref_bases(order: int, one: int, ambient: int, dim: int) -> list:
    """Every RREF basis of a dim-dimensional subspace of F^ambient, |F| = order.

    Entries are elements: 0 is zero and `one` is the pivot entry.  The
    bases come sorted lexicographically on their flattened entries.
    """
    bases = []
    for pivots in itertools.combinations(range(ambient), dim):
        pivot_set = set(pivots)
        free_positions = [(r, c)
                          for r in range(dim)
                          for c in range(pivots[r] + 1, ambient)
                          if c not in pivot_set]
        for assign in itertools.product(range(order), repeat=len(free_positions)):
            rows = [[0] * ambient for _ in range(dim)]
            for r, p in enumerate(pivots):
                rows[r][p] = one
            for (r, c), val in zip(free_positions, assign):
                rows[r][c] = val
            bases.append(tuple(tuple(r) for r in rows))
    bases.sort()
    return bases


# -- the row-reduction kernel and what is built on it ------------------------

def ext_rref(rows, ncols: int, ctx):
    """Gauss-Jordan over the field ctx; returns (rows, rank, pivot columns).

    The rows come back in reduced row echelon form, zero rows last.
    """
    rows = [list(r) for r in rows]
    mul, sub, one = ctx.mul, ctx.sub, ctx.one
    rank_ = 0
    pivots = []
    for col in range(ncols):
        if rank_ == len(rows):
            break
        pivot = None
        for r in range(rank_, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        prow = rows[rank_]
        if prow[col] != one:
            inv = ctx.inv(prow[col])
            prow = rows[rank_] = [mul(inv, e) for e in prow]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank_ and f:
                if f == one:
                    rows[r] = list(map(sub, rows[r], prow))
                else:
                    rows[r] = [sub(a, mul(f, b)) for a, b in zip(rows[r], prow)]
        pivots.append(col)
        rank_ += 1
    return [tuple(r) for r in rows], rank_, pivots


def ext_rank(rows, ncols: int, ctx) -> int:
    return ext_rref(rows, ncols, ctx)[1]


def ext_kernel_basis(rows, ncols: int, ctx) -> list[tuple]:
    """Basis of {x : rows . x = 0}, one vector per free column, in column order."""
    reduced, _, pivots = ext_rref(rows, ncols, ctx)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for f in free_cols:
        v = [ctx.zero] * ncols
        v[f] = ctx.one
        for r, p in enumerate(pivots):
            v[p] = ctx.sub(ctx.zero, reduced[r][f])
        out.append(tuple(v))
    return out


def ext_matmul(a_rows, b_rows, ncols: int, ctx) -> list[tuple]:
    """Product of matrices over ctx, given as row lists; b has ncols columns."""
    out = []
    for r in a_rows:
        row = [ctx.zero] * ncols
        for i, e in enumerate(r):
            if e:
                brow = b_rows[i]
                for j in range(ncols):
                    row[j] = ctx.add(row[j], ctx.mul(e, brow[j]))
        out.append(tuple(row))
    return out


def span_vectors(rows, ncols: int, ctx) -> list[tuple]:
    """Every ctx-linear combination of the rows, in message order: the
    coefficient of the first row is the most significant, and each
    coefficient runs over the elements in order.  Over characteristic 2
    the sums are XOR."""
    add = xor if ctx.q == 2 else ctx.add
    out = [(ctx.zero,) * ncols]
    for row in rows:
        multiples = [tuple(ctx.mul(c, e) for e in row) for c in ctx.elements()]
        out = [tuple(map(add, v, m)) for v in out for m in multiples]
    return out


def enumerate_ext_rref_bases(ctx, ambient: int, dim: int):
    """All RREF bases of dim-dimensional subspaces of ctx^ambient, sorted.

    Entries are ctx elements; ordering is lexicographic on the elements.
    """
    if dim < 0 or dim > ambient:
        raise InvalidParams(f"dimension {dim} out of range for ambient {ambient}")
    if subspace_count(ambient, dim, ctx.order) > EXT_BASES_GUARD:
        raise SearchTooLarge("too many extension-field subspaces to enumerate")
    return _rref_bases(ctx.order, ctx.one, ambient, dim)
