"""Exact linear algebra over a finite field, with one row-reduction kernel.

A row is a tuple of field elements, which are ints (see gf): over the prime
field F_q = FieldCtx(q, 1) an entry is its residue in [0, q), over F_{q^n}
it is a symbol.  `ext_rref` is the only Gauss-Jordan loop.  rref, span,
kernel, rank and membership over F_q call it with the prime field; the
extension-field functions (generalized Hamming weights, parity checks,
membership in a linear code) call it with their FieldCtx.  The one
specialization is `gf2_rank`, the rank over F_2 of bit-packed rows.

A vector of F_q^m packs into one int (gf.pack, the first coordinate most
significant); a symbol of F_{q^n} is already the packed form of its
coefficient vector, and over F_2 the packed form is the bit-packed row.

A subspace is always stored through its unique reduced-row-echelon basis,
so subspace equality is plain matrix equality and sets of subspaces
deduplicate exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvalidParams, SearchTooLarge
from .gf import pack, prime_field, unpack

_ENUM_GUARD = 1 << 20       # cap on q^ambient for subspace enumeration
_ENUM_COUNT_CAP = 1 << 22   # cap on the number of subspaces materialized


@dataclass(frozen=True)
class FqMatrix:
    """A rows x cols matrix over F_q; entries must already be reduced mod q."""

    q: int
    rows: tuple[tuple[int, ...], ...]
    cols: int

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.cols:
                raise InvalidParams(f"row of length {len(r)} in a {self.cols}-column matrix")
            for e in r:
                if not 0 <= e < self.q:
                    raise InvalidParams(f"entry {e} not reduced mod {self.q}")

    @classmethod
    def from_rows(cls, q: int, rows, cols: int | None = None) -> "FqMatrix":
        rows = tuple(tuple(int(e) % q for e in r) for r in rows)
        if cols is None:
            if not rows:
                raise InvalidParams("empty matrix needs an explicit column count")
            cols = len(rows[0])
        return cls(q, rows, cols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def matmul(self, other: "FqMatrix") -> "FqMatrix":
        if self.q != other.q or self.cols != other.nrows:
            raise InvalidParams("incompatible matrix product")
        rows = ext_matmul(self.rows, other.rows, other.cols, prime_field(self.q))
        return FqMatrix(self.q, tuple(rows), other.cols)


def rref(m: FqMatrix) -> tuple[FqMatrix, int]:
    """Unique reduced row echelon form of m and its rank."""
    rows, rank, _ = ext_rref(m.rows, m.cols, prime_field(m.q))
    return FqMatrix(m.q, tuple(rows), m.cols), rank


def gf2_rank(packed: list[int]) -> int:
    """Rank over F_2 of rows bit-packed into ints (fast path for pair sweeps)."""
    r = 0
    rows = list(packed)
    for i in range(len(rows)):
        row = rows[i]
        if not row:
            continue
        low = row & -row
        for j in range(i + 1, len(rows)):
            if rows[j] & low:
                rows[j] ^= row
        r += 1
    return r


def packed_rank(vectors, ambient: int, q: int) -> int:
    """Rank of vectors of F_q^ambient, each packed into an int (gf.pack)."""
    if q == 2:
        return gf2_rank(vectors)
    return ext_rank([unpack(v, q, ambient) for v in vectors], ambient, prime_field(q))


@dataclass(frozen=True)
class Subspace:
    """An F_q-linear subspace of F_q^ambient, canonically an RREF basis."""

    q: int
    ambient: int
    basis: FqMatrix

    def __post_init__(self):
        if self.basis.q != self.q or self.basis.cols != self.ambient:
            raise InvalidParams("basis does not match declared ambient space")
        reduced, rk = rref(self.basis)
        if rk != self.basis.nrows or reduced != self.basis:
            raise InvalidParams("subspace basis must be a zero-row-free RREF matrix")

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def vectors(self) -> list[tuple]:
        """All q^dim member vectors (coefficients enumerated big-endian)."""
        return span_vectors(self.basis.rows, self.ambient, prime_field(self.q))

    def contains(self, vector) -> bool:
        vector = tuple(int(e) % self.q for e in vector)
        if len(vector) != self.ambient:
            raise InvalidParams("vector length does not match ambient dimension")
        return ext_in_rowspan(vector, self.basis.rows, self.ambient, prime_field(self.q))

    def flat_key(self) -> tuple:
        return tuple(e for r in self.basis.rows for e in r)


def _reduced_rows(vectors, ambient: int, q: int) -> list[list[int]]:
    """The vectors as rows of entries reduced mod q, each of length ambient."""
    rows = []
    for v in vectors:
        v = [int(e) % q for e in v]
        if len(v) != ambient:
            raise InvalidParams(f"vector of length {len(v)} in ambient {ambient}")
        rows.append(v)
    return rows


def span(vectors, ambient: int, q: int) -> Subspace:
    """Canonical subspace spanned by the given row vectors of length ambient."""
    rows, rk, _ = ext_rref(_reduced_rows(vectors, ambient, q), ambient, prime_field(q))
    return Subspace(q, ambient, FqMatrix(q, tuple(rows[:rk]), ambient))


def span_distance(a, b, ambient: int, q: int) -> int:
    """Subspace distance dim(A + B) - dim(A ∩ B) of the spans of the vector
    lists a and b in F_q^ambient, each vector packed into an int (gf.pack):
    2 rank(a ∪ b) - rank a - rank b."""
    a, b = list(a), list(b)
    return (2 * packed_rank(a + b, ambient, q)
            - packed_rank(a, ambient, q) - packed_rank(b, ambient, q))


def _require_common_ambient(u: Subspace, v: Subspace) -> None:
    if u.q != v.q or u.ambient != v.ambient:
        raise InvalidParams("subspace sum needs a common ambient space")


def subspace_pair_distance(u: Subspace, v: Subspace) -> int:
    _require_common_ambient(u, v)
    q = u.q
    return span_distance([pack(r, q) for r in u.basis.rows],
                         [pack(r, q) for r in v.basis.rows], u.ambient, q)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _require_common_ambient(u, v)
    return span(u.basis.rows + v.basis.rows, u.ambient, u.q)


def subspace_intersection_dim(u: Subspace, v: Subspace) -> int:
    """dim(U ∩ V) via dim U + dim V - dim(U + V)."""
    return u.dim + v.dim - subspace_sum(u, v).dim


def kernel(m: FqMatrix) -> Subspace:
    """Null space of m as a subspace of F_q^cols."""
    return span(ext_kernel_basis(m.rows, m.cols, prime_field(m.q)), m.cols, m.q)


def subspace_count(ambient: int, dim: int, q: int) -> int:
    """Number of dim-dimensional subspaces of F_q^ambient (exact)."""
    if dim < 0 or dim > ambient:
        return 0
    num = den = 1
    for i in range(dim):
        num *= q ** (ambient - i) - 1
        den *= q ** (dim - i) - 1
    quot, rem = divmod(num, den)
    if rem:
        raise InvalidParams("subspace count was not integral (internal error)")
    return quot


def enumerate_subspaces(q: int, ambient: int, dim: int):
    """Yield every dim-dimensional subspace of F_q^ambient exactly once.

    Deterministic order: lexicographic on the flattened RREF basis.  Guarded
    by q^ambient <= 2^20 and by the total subspace count.
    """
    if dim < 0 or dim > ambient:
        raise InvalidParams(f"dimension {dim} out of range for ambient {ambient}")
    if q ** ambient > _ENUM_GUARD:
        raise SearchTooLarge(f"q^ambient = {q ** ambient} exceeds {_ENUM_GUARD}")
    if subspace_count(ambient, dim, q) > _ENUM_COUNT_CAP:
        raise SearchTooLarge("too many subspaces to materialize")
    return (Subspace(q, ambient, FqMatrix(q, b, ambient))
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
        if rank_ == len(rows):
            break
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


def ext_in_rowspan(vector, rows, ncols: int, ctx) -> bool:
    base_rank = ext_rank(rows, ncols, ctx)
    return ext_rank(list(rows) + [vector], ncols, ctx) == base_rank


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
    coefficient runs over the elements in order."""
    out = [(ctx.zero,) * ncols]
    for row in rows:
        multiples = [tuple(ctx.mul(c, e) for e in row) for c in ctx.elements()]
        out = [tuple(map(ctx.add, v, m)) for v in out for m in multiples]
    return out


def enumerate_ext_rref_bases(ctx, ambient: int, dim: int, count_guard: int = 10 ** 6):
    """All RREF bases of dim-dimensional subspaces of ctx^ambient, sorted.

    Entries are ctx elements; ordering is lexicographic on the elements.
    """
    if dim < 0 or dim > ambient:
        raise InvalidParams(f"dimension {dim} out of range for ambient {ambient}")
    if subspace_count(ambient, dim, ctx.order) > count_guard:
        raise SearchTooLarge("too many extension-field subspaces to enumerate")
    return _rref_bases(ctx.order, ctx.one, ambient, dim)
