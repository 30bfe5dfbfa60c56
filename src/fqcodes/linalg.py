"""Exact linear algebra over F_q and canonical subspaces.

Matrices are immutable tuples of row tuples with entries reduced mod q.
A subspace is always stored through its unique reduced-row-echelon basis,
so subspace equality is plain matrix equality and sets of subspaces
deduplicate exactly.

The second half of the module provides the same row-reduction machinery
over an extension field F_{q^n}: rows hold field elements (coefficient
tuples) and a FieldCtx supplies the arithmetic.  This is what linear codes
over an extension-field alphabet (generalized Hamming weights, parity
checks, membership tests) run on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvalidParams, SearchTooLarge

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
        q = self.q
        out = []
        for r in self.rows:
            row = [0] * other.cols
            for i, e in enumerate(r):
                if e:
                    orow = other.rows[i]
                    for j in range(other.cols):
                        row[j] = (row[j] + e * orow[j]) % q
            out.append(tuple(row))
        return FqMatrix(q, tuple(out), other.cols)


def _rref_rows(rows: list[list[int]], cols: int, q: int):
    """In-place Gauss-Jordan; returns (rows, rank, pivot_columns)."""
    rank = 0
    pivots = []
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        if inv != 1:
            rows[rank] = [(e * inv) % q for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows, rank, pivots


def rref(m: FqMatrix) -> tuple[FqMatrix, int]:
    """Unique reduced row echelon form of m and its rank."""
    rows = [list(r) for r in m.rows]
    rows, rank, _ = _rref_rows(rows, m.cols, m.q)
    return FqMatrix(m.q, tuple(tuple(r) for r in rows), m.cols), rank


def gf2_pack(row) -> int:
    """Pack a 0/1 row into an int, bit i = column i."""
    x = 0
    for i, e in enumerate(row):
        if e:
            x |= 1 << i
    return x


def gf2_rank(packed: list[int]) -> int:
    """Rank of bit-packed rows over F_2 (fast path for pair sweeps)."""
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

    def vectors(self):
        """All q^dim member vectors (coefficients enumerated big-endian)."""
        q = self.q
        for coeffs in itertools.product(range(q), repeat=self.dim):
            v = [0] * self.ambient
            for c, row in zip(coeffs, self.basis.rows):
                if c:
                    for i, e in enumerate(row):
                        v[i] = (v[i] + c * e) % q
            yield tuple(v)

    def contains(self, vector) -> bool:
        vector = tuple(int(e) % self.q for e in vector)
        if len(vector) != self.ambient:
            raise InvalidParams("vector length does not match ambient dimension")
        stacked = [list(r) for r in self.basis.rows] + [list(vector)]
        _, rk, _ = _rref_rows(stacked, self.ambient, self.q)
        return rk == self.dim

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
    rows, rk, _ = _rref_rows(_reduced_rows(vectors, ambient, q), ambient, q)
    basis = tuple(tuple(r) for r in rows[:rk])
    return Subspace(q, ambient, FqMatrix(q, basis, ambient))


def span_distance(a, b, ambient: int, q: int) -> int:
    """Subspace distance dim(A + B) - dim(A ∩ B) of the spans of the vector
    lists a and b in F_q^ambient: 2 rank(a ∪ b) - rank a - rank b."""
    a = _reduced_rows(a, ambient, q)
    b = _reduced_rows(b, ambient, q)
    if q == 2:
        a = [gf2_pack(r) for r in a]
        b = [gf2_pack(r) for r in b]
        rank = gf2_rank
    else:
        def rank(rows):
            return _rref_rows(rows, ambient, q)[1]
    return 2 * rank(a + b) - rank(a) - rank(b)


def _require_common_ambient(u: Subspace, v: Subspace) -> None:
    if u.q != v.q or u.ambient != v.ambient:
        raise InvalidParams("subspace sum needs a common ambient space")


def subspace_pair_distance(u: Subspace, v: Subspace) -> int:
    _require_common_ambient(u, v)
    return span_distance(u.basis.rows, v.basis.rows, u.ambient, u.q)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _require_common_ambient(u, v)
    return span(u.basis.rows + v.basis.rows, u.ambient, u.q)


def subspace_intersection_dim(u: Subspace, v: Subspace) -> int:
    """dim(U ∩ V) via dim U + dim V - dim(U + V)."""
    return u.dim + v.dim - subspace_sum(u, v).dim


def kernel(m: FqMatrix) -> Subspace:
    """Null space of m as a subspace of F_q^cols."""
    rows = [list(r) for r in m.rows]
    rows, rk, pivots = _rref_rows(rows, m.cols, m.q)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    q = m.q
    basis_vecs = []
    for f in free_cols:
        v = [0] * m.cols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = (-rows[r][f]) % q
        basis_vecs.append(v)
    return span(basis_vecs, m.cols, q)


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
            for b in _rref_index_bases(q, 1, ambient, dim))


def _rref_index_bases(order: int, one: int, ambient: int, dim: int) -> list:
    """Every RREF basis of a dim-dimensional subspace of F^ambient, |F| = order.

    Entries are element indices: 0 is zero and `one` is the pivot entry.
    The bases come sorted lexicographically on their flattened indices.
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


def field_elements_as_vectors(ctx, elements) -> list[tuple[int, ...]]:
    """Coefficient vectors of field elements; the F_{q^n} = F_q^n identification."""
    return [ctx.element(e) for e in elements]


# -- row reduction over an extension field ----------------------------------

def ext_rref(rows, ncols: int, ctx):
    """RREF of rows of field elements; returns (rows, rank, pivot columns)."""
    rows = [list(r) for r in rows]
    rank_ = 0
    pivots = []
    zero = ctx.zero
    for col in range(ncols):
        pivot = None
        for r in range(rank_, len(rows)):
            if rows[r][col] != zero:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        inv = ctx.inv(rows[rank_][col])
        if inv != ctx.one:
            rows[rank_] = [ctx.mul(inv, e) for e in rows[rank_]]
        for r in range(len(rows)):
            if r != rank_ and rows[r][col] != zero:
                f = rows[r][col]
                rows[r] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(rows[r], rows[rank_])]
        pivots.append(col)
        rank_ += 1
        if rank_ == len(rows):
            break
    return [tuple(r) for r in rows], rank_, pivots


def ext_rank(rows, ncols: int, ctx) -> int:
    return ext_rref(rows, ncols, ctx)[1]


def ext_kernel_basis(rows, ncols: int, ctx) -> list[tuple]:
    """Basis of {x : rows . x = 0} over the extension field, free columns in order."""
    reduced, _, pivots = ext_rref(rows, ncols, ctx)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for f in free_cols:
        v = [ctx.zero] * ncols
        v[f] = ctx.one
        for r, p in enumerate(pivots):
            v[p] = ctx.neg(reduced[r][f])
        out.append(tuple(v))
    return out


def ext_in_rowspan(vector, rows, ncols: int, ctx) -> bool:
    base_rank = ext_rank(rows, ncols, ctx)
    return ext_rank(list(rows) + [vector], ncols, ctx) == base_rank


def ext_matmul(a_rows, b_rows, ctx):
    """Product of matrices with extension-field entries (lists of row tuples)."""
    b_cols = len(b_rows[0]) if b_rows else 0
    out = []
    for r in a_rows:
        row = [ctx.zero] * b_cols
        for i, e in enumerate(r):
            if e != ctx.zero:
                for j in range(b_cols):
                    row[j] = ctx.add(row[j], ctx.mul(e, b_rows[i][j]))
        out.append(tuple(row))
    return out


def enumerate_ext_rref_bases(ctx, ambient: int, dim: int, count_guard: int = 10 ** 6):
    """All RREF bases of dim-dimensional subspaces of ctx^ambient, sorted.

    Entries are ctx elements; ordering is lexicographic on element indices.
    """
    if dim < 0 or dim > ambient:
        raise InvalidParams(f"dimension {dim} out of range for ambient {ambient}")
    if subspace_count(ambient, dim, ctx.order) > count_guard:
        raise SearchTooLarge("too many extension-field subspaces to enumerate")
    elems = [ctx.element_at(i) for i in range(ctx.order)]
    return [tuple(tuple(elems[i] for i in r) for r in b)
            for b in _rref_index_bases(ctx.order, ctx.index_of(ctx.one), ambient, dim)]
