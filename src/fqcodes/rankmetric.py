"""Rank-metric codes built from linearized polynomials.

A q-polynomial a_0 x + a_1 x^q + ... + a_t x^(q^t) with coefficients in
F_{q^n} is an F_q-linear map on F_{q^n}; its matrix in the power basis is
what carries the rank.  The full coefficient space with degree parameter t
is the classical maximum-rank-distance family with rank distance n - t.
The rectangular variant composes each Frobenius power with the canonical
F_q-linear embedding into a larger field, giving k x (k+h) matrices.

The rank distribution of a square MRD code is available twice: as an
exhaustive census of member ranks and as the closed-form alternating sum,
evaluated in exact integer arithmetic.  The two must agree entrywise,
which the test suite and the `verify` CLI command both exploit.
"""

from __future__ import annotations

import itertools
from operator import xor

from .errors import InvalidParams, PropertyViolation, SearchTooLarge
from .gf import FieldCtx, Value, add_packed, pack
from .linalg import packed_rank, subspace_count
from .metrics import pair_rows, pairwise_min_report

_GABIDULIN_GUARD = 1 << 22


class LinearizedPoly(Value):
    """Sum of a_i x^(q^i); coefficients in ctx, argument in src (default ctx).

    A src equal to ctx is stored as None, so each map has one form."""

    __slots__ = ("ctx", "coeffs", "src")

    def __init__(self, ctx: FieldCtx, coeffs: tuple, src: FieldCtx | None = None):
        domain = ctx if src is None else src
        if domain.q != ctx.q:
            raise InvalidParams("embedding requires matching base characteristic")
        if domain.n > ctx.n:
            raise InvalidParams(f"cannot embed degree {domain.n} into degree {ctx.n}")
        if not coeffs:
            raise InvalidParams("a linearized polynomial needs at least one coefficient")
        if len(coeffs) - 1 >= domain.n:
            raise InvalidParams("degree parameter must be below the domain degree")
        ctx.check_elements(coeffs, "coefficient")
        Value.__init__(self, ctx, coeffs, None if domain is ctx or domain == ctx else src)

    @property
    def domain(self) -> FieldCtx:
        return self.src if self.src is not None else self.ctx

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def linearized_eval(p: LinearizedPoly, x: int) -> int:
    """Evaluate p at x; F_q-linear in x.

    A domain F_{q^k} smaller than ctx = F_{q^(k+h)} is embedded by padding
    h zero coefficients, which with c_0 most significant multiplies by q^h:
    injective and F_q-linear, though not a ring homomorphism.
    """
    dom = p.domain
    ctx = p.ctx
    shift = ctx.order // dom.order
    acc = ctx.zero
    fx = x
    for i, a in enumerate(p.coeffs):
        if i:
            fx = dom.frobenius(x, i)
        if a:
            acc = ctx.add(acc, ctx.mul(a, fx * shift))
    return acc


def poly_to_matrix(p: LinearizedPoly) -> tuple:
    """Matrix of the map in the power bases, as packed rows: row i is the
    image of basis_i, whose int is its coefficient vector."""
    return tuple(linearized_eval(p, b) for b in p.domain.basis())


def poly_rank(p: LinearizedPoly) -> int:
    """Rank of the map, the rank of its packed matrix rows."""
    return packed_rank(poly_to_matrix(p), p.ctx.n, p.ctx.q)


class RankCode:
    """A set of linearized polynomials read as n_rows x n_cols matrices over F_q.

    A src equal to ctx is stored as None, so a square code has one form."""

    def __init__(self, ctx: FieldCtx, members, t: int, src: FieldCtx | None = None,
                 declared_rank_distance: int | None = None,
                 provenance: dict | None = None):
        self.ctx = ctx
        self.src = None if src == ctx else src
        self.t = t
        self.members = tuple(members)
        if any((p.ctx, p.src) != (ctx, self.src) for p in self.members):
            raise InvalidParams("rank code members must share the code's field and domain")
        if len({p.coeffs for p in self.members}) != len(self.members):
            raise InvalidParams("rank code members must be distinct")
        self.declared_rank_distance = declared_rank_distance
        self.provenance = dict(provenance) if provenance else {}

    @property
    def nrows(self) -> int:
        return (self.src or self.ctx).n

    @property
    def ncols(self) -> int:
        return self.ctx.n

    def __len__(self):
        return len(self.members)

    def matrices(self):
        """Each member's matrix, as poly_to_matrix gives it, in member order.

        Row j of the map x -> sum a_i phi(x^(q^i)) is sum_i a_i phi(b_j^(q^i)),
        b_j the domain's power basis and phi its embedding into ctx (see
        linearized_eval).  The images phi(b_j^(q^i)) are computed once per
        code, for every i below the domain degree, since t need not bound a
        member's degree; each image row scaled by a coefficient value is
        kept once it is first needed, so a member costs one cached lookup
        and one row sum per nonzero coefficient.
        """
        ctx, dom = self.ctx, self.src or self.ctx
        shift = ctx.order // dom.order
        basis = dom.basis()
        images = [tuple(dom.frobenius(b, i) * shift for b in basis) for i in range(dom.n)]
        scaled = [{} for _ in images]  # scaled[i][a]: a times the rows images[i]
        add, mul = (xor if ctx.q == 2 else ctx.add), ctx.mul
        zero = (ctx.zero,) * dom.n
        for p in self.members:
            rows = zero
            for a, image, cache in zip(p.coeffs, images, scaled):
                if a:
                    term = cache.get(a)
                    if term is None:
                        term = cache[a] = tuple(mul(a, x) for x in image)
                    rows = term if rows is zero else tuple(map(add, rows, term))
            yield rows


def gabidulin_code(ctx: FieldCtx, t: int) -> RankCode:
    """All q-polynomials of degree parameter t on F_{q^n}; rank distance n - t."""
    code = gabidulin_rect(ctx, ctx, t)
    code.provenance = {"construction": "gabidulin", "q": ctx.q, "n": ctx.n, "t": t}
    return code


def gabidulin_rect(src: FieldCtx, dst: FieldCtx, t: int) -> RankCode:
    """Maps x -> sum a_i phi(x^(q^i)) from F_{q^k} into F_{q^(k+h)}.

    Coefficients range over the codomain, so there are q^((k+h)(t+1)) members;
    each kernel has dimension at most t, hence rank distance k - t.
    """
    if not 0 <= t < src.n:
        raise InvalidParams(f"t={t} out of range for domain degree {src.n}")
    size = dst.order ** (t + 1)
    if size > _GABIDULIN_GUARD:
        raise SearchTooLarge(f"{size} members exceed the materialization guard")
    # every (t+1)-tuple of coefficients, a_0 most significant in element order
    members = [LinearizedPoly(dst, coeffs, src)
               for coeffs in itertools.product(dst.elements(), repeat=t + 1)]
    return RankCode(dst, members, t, src=src,
                    declared_rank_distance=src.n - t,
                    provenance={"construction": "gabidulin_rect", "q": src.q,
                                "k": src.n, "h": dst.n - src.n, "t": t})


def linear_min_rank(matrices, nrows: int, ncols: int, q: int) -> int | None:
    """The minimum rank of a nonzero matrix, when the matrices are distinct
    and form an F_q-linear space; None when they do not.

    A matrix is a tuple of nrows packed rows of F_q^ncols.  The premise is
    checked as q^rank == |C| for the matrices flattened to vectors of
    F_q^(nrows*ncols).  A linear space holds the difference of any two of
    its members, so the minimum is then its minimum rank distance.
    """
    matrices = list(matrices)
    flat = [pack(m, q ** ncols) for m in matrices]
    if (len(set(flat)) != len(flat)
            or q ** packed_rank(flat, nrows * ncols, q) != len(flat)):
        return None
    return min((packed_rank(m, ncols, q) for m, f in zip(matrices, flat) if f), default=None)


def rank_distance_of_code(c: RankCode) -> int:
    """Exact minimum rank distance.

    On a linear code (`linear_min_rank`) only members are scanned;
    otherwise every pair is, by the rank of the difference of its matrices.
    """
    if len(c.members) < 2:
        raise InvalidParams("rank distance needs at least two members")
    q, ncols = c.ctx.q, c.ncols
    matrices = list(c.matrices())
    linear = linear_min_rank(matrices, c.nrows, ncols, q)
    if linear is not None:
        return linear

    def dist(a, b):
        return packed_rank([add_packed(x, y, q, -1) for x, y in zip(a, b)], ncols, q)
    return pairwise_min_report(matrices, pair_rows(matrices, dist), "rank").minimum


class RankDistribution(Value):
    """counts[i] = number of members of rank i."""

    __slots__ = ("counts",)

    def total(self) -> int:
        return sum(self.counts)


def empirical_rank_distribution(c: RankCode) -> RankDistribution:
    """Exhaustive census of member ranks: the rank of each matrix of
    `RankCode.matrices`, which poly_rank would give member by member."""
    q, ncols = c.ctx.q, c.ncols
    counts = [0] * (min(c.nrows, ncols) + 1)
    for m in c.matrices():
        counts[packed_rank(m, ncols, q)] += 1
    return RankDistribution(tuple(counts))


def delsarte_rank_distribution(n: int, d: int, q: int) -> RankDistribution:
    """Closed-form rank distribution of a square n x n MRD code of distance d.

    Only the square case is defined here; rectangular requests must census
    instead.  All arithmetic is exact; the entries are checked to be
    nonnegative and to sum to q^(n(n-d+1)).
    """
    if not 1 <= d <= n:
        raise InvalidParams(f"d={d} out of range for n={n}")
    counts = [0] * (n + 1)
    counts[0] = 1
    for r in range(d, n + 1):
        total = 0
        for i in range(r - d + 1):
            exp = n * (r - i - d + 1)
            term = subspace_count(r, i, q) * (q ** exp - 1)
            term *= q ** (i * (i - 1) // 2)
            if i % 2:
                total -= term
            else:
                total += term
        value = subspace_count(n, r, q) * total
        if value < 0:
            raise PropertyViolation("negative rank-distribution entry")
        counts[r] = value
    if sum(counts) != q ** (n * (n - d + 1)):
        raise PropertyViolation("rank distribution does not sum to the code size")
    return RankDistribution(tuple(counts))
