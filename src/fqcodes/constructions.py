"""Constant-dimension subspace codes: lifting, spreads, orbits, enlargements.

All constructions return a SubspaceCode whose members are canonical RREF
subspaces, deduplicated exactly.  Declared distances are whatever the
construction guarantees; the CLI re-verifies them before anything is
written to disk.  `structural_min_distance` gives the exact minimum of a
lifted linear code or a cyclic orbit code in O(|C|) distances, after
checking from the members that the code is one; any other code is swept
over all pairs by `subspace_code_min_distance`, which stays the oracle.

A spread is the cyclic orbit of its subfield, so `orbit_cyclic_code` is the
one multiplicative-orbit loop; it stops at the orbit-stabilizer count.

Sidon spaces are found by brute force over the subspace enumeration rather
than by a closed-form family: at desk scale (q = 2, n <= 8) the search is
instant and the checker doubles as the independent oracle for the orbit
code's distance claim.
"""

from __future__ import annotations

import math

from .errors import InvalidParams, NotFound, SearchTooLarge
from .gf import FieldCtx
from .linalg import (
    Subspace,
    enumerate_subspaces,
    packed_rank,
    rref,
    span,
    subspace_pair_distance,
)
from .metrics import MetricReport, pairwise_min_report, subspace_rows
from .rankmetric import RankCode, gabidulin_code, linear_min_rank

_SIDON_GUARD = 1 << 16


class SubspaceCode:
    """A set of subspaces of F_q^ambient with optional distance metadata.

    `field` is the field F_{q^ambient} whose multiplication a cyclic orbit
    code was built with; files do not record it, so a loaded code has None.
    """

    def __init__(self, q: int, ambient: int, members,
                 constant_dim: int | None = None,
                 declared_distance: int | None = None,
                 provenance: dict | None = None,
                 field: FieldCtx | None = None):
        self.q = q
        self.ambient = ambient
        self.field = field
        seen = {}
        for s in members:
            if s.q != q or s.ambient != ambient:
                raise InvalidParams("member subspace from a different ambient space")
            if constant_dim is not None and s.dim != constant_dim:
                raise InvalidParams(
                    f"member of dimension {s.dim} in a constant-dimension-{constant_dim} code")
            seen.setdefault(s.rows, s)
        self.members = tuple(seen.values())
        self.constant_dim = constant_dim
        self.declared_distance = declared_distance
        self.provenance = dict(provenance) if provenance else {}

    def __len__(self):
        return len(self.members)


def subspace_code_min_distance(sc: SubspaceCode, force: bool = False) -> MetricReport:
    """Exhaustive minimum subspace distance over all unordered member pairs."""
    return pairwise_min_report(sc.members, subspace_rows(sc.members), "subspace", force=force)


def _lifted_min_distance(sc: SubspaceCode) -> int | None:
    """2 min rank(A), A != 0, when every member is rowspan(I | A) and the A's
    form an F_q-linear space; then d(rowspan(I | A), rowspan(I | B)) =
    2 rank(A - B) and A - B is an A (Silva, Kschischang and Koetter 2008)."""
    q, k = sc.q, sc.members[0].dim
    ncols = sc.ambient - k
    pivots = [q ** (k - 1 - i) for i in range(k)]  # the rows of I, packed
    matrices = []
    for s in sc.members:
        split = [divmod(r, q ** ncols) for r in s.rows]
        if [p for p, _ in split] != pivots:
            return None
        matrices.append(tuple(a for _, a in split))
    rank = linear_min_rank(matrices, k, ncols, q)
    return None if rank is None else 2 * rank


def _orbit_min_distance(ctx: FieldCtx, sc: SubspaceCode) -> int | None:
    """min d(V, W) over the members W != V = members[0], when the members
    are the orbit {xV : x != 0}: they are closed under multiplication by a
    primitive element and as many as the orbit-stabilizer count.  x is an
    F_q-linear bijection, so d(xV, yV) = d(V, x^-1 yV) (Trautmann,
    Manganiello, Braun and Rosenthal 2013)."""
    v = sc.members[0]
    if (sc.q, sc.ambient) != (ctx.q, ctx.n):
        return None
    if len(sc) != (ctx.order - 1) // (ctx.q ** _stabilizer_degree(ctx, v) - 1):
        return None
    g = ctx.primitive_element()
    rows = {s.rows for s in sc.members}
    if any(span([ctx.mul(g, r) for r in s.rows], ctx.n, ctx.q).rows not in rows
           for s in sc.members):
        return None
    return min(subspace_pair_distance(v, w) for w in sc.members[1:])


def structural_min_distance(sc: SubspaceCode) -> int | None:
    """The exact minimum subspace distance of a code of at least two members
    from its group structure: a lifted linear code, or a cyclic orbit code
    in `sc.field`.  Each premise is checked from the members; None when
    neither holds, and then only the exhaustive sweep knows the minimum."""
    lifted = _lifted_min_distance(sc)
    if lifted is not None or sc.field is None:
        return lifted
    return _orbit_min_distance(sc.field, sc)


def lift_rank_code(rc: RankCode) -> SubspaceCode:
    """Row spans of (I | A) for each member matrix A; distance doubles.

    (I | A) is already in RREF, so its packed rows, e_i followed by row i
    of A, are the member as they stand.
    """
    n = rc.nrows
    q = rc.ctx.q
    ambient = n + rc.ncols
    members = [Subspace(q, ambient, tuple(q ** (ambient - 1 - i) + a for i, a in enumerate(mat)))
               for mat in rc.matrices()]
    declared = 2 * rc.declared_rank_distance if rc.declared_rank_distance else None
    return SubspaceCode(q, ambient, members, constant_dim=n,
                        declared_distance=declared,
                        provenance={"construction": "lifted_rank_code",
                                    "source": rc.provenance or None})


def _subfield_basis(ctx: FieldCtx, k: int) -> list[int]:
    """An F_q-basis of the subfield F_{q^k}: the RREF basis of the kernel of
    x -> x^(q^k) - x.  Row i of (M | I), M the map's matrix, is the image of
    basis_i followed by basis_i itself, so (M | I) has full rank; after
    reduction, the rows with a zero M part are the kernel's RREF basis."""
    rows, _ = rref([ctx.sub(ctx.frobenius(b, k), b) * ctx.order + b for b in ctx.basis()],
                   2 * ctx.n, ctx.q)
    return [r for r in rows if r < ctx.order]


def spread(q: int, block_dim: int, ambient_dim: int) -> SubspaceCode:
    """Partition of the nonzero vectors of F_q^ambient into block_dim subspaces.

    The cyclic orbit of the subfield F_{q^block_dim} inside F_{q^ambient}:
    its multiplicative cosets c F_{q^block_dim}, each at its first c in
    element order; exists exactly when block_dim divides ambient_dim.
    """
    if block_dim < 1 or ambient_dim % block_dim != 0:
        raise InvalidParams(f"spread needs {block_dim} | {ambient_dim}")
    ctx = FieldCtx(q, ambient_dim)
    code = orbit_cyclic_code(ctx, span(_subfield_basis(ctx, block_dim), ambient_dim, q))
    code.declared_distance = 2 * block_dim
    code.provenance = {"construction": "spread", "q": q, "block_dim": block_dim,
                       "ambient": ambient_dim, "modulus": list(ctx.modulus)}
    return code


def _projective_rep(ctx: FieldCtx, x: int) -> int:
    """Canonical representative of the line x F_q: its least nonzero element,
    the one whose first nonzero coefficient is 1; x is nonzero."""
    return min(ctx.mul(c * ctx.one, x) for c in range(1, ctx.q))


def sidon_check(ctx: FieldCtx, v: Subspace) -> bool:
    """Does every product ab of nonzero members determine {aF_q, bF_q}?

    Equivalent to the quadruple condition (ab = cd forces equal line pairs)
    but checked in O(|V|^2) by hashing products against line pairs.
    """
    if v.ambient != ctx.n or v.q != ctx.q:
        raise InvalidParams("subspace does not live in the given field")
    if ctx.q ** v.dim > _SIDON_GUARD:
        raise SearchTooLarge("subspace too large for the product scan")
    lines = {a: _projective_rep(ctx, a) for a in v.vectors() if a}
    products = {}
    for a, ra in lines.items():
        for b, rb in lines.items():
            p = ctx.mul(a, b)
            pair = frozenset((ra, rb))
            prev = products.get(p)
            if prev is None:
                products[p] = pair
            elif prev != pair:
                return False
    return True


def sidon_search(ctx: FieldCtx, k: int) -> Subspace:
    """First k-dimensional Sidon space in enumeration order; NotFound if none."""
    if not 0 < 2 * k < ctx.n:
        raise InvalidParams(f"need 0 < k < n/2, got k={k}, n={ctx.n}")
    for cand in enumerate_subspaces(ctx.q, ctx.n, k):
        if sidon_check(ctx, cand):
            return cand
    raise NotFound(f"no {k}-dimensional Sidon space in F_{ctx.q}^{ctx.n}")


def _stabilizer_degree(ctx: FieldCtx, v: Subspace) -> int:
    """The s with {x != 0 : xV = V} = F_{q^s}^*.  The stabilizer with 0 is a
    subfield over which V is a vector space, so s is the largest divisor of
    gcd(n, dim V) with F_{q^s} V inside V: the rows of V and their products
    with a basis of F_{q^s} have rank dim V.  V = 0 gives s = n."""
    g = math.gcd(ctx.n, v.dim)
    for s in range(g, 1, -1):
        if g % s == 0 and packed_rank(
                [*v.rows, *(ctx.mul(b, r) for b in _subfield_basis(ctx, s) for r in v.rows)],
                ctx.n, ctx.q) == v.dim:
            return s
    return 1


def orbit_cyclic_code(ctx: FieldCtx, v: Subspace) -> SubspaceCode:
    """The multiplicative orbit {x V : x != 0}, each member at its first x.

    The scan stops once it holds all (q^n - 1) / (q^s - 1) members, the
    orbit-stabilizer count, F_{q^s}^* the stabilizer of V.
    """
    if v.ambient != ctx.n or v.q != ctx.q:
        raise InvalidParams("subspace does not live in the given field")
    size = (ctx.order - 1) // (ctx.q ** _stabilizer_degree(ctx, v) - 1)
    members = []
    seen = set()
    for x in range(1, ctx.order):
        member = span([ctx.mul(x, b) for b in v.rows], ctx.n, ctx.q)
        if member.rows not in seen:
            seen.add(member.rows)
            members.append(member)
            if len(members) == size:
                break
    return SubspaceCode(ctx.q, ctx.n, members, constant_dim=v.dim,
                        provenance={"construction": "orbit_cyclic",
                                    "q": ctx.q, "n": ctx.n, "dim": v.dim,
                                    "modulus": list(ctx.modulus)},
                        field=ctx)


def _greedy_row_disjoint_multipliers(half: FieldCtx) -> list[tuple]:
    """Multiplication matrices of nonzero subfield elements, greedily filtered
    so the chosen matrices pairwise share no row; x = 1 is always chosen."""
    chosen = []
    used_rows = set()
    for x in range(1, half.order):
        mat = half.multiplication_matrix(x)
        rows = set(mat)
        if rows & used_rows:
            continue
        chosen.append(mat)
        used_rows |= rows
    return chosen


def block_enlarged_family(ctx: FieldCtx, t: int) -> SubspaceCode:
    """Row spans of (G, G A) for block-triangular G and Gabidulin members A.

    G = [[I, H1], [0, H2]] with H1 ranging over the degree-(t - n/2)
    q-polynomial matrices on the half field and H2 over the greedy
    row-disjoint multiplication matrices.  Every G is invertible, so the
    row span of (G, G A) equals that of (I, A): after canonical
    deduplication the family is the lifted code, in the lifted code's
    order, and that is how it is built.  The provenance records the raw
    (G, A) count, a product of counts, next to the closed-form target
    value.
    """
    n = ctx.n
    if n % 2:
        raise InvalidParams("block enlargement needs an even degree")
    if not n // 2 <= t < n:
        raise InvalidParams(f"need n/2 <= t < n, got t={t}, n={n}")
    half = FieldCtx(ctx.q, n // 2)
    h2_count = len(_greedy_row_disjoint_multipliers(half))
    h1_count = half.order ** (t - n // 2 + 1)  # the Gabidulin code on the half field
    code = lift_rank_code(gabidulin_code(ctx, t))  # declared distance 2(n - t)
    q = ctx.q
    exp = (3 * n // 2) * (t + 1) - n * n // 4
    num, den = 4 * (q ** (n // 2) - 1) * q ** exp, n * n  # the value may be non-integral
    g = math.gcd(num, den)
    code.provenance = {"construction": "block_enlarged", "q": q, "n": n, "t": t,
                       "raw_pairs": len(code) * h1_count * h2_count,
                       "h1_count": h1_count, "h2_count": h2_count,
                       "formula_value": f"{num // g}" if den == g else f"{num // g}/{den // g}"}
    return code
