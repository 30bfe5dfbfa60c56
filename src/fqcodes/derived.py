"""Word and folded codes derived from subspace codes and difference sets.

A span code lists, for each member subspace, a deterministic spanning tuple
of its vectors read as symbols of the big field F_{q^N}; its subset (hence
insdel) distance inherits the subspace distance of the source code.  The
all-vectors variant lists low-order vectors of each member instead, and the
evaluation folded code multiplies a point set D by every nonzero field
element, which makes its pairwise block-set distances a pure function of
the translation overlaps |yD ∩ D|.

All translation overlaps come from one big-int product, `overlap_spectrum`.
The Singer set (the trace-zero hyperplane of F_{2^n}) is constructed and
then its difference-set property is re-verified for every y rather than
trusted; a failure raises PropertyViolation since it can only mean a bug.
A folded code that is the evaluation code of its codeword 0's points is
an orbit of the nonzero scalars, so `folded_code_min_distance` scores row
0 alone.
"""

from __future__ import annotations

import array
import sys

from .errors import InvalidParams, PropertyViolation, SearchTooLarge
from .gf import FieldCtx, Value
from .metrics import (
    FoldedWord,
    MetricReport,
    Word,
    VectorCode,
    block_rows,
    fold,
    folded_subset_distance,
    folded_subspace_distance,
    pairwise_min_report,
    row0_report,
)
from .constructions import SubspaceCode

_VECTOR_GUARD = 1 << 16


def _check_points(ctx: FieldCtx, points, what: str) -> None:
    """Raise InvalidParams unless the points are distinct nonzero elements of ctx."""
    ctx.check_elements(points, what)
    if ctx.zero in points or len(set(points)) != len(points):
        raise InvalidParams(f"{what}s must be distinct and nonzero")


class DifferenceSet(Value):
    """(v, k, lambda) difference set in the multiplicative group of F_{q^n}.

    v and k are checked against the field and the members, which must be
    distinct nonzero field elements.  lambda is not: a file whose members
    refute its lambda loads, and `construct --kind folded-eval --ds` then
    reports the measured distance against 2(k - lambda) as a verification
    failure (exit 1), not as a malformed file (exit 2)."""

    __slots__ = ("ctx", "members", "v", "k", "lam")

    def __init__(self, ctx: FieldCtx, members: tuple, v: int, k: int, lam: int):
        if v != ctx.order - 1:
            raise InvalidParams(f"v={v} but the multiplicative group has {ctx.order - 1} elements")
        if k != len(members):
            raise InvalidParams(f"k={k} but there are {len(members)} members")
        _check_points(ctx, members, "member")
        Value.__init__(self, ctx, members, v, k, lam)


class FoldedCode(Value):
    """A set of folded words with a uniform block structure, checked here
    once so that the sweeps need not check each pair."""

    __slots__ = ("ctx", "block_len", "codewords", "provenance")

    def __init__(self, ctx: FieldCtx, block_len: int, codewords: tuple,
                 provenance: dict | None = None):
        if block_len < 1:
            raise InvalidParams("block length must be >= 1")
        if any((w.ctx, w.block_len) != (ctx, block_len) for w in codewords):
            raise InvalidParams("folded words must share the code's field and block lengths")
        Value.__init__(self, ctx, block_len, codewords, provenance)

    def __len__(self):
        return len(self.codewords)


def _scalar_orbit(fc: FoldedCode) -> bool:
    """Are the codewords w c_0 for every nonzero w, one each, with block
    length 1, as `evaluation_folded_code` builds them?  Multiplication by w,
    an F_q-linear bijection, then keeps both block-set distances."""
    ctx, words = fc.ctx, fc.codewords
    if fc.block_len != 1 or len(words) != ctx.order - 1:
        return False
    # a nonzero point makes the q^n - 1 translates of codeword 0 distinct, so
    # if all are among the q^n - 1 codewords, they are the codewords, once each
    blocks, points = {c.blocks for c in words}, words[0].blocks
    return any(points) and all(
        tuple(ctx.mul(w, x) for x in points) in blocks for w in range(1, ctx.order))


def folded_code_min_distance(fc: FoldedCode, metric: str,
                             force: bool = False) -> MetricReport:
    """Exact minimum block-set distance: row 0 alone on a scalar orbit."""
    if metric not in ("subset", "subspace"):
        raise InvalidParams(f"folded codes support subset/subspace, not {metric!r}")
    words = fc.codewords
    if _scalar_orbit(fc):
        dist = folded_subset_distance if metric == "subset" else folded_subspace_distance
        return row0_report(words, dist, metric)
    rows = block_rows(metric, (w.blocks for w in words), fc.ctx.n * fc.block_len, fc.ctx.q)
    return pairwise_min_report(words, rows, metric, force=force)


def _span_symbols(rows, length: int, ctx: FieldCtx):
    """Basis rows then cyclic pairwise sums b_1 + b_j, all inside the span;
    the zero subspace is spanned by 0 alone."""
    k = len(rows)
    if k == 0:
        return (ctx.zero,) * length
    symbols = list(rows)
    j = 1
    while len(symbols) < length:
        if k == 1:
            symbols.append(rows[0])
        else:
            symbols.append(ctx.add(rows[0], rows[1 + (j - 1) % (k - 1)]))
            j += 1
    return tuple(symbols[:length])


def _word_code(sc: SubspaceCode, l: int, symbols, construction: str,
               **provenance) -> VectorCode:
    """The length-l code over F_{q^ambient} of one word per member s of sc,
    symbols(s, ctx); its provenance adds the given keys to those every
    word code of a subspace code records."""
    ctx = FieldCtx(sc.q, sc.ambient)
    words = [Word(ctx, symbols(s, ctx)) for s in sc.members]
    return VectorCode(ctx, l, words,
                      provenance={"construction": construction, "length": l,
                                  "source": sc.provenance or None,
                                  "modulus": list(ctx.modulus), **provenance})


def span_code(sc: SubspaceCode, l: int) -> VectorCode:
    """One length-l spanning word per member subspace, over F_{q^ambient}."""
    max_dim = max((s.dim for s in sc.members), default=0)
    if l < max_dim:
        raise InvalidParams(f"length {l} cannot span dimension {max_dim}")
    return _word_code(sc, l, lambda s, ctx: _span_symbols(s.rows, l, ctx), "span_code",
                      padding="b1+bj cycle", source_distance=sc.declared_distance)


def _dimension_and_t(sc: SubspaceCode, what: str) -> tuple[int, int]:
    """(k, t) of a constant-dimension-k code of declared distance 2(k - t)."""
    if sc.constant_dim is None or sc.declared_distance is None:
        raise InvalidParams(f"{what} needs constant dimension and a declared distance")
    if sc.declared_distance % 2:
        raise InvalidParams("constant-dimension distance must be even")
    return sc.constant_dim, sc.constant_dim - sc.declared_distance // 2


def partial_span_code(sc: SubspaceCode, l: int) -> VectorCode:
    """First l independent basis vectors per member; needs t+1 <= l <= k."""
    k, t = _dimension_and_t(sc, "partial span code")
    if not t + 1 <= l <= k:
        raise InvalidParams(f"need {t + 1} <= l <= {k}, got {l}")
    return _word_code(sc, l, lambda s, ctx: s.rows[:l], "partial_span_code",
                      guaranteed_distance=2 * (l - t))


def all_vectors_code(sc: SubspaceCode, l: int) -> VectorCode:
    """First l vectors of each member, nonzero-lexicographic order, zero last."""
    k, t = _dimension_and_t(sc, "all-vectors code")
    q = sc.q
    low = q ** t
    if not low < l <= q ** k:
        raise InvalidParams(f"need {low} < l <= {q ** k}, got {l}")
    if q ** k > _VECTOR_GUARD:
        raise SearchTooLarge("member subspaces too large to list")
    # zero sorts first; it moves last
    return _word_code(sc, l, lambda s, ctx: (*sorted(s.vectors())[1:], 0)[:l], "all_vectors_code",
                      symbol_order="nonzero lexicographic, zero last",
                      guaranteed_distance=2 * (l - low))


def overlap_spectrum(ctx: FieldCtx, members) -> list[int]:
    """[|g^s D ∩ D| for s in range(v)], D = members (distinct and nonzero),
    g = ctx.primitive_element() and v = q^n - 1; entry 0 is |D|.

    In log coordinates multiplication by g^s is the shift by s in Z_v, so
    entry s counts the pairs (a, b) of D with log b - log a = s (mod v): the
    cyclic autocorrelation of D's indicator, found as one big-int product
    (Kronecker substitution).  The slots of both factors are `width` bytes
    wide.  One factor has a 1 in slot log b for each b of D, the other in
    slot v - log a for each a, so slot t of the product counts the pairs
    with log b - log a = t - v.  Adding the top v slots onto the bottom v
    folds t mod v.  No count exceeds |D| < 2^(8 width), so no slot carries,
    and the slots are read off the product's bytes in one pass.
    """
    v = ctx.order - 1
    logs = [ctx.log(d) for d in members]
    width = 1 if len(logs) < 1 << 8 else 2  # |D| <= v < 2^16: fields with log tables
    shifted = bytearray(width * (v + 1))
    mirrored = bytearray(width * (v + 1))
    for s in logs:
        shifted[width * s] = 1
        mirrored[width * (v - s)] = 1
    product = int.from_bytes(shifted, "little") * int.from_bytes(mirrored, "little")
    bits = 8 * width * v
    folded = (product & ((1 << bits) - 1)) + (product >> bits)
    spectrum = array.array("B" if width == 1 else "H", folded.to_bytes(width * v, "little"))
    if sys.byteorder == "big":
        spectrum.byteswap()
    return spectrum.tolist()


def singer_difference_set(ctx: FieldCtx) -> DifferenceSet:
    """The trace-zero hyperplane of F_{2^n} as a verified difference set:
    |yD ∩ D| = lambda is checked for every y != 1 (`overlap_spectrum`)."""
    if ctx.q != 2:
        raise InvalidParams("the Singer construction here is binary")
    if ctx.n < 3:
        raise InvalidParams("need n >= 3")
    # The trace is F_2-linear: Tr(x) is the parity of x's bits on the
    # basis elements of trace 1, whose OR is t.
    t = sum(b for b in ctx.basis() if ctx.trace(b))
    members = tuple(x for x in ctx.elements() if x and not (x & t).bit_count() & 1)
    ds = DifferenceSet(ctx, members, ctx.order - 1, 2 ** (ctx.n - 1) - 1, 2 ** (ctx.n - 2) - 1)
    for s, hits in enumerate(overlap_spectrum(ctx, members)):
        if s and hits != ds.lam:
            y = ctx.pow(ctx.primitive_element(), s)
            raise PropertyViolation(f"|yD ∩ D| = {hits} != {ds.lam} for y = {y}")
    return ds


def m_of_d(ctx: FieldCtx, members) -> int:
    """max |yD ∩ D| over nonzero y != 1 (the identity would trivially give |D|)."""
    members = list(members)
    if not members:
        raise InvalidParams("m(D) of an empty set")
    _check_points(ctx, members, "member")
    return max(overlap_spectrum(ctx, members)[1:], default=0)


def evaluation_folded_code(ctx: FieldCtx, points) -> FoldedCode:
    """One codeword (w x_1, ..., w x_D) per nonzero w; each block is one symbol w x_i.

    The identification of linear functionals with field elements makes every
    codeword a scalar translate of the point tuple, so pairwise block-set
    distances reduce to translation overlaps of the point set.
    """
    points = list(points)
    _check_points(ctx, points, "point")
    if not points:
        raise InvalidParams("the evaluation point set is empty")
    # w -> w x_1 is injective, so the codewords are distinct
    words = tuple(FoldedWord(ctx, 1, tuple(ctx.mul(w, x) for x in points))
                  for w in range(1, ctx.order))
    return FoldedCode(ctx, 1, words,
                      provenance={"construction": "evaluation_folded",
                                  "points": len(points),
                                  "modulus": list(ctx.modulus)})


def folded_code_from_vector_code(c: VectorCode, s: int) -> FoldedCode:
    """Fold every codeword with block length s; cardinality is preserved."""
    words = tuple(fold(w, s) for w in c.codewords)
    prov = {"construction": "folded_vector_code", "block_len": s,
            "source": c.provenance or None}
    if c.length % s:
        prov["padding"] = "zero"
    return FoldedCode(c.ctx, s, words, prov)
