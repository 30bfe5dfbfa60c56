"""Distances on words over an extension-field alphabet.

Five distance functions live here: Hamming, insertion-deletion (via longest
common subsequence), the subspace and subset pseudometrics, and their
block-folded variants.  A symbol is an int (see gf), which is at once a
set member and the packed vector of F_q^n = F_{q^n} it stands for.  The
subspace distance of two words compares the F_q-spans of their symbols,
with the symbols themselves as the packed vectors; the subset distance
compares the deduplicated symbol sets.  Both ignore coordinate
positions entirely, which is what makes them lower bounds for the
insdel distance.

Every insdel distance goes through one packed bit-parallel LCS kernel
(Allison & Dix 1986; Hyyrö 2004; many words per int as in Hyyrö,
Fredriksson & Navarro 2005).  pack_lcs_masks puts equal-length words side
by side in one int, one byte-aligned slot of match bits and a guard bit
per word, and packed_lcs scores a sequence against all of them in one
scan.  A code's masks are built once (VectorCode.lcs_masks) for
channel.decode_nearest and the insdel sweep; lcs_length, behind
insdel_distance, packs its one sequence per call.  At most LCS_CHUNK words
share an int, so m words of length n in w-byte slots take at most
LCS_CHUNK w m n bytes of masks whatever the alphabet.  The O(|a||b|) DP
the kernel is tested against lives in the tests (sweep_oracle.lcs_dp).

Every code-level sweep is one pairwise_min_report over rows, row i holding
member i's distances to members i+1, ..., m-1; the witness is the first
attaining pair in codeword order, so reports are reproducible.  The rows
come from generators (pair_rows, subspace_rows, subset_rows, _hamming_rows,
_insdel_rows) that prepare the members only once the pair-count guard has
passed.  row0_report scores row 0 alone, for a code on which a checked
group of isometries acts transitively.

A word's symbols, its r-fold's blocks and a folded word's blocks are all
packed vectors of some F_q^m, and block_rows sweeps each the same way: as
a set for the subset distance, as a span for the subspace distance.
subspace_rows holds each span (or a subspace code's member) as the
frozenset of its q^dim packed vectors, so dim(U ∩ V) = log_q |U ∩ V| is
one set intersection; past 2^20 vectors in total it scores each pair with
linalg.subspace_pair_distance instead.  An insdel row is one packed scan.
The oracle is a plain double loop in the tests over the per-pair functions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import ne

from .errors import InvalidParams, SearchTooLarge
from .gf import FieldCtx, Value, pack
from .linalg import (
    EXT_BASES_GUARD,
    _span_distance,
    enumerate_ext_rref_bases,
    ext_matmul,
    ext_rank,
    span,
    span_vectors,
    subspace_count,
    subspace_pair_distance,
)

PAIR_GUARD = 10 ** 7
LCS_CHUNK = 256  # words per packed int in pack_lcs_masks
_MATERIALIZE_GUARD = 1 << 20


class Word(Value):
    """A fixed word over F_{q^n}: an ordered tuple of field elements."""

    __slots__ = ("ctx", "symbols")

    def __init__(self, ctx: FieldCtx, symbols: tuple):
        ctx.check_elements(symbols)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "symbols", symbols)

    def __len__(self):
        return len(self.symbols)


def word(ctx: FieldCtx, symbols) -> Word:
    """The word whose symbols have the given coefficient sequences."""
    return Word(ctx, tuple(ctx.element(s) for s in symbols))


class FoldedWord(Value):
    """A word whose symbols are grouped into blocks of block_len symbols, each
    block one int, pack(block, q^n): its vector in F_q^(n*block_len)."""

    __slots__ = ("ctx", "block_len", "blocks")

    def __init__(self, ctx: FieldCtx, block_len: int, blocks: tuple):
        if block_len < 1:
            raise InvalidParams("block length must be >= 1")
        bound = ctx.order ** block_len if blocks else 0  # no power for no blocks
        for b in blocks:
            if not (type(b) is int and 0 <= b < bound):
                raise InvalidParams(f"block {b!r} is not an int in [0, {bound})")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "block_len", block_len)
        object.__setattr__(self, "blocks", blocks)


def _require_same_ctx(a, b):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise InvalidParams("words live in different fields")


def hamming_distance(a: Word, b: Word) -> int:
    _require_same_ctx(a, b)
    if len(a.symbols) != len(b.symbols):
        raise InvalidParams("hamming distance needs equal lengths")
    return sum(map(ne, a.symbols, b.symbols))


_POPCOUNT = bytes(i.bit_count() for i in range(256))


def _pack_chunk(words, n: int, stride: int) -> tuple:
    """(size in bytes, full, masks) of length-n words in slots of stride bits.

    Word i's n match bits start at bit stride i; full sets all of them, and
    masks maps each symbol to the OR of the bits of its positions.
    """
    ones = (1 << n) - 1
    masks = {}
    full = shift = 0
    for symbols in words:
        bit = 1 << shift
        for s in symbols:
            masks[s] = masks.get(s, 0) | bit
            bit <<= 1
        full |= ones << shift
        shift += stride
    return shift // 8, full, masks


def _scan(full: int, masks: dict, symbols) -> int:
    """Bit-parallel LCS of symbols with every slot of (full, masks) at once.

    After a prefix of symbols, match bit i of a slot is 0 exactly when that
    prefix has a longer common subsequence with the slot's first i + 1
    symbols than with its first i, so a slot's LCS is its number of zero
    match bits.  A carry out of a slot's top match bit stops in the guard
    bit above it, which the mask by full clears at once, so no carry
    reaches the next slot.  A symbol absent from the masks leaves v as it
    is and is skipped.
    """
    v = full
    get = masks.get
    for x in symbols:
        match = get(x)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return v


def pack_lcs_masks(words, n: int) -> tuple:
    """Match masks of equal-length-n words, packed for packed_lcs.

    Word i of a chunk owns slot i: width = (n + 8) // 8 bytes, its n match
    bits and at least one guard bit above them.  Chunks hold LCS_CHUNK
    words, the last one the rest, so no mask is wider than LCS_CHUNK slots.
    """
    width = (n + 8) // 8
    return width, [_pack_chunk(words[i:i + LCS_CHUNK], n, 8 * width)
                   for i in range(0, len(words), LCS_CHUNK)]


def packed_lcs(packed: tuple, symbols) -> bytes | list[int]:
    """LCS length of symbols with every word of pack_lcs_masks, in word order.

    One scan per chunk.  The read-out turns each byte of full ^ v into its
    popcount, then adds the width bytes of each slot onto its first with
    width - 1 shifts.  Every window of width bytes holds a guard bit, so a
    sum is at most 8 width - 1, which is at most 255 below n = 256: no byte
    carries, and the result is bytes, one per word.  From n = 256 on it is
    a list.
    """
    width, chunks = packed
    wide = width > 32  # n >= 256: a slot's count may not fit in a byte
    out = [] if wide else b""
    for size, full, masks in chunks:
        counts = (full ^ _scan(full, masks, symbols)).to_bytes(size, "little").translate(_POPCOUNT)
        if wide:
            out += [sum(counts[i:i + width]) for i in range(0, size, width)]
        elif width > 1:
            c = total = int.from_bytes(counts, "little")
            for k in range(8, 8 * width, 8):
                total += c >> k
            out += total.to_bytes(size, "little")[::width]
        else:
            out += counts
    return out


def lcs_length(a, b) -> int:
    """LCS length of the sequences a and b: a is one slot, so its LCS with b
    is len(a) minus the set match bits of one scan."""
    n = len(a)
    _, full, masks = _pack_chunk((a,), n, n + 1)
    return n - _scan(full, masks, b).bit_count()


def insdel_distance(a: Word, b: Word) -> int:
    """|a| + |b| - 2 LCS(a, b); the number of insertions plus deletions."""
    _require_same_ctx(a, b)
    return len(a.symbols) + len(b.symbols) - 2 * lcs_length(a.symbols, b.symbols)


def subspace_distance(a: Word, b: Word) -> int:
    """dim(S_a + S_b) - dim(S_a ∩ S_b) for the symbol spans S_a, S_b."""
    _require_same_ctx(a, b)
    return _span_distance(a.symbols, b.symbols, a.ctx.n, a.ctx.q)


def subset_distance(a: Word, b: Word) -> int:
    """Symmetric-difference size of the deduplicated symbol sets."""
    _require_same_ctx(a, b)
    return len(set(a.symbols).symmetric_difference(b.symbols))


def fold(a: Word, r: int) -> FoldedWord:
    """Group symbols into ceil(m/r) packed blocks of length r, zero-padding the tail."""
    if r < 1:
        raise InvalidParams("block length must be >= 1")
    syms = list(a.symbols)
    if len(syms) % r:
        syms.extend([a.ctx.zero] * (r - len(syms) % r))
    blocks = tuple([pack(syms[i:i + r], a.ctx.order) for i in range(0, len(syms), r)])
    return FoldedWord(a.ctx, r, blocks)


def _require_same_fold(a: FoldedWord, b: FoldedWord):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise InvalidParams("folded words live in different fields")
    if a.block_len != b.block_len:
        raise InvalidParams("folded words have different block lengths")


def folded_subspace_distance(a: FoldedWord, b: FoldedWord) -> int:
    """Subspace distance of the block spans inside F_q^(n*r)."""
    _require_same_fold(a, b)
    return _span_distance(a.blocks, b.blocks, a.ctx.n * a.block_len, a.ctx.q)


def folded_subset_distance(a: FoldedWord, b: FoldedWord) -> int:
    _require_same_fold(a, b)
    return len(set(a.blocks).symmetric_difference(b.blocks))


def r_subspace_distance(a: Word, b: Word, r: int) -> int:
    if len(a) != len(b):
        raise InvalidParams("r-th distances need equal lengths")
    return folded_subspace_distance(fold(a, r), fold(b, r))


def r_subset_distance(a: Word, b: Word, r: int) -> int:
    if len(a) != len(b):
        raise InvalidParams("r-th distances need equal lengths")
    return folded_subset_distance(fold(a, r), fold(b, r))


class MetricReport(Value):
    """Result of an exhaustive minimum-distance sweep."""

    __slots__ = ("metric", "minimum", "witness", "witness_indices", "pairs", "notes")
    _defaults = {"notes": None}

    def csv_line(self) -> str:
        i, j = self.witness_indices
        return f"{self.metric},{self.minimum},{i},{j},{self.pairs}"


def _pair_count(m: int, force: bool) -> int:
    """Number of unordered pairs of m members, after the PAIR_GUARD check."""
    if m < 2:
        raise InvalidParams("a minimum distance needs at least two members")
    pairs = m * (m - 1) // 2
    if pairs > PAIR_GUARD and not force:
        raise SearchTooLarge(
            f"{pairs} pairs exceed the guard ({PAIR_GUARD}); pass force to override")
    return pairs


def pairwise_min_report(members, rows, metric: str, force: bool = False,
                        notes: dict | None = None) -> MetricReport:
    """Exact minimum distance over unordered pairs of members.

    rows yields, for i = 0, 1, ..., member i's distances to members
    i+1, ..., m-1 in order; it is read only after the pair-count guard.
    The witness is the first attaining pair: a row's first minimum, kept
    only when it is below every earlier row's.
    """
    members = tuple(members)
    m = len(members)
    pairs = _pair_count(m, force)
    best = None
    for i, row in zip(range(m - 1), rows):
        d = min(row)
        if best is None or d < best:
            best, idx = d, (i, i + 1 + row.index(d))
    i, j = idx
    return MetricReport(metric, best, (members[i], members[j]), idx, pairs, notes)


def pair_rows(members, dist):
    """Rows of dist(member i, member j), j > i, one call per pair."""
    members = tuple(members)
    for i, a in enumerate(members):
        yield [dist(a, b) for b in members[i + 1:]]


def row0_report(members, dist, metric: str) -> MetricReport:
    """The sweep's report from row 0 alone, for members on which a group of
    isometries acts transitively, a premise the caller checks: d(c_i, c_j)
    = d(c_0, g c_j) for the g taking c_i to c_0, so row 0 attains the
    minimum and no later row changes the report.  Only m - 1 pairs are
    scored, so the pair-count guard does not apply."""
    return pairwise_min_report(members, islice(pair_rows(members, dist), 1), metric, force=True)


def subspace_rows(subspaces):
    """Rows of subspace distances, each member's subspace built on first use.

    All subspaces must share q and the ambient space.  The pair distance is
    dim U + dim V - 2k where q^k = |U ∩ V|.  When the members hold more than
    _MATERIALIZE_GUARD vectors in total, each pair is scored by
    subspace_pair_distance instead.
    """
    subspaces = list(subspaces)
    q = subspaces[0].q
    if sum(q ** s.dim for s in subspaces) > _MATERIALIZE_GUARD:
        yield from pair_rows(subspaces, subspace_pair_distance)
        return
    sets = [frozenset(s.vectors()) for s in subspaces]
    dims = [s.dim for s in subspaces]
    log_q = {q ** k: k for k in range(max(dims) + 1)}
    for i, (a, da) in enumerate(zip(sets, dims)):
        yield [da + db - 2 * log_q[len(a & b)] for b, db in zip(sets[i + 1:], dims[i + 1:])]


def subset_rows(sets):
    """Rows of symmetric-difference sizes, each set taken on first use."""
    sets = list(sets)
    sizes = [len(a) for a in sets]
    for i, (a, na) in enumerate(zip(sets, sizes)):
        yield [na + nb - 2 * len(a & b) for b, nb in zip(sets[i + 1:], sizes[i + 1:])]


def block_rows(metric: str, members, ambient: int, q: int):
    """Rows of the subset or subspace distances of members, each a tuple of
    packed vectors of F_q^ambient: a word's symbols, a folded word's blocks."""
    if metric == "subset":
        return subset_rows(frozenset(m) for m in members)
    return subspace_rows(span(m, ambient, q) for m in members)


class VectorCode:
    """A set of equal-length words over F_{q^n}, optionally with a generator.

    When a generator is given the code is linear over the alphabet field:
    the codewords are exactly the F_{q^n}-linear combinations of the
    generator rows.  This is re-verified exhaustively at construction, and
    a row span of more than _MATERIALIZE_GUARD words is refused.  With
    codewords None the codewords are that row span, built once.
    """

    def __init__(self, ctx: FieldCtx, length: int, codewords,
                 generator=None, provenance: dict | None = None):
        self.ctx = ctx
        self.length = length
        self.generator = tuple(generator) if generator is not None else None
        self.provenance = dict(provenance) if provenance else {}
        span = None
        if self.generator is not None:
            for g in self.generator:
                self._check_word(g, "generator row")
            rows = [g.symbols for g in self.generator]
            if ext_rank(rows, length, ctx) != len(rows):
                raise InvalidParams("generator rows are not linearly independent")
            if ctx.order ** len(rows) > _MATERIALIZE_GUARD:
                raise SearchTooLarge("row span too large to materialize")
            span = span_vectors(rows, length, ctx)
        if codewords is None:  # independent rows: distinct words of this field and length
            self.codewords = tuple([Word(ctx, v) for v in span])
            return
        seen = {}
        for w in codewords:
            self._check_word(w, "codeword")
            seen.setdefault(w.symbols, w)
        self.codewords = tuple(seen.values())
        if span is not None and set(span) != set(seen):
            raise InvalidParams("codeword set does not equal the generator row span")

    def _check_word(self, w: Word, what: str) -> None:
        if w.ctx is not self.ctx and w.ctx != self.ctx:
            raise InvalidParams(f"{what} from a different field")
        if len(w) != self.length:
            raise InvalidParams(f"{what} of wrong length")

    @property
    def linear(self) -> bool:
        return self.generator is not None

    @property
    def dimension(self) -> int | None:
        return len(self.generator) if self.generator is not None else None

    def __len__(self):
        return len(self.codewords)

    def contains(self, w: Word) -> bool:
        return any(w.symbols == c.symbols for c in self.codewords)

    @cached_property
    def lcs_masks(self) -> tuple:
        """The codewords' packed match masks (pack_lcs_masks), built on first use."""
        return pack_lcs_masks([w.symbols for w in self.codewords], self.length)

    @classmethod
    def from_generator(cls, ctx: FieldCtx, rows, provenance: dict | None = None) -> "VectorCode":
        rows = [w if isinstance(w, Word) else word(ctx, w) for w in rows]
        if not rows:
            raise InvalidParams("a linear code needs at least one generator row")
        return cls(ctx, len(rows[0]), None, generator=rows, provenance=provenance)


def _hamming_rows(c: VectorCode):
    """Hamming distances of each codeword to the later ones; the code has
    already checked every codeword's field and length."""
    symbols = [w.symbols for w in c.codewords]
    for i, a in enumerate(symbols):
        yield [sum(map(ne, a, b)) for b in symbols[i + 1:]]


def _insdel_rows(c: VectorCode):
    """Insdel distances of each codeword to the later ones, one packed scan
    per codeword; every codeword has length n, so d_insdel = 2 (n - LCS)."""
    n, masks = c.length, c.lcs_masks
    for i, w in enumerate(c.codewords):
        yield [2 * (n - s) for s in packed_lcs(masks, w.symbols)[i + 1:]]


def code_min_distance(c: VectorCode, metric: str, r: int | None = None,
                      force: bool = False) -> MetricReport:
    """Exhaustive minimum distance of a vector code under the named metric."""
    words = c.codewords
    notes = None
    if metric == "hamming":
        rows = _hamming_rows(c)
    elif metric == "insdel":
        rows = _insdel_rows(c)
    elif metric in ("subspace", "subset"):
        rows = block_rows(metric, (w.symbols for w in words), c.ctx.n, c.ctx.q)
    elif metric in ("r_subspace", "r_subset"):
        if r is None or r < 1:
            raise InvalidParams("r-th metrics need a block length")
        notes = {"block_len": r}
        if c.length % r:
            notes["padding"] = "zero"
        rows = block_rows(metric[2:], (fold(w, r).blocks for w in words), c.ctx.n * r, c.ctx.q)
    else:
        raise InvalidParams(f"unknown metric {metric!r}")
    return pairwise_min_report(words, rows, metric, force=force, notes=notes)


def generalized_hamming_weights(c: VectorCode) -> list[int]:
    """d_r = minimum support size over r-dimensional subcodes, r = 1..k."""
    if not c.linear:
        raise InvalidParams("generalized Hamming weights need a generator")
    ctx = c.ctx
    rows = [g.symbols for g in c.generator]
    k = len(rows)
    for r in range(1, k + 1):
        if subspace_count(k, r, ctx.order) > EXT_BASES_GUARD:
            raise SearchTooLarge("too many subcodes to enumerate")
    weights = []
    for r in range(1, k + 1):
        best = None
        for basis in enumerate_ext_rref_bases(ctx, k, r):
            sub = ext_matmul(basis, rows, c.length, ctx)
            supp = sum(1 for j in range(c.length) if any(row[j] for row in sub))
            if best is None or supp < best:
                best = supp
        weights.append(best)
    return weights
