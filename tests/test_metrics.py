"""Distance functions: worked examples, LCS oracle, pseudometric axioms."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqcodes.errors import InvalidParams, SearchTooLarge
from fqcodes import metrics
from fqcodes.gf import FieldCtx, pack
from fqcodes.metrics import (
    FoldedWord,
    VectorCode,
    Word,
    code_min_distance,
    fold,
    generalized_hamming_weights,
    hamming_distance,
    insdel_distance,
    lcs_length,
    pack_lcs_masks,
    packed_lcs,
    r_subset_distance,
    r_subspace_distance,
    subset_distance,
    subspace_distance,
    word,
)
from sweep_oracle import lcs_dp, pairwise_oracle

F2 = FieldCtx(2, 1)
F4 = FieldCtx(2, 2)
GF8 = FieldCtx(2, 3, [1, 1, 0, 1])


def w2(bits):
    return word(F2, [(b,) for b in bits])


def _lcs_brute(a, b):
    """Independent oracle: longest subsequence of a that is a subsequence of b."""
    best = 0
    for r in range(len(a) + 1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            j = 0
            ok = True
            for s in sub:
                while j < len(b) and b[j] != s:
                    j += 1
                if j == len(b):
                    ok = False
                    break
                j += 1
            if ok:
                best = max(best, r)
    return best


def test_hamming_examples():
    a = w2([0, 1, 1, 0])
    b = w2([1, 1, 0, 0])
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == 2
    c = w2([0, 1, 1, 1])
    assert hamming_distance(a, c) == 1
    with pytest.raises(InvalidParams, match="hamming distance needs equal lengths"):
        hamming_distance(a, w2([0, 1]))


def test_insdel_examples():
    a = w2([0, 1, 1, 0])
    b = w2([1, 1, 0, 0])
    assert insdel_distance(a, a) == 0
    assert insdel_distance(a, b) == 2  # LCS "110" of length 3
    assert insdel_distance(w2([1]), w2([])) == 1


def test_lcs_dp_matches_brute_force():
    rng = random.Random(2)
    for _ in range(200):
        a = [rng.randrange(2) for _ in range(rng.randrange(5))]
        b = [rng.randrange(2) for _ in range(rng.randrange(5))]
        assert lcs_dp(a, b) == _lcs_brute(a, b)


@st.composite
def _symbol_pair(draw, alphabets=(1, 2, 3, 256)):
    """Two sequences over an alphabet of one of the given sizes, each of its
    own length up to 150, so the masks can span several 64-bit words."""
    q = draw(st.sampled_from(alphabets))
    seq = st.lists(st.integers(0, q - 1), max_size=150)
    return draw(seq), draw(seq)


@settings(max_examples=300, deadline=None)
@given(_symbol_pair())
@example(([], []))
@example(([], [0, 1]))
@example(([2] * 70, [2] * 65 + [0, 1]))
@example(([0, 1, 2] * 30, [2, 1, 0] * 25))
def test_bit_parallel_lcs_matches_the_dp(pair):
    a, b = pair
    assert packed_lcs(pack_lcs_masks([a], len(a)), b)[0] == lcs_dp(a, b)
    assert packed_lcs(pack_lcs_masks([b], len(b)), a)[0] == lcs_dp(a, b)


@settings(max_examples=300, deadline=None)
@given(_symbol_pair())
@example(([], []))
@example(([], [0, 1]))
@example(([1, 0], []))
@example(([0] * 3, [0] * 140))
def test_lcs_length_matches_the_dp(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_dp(a, b)
    assert lcs_length(b, a) == lcs_dp(a, b)


SLOT_BOUNDARIES = (1, 7, 8, 15, 16, 247, 248, 255, 256, 300)
CHUNK_BOUNDARIES = (1, 255, 256, 257, 513)


@st.composite
def _packed_case(draw):
    """(words, n, received): either a few words of a length n at a slot
    boundary (n match bits fill a byte, or the slot gains a byte, or a count
    stops fitting in one) or a word count at a chunk boundary with short
    words.  The words are over range(q) and drawn from a seed, so codes past
    a chunk stay cheap to draw; the received word is empty, shorter or longer
    than n, and over range(q + 1), so it may hold a symbol no word has."""
    if draw(st.booleans()):
        n, m = draw(st.sampled_from(SLOT_BOUNDARIES)), draw(st.integers(1, 3))
    else:
        n, m = draw(st.integers(1, 17)), draw(st.sampled_from(CHUNK_BOUNDARIES))
    q = draw(st.sampled_from((1, 2, 3, 256)))
    length = draw(st.sampled_from((0, n // 2, n - 1, n, n + 1, n + 9)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    words = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(m)]
    return words, n, [rng.randrange(q + 1) for _ in range(length)]


@settings(max_examples=120, deadline=None)
@given(_packed_case())
@example(([(0,) * 300] * 2, 300, [0] * 309))  # every count past 255
@example(([(0,) * 255, (1,) * 255], 255, [0] * 264))  # a full slot next to an empty one
@example(([(0,) * 8] * 257, 8, [0] * 8))  # two-byte slots over two chunks
@example(([(0, 1) * 128] * 257, 256, [1, 0] * 130))  # wide slots over two chunks
@example(([(1,) * 16] * 3, 16, [2] * 20))  # no symbol of the received word occurs
def test_packed_scores_match_the_dp_for_every_word(case):
    words, n, received = case
    scores = packed_lcs(pack_lcs_masks(words, n), received)
    assert isinstance(scores, bytes if n < 256 else list)
    assert list(scores) == [lcs_dp(w, received) for w in words]


def test_packed_masks_fill_chunks_of_lcs_chunk_words():
    words = [(i % 3,) * 9 for i in range(2 * metrics.LCS_CHUNK + 1)]
    width, chunks = pack_lcs_masks(words, 9)
    assert width == 2
    assert [size for size, _, _ in chunks] == [width * metrics.LCS_CHUNK] * 2 + [width]
    assert all(full.bit_length() <= 8 * size for size, full, _ in chunks)
    assert packed_lcs((width, []), [0, 1]) == b""


@settings(max_examples=100, deadline=None)
@given(_symbol_pair(alphabets=(3,)))
def test_insdel_distance_over_f3_matches_the_dp(pair):
    a, b = (Word(FieldCtx(3, 1), tuple(s)) for s in pair)
    assert insdel_distance(a, b) == len(a) + len(b) - 2 * lcs_dp(a.symbols, b.symbols)


@st.composite
def _small_code(draw):
    """2 to 12 distinct words of one length over F_2, F_4 or F_3."""
    ctx = draw(st.sampled_from([F2, F4, FieldCtx(3, 1)]))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, ctx.order - 1)] * n),
                         min_size=2, max_size=12, unique=True))
    return VectorCode(ctx, n, [Word(ctx, r) for r in rows])


@settings(max_examples=200, deadline=None)
@given(_small_code())
def test_insdel_sweep_matches_the_lcs_dp_pairwise_sweep(c):
    rep = code_min_distance(c, "insdel")
    oracle = pairwise_oracle(
        c.codewords, lambda x, y: len(x) + len(y) - 2 * lcs_dp(x.symbols, y.symbols),
        "insdel")
    assert (rep.minimum, rep.witness_indices, rep.pairs) == \
        (oracle.minimum, oracle.witness_indices, oracle.pairs)
    assert rep.witness == oracle.witness


@pytest.mark.parametrize("ctx, n, m, seed", [
    (F4, 5, 300, 0),  # two chunks; many pairs at the minimum
    (FieldCtx(2, 8), 4, 260, 1),  # the second chunk holds four words
    (FieldCtx(3, 1), 9, 257, 2),  # two-byte slots
])
def test_insdel_sweep_past_a_chunk_matches_the_insdel_distance_sweep(ctx, n, m, seed):
    rng = random.Random(seed)
    rows = {}
    while len(rows) < m:
        rows[tuple(rng.randrange(ctx.order) for _ in range(n))] = None
    c = VectorCode(ctx, n, [Word(ctx, r) for r in rows])
    rep = code_min_distance(c, "insdel")
    assert rep == pairwise_oracle(c.codewords, insdel_distance, "insdel")


def test_subspace_distance_examples():
    a = word(F4, [(1, 0), (0, 1)])   # spans all of F_4
    b = word(F4, [(1, 0), (1, 0)])   # spans the line through 1
    assert subspace_distance(a, a) == 0
    assert subspace_distance(a, b) == 1
    perm = word(F4, [(0, 1), (1, 0)])
    assert subspace_distance(a, perm) == 0


def test_subset_distance_examples():
    a = word(F4, [(1, 0), (0, 1)])
    b = word(F4, [(1, 0), (1, 0)])
    assert subset_distance(a, b) == 1  # {1, a} vs {1}
    perm = word(F4, [(0, 1), (1, 0)])
    assert subset_distance(a, perm) == 0
    c = word(GF8, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    d = word(GF8, [(1, 1, 0), (0, 1, 1), (1, 1, 1)])
    assert subset_distance(c, d) == 6


def test_fold_examples():
    a = word(F2, [(1,), (0,), (1,), (1,)])
    f = fold(a, 2)
    assert f.blocks == _blocks(F2, (((1,), (0,)), ((1,), (1,))))
    assert fold(a, 4).blocks == _blocks(F2, (((1,), (0,), (1,), (1,)),))
    b = word(F2, [(1,), (0,), (1,), (1,), (1,)])
    padded = fold(b, 2)
    assert padded.blocks[-1] == _blocks(F2, (((1,), (0,)),))[0]  # tail zero-padded


def _blocks(ctx, blocks):
    """Blocks of coefficient sequences as packed blocks of elements."""
    return tuple(pack([ctx.element(s) for s in blk], ctx.order) for blk in blocks)


def test_r_distances_coincide_with_plain_at_r1():
    rng = random.Random(4)
    for _ in range(50):
        a = word(GF8, [GF8.coefficients(GF8.element_at(rng.randrange(8))) for _ in range(4)])
        b = word(GF8, [GF8.coefficients(GF8.element_at(rng.randrange(8))) for _ in range(4)])
        assert r_subspace_distance(a, b, 1) == subspace_distance(a, b)
        assert r_subset_distance(a, b, 1) == subset_distance(a, b)


def test_repetition_words_full_fold():
    # distinct repeated symbols become two distinct single blocks
    x, y = (0, 1, 0), (1, 1, 0)
    a = word(GF8, [x] * 4)
    b = word(GF8, [y] * 4)
    assert r_subset_distance(a, b, 4) == 2
    assert r_subset_distance(a, a, 4) == 0


def test_insdel_even_for_equal_lengths():
    rng = random.Random(9)
    for _ in range(100):
        a = word(F4, [F4.coefficients(F4.element_at(rng.randrange(4))) for _ in range(5)])
        b = word(F4, [F4.coefficients(F4.element_at(rng.randrange(4))) for _ in range(5)])
        assert insdel_distance(a, b) % 2 == 0


@st.composite
def _f4_word(draw, max_len=5, min_len=0):
    n = draw(st.integers(min_len, max_len))
    symbols = tuple(F4.element_at(draw(st.integers(0, 3))) for _ in range(n))
    return Word(F4, symbols)


@settings(max_examples=300, deadline=None)
@given(_f4_word(), _f4_word(), _f4_word())
def test_insdel_is_a_metric(x, y, z):
    assert insdel_distance(x, y) == insdel_distance(y, x) >= 0
    assert (insdel_distance(x, y) == 0) == (x.symbols == y.symbols)
    assert insdel_distance(x, z) <= insdel_distance(x, y) + insdel_distance(y, z)


@settings(max_examples=300, deadline=None)
@given(_f4_word(), _f4_word(), _f4_word())
def test_pseudometric_triangle_inequality(x, y, z):
    for dist in (subspace_distance, subset_distance):
        assert dist(x, y) == dist(y, x) >= 0
        assert dist(x, z) <= dist(x, y) + dist(y, z)


@settings(max_examples=300, deadline=None)
@given(_f4_word(min_len=1), _f4_word(min_len=1))
def test_chain_inequality_random(x, y):
    ds = subspace_distance(x, y)
    dsub = subset_distance(x, y)
    dins = insdel_distance(x, y)
    assert ds <= dsub <= dins
    if len(x) == len(y):
        assert dins <= 2 * hamming_distance(x, y)


def test_chain_exhaustive_f4_squared():
    words = [Word(F4, (a, b)) for a in F4.elements() for b in F4.elements()]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            x, y = words[i], words[j]
            assert (subspace_distance(x, y) <= subset_distance(x, y)
                    <= insdel_distance(x, y) <= 2 * hamming_distance(x, y))


def test_position_independence():
    rng = random.Random(13)
    for _ in range(50):
        syms = [GF8.element_at(rng.randrange(8)) for _ in range(5)]
        a = Word(GF8, tuple(syms))
        rng.shuffle(syms)
        b = Word(GF8, tuple(syms))
        assert subspace_distance(a, b) == 0
        assert subset_distance(a, b) == 0


def test_code_min_distance_two_words():
    a, b = w2([0, 1, 1, 0]), w2([1, 1, 0, 0])
    c = VectorCode(F2, 4, [a, b])
    rep = code_min_distance(c, "insdel")
    assert rep.minimum == 2
    assert rep.witness_indices == (0, 1)
    assert rep.pairs == 1


def test_code_min_distance_guards(monkeypatch):
    a = w2([0, 1])
    with pytest.raises(InvalidParams, match="needs at least two members"):
        code_min_distance(VectorCode(F2, 2, [a]), "hamming")
    words = [w2([x, y, z]) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    monkeypatch.setattr(metrics, "PAIR_GUARD", 3)
    c = VectorCode(F2, 3, words)
    with pytest.raises(SearchTooLarge):
        code_min_distance(c, "hamming")
    rep = code_min_distance(c, "hamming", force=True)
    assert rep.minimum == 1
    with pytest.raises(InvalidParams):
        code_min_distance(VectorCode(F2, 2, [a, w2([1, 0])]), "r_subset")


def test_insdel_sweep_past_the_guard_builds_no_masks(monkeypatch):
    c = VectorCode(F2, 3, [w2([x, y, z]) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    monkeypatch.setattr(metrics, "PAIR_GUARD", 27)
    with pytest.raises(SearchTooLarge, match="28 pairs exceed the guard"):
        code_min_distance(c, "insdel")
    assert "lcs_masks" not in vars(c)
    assert code_min_distance(c, "insdel", force=True).minimum == 2
    assert "lcs_masks" in vars(c)


def test_witness_is_first_minimal_pair():
    words = [w2([0, 0, 0]), w2([1, 1, 1]), w2([1, 1, 0]), w2([0, 0, 1])]
    rep = code_min_distance(VectorCode(F2, 3, words), "hamming")
    assert rep.minimum == 1
    assert rep.witness_indices == (0, 3)


def test_vector_code_linearity_check():
    rows = [word(F2, [(1,), (0,), (1,), (0,)]), word(F2, [(0,), (1,), (0,), (1,)])]
    c = VectorCode.from_generator(F2, rows)
    assert len(c) == 4
    assert c.linear and c.dimension == 2
    assert c.contains(word(F2, [(1,), (1,), (1,), (1,)]))
    assert not c.contains(word(F2, [(1,), (1,), (1,), (0,)]))
    with pytest.raises(InvalidParams):
        VectorCode(F2, 4, c.codewords[:3], generator=rows)
    with pytest.raises(InvalidParams):
        VectorCode.from_generator(F2, [rows[0], rows[0]])


def test_from_generator_builds_the_row_span_once(monkeypatch):
    rows = [(1, 0, 0, 2, 3), (0, 1, 0, 3, 1), (0, 0, 1, 1, 1)]  # a [5,3] code over F_4
    spans = []
    real_span = metrics.span_vectors
    monkeypatch.setattr(metrics, "span_vectors",
                        lambda *args: spans.append(args) or real_span(*args))
    c = VectorCode.from_generator(F4, [Word(F4, r) for r in rows])
    assert len(spans) == 1
    # the same codeword tuple, in message order, as the span handed in explicitly
    span = real_span(rows, 5, F4)
    assert [w.symbols for w in c.codewords] == span and len(span) == 4 ** 3
    explicit = VectorCode(F4, 5, [Word(F4, v) for v in span], generator=c.generator)
    assert c.codewords == explicit.codewords
    dependent = tuple(F4.add(a, b) for a, b in zip(rows[0], rows[1]))
    with pytest.raises(InvalidParams, match="generator rows are not linearly independent"):
        VectorCode.from_generator(F4, [Word(F4, r) for r in rows + [dependent]])
    monkeypatch.setattr(metrics, "_MATERIALIZE_GUARD", 4 ** 3 - 1)
    with pytest.raises(SearchTooLarge, match="row span too large to materialize"):
        VectorCode.from_generator(F4, [Word(F4, r) for r in rows])


def test_ghw_pair_repetition_code():
    rows = [word(F2, [(1,), (0,), (1,), (0,)]), word(F2, [(0,), (1,), (0,), (1,)])]
    c = VectorCode.from_generator(F2, rows)
    assert generalized_hamming_weights(c) == [2, 4]


def test_ghw_full_space_and_top_weight():
    rows = [word(F4, [(1, 0) if i == j else (0, 0) for j in range(3)])
            for i in range(3)]
    c = VectorCode.from_generator(F4, rows)
    assert generalized_hamming_weights(c) == [1, 2, 3]


def test_ghw_monotone_and_singleton_bound_random():
    rng = random.Random(21)
    from fqcodes.linalg import ext_rank
    for _ in range(10):
        n = rng.randrange(3, 6)
        k = rng.randrange(1, min(n, 3) + 1)
        while True:
            rows = [tuple(F4.element_at(rng.randrange(4)) for _ in range(n))
                    for _ in range(k)]
            if ext_rank(rows, n, F4) == k:
                break
        c = VectorCode.from_generator(F4, [Word(F4, r) for r in rows])
        ghw = generalized_hamming_weights(c)
        assert all(b > a for a, b in zip(ghw, ghw[1:]))
        assert all(d <= n - k + r + 1 for r, d in enumerate(ghw))
        # d_k = full support of the code
        supp = sum(1 for j in range(n)
                   if any(cw.symbols[j] != F4.zero for cw in c.codewords))
        assert ghw[-1] == supp


@pytest.mark.parametrize("symbols", [((5, 7, 9),), (8,), (-1,), (1.0,), (None,), (True,)])
def test_word_rejects_a_symbol_that_is_not_an_element(symbols):
    with pytest.raises(InvalidParams, match=r"symbol .* is not an int in \[0, 8\)"):
        Word(GF8, symbols)
    with pytest.raises(InvalidParams, match=r"block .* is not an int in \[0, 8\)"):
        FoldedWord(GF8, 1, (0, *symbols))


@pytest.mark.parametrize("block_len", [0, -1])
def test_folded_word_rejects_a_block_length_below_one(block_len):
    for blocks in [(), (0,)]:
        with pytest.raises(InvalidParams, match="block length must be >= 1"):
            FoldedWord(GF8, block_len, blocks)


@pytest.mark.parametrize("block_len, block", [(2, 64), (3, 512), (2, True), (2, (1, 2))])
def test_folded_word_rejects_a_block_that_is_not_a_packed_int(block_len, block):
    bound = GF8.order ** block_len
    with pytest.raises(InvalidParams, match=rf"block .* is not an int in \[0, {bound}\)"):
        FoldedWord(GF8, block_len, (0, block))
    assert FoldedWord(GF8, block_len, (0, bound - 1)).blocks == (0, bound - 1)


def test_word_from_coefficients_rejects_non_canonical_coefficients():
    with pytest.raises(InvalidParams, match=r"coefficient 2 is not in \[0, 2\)"):
        word(GF8, [(0, 2, 0)])
    assert word(GF8, [(0, 1, 0)]).symbols == (GF8.element((0, 1, 0)),)
