"""Span / all-vectors / folded evaluation codes and Singer difference sets."""

import random

import pytest

from fqcodes import metrics
from fqcodes.errors import InvalidParams, SearchTooLarge
from fqcodes.gf import FieldCtx, pack
from fqcodes.constructions import (
    lift_rank_code,
    orbit_cyclic_code,
    sidon_search,
    spread,
    SubspaceCode,
)
from fqcodes.derived import (
    DifferenceSet,
    FoldedCode,
    _scalar_orbit,
    all_vectors_code,
    evaluation_folded_code,
    folded_code_from_vector_code,
    folded_code_min_distance,
    m_of_d,
    overlap_spectrum,
    partial_span_code,
    singer_difference_set,
    span_code,
)
from fqcodes.metrics import (
    FoldedWord,
    code_min_distance,
    fold,
    folded_subset_distance,
    folded_subspace_distance,
    r_subset_distance,
)
from fqcodes.rankmetric import gabidulin_code
from sweep_oracle import pairwise_oracle

GF8 = FieldCtx(2, 3, [1, 1, 0, 1])


def test_span_code_single_member():
    sc = spread(2, 4, 4)
    vc = span_code(sc, 4)
    assert len(vc) == 1
    assert len(vc.codewords[0]) == 4


def test_span_code_lifted_gabidulin():
    lifted = lift_rank_code(gabidulin_code(GF8, 1))
    vc = span_code(lifted, 3)
    assert len(vc) == 64
    assert vc.ctx.n == 6
    rep = code_min_distance(vc, "subspace")
    assert rep.minimum == 4  # spans reproduce the member subspaces
    assert code_min_distance(vc, "subset").minimum >= 4


def test_span_code_of_spread_insdel():
    sc = spread(2, 2, 4)
    vc = span_code(sc, 2)
    assert len(vc) == 5
    rep = code_min_distance(vc, "insdel")
    assert rep.minimum == 4  # members meet only in 0, which is never chosen


def test_span_code_padding_rules():
    u = SubspaceCode(2, 3, [next(iter_spread_member())], constant_dim=2)
    vc = span_code(u, 3)
    b1, b2 = u.members[0].rows
    ctx = vc.ctx
    assert vc.codewords[0].symbols == (b1, b2, ctx.add(b1, b2))
    line = SubspaceCode(2, 3, [one_dim_subspace()], constant_dim=1)
    vc1 = span_code(line, 3)
    b = line.members[0].rows[0]
    assert vc1.codewords[0].symbols == (b,) * 3


def iter_spread_member():
    from fqcodes.linalg import span as lin_span
    yield lin_span([0b100, 0b010], 3, 2)


def one_dim_subspace():
    from fqcodes.linalg import span as lin_span
    return lin_span([0b110], 3, 2)


def test_span_code_length_guard():
    sc = spread(2, 2, 4)
    with pytest.raises(InvalidParams, match="length 1 cannot span dimension"):
        span_code(sc, 1)


def test_span_symbols_stay_in_member():
    lifted = lift_rank_code(gabidulin_code(FieldCtx(2, 2), 1))
    vc = span_code(lifted, 4)
    for w, member in zip(vc.codewords, lifted.members):
        assert set(w.symbols) <= set(member.vectors())


def test_partial_span_code_full_length_matches_span():
    ctx = FieldCtx(2, 5)
    orbit = orbit_cyclic_code(ctx, sidon_search(ctx, 2))
    orbit.declared_distance = 2
    full = partial_span_code(orbit, 2)
    plain = span_code(orbit, 2)
    assert [w.symbols for w in full.codewords] == [w.symbols for w in plain.codewords]
    assert code_min_distance(full, "subspace").minimum == 2


def test_partial_span_code_range_guard():
    sc = spread(2, 2, 4)  # distance 4 = 2k - 2t with t = 0
    with pytest.raises(InvalidParams, match="<= l <= .*, got 0"):
        partial_span_code(sc, 0)
    with pytest.raises(InvalidParams, match="<= l <= .*, got 3"):
        partial_span_code(sc, 3)
    vc = partial_span_code(sc, 1)  # t + 1 = 1
    assert code_min_distance(vc, "subspace").minimum >= 2


def test_partial_span_code_words_and_provenance():
    # each word is the first basis row of a member of the F_3 spread, in member order
    vc = partial_span_code(spread(3, 2, 4), 1)
    assert (vc.ctx, vc.length) == (FieldCtx(3, 4, [1, 0, 1, 1, 1]), 1)
    assert [w.symbols for w in vc.codewords] == [
        (39,), (29,), (46,), (9,), (33,), (28,), (34,), (31,), (27,), (30,)]
    assert vc.provenance == {
        "construction": "partial_span_code", "length": 1,
        "source": {"construction": "spread", "q": 3, "block_dim": 2, "ambient": 4,
                   "modulus": [1, 0, 1, 1, 1]},
        "guaranteed_distance": 2, "modulus": [1, 0, 1, 1, 1]}


def test_all_vectors_spread_l3():
    sc = spread(2, 2, 4)
    vc = all_vectors_code(sc, 3)
    assert len(vc) == 5
    symbol_sets = [set(w.symbols) for w in vc.codewords]
    for i in range(5):
        assert len(symbol_sets[i]) == 3
        for j in range(i + 1, 5):
            assert not symbol_sets[i] & symbol_sets[j]
    rep = code_min_distance(vc, "insdel")
    assert rep.minimum == 6
    assert vc.provenance["guaranteed_distance"] == 4  # bound, actual is better


def test_all_vectors_includes_zero_at_full_length():
    sc = spread(2, 2, 4)
    vc = all_vectors_code(sc, 4)
    for w in vc.codewords:
        assert w.symbols[-1] == vc.ctx.zero
        assert len(set(w.symbols)) == 4
    assert code_min_distance(vc, "insdel").minimum == 6  # shared zero costs a unit of LCS


def test_all_vectors_range_guard():
    sc = spread(2, 2, 4)
    with pytest.raises(InvalidParams, match="need 1 < l <= .*, got 1"):
        all_vectors_code(sc, 1)  # q^(k-d/2) = 1, need l > 1
    with pytest.raises(InvalidParams, match="< l <= .*, got 5"):
        all_vectors_code(sc, 5)


def test_singer_n3_members():
    ds = singer_difference_set(GF8)
    assert (ds.v, ds.k, ds.lam) == (7, 3, 1)
    alpha = GF8.element((0, 1, 0))
    expected = {alpha, GF8.pow(alpha, 2), GF8.pow(alpha, 4)}
    assert set(ds.members) == expected


def test_singer_n4_parameters():
    ds = singer_difference_set(FieldCtx(2, 4))
    assert (ds.v, ds.k, ds.lam) == (15, 7, 3)


@pytest.mark.parametrize("n", range(3, 13))
def test_singer_members_are_the_trace_zero_elements_in_order(n):
    ctx = FieldCtx(2, n)
    expected = tuple(x for x in ctx.elements() if x and ctx.trace(x) == 0)
    assert singer_difference_set(ctx).members == expected


def test_singer_guards():
    with pytest.raises(InvalidParams, match="need n >= 3"):
        singer_difference_set(FieldCtx(2, 2))
    with pytest.raises(InvalidParams):
        singer_difference_set(FieldCtx(3, 3))


@pytest.mark.parametrize("member", [99, True, -1, 2.0])
def test_a_difference_set_member_must_be_a_field_element(member):
    with pytest.raises(InvalidParams, match=f"^member {member!r} is not an int in \\[0, 8\\)$"):
        DifferenceSet(GF8, (member, 3), 7, 2, 0)


def test_singer_frobenius_invariant():
    for n in (3, 4, 5):
        ctx = FieldCtx(2, n)
        ds = singer_difference_set(ctx)
        members = set(ds.members)
        for x in members:
            assert ctx.frobenius(x, 1) in members


def test_m_of_d_examples():
    ds = singer_difference_set(GF8)
    assert m_of_d(GF8, ds.members) == ds.lam
    single = [GF8.element((0, 1, 0))]
    assert m_of_d(GF8, single) == 0
    everything = [x for x in GF8.elements() if x != GF8.zero]
    assert m_of_d(GF8, everything) == 7
    with pytest.raises(InvalidParams, match=r"m\(D\) of an empty set"):
        m_of_d(GF8, [])
    with pytest.raises(InvalidParams, match="members must be distinct and nonzero"):
        m_of_d(GF8, [GF8.zero])
    with pytest.raises(InvalidParams, match="members must be distinct and nonzero"):
        m_of_d(GF8, single * 2)
    with pytest.raises(InvalidParams, match="member 8 is not an int"):
        m_of_d(GF8, [GF8.order])


def test_evaluation_folded_single_point():
    fc = evaluation_folded_code(GF8, [GF8.element((0, 1, 0))])
    assert len(fc) == 7
    assert folded_code_min_distance(fc, "subset").minimum == 2


def test_evaluation_folded_on_singer_sets():
    for n, expected in ((3, 4), (4, 8), (5, 16)):
        ctx = FieldCtx(2, n)
        ds = singer_difference_set(ctx)
        fc = evaluation_folded_code(ctx, ds.members)
        assert len(fc) == 2 ** n - 1
        dists = set()
        for i in range(len(fc.codewords)):
            for j in range(i + 1, len(fc.codewords)):
                sa = set(fc.codewords[i].blocks)
                sb = set(fc.codewords[j].blocks)
                dists.add(len(sa) + len(sb) - 2 * len(sa & sb))
        assert dists == {expected}  # equidistant at 2(k - lambda)


def test_evaluation_folded_symbol_sets_are_translates():
    ds = singer_difference_set(GF8)
    fc = evaluation_folded_code(GF8, ds.members)
    dset = set(ds.members)
    for i in range(1, GF8.order):
        w = GF8.element_at(i)
        translate = {GF8.mul(w, d) for d in dset}
        expected_blocks = {pack((s,), GF8.order) for s in translate}
        found = [cw for cw in fc.codewords if set(cw.blocks) == expected_blocks]
        assert len(found) >= 1


def test_folded_from_vector_code():
    vc = all_vectors_code(spread(2, 2, 4), 4)
    fc1 = folded_code_from_vector_code(vc, 1)
    assert len(fc1) == len(vc)
    assert all(len(w.blocks) == 4 for w in fc1.codewords)
    fc_full = folded_code_from_vector_code(vc, 4)
    assert all(len(w.blocks) == 1 for w in fc_full.codewords)
    fc2 = folded_code_from_vector_code(vc, 2)
    # r-th subset distance of the original equals the folded code's subset distance
    rep = folded_code_min_distance(fc2, "subset")
    direct = min(r_subset_distance(a, b, 2)
                 for i, a in enumerate(vc.codewords)
                 for b in vc.codewords[i + 1:])
    assert rep.minimum == direct


def test_fold_blocks_agree_with_metric_fold():
    vc = span_code(spread(2, 2, 4), 2)
    fc = folded_code_from_vector_code(vc, 2)
    for w, fw in zip(vc.codewords, fc.codewords):
        assert fold(w, 2).blocks == fw.blocks


def test_folded_code_checks_the_field_and_block_length_of_every_word():
    a = FoldedWord(GF8, 1, (pack((GF8.one,), GF8.order),))
    assert len(FoldedCode(GF8, 1, (a, a))) == 2
    with pytest.raises(InvalidParams, match="the code's field and block lengths"):
        FoldedCode(GF8, 2, (a,))
    other = FieldCtx(2, 2)
    with pytest.raises(InvalidParams, match="the code's field and block lengths"):
        FoldedCode(GF8, 1, (a, FoldedWord(other, 1, (pack((other.one,), other.order),))))


@pytest.mark.parametrize("block_len", [0, -1])
def test_folded_code_rejects_a_block_length_below_one(block_len):
    # a code of no words has no word to check the block length
    with pytest.raises(InvalidParams, match="block length must be >= 1"):
        FoldedCode(GF8, block_len, ())


# -- the translation-overlap spectrum and the evaluation code's distance ------

def _direct_overlaps(ctx, members):
    """The former loop, kept as the oracle: |g^s D ∩ D| for every s, one
    product per pair of s and member of D."""
    g = ctx.primitive_element()
    dset = set(members)
    return [sum(1 for d in members if ctx.mul(ctx.pow(g, s), d) in dset)
            for s in range(ctx.order - 1)]


@pytest.mark.parametrize("n", range(3, 11))
def test_overlap_spectrum_of_the_singer_set_matches_the_direct_loop(n):
    ctx = FieldCtx(2, n)
    members = tuple(x for x in ctx.elements() if x and ctx.trace(x) == 0)
    spectrum = overlap_spectrum(ctx, members)
    assert spectrum == _direct_overlaps(ctx, members)
    assert spectrum[0] == len(members)
    assert set(spectrum[1:]) == {2 ** (n - 2) - 1}


@pytest.mark.parametrize("q, n", [(2, 4), (2, 6), (2, 9), (3, 3), (3, 5), (5, 2), (7, 2),
                                  (13, 2), (257, 1)])
def test_overlap_spectrum_of_random_sets_matches_the_direct_loop(q, n):
    ctx = FieldCtx(q, n)
    rng = random.Random(q * 100 + n)
    nonzero = list(range(1, ctx.order))
    for size in (1, 2, len(nonzero) // 3, len(nonzero) - 1, len(nonzero)):
        members = rng.sample(nonzero, size)
        expected = _direct_overlaps(ctx, members)
        assert overlap_spectrum(ctx, members) == expected
        assert m_of_d(ctx, members) == max(expected[1:], default=0)


@pytest.fixture
def no_sweep(monkeypatch):
    """A pair-count guard of 0: every full sweep raises SearchTooLarge, and
    only a row-0 report, which the guard does not cover, comes back."""
    monkeypatch.setattr(metrics, "PAIR_GUARD", 0)


_BLOCK_DISTANCES = (("subset", folded_subset_distance), ("subspace", folded_subspace_distance))


def _assert_row0(fc, distances=_BLOCK_DISTANCES):
    """fc is a scalar orbit, so row 0 alone gives each report, which must
    be the oracle's: minimum, witness, witness indices and pairs."""
    assert _scalar_orbit(fc) is True
    for metric, dist in distances:
        assert folded_code_min_distance(fc, metric) == pairwise_oracle(fc.codewords, dist, metric)


def _assert_swept(fc):
    """fc is not a scalar orbit, so it takes the full sweep (past the guard
    only with force), and the sweep's report is the oracle's."""
    assert _scalar_orbit(fc) is False
    with pytest.raises(SearchTooLarge):
        folded_code_min_distance(fc, "subset")
    assert folded_code_min_distance(fc, "subset", force=True) == \
        pairwise_oracle(fc.codewords, folded_subset_distance, "subset")


@pytest.mark.parametrize("n", range(3, 9))
def test_evaluation_code_distance_of_the_singer_set_equals_the_sweep(n, no_sweep):
    ctx = FieldCtx(2, n)
    ds = singer_difference_set(ctx)
    fc = evaluation_folded_code(ctx, ds.members)
    _assert_row0(fc, _BLOCK_DISTANCES[:1] if n == 8 else _BLOCK_DISTANCES)  # subspace: 3 s at n = 8
    assert folded_code_min_distance(fc, "subset").minimum == 2 * (ds.k - ds.lam)


@pytest.mark.parametrize("q, n", [(2, 4), (2, 5), (3, 3), (5, 2)])
def test_evaluation_code_distance_of_random_sets_equals_the_sweep(q, n, no_sweep):
    ctx = FieldCtx(q, n)
    rng = random.Random(n)
    for size in (1, 2, 5):
        _assert_row0(evaluation_folded_code(ctx, rng.sample(range(1, ctx.order), size)))


def test_evaluation_code_distance_checks_every_codeword(no_sweep):
    ctx = FieldCtx(2, 4)
    points = singer_difference_set(ctx).members
    fc = evaluation_folded_code(ctx, points)
    words = fc.codewords

    def code(ws):
        return FoldedCode(ctx, 1, tuple(ws))
    _assert_swept(code(words[1:]))  # one w missing
    _assert_swept(code(words[:-1] + words[:1]))  # w twice
    zero = FoldedWord(ctx, 1, (pack((ctx.zero,), ctx.order),) * len(points))
    for i in range(len(words)):  # w = 0 at each position, codeword 0's points included
        _assert_swept(code(words[:i] + (zero,) + words[i + 1:]))
    blocks = list(words[5].blocks)
    blocks[-1] = pack((ctx.add(blocks[-1], ctx.one),), ctx.order)  # one symbol off w * x_k
    _assert_swept(code(words[:5] + (FoldedWord(ctx, 1, tuple(blocks)),) + words[6:]))
    _assert_swept(folded_code_from_vector_code(all_vectors_code(spread(2, 2, 4), 4), 2))
    # the points are read from codeword 0, so the codewords in another order
    # are the orbit of another point tuple and still take row 0
    _assert_row0(code(words[::-1]))


@pytest.mark.parametrize("points, message", [
    ([999], r"^point 999 is not an int in \[0, 8\)$"),
    ([0], "^points must be distinct and nonzero$"),
    ([1, 1], "^points must be distinct and nonzero$"),
])
def test_evaluation_folded_code_checks_its_points(points, message):
    with pytest.raises(InvalidParams, match=message):
        evaluation_folded_code(FieldCtx(2, 3), points)
