"""Row sweeps (subspace, subset, r-th, folded) against the per-pair oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqcodes.metrics as metrics
from fqcodes.constructions import SubspaceCode, subspace_code_min_distance
from fqcodes.derived import (
    FoldedCode,
    folded_code_from_vector_code,
    folded_code_min_distance,
)
from fqcodes.errors import InvalidParams, SearchTooLarge
from fqcodes.gf import FieldCtx, pack
from fqcodes.linalg import Subspace, span, subspace_pair_distance
from fqcodes.metrics import (
    FoldedWord,
    VectorCode,
    Word,
    code_min_distance,
    folded_subset_distance,
    folded_subspace_distance,
    hamming_distance,
    insdel_distance,
    pair_rows,
    pairwise_min_report,
    r_subset_distance,
    r_subspace_distance,
    subset_distance,
    subset_rows,
    subspace_distance,
    subspace_rows,
)
from sweep_oracle import pairwise_oracle

F2 = FieldCtx(2, 1)
F4 = FieldCtx(2, 2)
GF8 = FieldCtx(2, 3)
GF9 = FieldCtx(3, 2)
AMBIENT = {2: 5, 3: 3, 5: 3}


def _same(fast, oracle):
    assert (fast.minimum, fast.witness_indices, fast.pairs) == \
        (oracle.minimum, oracle.witness_indices, oracle.pairs)
    assert fast.witness == oracle.witness


@st.composite
def vector_codes(draw, ctx):
    """Words over a six-element pool, so spans repeat and dimensions mix."""
    length = draw(st.integers(1, 4))
    symbol = st.integers(0, 5).map(ctx.element_at)
    words = draw(st.lists(st.lists(symbol, min_size=length, max_size=length),
                          min_size=2, max_size=10))
    code = VectorCode(ctx, length, [Word(ctx, tuple(w)) for w in words])
    if len(code) < 2:
        code = VectorCode(ctx, length, list(code.codewords)
                          + [Word(ctx, (ctx.one,) * length), Word(ctx, (ctx.zero,) * length)])
    return code


@st.composite
def subspace_codes(draw):
    q = draw(st.sampled_from(sorted(AMBIENT)))
    ambient = AMBIENT[q]
    vector = st.tuples(*[st.integers(0, q - 1)] * ambient)
    spans = st.lists(vector, max_size=3).map(lambda vs: span([pack(v, q) for v in vs],
                                                             ambient, q))
    members = draw(st.lists(spans, min_size=2, max_size=10))
    sc = SubspaceCode(q, ambient, members)
    if len(sc) < 2:
        sc = SubspaceCode(q, ambient, list(sc.members) + [span([], ambient, q),
                                                         span([pack((1,) * ambient, q)],
                                                              ambient, q)])
    return sc


fields = st.sampled_from([GF8, GF9])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vector_subspace_and_subset_sweeps_match_oracle(data):
    c = data.draw(vector_codes(data.draw(fields)))
    _same(code_min_distance(c, "subspace"),
          pairwise_oracle(c.codewords, subspace_distance, "subspace"))
    _same(code_min_distance(c, "subset"),
          pairwise_oracle(c.codewords, subset_distance, "subset"))


@settings(max_examples=150, deadline=None)
@given(subspace_codes())
def test_subspace_code_sweep_matches_oracle(sc):
    _same(subspace_code_min_distance(sc),
          pairwise_oracle(sc.members, subspace_pair_distance, "subspace"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_r_th_sweeps_match_oracle(data):
    c = data.draw(vector_codes(data.draw(fields)))
    r = data.draw(st.integers(1, 3))
    fast = code_min_distance(c, "r_subspace", r=r)
    _same(fast, pairwise_oracle(c.codewords, lambda a, b: r_subspace_distance(a, b, r),
                                "r_subspace"))
    assert fast.notes == ({"block_len": r, "padding": "zero"} if c.length % r
                          else {"block_len": r})
    _same(code_min_distance(c, "r_subset", r=r),
          pairwise_oracle(c.codewords, lambda a, b: r_subset_distance(a, b, r),
                          "r_subset"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_folded_sweeps_match_oracle(data):
    c = data.draw(vector_codes(data.draw(fields)))
    fc = folded_code_from_vector_code(c, data.draw(st.integers(1, 3)))
    _same(folded_code_min_distance(fc, "subspace"),
          pairwise_oracle(fc.codewords, folded_subspace_distance, "subspace"))
    _same(folded_code_min_distance(fc, "subset"),
          pairwise_oracle(fc.codewords, folded_subset_distance, "subset"))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_budget_fallback_agrees(data):
    c = data.draw(vector_codes(data.draw(fields)))
    sc = data.draw(subspace_codes())
    fast = (code_min_distance(c, "subspace"), code_min_distance(c, "r_subspace", r=2),
            subspace_code_min_distance(sc))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_MATERIALIZE_GUARD", 0)
        mp.setattr(Subspace, "vectors", None)  # any use of the fast path fails
        slow = (code_min_distance(c, "subspace"), code_min_distance(c, "r_subspace", r=2),
                subspace_code_min_distance(sc))
    for a, b in zip(fast, slow):
        _same(a, b)
        assert a.notes == b.notes


def test_guards_fire_before_members_are_prepared():
    def prepare(*_):
        raise AssertionError("member prepared before the guard")

    one = [span([], 2, 2)]
    with pytest.raises(InvalidParams, match="two members"):
        pairwise_min_report(one, subspace_rows(map(prepare, one)), "subspace")
    many = range(4473)
    for rows in (subspace_rows(map(prepare, many)), subset_rows(map(prepare, many)),
                 pair_rows(many, prepare)):
        with pytest.raises(SearchTooLarge, match="exceed the guard"):
            pairwise_min_report(many, rows, "subspace")


def test_folded_code_of_unlike_folds_raises_like_per_pair():
    a = FoldedWord(GF8, 1, (pack((GF8.one,), GF8.order),))
    b = FoldedWord(GF8, 2, (pack((GF8.one, GF8.zero), GF8.order),))
    with pytest.raises(InvalidParams, match="block lengths"):
        FoldedCode(GF8, 1, (a, b))
    oracles = {"subset": folded_subset_distance, "subspace": folded_subspace_distance}
    for metric, dist in oracles.items():
        with pytest.raises(InvalidParams, match="block lengths"):
            pairwise_oracle((a, b), dist, metric)


# Four codewords whose rows of distances (in the comments) put the minimum
# twice in one row, where the first j wins ("tie"); in one row and again in
# a later one, where the earlier row keeps the witness ("later"); or only
# in the last row, i = m - 2 ("last").  "random" is 300 distinct seeded
# words of length 6 over F_16.
_rng = random.Random(300)
RANDOM_WORDS = list(dict.fromkeys(tuple(_rng.randrange(16) for _ in range(6))
                                  for _ in range(300)))
WITNESS_CASES = [
    ("hamming", F2, "tie", [(0, 0, 0, 0), (1, 1, 1, 0), (0, 1, 1, 0), (1, 0, 1, 0)],
     (1, 2)),  # [3, 2, 2], [1, 1], [2]
    ("hamming", F2, "later", [(0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 0, 0)],
     (0, 3)),  # [3, 2, 1], [1, 2], [1]
    ("hamming", F2, "last", [(0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 0)],
     (2, 3)),  # [2, 2, 3], [2, 3], [1]
    ("hamming", FieldCtx(2, 4), "random", RANDOM_WORDS, (0, 237)),
    ("insdel", F2, "tie", [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 1, 1)],
     (0, 1)),  # [2, 2, 4], [4, 4], [4]
    ("insdel", F2, "later", [(0, 1, 1, 0), (0, 0, 0, 1), (0, 1, 1, 1), (0, 0, 0, 0)],
     (0, 2)),  # [4, 2, 4], [4, 2], [6]
    ("insdel", F2, "last", [(1, 1, 1, 1), (0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1)],
     (2, 3)),  # [8, 4, 4], [4, 4], [2]
    ("subset", F4, "tie", [(2, 1, 1), (0, 3, 3), (2, 2, 2), (3, 1, 2)],
     (0, 2)),  # [4, 1, 1], [3, 3], [2]
    ("subset", F4, "later", [(3, 0, 1), (3, 1, 3), (0, 0, 0), (3, 2, 1)],
     (0, 1)),  # [1, 2, 2], [3, 1], [4]
    ("subset", F4, "last", [(3, 3, 3), (3, 2, 1), (3, 3, 0), (3, 0, 0)],
     (2, 3)),  # [2, 1, 1], [3, 3], [0]
]
DISTANCES = {"hamming": hamming_distance, "insdel": insdel_distance,
             "subset": subset_distance}


@pytest.mark.parametrize("metric, ctx, case, rows, witness", WITNESS_CASES,
                         ids=[f"{m}-{case}" for m, _, case, _, _ in WITNESS_CASES])
def test_row_sweep_reports_the_first_attaining_pair(metric, ctx, case, rows, witness):
    words = [Word(ctx, r) for r in rows]
    for members, first in ((words, witness), (words[:2], (0, 1))):  # and m = 2
        rep = code_min_distance(VectorCode(ctx, len(rows[0]), members), metric)
        assert rep == pairwise_oracle(members, DISTANCES[metric], metric)
        assert rep.witness_indices == first
