"""Insdel channel determinism, decoding exactness, within-capability trials."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqcodes.errors import InvalidParams
from fqcodes.gf import FieldCtx
from fqcodes.channel import (
    AMBIGUOUS,
    ChannelSpec,
    _apply_with_rng,
    correction_capability,
    decode_nearest,
    run_trials,
)
from fqcodes.constructions import spread
from fqcodes.derived import all_vectors_code
from fqcodes.metrics import VectorCode, Word, insdel_distance, word
from sweep_oracle import lcs_dp

F2 = FieldCtx(2, 1)


def _spread_code():
    return all_vectors_code(spread(2, 2, 4), 3)


def test_identity_channel():
    w = word(F2, [(1,), (0,), (1,)])
    assert _apply_with_rng(w, 0, 0, random.Random(1)).symbols == w.symbols


def test_single_deletion():
    w = word(F2, [(1,), (0,), (1,), (1,)])
    out = _apply_with_rng(w, 0, 1, random.Random(3))
    assert len(out) == 3
    assert insdel_distance(w, out) <= 1


def test_channel_deterministic():
    vc = _spread_code()
    w = vc.codewords[2]
    a = _apply_with_rng(w, 2, 1, random.Random(42))
    b = _apply_with_rng(w, 2, 1, random.Random(42))
    assert a.symbols == b.symbols


def test_too_many_deletions():
    w = word(F2, [(1,), (0,)])
    with pytest.raises(InvalidParams, match="cannot delete 3 symbols"):
        _apply_with_rng(w, 0, 3, random.Random(0))


def test_edit_count_bounds_distance():
    rng = random.Random(8)
    ctx = FieldCtx(2, 2)
    for _ in range(200):
        w = word(ctx, [ctx.coefficients(ctx.element_at(rng.randrange(4))) for _ in range(5)])
        ins, dels = rng.randrange(3), rng.randrange(3)
        out = _apply_with_rng(w, ins, dels, random.Random(rng.randrange(10 ** 6)))
        assert len(out) == 5 - dels + ins
        assert insdel_distance(w, out) <= ins + dels


def test_decode_member_returns_itself():
    vc = _spread_code()
    for cw in vc.codewords:
        assert decode_nearest(vc, cw) is cw


def test_decode_hand_checked_tie():
    a = word(F2, [(0,), (1,)])
    b = word(F2, [(1,), (0,)])
    vc = VectorCode(F2, 2, [a, b])
    received = word(F2, [(0,)])
    assert decode_nearest(vc, received) is AMBIGUOUS


def _full_scan(vc, received):
    """Oracle decoder: every codeword scored with the LCS DP."""
    dists = [len(cw) + len(received) - 2 * lcs_dp(cw.symbols, received.symbols)
             for cw in vc.codewords]
    best = min(dists)
    return AMBIGUOUS if dists.count(best) > 1 else vc.codewords[dists.index(best)]


def test_decoder_matches_reversed_scan():
    vc = _spread_code()
    rng = random.Random(5)
    for _ in range(100):
        w = vc.codewords[rng.randrange(len(vc.codewords))]
        received = _apply_with_rng(w, 1, 2, random.Random(rng.randrange(10 ** 6)))
        assert decode_nearest(vc, received) is _full_scan(vc, received)


F3 = FieldCtx(3, 1)


@st.composite
def _code_and_received(draw):
    """A small code over F_2 or F_3 and a received word of any length: short
    words over a small alphabet, so tied nearest codewords are common."""
    ctx = draw(st.sampled_from([F2, F3]))
    symbol = st.integers(0, ctx.q - 1)
    length = draw(st.integers(1, 6))
    words = draw(st.lists(st.tuples(*[symbol] * length), min_size=1, max_size=8))
    received = draw(st.lists(symbol, max_size=length + 3))
    return (VectorCode(ctx, length, [Word(ctx, w) for w in words]),
            Word(ctx, tuple(received)))


@settings(max_examples=400, deadline=None)
@given(_code_and_received())
@example((VectorCode(F2, 2, [word(F2, [(0,), (1,)]), word(F2, [(1,), (0,)])]),
          word(F2, [(0,)])))
def test_decoder_matches_the_lcs_dp_full_scan(case):
    vc, received = case
    assert decode_nearest(vc, received) is _full_scan(vc, received)


@pytest.mark.parametrize("ctx, n, m, seed", [
    (FieldCtx(2, 2), 5, 300, 0),  # two chunks of one-byte slots
    (F2, 10, 513, 1),  # three chunks of two-byte slots, the last with one word
    (FieldCtx(2, 8), 3, 257, 2),  # the nearest word may sit alone in a chunk
])
def test_decoder_past_a_chunk_matches_the_lcs_dp_full_scan(ctx, n, m, seed):
    rng = random.Random(seed)
    rows = {}
    while len(rows) < m:
        rows[tuple(rng.randrange(ctx.order) for _ in range(n))] = None
    vc = VectorCode(ctx, n, [Word(ctx, r) for r in rows])
    results = []
    for _ in range(60):
        sent = vc.codewords[rng.randrange(m)]
        received = _apply_with_rng(sent, rng.randrange(3), rng.randrange(3),
                                   random.Random(rng.randrange(10 ** 6)))
        decoded = decode_nearest(vc, received)
        assert decoded is _full_scan(vc, received)
        results.append(decoded is AMBIGUOUS)
    for cw in (vc.codewords[255], vc.codewords[256], vc.codewords[-1]):
        assert decode_nearest(vc, cw) is cw
    assert any(results) and not all(results)  # both ties and unique decodes


def test_decoding_with_an_empty_code_raises():
    vc = VectorCode(F2, 2, [])
    with pytest.raises(InvalidParams, match="no codewords"):
        decode_nearest(vc, word(F2, [(0,)]))


def test_decoding_a_word_from_another_field_raises():
    vc = _spread_code()
    received = word(FieldCtx(2, 2), [(0, 1), (1, 1), (1, 0)])
    with pytest.raises(InvalidParams, match="different fields"):
        decode_nearest(vc, received)


def test_capability_values():
    vc = _spread_code()
    assert correction_capability(vc) == 2  # d_insdel = 6


def test_trials_identity_channel():
    vc = _spread_code()
    summary = run_trials(vc, ChannelSpec(0, 0, 9), 50)
    assert summary.success_rate == 1.0
    assert summary.within_guarantee


def test_trials_within_capability_always_succeed():
    vc = _spread_code()
    summary = run_trials(vc, ChannelSpec(0, 2, 1234), 300)
    assert summary.successes == 300
    assert summary.ambiguous == 0
    assert summary.within_guarantee


def test_trials_beyond_capability_reports_failures():
    vc = _spread_code()
    summary = run_trials(vc, ChannelSpec(0, 3, 77), 200)
    assert not summary.within_guarantee
    assert summary.successes + summary.wrong + summary.ambiguous == 200
    lines = summary.transcript_csv().strip().split("\n")
    assert lines[0] == "trial,seed,ins,del,result"
    assert len(lines) == 201


def test_trials_reproducible():
    vc = _spread_code()
    a = run_trials(vc, ChannelSpec(1, 1, 5), 40)
    b = run_trials(vc, ChannelSpec(1, 1, 5), 40)
    assert a.transcript_csv() == b.transcript_csv()


def test_zero_trials():
    vc = _spread_code()
    summary = run_trials(vc, ChannelSpec(0, 1, 0), 0)
    assert summary.trials == 0
    assert summary.transcript_csv() == "trial,seed,ins,del,result\n"
