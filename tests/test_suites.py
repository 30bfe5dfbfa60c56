"""The verify suites' sampling: the symbol stream against rng.randrange,
the words the sampling suites check, and their memory."""

import random
import tracemalloc
from itertools import islice

import pytest

from fqcodes import suites
from fqcodes.errors import InvalidParams
from fqcodes.gf import FieldCtx
from sweep_oracle import random_word

ORDERS = (2, 3, 4, 5, 7, 8, 9, 16, 27, 100, 255)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(5))
def test_stream_is_randrange(seed, order):
    rng = random.Random(seed)
    expected = [rng.randrange(order) for _ in range(20000)]
    assert list(islice(suites._random_symbols(order, random.Random(seed)), 20000)) == expected


@pytest.mark.parametrize("order", (0, 1, 256, 1000))
def test_stream_refuses_an_order_outside_a_byte(order):
    with pytest.raises(InvalidParams):
        suites._random_symbols(order, random.Random(0))


@pytest.mark.parametrize("order", (8, 27))
def test_words_of_two_lengths_from_one_stream_are_the_oracle_words(order):
    ctx = FieldCtx(2, 3) if order == 8 else FieldCtx(3, 3)
    rng = random.Random(7)
    expected = ([random_word(ctx, 5, rng).symbols for _ in range(900)]
                + [random_word(ctx, 4, rng).symbols for _ in range(300)])
    symbols = suites._random_symbols(order, random.Random(7))
    got = ([tuple(islice(symbols, 5)) for _ in range(900)]
           + [tuple(islice(symbols, 4)) for _ in range(300)])
    assert got == expected


def _recording(monkeypatch, name, calls):
    original = getattr(suites, name)

    def record(a, b, *rest):
        calls.append((a.symbols, b.symbols))
        return original(a, b, *rest)
    monkeypatch.setattr(suites, name, record)


def test_pseudometric_checks_the_oracle_words(monkeypatch):
    samples, seed = 300, 3  # 4,500 symbols: more than one chunk of the stream
    ctx = FieldCtx(2, 3)
    subspace, subset, folded = [], [], []
    _recording(monkeypatch, "subspace_distance", subspace)
    _recording(monkeypatch, "subset_distance", subset)
    _recording(monkeypatch, "r_subspace_distance", folded)
    res = suites.suite_pseudometric(seed, samples)
    assert all(c.ok for c in res.checks)

    rng = random.Random(seed)
    expected = []
    for _ in range(samples):
        x, y, z = (random_word(ctx, 5, rng).symbols for _ in range(3))
        expected += [(x, z), (x, y), (y, z), (y, x)]
    expected_folded = []
    for _ in range(samples // 10):
        x, y, z = (random_word(ctx, 4, rng).symbols for _ in range(3))
        expected_folded += [(x, z), (x, y), (y, z)]
    assert subspace == expected
    assert subset == expected
    assert folded == expected_folded


def test_chain_checks_the_oracle_words(monkeypatch):
    samples, seed = 1000, 4
    pairs = []
    _recording(monkeypatch, "_chain_ok", pairs)
    res = suites.suite_chain(seed, samples)
    assert all(c.ok for c in res.checks)

    ctx, rng = FieldCtx(2, 3), random.Random(seed)
    expected = [(random_word(ctx, 5, rng).symbols, random_word(ctx, 5, rng).symbols)
                for _ in range(samples)]
    assert pairs[:samples] == expected
    assert len(pairs) == samples + 16 * 15 // 2  # then every pair of F_4^2


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suite", (suites.suite_pseudometric, suites.suite_chain))
def test_sampling_suites_stream_their_samples(suite):
    # listing the 8,000 samples' words first would take about 4 MB
    assert _peak_bytes(lambda: suite(0, 8000)) < 1 << 20
