"""Closed-form bounds and the cyclic-shift zero-distance witness."""

import random

import pytest

from fqcodes.errors import InvalidParams
from fqcodes.gf import FieldCtx
from fqcodes.bounds import (
    cyclic_shift_witness,
    half_singleton,
    klo_bound,
    levenshtein_bound,
    singleton_bound,
    strong_half_singleton,
    verify_bounds,
)
from fqcodes.linalg import ext_rank
from fqcodes.metrics import (
    VectorCode,
    Word,
    insdel_distance,
    subset_distance,
    word,
)

F2 = FieldCtx(2, 1)
F4 = FieldCtx(2, 2)


def test_singleton_examples():
    assert singleton_bound(5, 4, 2, "insdel").value == 16
    assert singleton_bound(5, 2, 2, "insdel").value == 2 ** 5  # vacuous
    with pytest.raises(InvalidParams, match=r"hamming distance 5 out of range \[1, 4\]"):
        singleton_bound(4, 5, 2, "hamming")
    with pytest.raises(InvalidParams, match=r"subset distance 3 must be even in \[2, 8\]"):
        singleton_bound(4, 3, 2, "subset")  # odd halved distance
    assert singleton_bound(4, 2, 3, "hamming").value == 3 ** 3


def test_half_singleton_examples():
    assert half_singleton(6, 2) == 8
    assert half_singleton(4, 3) == 2
    assert half_singleton(5, 1) == 10  # 2n for k = 1
    with pytest.raises(InvalidParams, match=r"k=5 out of range \[1, 4\]"):
        half_singleton(4, 5)


def test_strong_half_singleton_examples():
    assert strong_half_singleton([2, 4]) == 2
    assert 2 * strong_half_singleton([3]) == 2 * 3  # k = 1 reduces to 2 d_1
    with pytest.raises(InvalidParams, match="must be strictly increasing"):
        strong_half_singleton([3, 3])
    with pytest.raises(InvalidParams, match="must be strictly increasing"):
        strong_half_singleton([])


def test_strong_half_singleton_chains_below_plain():
    # substituting the generalized Singleton values d_r = n-k+r recovers
    # the plain half-Singleton bound
    for n in range(2, 8):
        for k in range(1, n + 1):
            ghw = [n - k + r for r in range(1, k + 1)]
            s = strong_half_singleton(ghw)
            assert 2 * s <= half_singleton(n, k) or half_singleton(n, k) == 2


def test_levenshtein_and_klo():
    assert levenshtein_bound(4, 2) == 4
    assert klo_bound(2) == 3
    assert klo_bound(2) < levenshtein_bound(4, 2)
    assert klo_bound(4) == 20
    with pytest.raises(InvalidParams, match="needs even q, got 3"):
        klo_bound(3)
    with pytest.raises(InvalidParams, match="need n >= 2 and q >= 2, got n=1, q=2"):
        levenshtein_bound(1, 2)


def test_bounds_pure_recomputation():
    assert levenshtein_bound(4, 2) == (2 ** 3 + 2 * 2 ** 2 + 2) // 4
    assert klo_bound(2) == (2 * 2 * 3) // 4


def test_witness_full_space():
    rows = [word(F2, [(1 if i == j else 0,) for j in range(3)]) for i in range(3)]
    c = VectorCode.from_generator(F2, rows)
    w = cyclic_shift_witness(c)
    assert any(s != F2.zero for s in w.symbols)


def _random_code(ctx, n, k, rng):
    while True:
        rows = [tuple(ctx.element_at(rng.randrange(ctx.order)) for _ in range(n))
                for _ in range(k)]
        if ext_rank(rows, n, ctx) == k:
            return VectorCode.from_generator(ctx, [Word(ctx, r) for r in rows])


def test_witness_on_random_4_3_codes():
    rng = random.Random(100)
    for _ in range(100):
        c = _random_code(F2, 4, 3, rng)
        w = cyclic_shift_witness(c)
        shifted = Word(F2, w.symbols[1:] + (w.symbols[0],))
        assert c.contains(w) and c.contains(shifted)
        assert subset_distance(w, shifted) == 0
        assert insdel_distance(w, shifted) <= 2


def test_witness_over_extension_alphabet():
    rng = random.Random(200)
    for _ in range(25):
        c = _random_code(F4, 5, 3, rng)
        w = cyclic_shift_witness(c)
        shifted = Word(F4, w.symbols[1:] + (w.symbols[0],))
        assert c.contains(w) and c.contains(shifted)
        assert subset_distance(w, shifted) == 0


def test_witness_over_characteristic_three():
    f3 = FieldCtx(3, 1)
    rng = random.Random(300)
    for _ in range(25):
        c = _random_code(f3, 5, 3, rng)
        w = cyclic_shift_witness(c)
        shifted = Word(f3, w.symbols[1:] + (w.symbols[0],))
        assert c.contains(w) and c.contains(shifted)
        assert subset_distance(w, shifted) == 0


def test_witness_guards():
    rng = random.Random(5)
    low_rate = _random_code(F2, 4, 2, rng)
    with pytest.raises(InvalidParams, match=r"need k > n/2"):
        cyclic_shift_witness(low_rate)
    nonlinear = VectorCode(F2, 2, [word(F2, [(0,), (1,)]), word(F2, [(1,), (0,)])])
    with pytest.raises(InvalidParams, match="needs a generator"):
        cyclic_shift_witness(nonlinear)


def test_verify_bounds_on_span_code():
    from fqcodes.constructions import spread
    from fqcodes.derived import all_vectors_code
    vc = all_vectors_code(spread(2, 2, 4), 3)
    reports = {r.bound: r for r in verify_bounds(vc)}
    assert reports["chain"].satisfied
    assert reports["min_insdel"].value == 6
    assert reports["singleton_insdel"].satisfied


def test_verify_bounds_high_rate_linear():
    rng = random.Random(77)
    c = _random_code(F2, 4, 3, rng)
    reports = {r.bound: r for r in verify_bounds(c)}
    assert reports["min_subspace"].value == 0
    assert reports["min_subset"].value == 0
    assert reports["zero_distance_witness"].satisfied
    assert reports["half_singleton"].satisfied
    # the doubled weight-hierarchy form carries no clamp, so for high-rate
    # codes it can dip to 0 while d_insdel >= 2; the report must record the
    # violation as a measurement rather than hide it
    strong = reports["strong_half_singleton_doubled"]
    assert strong.satisfied == (reports["min_insdel"].value <= strong.value)
    # the non-doubled form caps d_subset and held on every code we tried
    assert reports["strong_half_singleton_subset"].satisfied


def test_verify_bounds_low_rate_linear_regime():
    # k <= n/2: the subset-distance cap applies and the witness row is absent
    rows = [word(F2, [(1,), (0,), (1,), (0,)]), word(F2, [(0,), (1,), (0,), (1,)])]
    c = VectorCode.from_generator(F2, rows)
    reports = {r.bound: r for r in verify_bounds(c)}
    assert "zero_distance_witness" not in reports
    assert reports["half_singleton_subset"].satisfied
    assert reports["strong_half_singleton_subset"].satisfied


def test_strong_form_adjudication_on_random_low_rate_codes():
    # empirical check that the non-doubled form really caps d_subset
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(4, 7)
        k = rng.randrange(1, n // 2 + 1)
        c = _random_code(F2, n, k, rng)
        reports = {r.bound: r for r in verify_bounds(c)}
        assert reports["strong_half_singleton_subset"].satisfied
