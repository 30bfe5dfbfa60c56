"""Named property suites behind the `verify` CLI command.

Each suite re-checks a family of invariants at desk scale and separates
two kinds of outcome: a failed check (an implementation bug, nonzero exit)
and a finding (a measured value that disagrees with a documented claim,
reported but not fatal).  The folded-evaluation suite, for instance, must
pass equidistance exactly while still reporting that the measured subset
distance is twice the halved-convention value.  The spread and orbit
suites sweep every pair, independently of the row-0 premises.

The sampling suites, pseudometric and chain, draw their words from one
symbol stream each, `_random_symbols(order, random.Random(seed))`: word
after word, each symbol the value the next `rng.randrange(order)` call
would return, but read 2,048 Mersenne Twister outputs at a time and turned
into symbols by one bytes.translate, with no list of samples.  The stream
copies how CPython's randrange draws; a Python whose randrange draws
differently would only change which samples run, not what is checked,
and would fail the stream test in tests/test_suites.py.
"""

from __future__ import annotations

import random
from itertools import chain, islice, repeat

from .bounds import cyclic_shift_witness
from .constructions import (
    orbit_cyclic_code,
    sidon_check,
    sidon_search,
    spread,
)
from .derived import (
    evaluation_folded_code,
    m_of_d,
    singer_difference_set,
    span_code,
)
from .errors import FqcodesError, InvalidParams
from .gf import FieldCtx, Value
from .linalg import ext_rank
from .metrics import (
    Word,
    block_rows,
    code_min_distance,
    hamming_distance,
    insdel_distance,
    pair_rows,
    pairwise_min_report,
    r_subset_distance,
    r_subspace_distance,
    subset_distance,
    subspace_distance,
    subspace_rows,
)
from .metrics import VectorCode
from .rankmetric import (
    delsarte_rank_distribution,
    empirical_rank_distribution,
    gabidulin_code,
)


class CheckResult(Value):
    __slots__ = ("name", "ok", "detail")
    _defaults = {"detail": ""}


class SuiteResult:
    def __init__(self, name: str):
        self.name = name
        self.checks: list[CheckResult] = []
        self.findings: list[str] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(CheckResult(name, bool(ok), detail))

    def finding(self, text: str):
        self.findings.append(text)


_CHUNK = 2048  # Mersenne Twister outputs drawn per getrandbits call


def _random_symbols(order: int, rng: random.Random):
    """An endless iterator of rng.randrange(order) values, for 2 <= order <= 255.

    randrange(order) keeps the top k = order.bit_length() bits of one 32-bit
    output and draws again while they are >= order.  getrandbits(32 m) is m
    such outputs, the first in the lowest bits, so raw[3::4] holds their top
    bytes, and one translate turns a chunk of them into symbols: table maps
    a byte to its top k bits and reject drops the bytes whose top k bits
    are >= order.  The rng runs ahead by up to a chunk, so nothing else may
    draw from it once the stream has started.
    """
    if not 2 <= order <= 255:
        raise InvalidParams(f"order={order} is outside [2, 255]")
    shift = 8 - order.bit_length()
    table = bytes(b >> shift for b in range(256))
    reject = bytes(b for b in range(256) if b >> shift >= order)
    return chain.from_iterable(
        rng.getrandbits(32 * _CHUNK).to_bytes(4 * _CHUNK, "little")[3::4].translate(table, reject)
        for _ in repeat(None))


def suite_pseudometric(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("pseudometric")
    ctx = FieldCtx(2, 3)
    symbols = _random_symbols(ctx.order, random.Random(seed))
    bad = 0
    for _ in range(samples):
        x, y, z = (Word(ctx, tuple(islice(symbols, 5))) for _ in range(3))
        for dist in (subspace_distance, subset_distance):
            dxz, dxy, dyz = dist(x, z), dist(x, y), dist(y, z)
            if dxz < 0 or dxz > dxy + dyz or dxy != dist(y, x):
                bad += 1
    res.check("triangle+symmetry", bad == 0, f"{bad} violations in {samples} triples")
    bad_r = 0
    for _ in range(max(samples // 10, 1)):
        x, y, z = (Word(ctx, tuple(islice(symbols, 4))) for _ in range(3))
        for dist in (lambda a, b: r_subspace_distance(a, b, 2),
                     lambda a, b: r_subset_distance(a, b, 2)):
            if dist(x, z) > dist(x, y) + dist(y, z):
                bad_r += 1
    res.check("triangle folded variants", bad_r == 0, f"{bad_r} violations")
    return res


def _chain_ok(x: Word, y: Word) -> bool:
    ds = subspace_distance(x, y)
    dsub = subset_distance(x, y)
    dins = insdel_distance(x, y)
    dh = hamming_distance(x, y)
    return ds <= dsub <= dins <= 2 * dh


def suite_chain(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("chain")
    ctx = FieldCtx(2, 3)
    symbols = _random_symbols(ctx.order, random.Random(seed))
    bad = sum(1 for _ in range(samples)
              if not _chain_ok(Word(ctx, tuple(islice(symbols, 5))),
                               Word(ctx, tuple(islice(symbols, 5)))))
    res.check("random pairs", bad == 0, f"{bad} violations in {samples} pairs")
    f4 = FieldCtx(2, 2)
    words = [Word(f4, (a, b)) for a in f4.elements() for b in f4.elements()]
    bad = sum(row.count(False) for row in pair_rows(words, _chain_ok))
    res.check("exhaustive F_4^2", bad == 0, f"{bad} violations in all pairs")
    return res


def suite_delsarte() -> SuiteResult:
    res = SuiteResult("delsarte")
    for (q, n, t) in ((2, 3, 1), (2, 4, 2)):
        code = gabidulin_code(FieldCtx(q, n), t)
        census = empirical_rank_distribution(code).counts
        formula = delsarte_rank_distribution(n, n - t, q).counts
        res.check(f"census==formula ({q},{n},{t})", census == formula,
                  f"census={census} formula={formula}")
        res.check(f"census total ({q},{n},{t})", sum(census) == len(code))
    return res


def suite_spread() -> SuiteResult:
    res = SuiteResult("spread")
    sc = spread(2, 2, 4)
    res.check("member count (2,2,4)", len(sc) == 5, f"{len(sc)} members")
    cover = {}
    for s in sc.members:
        for v in s.vectors():
            if v:
                cover[v] = cover.get(v, 0) + 1
    res.check("partition", len(cover) == 15 and set(cover.values()) == {1},
              f"covered {len(cover)} vectors")
    rep = pairwise_min_report(sc.members, subspace_rows(sc.members), "subspace")
    res.check("distance 4", rep.minimum == 4, f"min={rep.minimum}")
    sc6 = spread(2, 2, 6)
    res.check("member count (2,2,6)", len(sc6) == 21, f"{len(sc6)} members")
    rep6 = pairwise_min_report(sc6.members, subspace_rows(sc6.members), "subspace")
    res.check("distance 4 (2,2,6)", rep6.minimum == 4, f"min={rep6.minimum}")
    return res


def suite_orbit() -> SuiteResult:
    res = SuiteResult("orbit")
    ctx = FieldCtx(2, 5)
    sidon = sidon_search(ctx, 2)
    res.check("sidon found", sidon_check(ctx, sidon), "first 2-dim Sidon space")
    orbit = orbit_cyclic_code(ctx, sidon)
    res.check("orbit size", len(orbit) == 31, f"{len(orbit)} members")
    rep = pairwise_min_report(orbit.members, subspace_rows(orbit.members), "subspace")
    res.check("orbit distance 2k-2", rep.minimum == 2, f"min={rep.minimum}")
    sc = span_code(orbit, 2)
    insdel = code_min_distance(sc, "insdel")
    res.check("span insdel >= 2", insdel.minimum >= 2, f"min={insdel.minimum}")
    return res


def _random_linear_code(rng: random.Random) -> VectorCode:
    m = rng.choice((1, 2))
    ctx = FieldCtx(2, m)
    n = rng.randrange(2, 7)
    k = rng.randrange(n // 2 + 1, n + 1)
    while True:
        rows = [tuple(ctx.element_at(rng.randrange(ctx.order)) for _ in range(n))
                for _ in range(k)]
        if ext_rank(rows, n, ctx) == k:
            return VectorCode.from_generator(ctx, [Word(ctx, r) for r in rows])


def suite_shift_witness(seed: int) -> SuiteResult:
    res = SuiteResult("shift-witness")
    rng = random.Random(seed)
    failures = 0
    for _ in range(100):
        c = _random_linear_code(rng)
        try:
            w = cyclic_shift_witness(c)
        except FqcodesError:
            failures += 1
            continue
        shifted = Word(c.ctx, w.symbols[1:] + (w.symbols[0],))
        if not (c.contains(w) and c.contains(shifted)
                and subset_distance(w, shifted) == 0
                and insdel_distance(w, shifted) <= 2):
            failures += 1
    res.check("witness on random high-rate codes", failures == 0,
              f"{failures} failures in 100 codes")
    return res


def suite_folded_eval() -> SuiteResult:
    res = SuiteResult("folded-eval")
    for n in (3, 4):
        ctx = FieldCtx(2, n)
        ds = singer_difference_set(ctx)
        res.check(f"singer parameters n={n}",
                  (ds.v, ds.k, ds.lam) == (2 ** n - 1, 2 ** (n - 1) - 1, 2 ** (n - 2) - 1),
                  f"({ds.v},{ds.k},{ds.lam})")
        res.check(f"m(D)==lambda n={n}", m_of_d(ctx, ds.members) == ds.lam)
        fc = evaluation_folded_code(ctx, ds.members)
        dists = {d for row in block_rows("subset", (w.blocks for w in fc.codewords), n, 2)
                 for d in row}
        expected = 2 * (ds.k - ds.lam)
        res.check(f"equidistant n={n}", dists == {expected},
                  f"distances={sorted(dists)} expected {expected}")
        res.finding(
            f"folded evaluation code n={n}: measured cardinality {len(fc)} and "
            f"pairwise subset distance {expected}; the halved-convention distance "
            f"is {ds.k - ds.lam} and the claimed cardinality 2^(n-2) = {2 ** (n - 2)}")
    return res


SUITES = {
    "pseudometric": suite_pseudometric,
    "chain": suite_chain,
    "delsarte": suite_delsarte,
    "spread": suite_spread,
    "orbit": suite_orbit,
    "shift-witness": suite_shift_witness,
    "folded-eval": suite_folded_eval,
}


# The options each suite reads, by argparse dest; the others read none.
SUITE_OPTIONS = {
    "pseudometric": ("seed", "samples"),
    "chain": ("seed", "samples"),
    "shift-witness": ("seed",),
}


def run_suites(name: str, seed: int | None = None,
               samples: int | None = None) -> list[SuiteResult]:
    """Run the named suite, or every suite for "all", each with the options
    it reads (SUITE_OPTIONS); seed defaults to 0 and samples to 10,000."""
    given = {"seed": 0 if seed is None else seed,
             "samples": 10000 if samples is None else samples}
    if given["samples"] < 1:
        raise InvalidParams(f"samples={given['samples']} must be >= 1")
    return [SUITES[key](**{d: given[d] for d in SUITE_OPTIONS.get(key, ())})
            for key in (SUITES if name == "all" else [name])]
