"""Acceptance criteria: one test per criterion, one printed line each.

Every expected value here was computed independently (hand derivation,
brute-force census, or the dual closed form) before being frozen; the
tests also enforce the stated wall-clock budgets, which are generous for
this desk scale.
"""

import json
import random
import time

from fqcodes.gf import FieldCtx
from fqcodes.bounds import (
    cyclic_shift_witness,
    half_singleton,
    klo_bound,
    levenshtein_bound,
)
from fqcodes.channel import ChannelSpec, run_trials
from fqcodes.cli import main as cli_main
from fqcodes.constructions import (
    lift_rank_code,
    orbit_cyclic_code,
    sidon_check,
    sidon_search,
    spread,
    subspace_code_min_distance,
)
from fqcodes.derived import (
    all_vectors_code,
    evaluation_folded_code,
    singer_difference_set,
    span_code,
)
from fqcodes.metrics import (
    VectorCode,
    Word,
    code_min_distance,
    generalized_hamming_weights,
    hamming_distance,
    insdel_distance,
    subset_distance,
    subspace_distance,
    word,
)
from fqcodes.linalg import ext_rank
from fqcodes.rankmetric import (
    delsarte_rank_distribution,
    empirical_rank_distribution,
    gabidulin_code,
    poly_rank,
)
from fqcodes.serialize import sha256_file


def _report(num, name, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({elapsed:.2f}s / {budget}s budget)")
    detail = "; ".join(failures) if failures else ""
    assert not failures, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def _rand_word(ctx, length, rng):
    return Word(ctx, tuple(ctx.element_at(rng.randrange(ctx.order))
                           for _ in range(length)))


def test_criterion_01_metric_chain():
    t0 = time.perf_counter()
    failures = []
    ctx = FieldCtx(2, 3)
    rng = random.Random(0xC0DE)
    for i in range(10000):
        a, b = _rand_word(ctx, 5, rng), _rand_word(ctx, 5, rng)
        ds, dsub = subspace_distance(a, b), subset_distance(a, b)
        dins, dh = insdel_distance(a, b), hamming_distance(a, b)
        if not ds <= dsub <= dins <= 2 * dh:
            failures.append(f"random pair {i}: {ds},{dsub},{dins},{dh}")
            break
    f4 = FieldCtx(2, 2)
    words = [Word(f4, (x, y)) for x in f4.elements() for y in f4.elements()]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            a, b = words[i], words[j]
            ds, dsub = subspace_distance(a, b), subset_distance(a, b)
            dins, dh = insdel_distance(a, b), hamming_distance(a, b)
            if not ds <= dsub <= dins <= 2 * dh:
                failures.append(f"exhaustive pair ({i},{j})")
    _report(1, "metric chain", failures, time.perf_counter() - t0, 10)


def test_criterion_02_pseudometric_axioms():
    t0 = time.perf_counter()
    failures = []
    ctx = FieldCtx(2, 3)
    rng = random.Random(41207)
    for i in range(10000):
        x, y, z = (_rand_word(ctx, 5, rng) for _ in range(3))
        for name, dist in (("subspace", subspace_distance), ("subset", subset_distance)):
            if dist(x, z) > dist(x, y) + dist(y, z):
                failures.append(f"triple {i} violates {name} triangle")
    _report(2, "pseudometric axioms", failures, time.perf_counter() - t0, 10)


def test_criterion_03_delsarte_cross_check():
    t0 = time.perf_counter()
    failures = []
    census31 = empirical_rank_distribution(gabidulin_code(FieldCtx(2, 3), 1))
    formula31 = delsarte_rank_distribution(3, 2, 2)
    if census31.counts != (1, 0, 49, 14):
        failures.append(f"(2,3,1) census {census31.counts} != (1,0,49,14)")
    if census31.counts != formula31.counts:
        failures.append("(2,3,1) census != formula")
    if census31.total() != 64:
        failures.append("(2,3,1) total != 64")
    census42 = empirical_rank_distribution(gabidulin_code(FieldCtx(2, 4), 2))
    formula42 = delsarte_rank_distribution(4, 2, 2)
    if census42.counts != formula42.counts:
        failures.append(f"(2,4,2) census {census42.counts} != formula {formula42.counts}")
    if census42.total() != 4096:
        failures.append("(2,4,2) total != 4096")
    _report(3, "delsarte cross-check", failures, time.perf_counter() - t0, 30)


def test_criterion_04_mrd_and_lifting():
    t0 = time.perf_counter()
    failures = []
    code = gabidulin_code(FieldCtx(2, 3), 1)
    ranks = [poly_rank(p) for p in code.members if not p.is_zero()]
    if len(ranks) != 63 or min(ranks) != 2:
        failures.append(f"rank distance over {len(ranks)} nonzero members: {min(ranks)}")
    lifted = lift_rank_code(code)
    if (lifted.ambient, len(lifted), lifted.constant_dim) != (6, 64, 3):
        failures.append(f"lift is ({lifted.ambient},{len(lifted)},?,{lifted.constant_dim})")
    rep = subspace_code_min_distance(lifted)
    if rep.pairs != 2016 or rep.minimum != 4:
        failures.append(f"lift sweep: min {rep.minimum} over {rep.pairs} pairs")
    _report(4, "mrd and lifting", failures, time.perf_counter() - t0, 30)


def test_criterion_05_spread():
    t0 = time.perf_counter()
    failures = []
    sc = spread(2, 2, 4)
    if len(sc) != 5:
        failures.append(f"spread(2,2,4) has {len(sc)} members")
    cover = {}
    for s in sc.members:
        for v in s.vectors():
            if v != 0:
                cover[v] = cover.get(v, 0) + 1
    if len(cover) != 15 or set(cover.values()) != {1}:
        failures.append("spread(2,2,4) is not a partition of the nonzero vectors")
    if subspace_code_min_distance(sc).minimum != 4:
        failures.append("spread(2,2,4) distance != 4")
    if len(spread(2, 2, 6)) != 21:
        failures.append("spread(2,2,6) member count != 21")
    _report(5, "spread", failures, time.perf_counter() - t0, 10)


def test_criterion_06_shift_witness():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0x5EED)
    successes = 0
    for trial in range(100):
        m = rng.choice((1, 2))
        ctx = FieldCtx(2, m)
        n = rng.randrange(2, 7)
        k = rng.randrange(n // 2 + 1, n + 1)
        while True:
            rows = [tuple(ctx.element_at(rng.randrange(ctx.order)) for _ in range(n))
                    for _ in range(k)]
            if ext_rank(rows, n, ctx) == k:
                break
        c = VectorCode.from_generator(ctx, [Word(ctx, r) for r in rows])
        try:
            w = cyclic_shift_witness(c)
        except Exception as exc:
            failures.append(f"trial {trial} [{n},{k}]_2^{m}: {exc}")
            continue
        shifted = Word(ctx, w.symbols[1:] + (w.symbols[0],))
        if (any(s != ctx.zero for s in w.symbols) and c.contains(w)
                and c.contains(shifted) and subset_distance(w, shifted) == 0):
            successes += 1
        else:
            failures.append(f"trial {trial}: witness failed verification")
    if successes != 100:
        failures.append(f"{successes}/100 successes")
    _report(6, "cyclic shift witness", failures, time.perf_counter() - t0, 30)


def test_criterion_07_sidon_orbit():
    t0 = time.perf_counter()
    failures = []
    ctx = FieldCtx(2, 5)
    sidon = sidon_search(ctx, 2)
    if not sidon_check(ctx, sidon):
        failures.append("search returned a non-Sidon space")
    orbit = orbit_cyclic_code(ctx, sidon)
    if len(orbit) != 31:
        failures.append(f"orbit has {len(orbit)} members")
    rep = subspace_code_min_distance(orbit)
    if rep.minimum != 2:
        failures.append(f"orbit distance {rep.minimum} != 2 = 2k-2")
    sc = span_code(orbit, 2)
    dmin = code_min_distance(sc, "insdel").minimum
    if dmin < 2:
        failures.append(f"span code insdel {dmin} < 2")
    _report(7, "sidon orbit", failures, time.perf_counter() - t0, 60)


def test_criterion_08_singer_folded():
    t0 = time.perf_counter()
    failures = []
    for n, params, expected_d in ((3, (7, 3, 1), 4), (4, (15, 7, 3), 8)):
        ctx = FieldCtx(2, n)
        ds = singer_difference_set(ctx)  # property verified for every y inside
        if (ds.v, ds.k, ds.lam) != params:
            failures.append(f"singer n={n}: {(ds.v, ds.k, ds.lam)} != {params}")
        fc = evaluation_folded_code(ctx, ds.members)
        dists = set()
        cw = fc.codewords
        for i in range(len(cw)):
            for j in range(i + 1, len(cw)):
                sa, sb = set(cw[i].blocks), set(cw[j].blocks)
                dists.add(len(sa) + len(sb) - 2 * len(sa & sb))
        if dists != {expected_d}:
            failures.append(f"n={n} folded distances {sorted(dists)} != {{{expected_d}}}")
        claimed = 2 ** (n - 2)
        print(f"    finding (n={n}): measured cardinality {len(fc)}, subset distance "
              f"{expected_d}; claimed cardinality {claimed}, claimed distance {claimed}")
    _report(8, "singer folded code", failures, time.perf_counter() - t0, 30)


def test_criterion_09_bounds_table():
    t0 = time.perf_counter()
    failures = []
    if levenshtein_bound(4, 2) != 4:
        failures.append("levenshtein(4,2) != 4")
    if klo_bound(2) != 3:
        failures.append("klo(2) != 3")
    if half_singleton(6, 2) != 8:
        failures.append("half_singleton(6,2) != 8")
    if half_singleton(4, 3) != 2:
        failures.append("half_singleton(4,3) != 2")
    f2 = FieldCtx(2, 1)
    rows = [word(f2, [(1,), (0,), (1,), (0,)]), word(f2, [(0,), (1,), (0,), (1,)])]
    ghw = generalized_hamming_weights(VectorCode.from_generator(f2, rows))
    if ghw != [2, 4]:
        failures.append(f"GHW {ghw} != [2, 4]")
    if not all(d <= 4 - 2 + r + 1 for r, d in enumerate(ghw)):
        failures.append("generalized Singleton bound violated")
    _report(9, "bounds table", failures, time.perf_counter() - t0, 5)


def test_criterion_10_channel_demonstration():
    t0 = time.perf_counter()
    failures = []
    vc = all_vectors_code(spread(2, 2, 4), 3)
    dmin = code_min_distance(vc, "insdel").minimum
    if dmin != 6:
        failures.append(f"verified insdel distance {dmin} != 6")
    summary = run_trials(vc, ChannelSpec(0, 2, 0xBEEF), 1000)
    if summary.success_rate != 1.0:
        failures.append(f"success rate {summary.success_rate} != 1.0")
    if summary.ambiguous != 0:
        failures.append(f"{summary.ambiguous} ambiguous decodes")
    if not summary.within_guarantee:
        failures.append("run was not within the stated capability")
    _report(10, "channel demonstration", failures, time.perf_counter() - t0, 60)


def test_criterion_11_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    failures = []
    spread_path = str(tmp_path / "spread.json")
    av_path = str(tmp_path / "av.json")
    transcript = str(tmp_path / "t.csv")
    commands = [
        ["construct", "--kind", "spread", "--q", "2", "--k", "2", "--n", "4",
         "--out", spread_path],
        ["construct", "--kind", "all-vectors", "--from", spread_path,
         "--length", "3", "--out", av_path],
        ["simulate", "--code", av_path, "--ins", "0", "--del", "2",
         "--trials", "200", "--seed", "99", "--out", transcript],
    ]
    outputs = [spread_path, av_path, transcript]
    for cmd in commands:
        if cli_main(cmd) != 0:
            failures.append(f"command failed: {cmd}")
    first = {p: open(p).read() for p in outputs}
    first.update({p + ".manifest.json": open(p + ".manifest.json").read()
                  for p in outputs})
    hashes = {p: sha256_file(p) for p in outputs}
    # replay each manifest's argv and demand byte-identical artifacts
    for p in outputs:
        manifest = json.loads(first[p + ".manifest.json"])
        if cli_main(manifest["argv"]) != 0:
            failures.append(f"replay failed for {p}")
    capsys.readouterr()
    for p in outputs:
        if open(p).read() != first[p]:
            failures.append(f"{p} changed between runs")
        if open(p + ".manifest.json").read() != first[p + ".manifest.json"]:
            failures.append(f"{p} manifest changed between runs")
        if sha256_file(p) != hashes[p]:
            failures.append(f"{p} hash changed")
    _report(11, "determinism", failures, time.perf_counter() - t0, 60)


def test_criterion_12_block_enlarged_certified(tmp_path, capsys):
    t0 = time.perf_counter()
    failures = []
    out = str(tmp_path / "block242.json")
    argv = ["construct", "--kind", "block-enlarged", "--q", "2", "--n", "4", "--t", "2",
            "--out", out]
    if cli_main(argv) != 0:
        failures.append(f"command failed: {argv}")
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    prov = json.load(open(out))["provenance"] if not failures else {}
    if prov.get("verified_distance") != 4:
        failures.append(f"verified distance {prov.get('verified_distance')} != 4")
    _report(12, "block-enlarged (2,4,2) end to end", failures, elapsed, 1.5)


def test_criterion_13_singer_ds_n14(tmp_path, capsys):
    t0 = time.perf_counter()
    failures = []
    out = str(tmp_path / "singer14.json")
    argv = ["construct", "--kind", "singer-ds", "--n", "14", "--out", out]
    if cli_main(argv) != 0:
        failures.append(f"command failed: {argv}")
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    ds = json.load(open(out)) if not failures else {}
    if (ds.get("v"), ds.get("k"), ds.get("lambda")) != (16383, 8191, 4095):
        failures.append(f"parameters {(ds.get('v'), ds.get('k'), ds.get('lambda'))}")
    _report(13, "singer-ds n=14 end to end", failures, elapsed, 2)
