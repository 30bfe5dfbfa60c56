"""CLI commands, exit codes, manifests, byte-identical reruns."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fqcodes import __version__, constructions, metrics
from fqcodes.cli import CONSTRUCT_KINDS, build_parser, check_options, main
from fqcodes.constructions import SubspaceCode, lift_rank_code, spread
from fqcodes.derived import (
    all_vectors_code,
    evaluation_folded_code,
    folded_code_from_vector_code,
    singer_difference_set,
)
from fqcodes.gf import FieldCtx
from fqcodes.errors import ParseError
from fqcodes.metrics import VectorCode, word
from fqcodes.rankmetric import RankCode, gabidulin_code, gabidulin_rect
from fqcodes.serialize import dumps_canonical, field_to_obj, load_file, save_file, sha256_file
from fqcodes.suites import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_gabidulin(tmp_path, capsys):
    out = str(tmp_path / "gab.json")
    code, stdout, _ = run(capsys, "construct", "--kind", "gabidulin",
                          "--q", "2", "--n", "3", "--t", "1", "--out", out)
    assert code == 0
    assert json.loads(stdout)["members"] == 64
    rc = load_file(out)
    assert len(rc) == 64
    assert rc.provenance["verified_rank_distance"] == 2
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["outputs"][out] == sha256_file(out)
    assert manifest["command"] == "construct"


def test_construct_spread_and_metric(tmp_path, capsys):
    out = str(tmp_path / "spread.json")
    code, stdout, _ = run(capsys, "construct", "--kind", "spread",
                          "--q", "2", "--k", "2", "--n", "4", "--out", out)
    assert code == 0
    assert json.loads(stdout)["members"] == 5
    sc = load_file(out)
    assert sc.provenance["verified_distance"] == 4
    code, stdout, _ = run(capsys, "metric", out, "--metric", "subspace",
                          "--format", "csv")
    assert code == 0
    assert stdout.startswith("subspace,4,")


def test_construct_singer_ds(tmp_path, capsys):
    out = str(tmp_path / "ds.json")
    code, stdout, _ = run(capsys, "construct", "--kind", "singer-ds",
                          "--n", "3", "--out", out)
    assert code == 0
    ds = load_file(out)
    assert (ds.v, ds.k, ds.lam) == (7, 3, 1)


def test_construct_lifted_and_derived_codes(tmp_path, capsys):
    lifted = str(tmp_path / "lifted.json")
    assert run(capsys, "construct", "--kind", "lifted-mrd", "--q", "2",
               "--n", "3", "--t", "1", "--out", lifted)[0] == 0
    sc = load_file(lifted)
    assert len(sc) == 64 and sc.provenance["verified_distance"] == 4
    spread_path = str(tmp_path / "spread.json")
    assert run(capsys, "construct", "--kind", "spread", "--q", "2",
               "--k", "2", "--n", "4", "--out", spread_path)[0] == 0
    av = str(tmp_path / "av.json")
    code, stdout, _ = run(capsys, "construct", "--kind", "all-vectors",
                          "--from", spread_path, "--length", "3", "--out", av)
    assert code == 0
    vc = load_file(av)
    assert vc.provenance["verified_insdel_distance"] == 6
    span = str(tmp_path / "span.json")
    assert run(capsys, "construct", "--kind", "span", "--from", spread_path,
               "--length", "2", "--out", span)[0] == 0
    assert load_file(span).provenance["verified_insdel_distance"] == 4


def test_construct_sidon_orbit(tmp_path, capsys):
    out = str(tmp_path / "orbit.json")
    code, stdout, _ = run(capsys, "construct", "--kind", "sidon-orbit",
                          "--q", "2", "--n", "5", "--k", "2", "--out", out)
    assert code == 0
    sc = load_file(out)
    assert len(sc) == 31
    assert sc.declared_distance == 2
    assert sc.provenance["verified_distance"] == 2


@pytest.mark.parametrize("q, n, lines", [(2, 4, 15), (3, 3, 13)])
def test_construct_sidon_orbit_of_a_line_declares_distance_2(tmp_path, capsys, q, n, lines):
    # a 1-dimensional Sidon space's orbit is every line, and distinct lines
    # are at distance 2, not 2k - 2 = 0
    out = str(tmp_path / "lines.json")
    assert run(capsys, "construct", "--kind", "sidon-orbit", "--q", str(q), "--n", str(n),
               "--k", "1", "--out", out)[0] == 0
    sc = load_file(out)
    assert (len(sc), sc.declared_distance, sc.provenance["verified_distance"]) == (lines, 2, 2)


def test_construct_folded_eval(tmp_path, capsys):
    out = str(tmp_path / "fev.json")
    code, _, _ = run(capsys, "construct", "--kind", "folded-eval",
                     "--n", "3", "--out", out)
    assert code == 0
    fc = load_file(out)
    assert len(fc) == 7
    assert fc.provenance["verified_subset_distance"] == 4
    assert fc.provenance["difference_set"] == {"v": 7, "k": 3, "lambda": 1}


def test_metric_r_subset(tmp_path, capsys):
    spread_path = str(tmp_path / "spread.json")
    run(capsys, "construct", "--kind", "spread", "--q", "2", "--k", "2",
        "--n", "4", "--out", spread_path)
    av = str(tmp_path / "av.json")
    run(capsys, "construct", "--kind", "all-vectors", "--from", spread_path,
        "--length", "4", "--out", av)
    code, stdout, _ = run(capsys, "metric", av, "--metric", "r_subset",
                          "--block-len", "2")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["metric"] == "r_subset"
    assert rep["notes"]["block_len"] == 2


def test_metric_too_few_codewords_exits_2(tmp_path, capsys):
    ctx = FieldCtx(2, 2)
    vc = VectorCode(ctx, 2, [word(ctx, [(1, 0), (0, 1)])])
    path = str(tmp_path / "one.json")
    save_file(path, vc)
    code, _, err = run(capsys, "metric", path, "--metric", "insdel")
    assert code == 2
    assert "two members" in err


def test_metric_on_malformed_symbols_exits_2(tmp_path, capsys):
    ctx = FieldCtx(2, 2)
    vc = VectorCode(ctx, 2, [word(ctx, [(1, 0), (0, 1)]), word(ctx, [(1, 1), (0, 0)])])
    path = tmp_path / "code.json"
    save_file(str(path), vc)
    good = json.loads(path.read_text())
    for bad in ("a", 5):
        obj = json.loads(json.dumps(good))
        obj["codewords"][0][0][0] = bad
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "metric", str(path), "--metric", "insdel")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_metric_on_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "metric", str(tmp_path / "nope.json"),
                       "--metric", "insdel")
    assert code == 2


def _assert_exit_2(capsys, path):
    code, _, err = run(capsys, "metric", str(path), "--metric", "subset")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_metric_on_a_folded_code_with_a_short_block_exits_2(tmp_path, capsys):
    ctx = FieldCtx(2, 2)
    vc = VectorCode(ctx, 4, [word(ctx, [(1, 0), (0, 1), (1, 1), (0, 1)]),
                             word(ctx, [(1, 1), (0, 0), (0, 1), (1, 0)])])
    path = tmp_path / "folded.json"
    save_file(str(path), folded_code_from_vector_code(vc, 2))
    obj = json.loads(path.read_text())
    obj["codewords"][1][1] = obj["codewords"][1][1][:1]  # one symbol short
    path.write_text(json.dumps(obj))
    assert "ragged block in folded word" in _assert_exit_2(capsys, path)


@pytest.mark.parametrize("block_len", [0, -1])
def test_metric_on_a_folded_code_with_a_block_length_below_one_exits_2(
        tmp_path, capsys, block_len):
    path = tmp_path / "folded.json"
    save_file(str(path), evaluation_folded_code(FieldCtx(2, 3), [1, 2]))
    obj = json.loads(path.read_text())
    obj.update(block_len=block_len, codewords=[[], []])
    path.write_text(json.dumps(obj))
    assert "block length must be >= 1" in _assert_exit_2(capsys, path)


def _two_word_code():
    ctx = FieldCtx(2, 2)
    return VectorCode(ctx, 2, [word(ctx, [(1, 0), (0, 1)]), word(ctx, [(1, 1), (0, 0)])])


@pytest.mark.parametrize("key, value", [("q", " 2 "), ("q", "+2"), ("q", "\u0662"),
                                        ("length", "0_3")])
def test_metric_on_a_non_canonical_integer_string_exits_2(tmp_path, capsys, key, value):
    path = tmp_path / "code.json"
    save_file(str(path), _two_word_code())
    obj = json.loads(path.read_text())
    (obj["field"] if key == "q" else obj)[key] = value
    path.write_text(json.dumps(obj))
    assert f"expected an integer, got {value!r}" in _assert_exit_2(capsys, path)


@pytest.mark.parametrize("code, members", [
    (_two_word_code, "codewords"),
    (lambda: spread(2, 2, 4), "subspaces"),
    (lambda: folded_code_from_vector_code(_two_word_code(), 1), "codewords"),
])
def test_metric_on_a_code_file_that_repeats_a_member_exits_2(tmp_path, capsys, code, members):
    path = tmp_path / "code.json"
    save_file(str(path), code())
    obj = json.loads(path.read_text())
    obj[members].append(obj[members][0])
    path.write_text(json.dumps(obj))
    assert f"{members} must be distinct" in _assert_exit_2(capsys, path)


def test_metric_on_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_bytes(b"\xff\xfe{}")
    assert "is not valid JSON" in _assert_exit_2(capsys, path)


def test_metric_on_deeply_nested_file_exits_2(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert "is not valid JSON" in _assert_exit_2(capsys, path)


def test_metric_on_bad_provenance_exits_2(tmp_path, capsys):
    ctx = FieldCtx(2, 2)
    vc = VectorCode(ctx, 2, [word(ctx, [(1, 0), (0, 1)]), word(ctx, [(1, 1), (0, 0)])])
    path = tmp_path / "code.json"
    save_file(str(path), vc)
    obj = json.loads(path.read_text())
    obj["provenance"] = "abc"
    path.write_text(json.dumps(obj))
    assert "provenance must be an object or null" in _assert_exit_2(capsys, path)


def _junk_beside_a_basis(obj):
    obj["subspaces"][0]["junk"] = 1


@pytest.mark.parametrize("code, change, argv, message", [
    (lambda: gabidulin_code(FieldCtx(2, 2), 1), lambda obj: obj.update(members={}),
     "construct --kind lifted-mrd --from {code} --out {out}",
     "malformed rank code: members must be an array, not dict"),
    (lambda: folded_code_from_vector_code(_two_word_code(), 1),
     lambda obj: obj.update(codewords={"": None}), "metric {code} --metric subset",
     "malformed folded code: codewords must be an array, not dict"),
    (lambda: spread(2, 2, 4), lambda obj: obj.update(subspaces={}),
     "metric {code} --metric subspace",
     "malformed subspace code: subspaces must be an array, not dict"),
    (_two_word_code, lambda obj: obj.update(extra=5), "metric {code} --metric subset",
     "malformed vector code: unknown key 'extra'"),
    (lambda: spread(2, 2, 4), _junk_beside_a_basis, "metric {code} --metric subspace",
     "malformed subspace code: unknown key 'junk' in subspaces[0]"),
    (_two_word_code, lambda obj: obj.pop("codewords"), "metric {code} --metric subset",
     "malformed vector code: missing key 'codewords'"),
    (_two_word_code, lambda obj: obj["field"].pop("modulus"), "metric {code} --metric subset",
     "malformed vector code: missing key 'modulus' in field"),
    (lambda: spread(2, 2, 4), lambda obj: obj["subspaces"][1].pop("basis"),
     "metric {code} --metric subspace",
     "malformed subspace code: missing key 'basis' in subspaces[1]"),
], ids=["rank members object", "folded codewords object", "subspaces object",
        "unknown top-level key", "unknown key beside a basis", "missing top-level key",
        "missing key in the field", "missing basis"])
def test_a_code_file_that_does_not_fit_its_shape_exits_2(tmp_path, capsys, code, change, argv,
                                                         message):
    path, out = tmp_path / "code.json", tmp_path / "out.json"
    save_file(str(path), code())
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))
    err = _assert_one_line_exit_2(capsys, *argv.format(code=path, out=out).split())
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("q, message", [(4, "q=4 is not prime"),
                                        (2 ** 61 - 1, "exceeds supported maximum")])
def test_metric_on_subspace_code_over_a_bad_q_exits_2(tmp_path, capsys, q, message):
    path = tmp_path / "spread.json"
    save_file(str(path), spread(2, 2, 4))
    obj = json.loads(path.read_text())
    obj["q"] = q
    path.write_text(dumps_canonical(obj))  # q beyond 2^53 as the string a file holds
    code, _, err = run(capsys, "metric", str(path), "--metric", "subspace")
    assert code == 2
    assert err.startswith("error: invalid subspace code: ") and err.count("\n") == 1
    assert message in err


def test_metric_on_difference_set_over_a_large_characteristic_field_exits_2(tmp_path, capsys):
    # the field loads quickly (Rabin's test), so the loader reaches the claim check
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({
        "kind": "difference_set", "field": {"q": 65521, "n": 4, "modulus": [3, 1, 0, 0, 1]},
        "members": [[1, 0, 0, 0]], "v": 1, "k": 1, "lambda": 0}))
    start = time.monotonic()
    err = _assert_exit_2(capsys, path)
    assert "invalid difference set: v=1 but the multiplicative group has" in err
    assert time.monotonic() - start < 5


def test_bounds_table(tmp_path, capsys):
    code, stdout, _ = run(capsys, "bounds", "--n", "4", "--q", "2")
    assert code == 0
    table = {r["bound"]: r for r in json.loads(stdout)["bounds"]
             if r["bound"] != "half_singleton"}
    assert table["levenshtein"]["value"] == 4
    assert table["klo"]["value"] == 3
    code, stdout, _ = run(capsys, "bounds", "--n", "2", "--q", "2")
    names = [r["bound"] for r in json.loads(stdout)["bounds"]]
    assert "klo" not in names


def test_bounds_on_code_file(tmp_path, capsys):
    spread_path = str(tmp_path / "spread.json")
    run(capsys, "construct", "--kind", "spread", "--q", "2", "--k", "2",
        "--n", "4", "--out", spread_path)
    av = str(tmp_path / "av.json")
    run(capsys, "construct", "--kind", "all-vectors", "--from", spread_path,
        "--length", "3", "--out", av)
    code, stdout, _ = run(capsys, "bounds", "--code", av, "--format", "csv")
    assert code == 0
    assert "chain,6,true" in stdout


def test_simulate_and_determinism(tmp_path, capsys):
    spread_path = str(tmp_path / "spread.json")
    run(capsys, "construct", "--kind", "spread", "--q", "2", "--k", "2",
        "--n", "4", "--out", spread_path)
    av = str(tmp_path / "av.json")
    run(capsys, "construct", "--kind", "all-vectors", "--from", spread_path,
        "--length", "3", "--out", av)
    transcript = str(tmp_path / "t.csv")
    argv = ("simulate", "--code", av, "--ins", "0", "--del", "2",
            "--trials", "100", "--seed", "42", "--out", transcript)
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["success_rate"] == 1.0
    assert summary["within_guarantee"] is True
    first = open(transcript).read()
    first_manifest = open(transcript + ".manifest.json").read()
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert open(transcript).read() == first
    assert open(transcript + ".manifest.json").read() == first_manifest


def test_manifest_replay_reproduces_hashes(tmp_path, capsys):
    out = str(tmp_path / "spread.json")
    run(capsys, "construct", "--kind", "spread", "--q", "2", "--k", "2",
        "--n", "4", "--out", out)
    manifest = json.load(open(out + ".manifest.json"))
    recorded = manifest["outputs"][out]
    assert main(manifest["argv"]) == 0
    capsys.readouterr()
    assert sha256_file(out) == recorded


def test_fold_command(tmp_path, capsys):
    spread_path = str(tmp_path / "spread.json")
    run(capsys, "construct", "--kind", "spread", "--q", "2", "--k", "2",
        "--n", "4", "--out", spread_path)
    av = str(tmp_path / "av.json")
    run(capsys, "construct", "--kind", "all-vectors", "--from", spread_path,
        "--length", "4", "--out", av)
    folded = str(tmp_path / "folded.json")
    code, _, _ = run(capsys, "fold", "--code", av, "--block-len", "2",
                     "--out", folded)
    assert code == 0
    fc = load_file(folded)
    assert fc.block_len == 2
    assert len(fc) == 5
    code, stdout, _ = run(capsys, "metric", folded, "--metric", "subset")
    assert code == 0


def test_metric_out_writes_report_file(tmp_path, capsys):
    spread_path = str(tmp_path / "spread.json")
    run(capsys, "construct", "--kind", "spread", "--q", "2", "--k", "2",
        "--n", "4", "--out", spread_path)
    report = str(tmp_path / "report.json")
    code, stdout, _ = run(capsys, "metric", spread_path, "--metric", "subspace",
                          "--out", report)
    assert code == 0
    assert json.load(open(report))["minimum"] == 4
    manifest = json.load(open(report + ".manifest.json"))
    assert spread_path in manifest["inputs"]


def test_verify_command_exit_codes(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "spread")
    assert code == 0
    assert "PASS" in stdout


def test_verify_emits_findings(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "folded-eval")
    assert code == 0
    assert "FINDING:" in stdout


def test_usage_error_exits_2(capsys):
    assert run(capsys, "construct", "--kind", "nonsense", "--out", "x")[0] == 2
    assert run(capsys, "bounds")[0] == 2


def test_construct_single_member_code_is_vacuous(tmp_path, capsys):
    out = str(tmp_path / "whole.json")
    code, stdout, _ = run(capsys, "construct", "--kind", "spread", "--q", "2",
                          "--k", "4", "--n", "4", "--out", out)
    assert code == 0
    sc = load_file(out)
    assert len(sc) == 1
    assert sc.provenance["verified_distance"] is None


def test_construct_invalid_params_exit_2(tmp_path, capsys):
    out = str(tmp_path / "bad.json")
    code, _, err = run(capsys, "construct", "--kind", "spread", "--q", "2",
                       "--k", "2", "--n", "5", "--out", out)
    assert code == 2


# the flags each construction kind needs, and the ones it may also take,
# written out independently of the CLI
NEEDED = {
    "gabidulin": ("--n", "--t"),
    "lifted-mrd": ("--n", "--t"),
    "spread": ("--k", "--n"),
    "sidon-orbit": ("--n", "--k"),
    "block-enlarged": ("--n", "--t"),
    "span": ("--from", "--length"),
    "all-vectors": ("--from", "--length"),
    "folded-eval": ("--n",),
    "singer-ds": ("--n",),
}
MAY_TAKE = {
    "gabidulin": ("--q", "--modulus"),
    "lifted-mrd": ("--q", "--modulus", "--from"),
    "spread": ("--q",),
    "sidon-orbit": ("--q", "--modulus"),
    "block-enlarged": ("--q", "--modulus"),
    "span": (),
    "all-vectors": (),
    "folded-eval": ("--modulus", "--ds"),
    "singer-ds": ("--modulus",),
}
KIND_FLAGS = ("--q", "--n", "--t", "--k", "--length", "--modulus", "--from", "--ds")


def _flag(dest):
    return "--" + dest.removesuffix("_path")


def test_every_construct_kind_lists_its_flags():
    assert set(NEEDED) == set(MAY_TAKE) == set(CONSTRUCT_KINDS)
    assert {k: tuple(map(_flag, needs)) for k, (needs, _) in CONSTRUCT_KINDS.items()} == NEEDED
    assert {k: tuple(map(_flag, may)) for k, (_, may) in CONSTRUCT_KINDS.items()} == MAY_TAKE


def test_every_option_the_kind_table_names_is_a_construct_option():
    args = build_parser().parse_args(["construct", "--kind", "span", "--out", "x"])
    dests = {d for needs, may in CONSTRUCT_KINDS.values() for d in needs + may}
    assert {d for d in dests if not hasattr(args, d)} == set()
    assert {_flag(d) for d in dests} == set(KIND_FLAGS)


@pytest.mark.parametrize("kind,flag", [(k, f) for k, flags in NEEDED.items() for f in flags])
def test_construct_without_a_required_flag_exits_2(tmp_path, capsys, kind, flag):
    values = {"--n": "4", "--t": "1", "--k": "2", "--length": "3",
              "--from": str(tmp_path / "spread.json")}
    save_file(values["--from"], spread(2, 2, 4))
    argv = ["construct", "--kind", kind, "--out", str(tmp_path / "out.json")]
    for other in NEEDED[kind]:
        if other != flag:
            argv += [other, values[other]]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: --kind {kind} needs {flag}\n"
    assert stdout == ""
    assert not (tmp_path / "out.json").exists()


# every (kind, construct option it does not read); lifted-mrd given --from
# reads that file and nothing else
UNREAD = [(kind, flag) for kind in NEEDED for flag in KIND_FLAGS
          if flag not in NEEDED[kind] + MAY_TAKE[kind]]
UNREAD += [("lifted-mrd --from", flag) for flag in KIND_FLAGS if flag != "--from"]


def _assert_rejected(capsys, tmp_path, argv, message):
    """argv exits 2 with the one-line message, prints nothing and writes no file."""
    before = set(tmp_path.iterdir())
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case,flag", UNREAD)
def test_construct_with_an_option_the_kind_does_not_read_exits_2(tmp_path, capsys, case, flag):
    paths = _input_files(tmp_path)
    values = {"--q": ["2"], "--n": ["4"], "--t": ["1"], "--k": ["2"], "--length": ["3"],
              "--modulus": ["1", "1", "0", "0", "1"], "--from": [paths["spread"]],
              "--ds": [paths["ds"]]}
    kind, *given = case.split()
    argv = ["construct", "--kind", kind, "--out", str(tmp_path / "out.json")]
    for other in given or NEEDED[kind]:
        argv += [other, *values[other]]
    _assert_rejected(capsys, tmp_path, argv + [flag, *values[flag]],
                     f"--kind {kind} does not take {flag}")


def test_construct_names_every_option_the_kind_does_not_read(tmp_path, capsys):
    _assert_rejected(capsys, tmp_path, ["construct", "--kind", "spread", "--k", "2", "--n", "4",
                                        "--t", "1", "--modulus", "1", "1", "0", "0", "1",
                                        "--out", str(tmp_path / "out.json")],
                     "--kind spread does not take --t or --modulus")


@pytest.mark.parametrize("metric", ["hamming", "insdel", "subspace", "subset"])
def test_metric_block_len_with_a_metric_that_does_not_fold_exits_2(tmp_path, capsys, metric):
    paths = _input_files(tmp_path)
    _assert_rejected(capsys, tmp_path, ["metric", paths["av"], "--metric", metric,
                                        "--block-len", "2", "--out", str(tmp_path / "out")],
                     f"--metric {metric} does not take --block-len")


@pytest.mark.parametrize("flag", ["--n", "--q", "--k", "--d"])
def test_bounds_on_a_code_file_with_a_table_option_exits_2(tmp_path, capsys, flag):
    paths = _input_files(tmp_path)
    _assert_rejected(capsys, tmp_path, ["bounds", "--code", paths["av"], flag, "5",
                                        "--out", str(tmp_path / "out")],
                     f"--code does not take {flag}")


@pytest.mark.parametrize("argv", ["verify --suite spread --force",
                                  "fold --code {av} --block-len 2 --force --out {out}"])
def test_force_on_a_command_that_does_not_sweep_is_a_usage_error(tmp_path, capsys, argv):
    paths = _input_files(tmp_path)
    before = set(tmp_path.iterdir())
    code, stdout, err = run(capsys, *argv.format(out=tmp_path / "out", **paths).split())
    assert (code, stdout) == (2, "")
    assert err.endswith("error: unrecognized arguments: --force\n")
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_format_on_verify_is_a_usage_error(capsys, fmt):
    code, stdout, err = run(capsys, "verify", "--suite", "spread", "--format", fmt)
    assert (code, stdout) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: --format {fmt}\n")


@pytest.mark.parametrize("argv", ["construct --kind spread --k 2 --n 4 --out x",
                                  "metric x --metric hamming", "bounds --n 4",
                                  "simulate --code x", "fold --code x --block-len 2 --out x"])
def test_every_other_command_takes_format(argv):
    assert build_parser().parse_args([*argv.split(), "--format", "csv"]).format == "csv"


def test_construct_lifted_mrd_from_a_file_needs_no_field_flags(tmp_path, capsys):
    gab = str(tmp_path / "gab.json")
    assert run(capsys, "construct", "--kind", "gabidulin", "--n", "3", "--t", "1",
               "--out", gab)[0] == 0
    code, _, _ = run(capsys, "construct", "--kind", "lifted-mrd", "--from", gab,
                     "--out", str(tmp_path / "lifted.json"))
    assert code == 0


def test_construct_span_of_a_zero_subspace_is_the_zero_word(tmp_path, capsys):
    src = tmp_path / "zero.json"
    src.write_text(json.dumps({
        "kind": "subspace_code", "q": 2, "ambient": 3, "constant_dim": None,
        "declared_distance": None, "provenance": None,
        "subspaces": [{"basis": []}, {"basis": [[1, 0, 0], [0, 1, 0]]}]}))
    out = str(tmp_path / "span.json")
    code, _, err = run(capsys, "construct", "--kind", "span", "--from", str(src),
                       "--length", "2", "--out", out)
    assert (code, err) == (0, "")
    vc = load_file(out)
    assert vc.codewords[0].symbols == (0, 0)
    assert vc.codewords[1].symbols == (0b100, 0b010)


def _assert_one_line_exit_2(capsys, *argv):
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert stdout == ""
    return err


def test_bounds_with_k_zero_exits_2(capsys):
    err = _assert_one_line_exit_2(capsys, "bounds", "--n", "4", "--q", "2", "--k", "0")
    assert err == "error: k=0 out of range [1, 4]\n"


@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_verify_takes_only_the_options_its_suite_reads(capsys, suite):
    reads = {"pseudometric": ("--seed", "--samples"), "chain": ("--seed", "--samples"),
             "shift-witness": ("--seed",), "all": ("--seed", "--samples")}.get(suite, ())
    for flag in ("--seed", "--samples"):
        argv = ["verify", "--suite", suite, flag, "3"]
        if flag in reads:
            check_options(build_parser().parse_args(argv))
        else:
            err = _assert_one_line_exit_2(capsys, *argv)
            assert err == f"error: --suite {suite} does not take {flag}\n"
    if not reads:
        err = _assert_one_line_exit_2(capsys, "verify", "--suite", suite,
                                      "--seed", "5", "--samples", "3")
        assert err == f"error: --suite {suite} does not take --samples or --seed\n"


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_verify_with_too_few_samples_exits_2(capsys, samples):
    err = _assert_one_line_exit_2(capsys, "verify", "--suite", "chain", "--samples", samples)
    assert err == f"error: samples={samples} must be >= 1\n"


# -- the one command shape: typed load, compute, artifact, manifest, print -----

MANIFEST_KEYS = {"kind", "tool", "version", "command", "argv", "params", "seed",
                 "field", "inputs", "outputs"}


def _input_files(tmp_path):
    """A subspace code, a rank code, a vector code and a difference set, saved
    through the library."""
    paths = {name: str(tmp_path / f"{name}.json") for name in ("spread", "gab", "av", "ds")}
    save_file(paths["spread"], spread(2, 2, 4))
    save_file(paths["gab"], gabidulin_code(FieldCtx(2, 3), 1))
    save_file(paths["av"], all_vectors_code(spread(2, 2, 4), 4))
    save_file(paths["ds"], singer_difference_set(FieldCtx(2, 3)))
    return paths


# argv (with {name} for the input files and {out} for the output), the inputs
# the manifest lists, its field (None, or the arguments of its FieldCtx) and
# its params (with {name} for the input files)
WRITING_COMMANDS = {
    "construct-spread": ("construct --kind spread --q 2 --k 2 --n 4 --out {out}",
                         (), None, {"kind": "spread", "q": 2, "k": 2, "n": 4}),
    "construct-lifted": ("construct --kind lifted-mrd --n 3 --t 1 --out {out}", (), (2, 3),
                         {"kind": "lifted-mrd", "q": 2, "n": 3, "t": 1}),
    "construct-lifted-from": ("construct --kind lifted-mrd --from {gab} --out {out}",
                              ("gab",), None, {"kind": "lifted-mrd", "source": "{gab}"}),
    "construct-gabidulin": ("construct --kind gabidulin --n 3 --t 1 --out {out}", (), (2, 3),
                            {"kind": "gabidulin", "q": 2, "n": 3, "t": 1}),
    "construct-gabidulin-modulus": (
        "construct --kind gabidulin --q 2 --n 3 --t 1 --modulus 1 1 0 1 --out {out}", (),
        (2, 3, [1, 1, 0, 1]), {"kind": "gabidulin", "q": 2, "n": 3, "t": 1}),
    "construct-sidon-orbit": ("construct --kind sidon-orbit --n 5 --k 2 --out {out}", (),
                              (2, 5), {"kind": "sidon-orbit", "q": 2, "n": 5, "k": 2}),
    "construct-block-enlarged": ("construct --kind block-enlarged --n 2 --t 1 --out {out}", (),
                                 (2, 2), {"kind": "block-enlarged", "q": 2, "n": 2, "t": 1}),
    "construct-span": ("construct --kind span --from {spread} --length 3 --out {out}",
                       ("spread",), (2, 4), {"kind": "span", "source": "{spread}", "length": 3}),
    "construct-all-vectors": ("construct --kind all-vectors --from {spread} --length 3"
                              " --out {out}", ("spread",), (2, 4),
                              {"kind": "all-vectors", "source": "{spread}", "length": 3}),
    "construct-folded-eval": ("construct --kind folded-eval --n 3 --format csv --out {out}",
                              (), (2, 3), {"kind": "folded-eval", "n": 3}),
    "construct-folded-eval-ds": ("construct --kind folded-eval --n 3 --ds {ds} --out {out}",
                                 ("ds",), (2, 3), {"kind": "folded-eval", "n": 3, "ds": "{ds}"}),
    "construct-singer-ds": ("construct --kind singer-ds --n 3 --out {out}", (), (2, 3),
                            {"kind": "singer-ds", "n": 3}),
    "metric": ("metric {spread} --metric subspace --out {out}", ("spread",), None,
               {"metric": "subspace", "block_len": None}),
    "metric-csv": ("metric {av} --metric insdel --format csv --out {out}",
                   ("av",), None, {"metric": "insdel", "block_len": None}),
    "metric-r-subset": ("metric {av} --metric r_subset --block-len 2 --out {out}",
                        ("av",), None, {"metric": "r_subset", "block_len": 2}),
    "bounds-code": ("bounds --code {av} --out {out}", ("av",), None,
                    {"n": None, "q": None, "k": None, "d": None}),
    "bounds-table": ("bounds --n 4 --q 2 --d 2 --out {out}", (), None,
                     {"n": 4, "q": 2, "k": None, "d": 2}),
    "simulate": ("simulate --code {av} --del 1 --trials 10 --seed 7 --out {out}",
                 ("av",), None, {"ins": 0, "del": 1, "trials": 10}),
    "fold": ("fold --code {av} --block-len 2 --out {out}", ("av",), None, {"block_len": 2}),
}


@pytest.mark.parametrize("case", WRITING_COMMANDS)
def test_every_writing_command_records_one_manifest_shape(tmp_path, capsys, case):
    template, inputs, field, params = WRITING_COMMANDS[case]
    paths = _input_files(tmp_path)
    out = str(tmp_path / "out")
    argv = template.format(out=out, **paths).split()
    code, stdout, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert (manifest["kind"], manifest["tool"], manifest["version"]) == \
        ("run_manifest", "fqcodes", __version__)
    assert manifest["command"] == argv[0]
    assert manifest["argv"] == argv
    assert manifest["seed"] == (int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0)
    assert manifest["outputs"] == {out: sha256_file(out)}
    assert manifest["inputs"] == {paths[name]: sha256_file(paths[name]) for name in inputs}
    assert manifest["field"] == (field_to_obj(FieldCtx(*field)) if field else None)
    assert manifest["params"] == {k: v.format(**paths) if isinstance(v, str) else v
                                  for k, v in params.items()}
    written = {p: (tmp_path / p).read_bytes() for p in ("out", "out.manifest.json")}
    for p in written:
        (tmp_path / p).unlink()
    assert run(capsys, *manifest["argv"]) == (0, stdout, "")
    assert {p: (tmp_path / p).read_bytes() for p in written} == written


@pytest.mark.parametrize("case", WRITING_COMMANDS)
def test_a_manifest_hashes_each_input_once_and_never_reads_the_output_back(
        tmp_path, capsys, monkeypatch, case):
    template, inputs, _field, _params = WRITING_COMMANDS[case]
    paths = _input_files(tmp_path)
    out = str(tmp_path / "out")
    hashed = []
    monkeypatch.setattr("fqcodes.cli.sha256_file", lambda p: hashed.append(p) or sha256_file(p))
    code, _, err = run(capsys, *template.format(out=out, **paths).split())
    assert (code, err) == (0, "")
    assert sorted(hashed) == sorted(paths[name] for name in inputs)
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["outputs"] == {out: sha256_file(out)}


@pytest.mark.parametrize("case", WRITING_COMMANDS)
def test_an_out_path_that_is_a_directory_exits_2_and_leaves_no_temp_file(
        tmp_path, capsys, case):
    template, _inputs, _field, _params = WRITING_COMMANDS[case]
    paths = _input_files(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    err = _assert_one_line_exit_2(capsys, *template.format(out=out, **paths).split())
    assert err == f"error: cannot write {out}: Is a directory\n"
    assert list(tmp_path.rglob(".tmp-fqcodes-*")) == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", WRITING_COMMANDS)
def test_an_out_path_in_a_missing_directory_exits_2_naming_it(tmp_path, capsys, case):
    template, _inputs, _field, _params = WRITING_COMMANDS[case]
    paths = _input_files(tmp_path)
    before = set(tmp_path.iterdir())
    out = tmp_path / "nodir" / "out"
    err = _assert_one_line_exit_2(capsys, *template.format(out=out, **paths).split())
    assert err == f"error: cannot write {out}: No such file or directory\n"
    assert set(tmp_path.iterdir()) == before


def test_construct_gabidulin_rejects_from(tmp_path, capsys):
    _assert_rejected(capsys, tmp_path, ["construct", "--kind", "gabidulin", "--n", "3", "--t", "1",
                                        "--from", str(tmp_path / "nowhere.json"),
                                        "--out", str(tmp_path / "from.json")],
                     "--kind gabidulin does not take --from")


# each typed load, given a file of another kind
WRONG_KIND = {
    "lifted-mrd --from": ("construct --kind lifted-mrd --from {spread} --out {out}",
                          "spread", "rank code"),
    "span --from": ("construct --kind span --from {gab} --length 3 --out {out}",
                    "gab", "subspace code"),
    "all-vectors --from": ("construct --kind all-vectors --from {av} --length 3 --out {out}",
                           "av", "subspace code"),
    "folded-eval --ds": ("construct --kind folded-eval --n 3 --ds {spread} --out {out}",
                         "spread", "difference set"),
    "bounds --code": ("bounds --code {gab} --out {out}", "gab", "vector code"),
    "simulate --code": ("simulate --code {spread} --out {out}", "spread", "vector code"),
    "fold --code": ("fold --code {gab} --block-len 2 --out {out}", "gab", "vector code"),
    "metric": ("metric {gab} --metric subset --out {out}", "gab",
               "vector, subspace or folded code"),
}


@pytest.mark.parametrize("case", WRONG_KIND)
def test_a_file_of_the_wrong_kind_exits_2_naming_it(tmp_path, capsys, case):
    template, name, what = WRONG_KIND[case]
    paths = _input_files(tmp_path)
    out = tmp_path / "out"
    err = _assert_one_line_exit_2(capsys, *template.format(out=out, **paths).split())
    assert err == f"error: {paths[name]} is not a {what} file\n"
    assert not out.exists()


# well-formed input that the command itself refuses: argv (with {name} for
# the input files, {gab_twice} for a rank code listing one member twice and
# {out} for the output) and the one line it exits 2 with
REFUSED = {
    "subset on a subspace code": ("metric {spread} --metric subset --out {out}",
                                  "subspace code files only support --metric subspace"),
    "block-enlarged odd degree": ("construct --kind block-enlarged --n 3 --t 2 --out {out}",
                                  "block enlargement needs an even degree"),
    "gabidulin t = n": ("construct --kind gabidulin --n 3 --t 3 --out {out}",
                        "t=3 out of range for domain degree 3"),
    "gabidulin n = 0": ("construct --kind gabidulin --n 0 --t 0 --out {out}",
                        "extension degree n=0 must be >= 1"),
    "folded-eval ds of another field": ("construct --kind folded-eval --n 4 --ds {ds} --out {out}",
                                        "difference set lives in a different field"),
    "simulate negative ins": ("simulate --code {av} --ins -1 --out {out}",
                              "channel counts must be >= 0"),
    "simulate negative trials": ("simulate --code {av} --trials -1 --out {out}",
                                 "trial count must be >= 0"),
    "lifted-mrd repeated member": ("construct --kind lifted-mrd --from {gab_twice} --out {out}",
                                   "invalid rank code: rank code members must be distinct"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_refused_command_exits_2_with_one_line_and_writes_nothing(tmp_path, capsys, case):
    template, message = REFUSED[case]
    paths = _input_files(tmp_path)
    obj = json.loads((tmp_path / "gab.json").read_text())
    obj["members"].append(obj["members"][0])
    paths["gab_twice"] = tmp_path / "gab_twice.json"
    paths["gab_twice"].write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    _assert_rejected(capsys, tmp_path, template.format(out=out, **paths).split(), message)


@pytest.mark.parametrize("lam, code, err", [
    (2 ** 61 - 1, 2, "error: malformed difference set: lambda: expected an integer, "
                     "got 2305843009213693951\n"),
    ("2305843009213693951", 1, "verification failure: measured subset distance 4 != "
                               "2(k - lambda) = -4611686018427387896\n"),
], ids=["a number", "the string a file holds"])
def test_an_integer_beyond_2_53_is_read_only_as_a_decimal_string(tmp_path, capsys, lam, code,
                                                                 err):
    paths = _input_files(tmp_path)
    obj = json.loads((tmp_path / "ds.json").read_text())
    obj["lambda"] = lam
    (tmp_path / "ds.json").write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    assert run(capsys, "construct", "--kind", "folded-eval", "--n", "3", "--ds", paths["ds"],
               "--out", str(out)) == (code, "", err)
    assert not out.exists()


def test_metric_on_a_folded_code_rejects_a_vector_metric(tmp_path, capsys):
    paths = _input_files(tmp_path)
    folded = str(tmp_path / "folded.json")
    assert run(capsys, "fold", "--code", paths["av"], "--block-len", "2", "--out", folded)[0] == 0
    err = _assert_one_line_exit_2(capsys, "metric", folded, "--metric", "hamming")
    assert err == "error: folded codes support subset/subspace, not 'hamming'\n"


@pytest.mark.parametrize("argv, message", [
    ("--n 0 --q 2", "bounds need n >= 1 and q >= 2, got n=0, q=2"),
    ("--n 1 --q 1", "bounds need n >= 1 and q >= 2, got n=1, q=1"),
    ("--n 4 --q 2 --d 0", "no singleton bound takes d=0: hamming distance 0 out of range"),
    ("--n 4 --q 2 --d 9", "no singleton bound takes d=9: hamming distance 9 out of range"),
    ("--n 4 --q 2 --d 5", "no singleton bound takes d=5: hamming distance 5 out of range"),
])
def test_bounds_table_with_bad_integers_exits_2(capsys, argv, message):
    err = _assert_one_line_exit_2(capsys, "bounds", *argv.split())
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("d, metrics", [
    (1, {"hamming"}),
    (3, {"hamming"}),
    (4, {"hamming", "insdel", "subspace", "subset"}),
    (8, {"insdel", "subspace", "subset"}),
])
def test_bounds_table_lists_every_singleton_bound_that_takes_d(capsys, d, metrics):
    code, stdout, err = run(capsys, "bounds", "--n", "4", "--q", "2", "--d", str(d))
    assert (code, err) == (0, "")
    rows = [r["bound"] for r in json.loads(stdout)["bounds"]]
    assert {r for r in rows if r.startswith("singleton_")} == {f"singleton_{m}" for m in metrics}


# an empty path is a path: it is read or written, and fails as any bad path does
EMPTY_PATHS = {
    "bounds --code": (["bounds", "--code", ""], "cannot read "),
    "lifted-mrd --from": (["construct", "--kind", "lifted-mrd", "--from", "", "--out", "out"],
                          "cannot read "),
    "folded-eval --ds": (["construct", "--kind", "folded-eval", "--n", "3", "--ds", "",
                          "--out", "out"], "cannot read "),
    "metric --out": (["metric", "{av}", "--metric", "insdel", "--out", ""], "cannot write "),
    "bounds --out": (["bounds", "--n", "4", "--q", "2", "--out", ""], "cannot write "),
    "simulate --out": (["simulate", "--code", "{av}", "--trials", "3", "--out", ""],
                       "cannot write "),
}


@pytest.mark.parametrize("case", EMPTY_PATHS)
def test_an_empty_path_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, case):
    argv, message = EMPTY_PATHS[case]
    paths = _input_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    err = _assert_one_line_exit_2(capsys, *(a.format(**paths) for a in argv))
    assert err.startswith(f"error: {message}")
    assert set(tmp_path.iterdir()) == before


def _rank_code_file(tmp_path, **changes):
    """gabidulin_rect from F_4 into F_8 on disk, with top-level keys replaced."""
    path = tmp_path / "rect.json"
    save_file(str(path), gabidulin_rect(FieldCtx(2, 2), FieldCtx(2, 3), 0))
    obj = json.loads(path.read_text())
    obj.update(changes)
    path.write_text(json.dumps(obj))
    return str(path)


def test_a_rectangular_rank_code_round_trips_and_lifts(tmp_path, capsys):
    rect = gabidulin_rect(FieldCtx(2, 2), FieldCtx(2, 3), 0)
    path = _rank_code_file(tmp_path)
    loaded = load_file(path)
    assert (loaded.src, loaded.nrows, loaded.ncols) == (FieldCtx(2, 2), 2, 3)
    assert [p.coeffs for p in loaded.members] == [p.coeffs for p in rect.members]
    assert list(loaded.matrices()) == list(rect.matrices())
    out = str(tmp_path / "lifted.json")
    code, _, err = run(capsys, "construct", "--kind", "lifted-mrd", "--from", path, "--out", out)
    assert (code, err) == (0, "")
    lifted = load_file(out)
    assert lifted.members == lift_rank_code(rect).members
    assert lifted.provenance["verified_distance"] == 4  # twice the rank distance k - t = 2


@pytest.mark.parametrize("src_field", [False, 0, {}, [], ""], ids=json.dumps)
def test_a_rank_code_with_a_falsy_src_field_exits_2(tmp_path, capsys, src_field):
    path = _rank_code_file(tmp_path, src_field=src_field)
    err = _assert_one_line_exit_2(capsys, "construct", "--kind", "lifted-mrd", "--from", path,
                                  "--out", str(tmp_path / "lifted.json"))
    expected = ("missing key 'modulus' in src_field" if src_field == {} else
                f"src_field must be an object or null, not {type(src_field).__name__}")
    assert err == f"error: malformed rank code: {expected}\n"
    assert not (tmp_path / "lifted.json").exists()


@pytest.mark.parametrize("src_field, message", [
    (FieldCtx(3, 1), "embedding requires matching base characteristic"),
    (FieldCtx(2, 4), "cannot embed degree 4 into degree 3"),
], ids=["another q", "a higher degree"])
def test_a_rank_code_whose_src_field_cannot_embed_exits_2_at_load(tmp_path, capsys,
                                                                 src_field, message):
    path = _rank_code_file(tmp_path, src_field=field_to_obj(src_field))
    with pytest.raises(ParseError, match=f"^invalid rank code: {message}$"):
        load_file(path)
    err = _assert_one_line_exit_2(capsys, "construct", "--kind", "lifted-mrd", "--from", path,
                                  "--out", str(tmp_path / "lifted.json"))
    assert err == f"error: invalid rank code: {message}\n"


# -- options nothing reads, claims nothing checked ------------------------------

@pytest.mark.parametrize("case", ["construct-spread", "metric", "bounds-table", "fold"])
def test_seed_on_a_command_that_draws_no_random_numbers_is_a_usage_error(tmp_path, capsys, case):
    paths = _input_files(tmp_path)
    before = set(tmp_path.iterdir())
    argv = WRITING_COMMANDS[case][0].format(out=tmp_path / "out", **paths).split()
    code, stdout, err = run(capsys, *argv, "--seed", "5")
    assert (code, stdout) == (2, "")
    assert err.endswith("error: unrecognized arguments: --seed 5\n")
    assert set(tmp_path.iterdir()) == before


def test_a_generator_whose_row_span_is_too_large_to_check_exits_2(tmp_path, capsys):
    # two codewords and three independent generator rows over F_256: 2^24 words
    ctx = FieldCtx(2, 8)
    zero, one = [0] * 8, [1] + [0] * 7
    path = tmp_path / "big.json"
    save_file(str(path), VectorCode(ctx, 3, [word(ctx, [zero] * 3), word(ctx, [one] * 3)]))
    obj = json.loads(path.read_text())
    obj["generator"] = [[one if i == j else zero for j in range(3)] for i in range(3)]
    path.write_text(json.dumps(obj))
    err = _assert_one_line_exit_2(capsys, "bounds", "--code", str(path))
    assert err == "error: invalid vector code: row span too large to materialize\n"


def _singer4_file(tmp_path, members, v=15, k=7, lam=3):
    """A difference set file over F_16 claiming (v, k, lam): the Singer
    members at the given indices, None for zero, "other" for a non-member."""
    ctx = FieldCtx(2, 4)
    singer = singer_difference_set(ctx).members
    other = next(x for x in range(1, ctx.order) if x not in singer)
    points = [0 if i is None else other if i == "other" else singer[i] for i in members]
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({
        "kind": "difference_set", "field": field_to_obj(ctx), "v": v, "k": k, "lambda": lam,
        "members": [list(ctx.coefficients(x)) for x in points]}))
    return str(path)


@pytest.mark.parametrize("members, claim, message", [
    (range(5), (15, 7, 1), "k=7 but there are 5 members"),
    (range(7), (14, 7, 3), "v=14 but the multiplicative group has 15 elements"),
    ([0, 1, 2, 3, 4, 5, 0], (15, 7, 3), "members must be distinct and nonzero"),
    ([0, 1, 2, 3, 4, 5, None], (15, 7, 3), "members must be distinct and nonzero"),
], ids=["five members claim seven", "wrong v", "a repeated member", "a zero member"])
def test_a_difference_set_whose_claim_its_members_refute_exits_2(tmp_path, capsys,
                                                                 members, claim, message):
    path = _singer4_file(tmp_path, members, *claim)
    out = str(tmp_path / "fev.json")
    err = _assert_one_line_exit_2(capsys, "construct", "--kind", "folded-eval", "--n", "4",
                                  "--ds", path, "--out", out)
    assert err == f"error: invalid difference set: {message}\n"
    assert not (tmp_path / "fev.json").exists()


def test_folded_eval_checks_the_claimed_lambda_before_writing(tmp_path, capsys):
    # seven distinct nonzero members, but not a difference set
    path = _singer4_file(tmp_path, [0, 1, 2, 3, 4, 5, "other"])
    code, stdout, err = run(capsys, "construct", "--kind", "folded-eval", "--n", "4",
                            "--ds", path, "--out", str(tmp_path / "fev.json"))
    assert (code, stdout) == (1, "")
    assert err.startswith("verification failure: measured subset distance ")
    assert err.endswith(" != 2(k - lambda) = 8\n")
    assert not (tmp_path / "fev.json").exists()


def test_a_square_rank_code_has_one_file_form(tmp_path):
    ctx = FieldCtx(2, 3)
    canonical, edited = tmp_path / "canonical.json", tmp_path / "edited.json"
    save_file(str(canonical), gabidulin_code(ctx, 1))
    obj = json.loads(canonical.read_text())
    obj["src_field"] = obj["field"]
    edited.write_text(json.dumps(obj))
    save_file(str(edited), load_file(str(edited)))
    assert edited.read_bytes() == canonical.read_bytes()
    assert gabidulin_rect(ctx, ctx, 1).src is None


# -- row 0 gives the distance of lifted, orbit and folded-eval codes -----------

def _count_paths(monkeypatch):
    """Each subspace sweep ("sweep") and each pair distance scored on the
    row-0 path ("pair") of constructions.subspace_code_min_distance."""
    calls = []
    sweep, pair = constructions.subspace_rows, constructions.subspace_pair_distance
    monkeypatch.setattr(constructions, "subspace_rows",
                        lambda *a: calls.append("sweep") or sweep(*a))
    monkeypatch.setattr(constructions, "subspace_pair_distance",
                        lambda *a: calls.append("pair") or pair(*a))
    return calls


def test_construct_lifted_mrd_from_a_non_linear_rank_code_still_sweeps(tmp_path, capsys,
                                                                       monkeypatch):
    gab = gabidulin_code(FieldCtx(2, 3), 1)
    src = str(tmp_path / "rank.json")
    save_file(src, RankCode(gab.ctx, gab.members[1:40], 1))  # 39 members: not linear
    out = str(tmp_path / "lifted.json")
    calls = _count_paths(monkeypatch)
    assert run(capsys, "construct", "--kind", "lifted-mrd", "--from", src, "--out", out)[0] == 0
    assert calls == ["sweep"]
    code, stdout, _ = run(capsys, "metric", out, "--metric", "subspace", "--format", "csv")
    assert code == 0
    assert stdout.startswith(f"subspace,{load_file(out).provenance['verified_distance']},")


def test_construct_certifies_a_spread_past_the_pair_guard(tmp_path, capsys, monkeypatch):
    # 5,461 members, 14.9 M pairs: construct scores row 0 alone, 5,460 pairs;
    # the loaded file has no field, so metric would sweep it and needs --force
    out = str(tmp_path / "spread.json")
    calls = _count_paths(monkeypatch)
    assert run(capsys, "construct", "--kind", "spread", "--k", "2", "--n", "14",
               "--out", out)[0] == 0
    assert calls == ["pair"] * 5460
    assert load_file(out).provenance["verified_distance"] == 4
    code, _, err = run(capsys, "metric", out, "--metric", "subspace")
    assert code == 2 and "exceed the guard" in err


def test_metric_needs_no_force_past_the_guard_when_row_0_holds(tmp_path, capsys, monkeypatch):
    lifted, folded, half = (str(tmp_path / f) for f in ("lifted.json", "fev.json", "half.json"))
    assert run(capsys, "construct", "--kind", "lifted-mrd", "--n", "3", "--t", "1",
               "--out", lifted)[0] == 0
    assert run(capsys, "construct", "--kind", "folded-eval", "--n", "4", "--out", folded)[0] == 0
    full = load_file(lifted)  # 64 members
    keep = sorted(random.Random(0).sample(range(64), 32))
    save_file(half, SubspaceCode(2, 6, [full.members[i] for i in keep], 3))
    jobs = [(lifted, "subspace"), (folded, "subset"), (folded, "subspace"), (half, "subspace")]
    expected = [run(capsys, "metric", path, "--metric", metric)[1] for path, metric in jobs]
    monkeypatch.setattr(metrics, "PAIR_GUARD", 10)
    for (path, metric), stdout in zip(jobs[:3], expected):
        assert run(capsys, "metric", path, "--metric", metric) == (0, stdout, "")
    code, _, err = run(capsys, "metric", half, "--metric", "subspace")
    assert code == 2 and "exceed the guard" in err
    assert run(capsys, "metric", half, "--metric", "subspace", "--force") == (0, expected[3], "")


def test_traced_cli_patches_every_binding_on_the_row_0_paths(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    assert run(capsys, "construct", "--kind", "lifted-mrd", "--n", "3", "--t", "1",
               "--out", str(tmp_path / "lifted.json"))[0] == 0
    for argv, counted, calls in (
            (["metric", "lifted.json", "--metric", "subspace"],
             "constructions.subspace_code_min_distance", 1),
            (["construct", "--kind", "folded-eval", "--n", "5", "--out", "fev.json"],
             "metrics.folded_subset_distance", 30),  # row 0 of 31 codewords
            (["construct", "--kind", "gabidulin", "--n", "3", "--t", "1", "--out", "gab.json"],
             "metrics.pairwise_min_report", 1)):
        subprocess.run([sys.executable, str(root / "bench" / "traced_cli.py"), "trace.json",
                        "job", "0", "--", *argv], cwd=tmp_path, env=env, check=True,
                       capture_output=True)
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert (trace["rc"], trace["unpatched"]) == (0, [])
        assert trace["calls"][counted] == calls
