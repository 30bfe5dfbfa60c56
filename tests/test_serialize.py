"""JSON round trips, big-integer encoding, read-time re-validation, and the
canonical writer against json.dumps."""

import hashlib
import json
import math
import os
import re
import stat
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcodes import serialize
from fqcodes.cli import main
from fqcodes.errors import InvalidParams, ParseError
from fqcodes.gf import FieldCtx, unpack
from fqcodes.bounds import BoundReport
from fqcodes.constructions import (
    SubspaceCode,
    block_enlarged_family,
    lift_rank_code,
    spread,
    subspace_code_min_distance,
)
from fqcodes.derived import (
    FoldedCode,
    evaluation_folded_code,
    folded_code_min_distance,
    folded_code_from_vector_code,
    singer_difference_set,
    span_code,
)
from fqcodes.linalg import span
from fqcodes.metrics import FoldedWord, VectorCode, Word, code_min_distance, fold
from fqcodes.rankmetric import gabidulin_code, gabidulin_rect
from fqcodes.serialize import (
    as_int,
    atomic_write_text,
    bound_report_to_obj,
    bounds_csv,
    dumps_canonical,
    field_from_obj,
    field_to_obj,
    load_file,
    load_obj,
    metric_report_to_obj,
    object_to_obj,
    save_file,
    sha256_file,
)
from sweep_oracle import expand

GF8 = FieldCtx(2, 3, [1, 1, 0, 1])


def test_field_round_trip():
    obj = field_to_obj(GF8)
    assert obj == {"q": 2, "n": 3, "modulus": [1, 1, 0, 1]}
    assert field_from_obj(obj) == GF8


def _load_field(field):
    """A field object, read as the field of a difference set file."""
    obj = expand(object_to_obj(singer_difference_set(GF8)))
    return load_obj(dict(obj, field=field)).ctx


def test_field_rejects_bad_modulus():
    with pytest.raises(ParseError):
        _load_field({"q": 2, "n": 3, "modulus": [1, 1, 1, 1]})


@pytest.mark.parametrize("modulus", [[1, 1, 0, 3], [3, -1, 0, 1]])
def test_field_rejects_non_canonical_modulus(modulus):
    # both reduce mod 2 to the irreducible [1, 1, 0, 1]
    with pytest.raises(ParseError, match=r"invalid difference set: modulus coefficient not in \[0, 2\)"):
        _load_field({"q": 2, "n": 3, "modulus": modulus})


def test_field_caps_the_characteristic_before_the_primality_test():
    # 2^61 - 1 is prime; trial division up to its square root would not finish
    with pytest.raises(ParseError, match="q=2305843009213693951 exceeds supported maximum"):
        _load_field({"q": "2305843009213693951", "n": 1, "modulus": [0, 1]})


def _subspace_obj(s):
    """A subspace as a subspace code file lists it, with its q and ambient."""
    basis = [list(unpack(r, s.q, s.ambient)) for r in s.rows]
    return {"q": s.q, "ambient": s.ambient, "basis": basis}


def _load_subspace(obj):
    """A subspace object, read as the one member of a subspace code file."""
    sc = load_obj({"kind": "subspace_code", "q": obj["q"], "ambient": obj["ambient"],
                   "subspaces": [{"basis": obj["basis"]}]})
    return sc.members[0]


def test_subspace_round_trip_and_validation():
    sc = spread(2, 2, 4)
    s = sc.members[0]
    assert _load_subspace(_subspace_obj(s)) == s
    bad = _subspace_obj(s)
    bad["basis"] = [[1, 1, 0, 0], [1, 0, 0, 0]]  # not RREF
    with pytest.raises(ParseError):
        _load_subspace(bad)


def _spread_file_with_basis(tmp_path, basis):
    """spread(2, 2, 4) on disk, its second member's basis replaced."""
    path = tmp_path / "spread.json"
    save_file(str(path), spread(2, 2, 4))
    obj = json.loads(path.read_text())
    obj["subspaces"][1]["basis"] = basis
    path.write_text(json.dumps(obj))
    return str(path)


def _metric_exit_2(capsys, path):
    code = main(["metric", path, "--metric", "subspace"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: invalid subspace code: ") and err.count("\n") == 1
    return err


def test_subspace_validation_rejects_non_rref(tmp_path, capsys):
    path = _spread_file_with_basis(tmp_path, [[1, 1, 0, 0], [1, 0, 0, 0]])
    message = "subspace basis must be a zero-row-free RREF matrix"
    with pytest.raises(ParseError, match=f"^invalid subspace code: {message}$"):
        load_file(path)
    assert message in _metric_exit_2(capsys, path)


@pytest.mark.parametrize("basis, message", [
    # 3 and -1 reduce mod 2 to the valid RREF basis [[1, 0, 1, 0], [0, 1, 0, 0]]
    ([[1, 0, 3, 0], [0, 1, 0, 0]], r"basis entry 3 is not in \[0, 2\)"),
    ([[1, 0, -1, 0], [0, 1, 0, 0]], r"basis entry -1 is not in \[0, 2\)"),
    ([[1, 0, 1], [0, 1, 0]], "basis row of length 3 in ambient 4"),
])
def test_subspace_basis_entries_must_be_canonical(tmp_path, capsys, basis, message):
    path = _spread_file_with_basis(tmp_path, basis)
    with pytest.raises(ParseError, match=f"^invalid subspace code: {message}$"):
        load_file(path)
    assert re.search(message, _metric_exit_2(capsys, path))
    obj = dict(_subspace_obj(spread(2, 2, 4).members[1]), basis=basis)
    with pytest.raises(ParseError, match=f"^invalid subspace code: {message}$"):
        _load_subspace(obj)


@pytest.mark.parametrize("basis", [
    [[1, 0, 2, 0], [0, 0, 0, 0]],  # a zero row
    [[0, 0, 0, 0]],
    [[0, 1, 0, 0], [1, 0, 0, 0]],  # pivots falling
    [[1, 0, 0, 0], [1, 1, 0, 0]],  # pivots level
    [[2, 0, 0, 0]],  # a pivot that is not 1
    [[1, 0, 0, 0], [0, 0, 2, 1]],
    [[1, 1, 0, 0], [0, 1, 0, 0]],  # nonzero above a pivot
    [[1, 0, 2, 0], [0, 1, 1, 0], [0, 0, 1, 0]],
])
def test_a_basis_must_be_in_rref(basis):
    message = "subspace basis must be a zero-row-free RREF matrix"
    with pytest.raises(ParseError, match=f"^invalid subspace code: {message}$"):
        _load_subspace({"q": 3, "ambient": 4, "basis": basis})


def test_a_basis_in_rref_loads_as_its_packed_rows():
    s = _load_subspace({"q": 3, "ambient": 4, "basis": [[1, 2, 0, 1], [0, 0, 1, 2]]})
    assert s == span([1 * 27 + 2 * 9 + 1, 1 * 3 + 2], 4, 3)


def test_empty_bases_in_a_huge_ambient_space_load_at_once():
    # row reduction of no rows used to walk all 10^18 columns
    obj = {"kind": "subspace_code", "q": 2, "ambient": "1000000000000000000",
           "subspaces": [{"basis": []}]}
    start = time.monotonic()
    sc = load_obj(obj)
    assert len(sc) == 1 and sc.members[0].dim == 0
    obj["subspaces"].append({"basis": []})
    with pytest.raises(ParseError, match="subspaces must be distinct"):
        load_obj(obj)
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("q, message", [(4, "is not prime"),
                                        (2 ** 61 - 1, "exceeds supported maximum")])
def test_subspace_loader_checks_the_characteristic(q, message):
    obj = json.loads(dumps_canonical(dict(_subspace_obj(spread(2, 2, 4).members[0]), q=q)))
    with pytest.raises(ParseError, match=f"invalid subspace code: q={q} {message}"):
        _load_subspace(obj)


F3_2 = FieldCtx(3, 2)
F4 = FieldCtx(2, 2)


def _empty_word_code():
    return VectorCode(F4, 0, [Word(F4, ())])


@pytest.mark.parametrize("factory", [
    lambda: gabidulin_code(GF8, 1),
    lambda: lift_rank_code(gabidulin_code(GF8, 1)),
    lambda: spread(2, 2, 4),
    lambda: span_code(spread(2, 2, 4), 2),  # with a generator
    lambda: singer_difference_set(GF8),
    lambda: evaluation_folded_code(GF8, singer_difference_set(GF8).members),
    lambda: span_code(spread(3, 1, 2), 3),  # over F_9
    _empty_word_code,  # a word of no symbols
    lambda: gabidulin_rect(FieldCtx(3, 1), F3_2, 0),  # with a src_field
    lambda: spread(3, 2, 6),
    lambda: block_enlarged_family(F3_2, 1),
    lambda: SubspaceCode(2, 3, [span([], 3, 2), span([0b100, 0b011], 3, 2)]),  # 0-dimensional
    lambda: folded_code_from_vector_code(span_code(spread(2, 2, 4), 4), 1),
    lambda: folded_code_from_vector_code(span_code(spread(2, 2, 4), 4), 2),
    lambda: folded_code_from_vector_code(span_code(spread(3, 1, 2), 5), 3),
    lambda: FoldedCode(F4, 2, (FoldedWord(F4, 2, ()),)),  # a folded word of no blocks
])
def test_file_round_trip(tmp_path, factory):
    obj = factory()
    path = str(tmp_path / "artifact.json")
    assert save_file(path, obj) == sha256_file(path)
    assert open(path).read() == _oracle(expand(object_to_obj(obj)))
    assert dumps_canonical(object_to_obj(obj)) == open(path).read()
    loaded = load_file(path)
    assert dumps_canonical(object_to_obj(loaded)) == dumps_canonical(object_to_obj(obj))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_folded_blocks_round_trip_every_block_length(tmp_path, r):
    vc = span_code(spread(2, 2, 4), 4)  # length 4: r = 3 zero-pads the tail
    fc = folded_code_from_vector_code(vc, r)
    assert [w.blocks for w in fc.codewords] == [fold(w, r).blocks for w in vc.codewords]
    path = str(tmp_path / "folded.json")
    save_file(path, fc)
    ctx, pad = vc.ctx, -len(vc.codewords[0]) % r
    written = json.loads(open(path).read())["codewords"]
    for w, blocks in zip(vc.codewords, written):
        assert all(len(b) == r for b in blocks)
        symbols = [ctx.element(s) for b in blocks for s in b]
        assert symbols == list(w.symbols) + [ctx.zero] * pad
    loaded = load_file(path)
    assert loaded.block_len == r
    assert [w.blocks for w in loaded.codewords] == [w.blocks for w in fc.codewords]


def test_a_folded_word_of_no_blocks_loads_whatever_its_block_length():
    obj = object_to_obj(evaluation_folded_code(GF8, singer_difference_set(GF8).members))
    obj.update(block_len="2305843009213693951", codewords=[[]])
    assert [w.blocks for w in load_obj(obj).codewords] == [()]


def test_round_trip_preserves_distances(tmp_path):
    vc = span_code(spread(2, 2, 4), 2)
    path = str(tmp_path / "code.json")
    save_file(path, vc)
    loaded = load_file(path)
    assert code_min_distance(loaded, "insdel").minimum == \
        code_min_distance(vc, "insdel").minimum


def test_as_int_takes_a_json_number_only_within_2_53():
    assert as_int(2 ** 53) == 2 ** 53 and as_int(-2 ** 53) == -2 ** 53
    for v in (2 ** 53 + 1, -2 ** 53 - 1, 2 ** 61 - 1):
        with pytest.raises(ParseError, match=f"^at: expected an integer, got {v}$"):
            as_int(v, "at")
        assert as_int(str(v)) == v


def test_big_integers_serialized_as_strings():
    rep = BoundReport("singleton_hamming", {"n": 100}, 2 ** 80)
    text = dumps_canonical(bound_report_to_obj(rep))
    parsed = json.loads(text)
    assert parsed["value"] == str(2 ** 80)
    assert as_int(parsed["value"]) == 2 ** 80
    for v in (2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1):  # the last int and first strings either side
        assert as_int(json.loads(dumps_canonical({"v": v}))["v"]) == v
    small = BoundReport("half_singleton", {}, 12)
    assert json.loads(dumps_canonical(bound_report_to_obj(small)))["value"] == 12


def test_as_int_rejects_junk():
    # a string is read only in the form the writer emits: ASCII -?[1-9][0-9]* beyond 2^53
    for junk in ["twelve", None, " 2 ", "+2", "\u0662", "0_3", "2", "07",
                 str(2 ** 53), "-0" + str(2 ** 60), "9" * 5000]:
        with pytest.raises(ParseError):
            as_int(junk)


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        load_obj({"kind": "mystery"})
    with pytest.raises(ParseError):
        load_obj({})


def test_load_file_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(ParseError):
        load_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_file(str(bad))


_FIRST_COEFF = {
    "vector_code": lambda d: d["codewords"][0][0],
    "folded_code": lambda d: d["codewords"][0][0][0],
    "rank_code": lambda d: d["members"][0][0],
    "difference_set": lambda d: d["members"][0],
}


@pytest.mark.parametrize("factory", [
    lambda: span_code(spread(2, 2, 4), 2),
    lambda: evaluation_folded_code(GF8, singer_difference_set(GF8).members),
    lambda: gabidulin_code(GF8, 1),
    lambda: singer_difference_set(GF8),
])
@pytest.mark.parametrize("bad", ["a", 5, -1, 1.0, True, None])
def test_symbol_coefficients_must_be_canonical_integers(factory, bad):
    obj = expand(object_to_obj(factory()))
    symbol = _FIRST_COEFF[obj["kind"]](obj)
    symbol[0] = bad
    with pytest.raises(ParseError):
        load_obj(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("factory", [
    lambda: span_code(spread(2, 2, 4), 2),
    lambda: evaluation_folded_code(GF8, singer_difference_set(GF8).members),
    lambda: gabidulin_code(GF8, 1),
    lambda: spread(2, 2, 4),
])
@pytest.mark.parametrize("bad", ["abc", [["a", 1]], 0, False])
def test_provenance_must_be_an_object_or_null(factory, bad):
    obj = expand(object_to_obj(factory()))
    obj["provenance"] = bad
    with pytest.raises(ParseError, match="provenance must be an object or null"):
        load_obj(obj)
    obj["provenance"] = None
    assert load_obj(obj).provenance in (None, {})


def test_load_file_rejects_bad_encoding_and_deep_nesting(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError, match="is not valid JSON: 'utf-8' codec"):
        load_file(str(path))
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ParseError, match="is not valid JSON: maximum recursion depth"):
        load_file(str(path))


def test_generator_row_of_wrong_length_rejected():
    obj = expand(object_to_obj(span_code(spread(2, 2, 4), 2)))
    obj["generator"] = [[]]
    with pytest.raises(ParseError, match="invalid vector code: generator row of wrong length"):
        load_obj(obj)


def test_unhashable_kind_rejected():
    with pytest.raises(ParseError, match="unknown kind"):
        load_obj({"kind": []})


def test_canonical_output_is_stable(tmp_path):
    sc = spread(2, 2, 4)
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    save_file(p1, sc)
    save_file(p2, spread(2, 2, 4))
    assert open(p1).read() == open(p2).read()


def test_atomic_write(tmp_path):
    path = str(tmp_path / "x.txt")
    atomic_write_text(path, "hello\n")
    assert open(path).read() == "hello\n"
    atomic_write_text(path, "world\n")
    assert open(path).read() == "world\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert not leftovers


def test_atomic_write_keeps_its_temp_file_beside_the_target(tmp_path, monkeypatch):
    work = tmp_path / "work"
    (work / "sub").mkdir(parents=True)
    monkeypatch.chdir(work)
    dirs = []
    mkstemp = tempfile.mkstemp
    monkeypatch.setattr(tempfile, "mkstemp", lambda **kw: dirs.append(kw["dir"]) or mkstemp(**kw))
    atomic_write_text("x.txt", "x\n")
    atomic_write_text(os.path.join("sub", "x.txt"), "x\n")
    with pytest.raises(InvalidParams, match="^cannot write : "):
        atomic_write_text("", "x\n")
    assert [os.path.abspath(d) for d in dirs] == [str(work), str(work / "sub"), str(work)]
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_write_follows_umask(tmp_path, umask):
    path = tmp_path / "x.json"
    old = os.umask(umask)
    try:
        save_file(str(path), spread(2, 2, 4))
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_metric_report_serialization():
    vc = span_code(spread(2, 2, 4), 2)
    rep = code_min_distance(vc, "insdel")
    obj = metric_report_to_obj(rep)
    assert obj["metric"] == "insdel"
    assert obj["minimum"] == 4
    assert len(obj["witness"]) == 2
    assert rep.csv_line() == f"insdel,4,{rep.witness_indices[0]},{rep.witness_indices[1]},10"


def test_bounds_csv_projection():
    rows = [BoundReport("levenshtein", {"n": 4, "q": 2}, 4),
            BoundReport("chain", {}, 6, satisfied=True)]
    text = bounds_csv(rows)
    assert text.splitlines() == ["bound,value,satisfied",
                                 "levenshtein,4,",
                                 "chain,6,true"]


# -- the canonical writer against json.dumps -----------------------------------

def _old_encode(obj):
    """The writer's rules before it streamed: a copy of the tree with every int
    beyond +-2^53 as a decimal string, handed to json.dumps."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > 2 ** 53 else obj
    if isinstance(obj, dict):
        return {k: _old_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_old_encode(v) for v in obj]
    return obj


def _oracle(obj) -> str:
    return json.dumps(_old_encode(obj), sort_keys=True, indent=2) + "\n"


_EDGE_INTS = [2 ** 53, -2 ** 53, 2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 200, -(2 ** 200), 0]
_INTS = st.one_of(st.integers(), st.integers(-3, 3), st.sampled_from(_EDGE_INTS))
_SCALARS = st.one_of(
    st.none(), st.booleans(), _INTS, st.text(),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]))
_PACKED = st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(0, 3)).flatmap(
    lambda a: st.lists(st.integers(0, a[0] ** (a[1] * max(a[2], 1)) - 1), max_size=4).map(
        lambda ints: serialize._Packed(tuple(ints), *a)))
_TREES = st.recursive(
    _SCALARS | _PACKED,
    lambda children: st.one_of(
        st.lists(_INTS, max_size=5),  # the writer's one-piece case
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5)),
    max_leaves=30)


def _save_tree(path, tree) -> str:
    """save_file on a tree that object_to_obj hands through unchanged."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "object_to_obj", lambda obj: obj)
        return save_file(path, tree)


def _check_writers(tree):
    want = _oracle(expand(tree))
    assert dumps_canonical(tree) == want
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "tree.json")
        digest = hashlib.sha256(want.encode("ascii")).hexdigest()
        assert _save_tree(path, tree) == digest
        with open(path, "rb") as fh:
            assert fh.read() == want.encode("ascii")
        assert atomic_write_text(path, want) == digest
        assert sha256_file(path) == digest


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps(tree):
    _check_writers(tree)


def test_writer_matches_json_dumps_past_a_flush():
    tree = {"rows": [[i, -i, 2 ** 53 + i, [i % 2 == 0, None, i / 7]] for i in range(3000)],
            "words": ("\u00e9t\u00e9", "\U0001d4d5", "\"\\\n"), "\u00fcber": {}, "e": []}
    assert len(list(serialize._canonical_chunks(tree, []))) > 1
    _check_writers(tree)


@pytest.mark.parametrize("bad", [{1: 2}, {"a": {None: 0}}, [object()], {"f": 1j}])
def test_writer_refuses_what_it_has_no_rule_for(tmp_path, bad):
    with pytest.raises(TypeError):
        dumps_canonical(bad)
    with pytest.raises(TypeError):
        _save_tree(str(tmp_path / "bad.json"), bad)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("factory", [lambda: spread(2, 2, 4), lambda: gabidulin_code(GF8, 1)])
def test_a_provenance_int_beyond_2_53_is_written_as_a_string(factory):
    obj = factory()
    obj.provenance.update(big=2 ** 60, edge=[2 ** 53, -(2 ** 53 + 1)])
    want = _oracle(expand(object_to_obj(obj)))
    assert dumps_canonical(object_to_obj(obj)) == want
    assert json.loads(want)["provenance"]["big"] == str(2 ** 60)
    assert json.loads(want)["provenance"]["edge"] == [2 ** 53, str(-(2 ** 53 + 1))]


def test_empty_runs_are_written_as_empty_arrays():
    assert json.loads(dumps_canonical(object_to_obj(_empty_word_code())))["codewords"] == [[]]
    fc = FoldedCode(F4, 2, (FoldedWord(F4, 2, ()),))
    assert json.loads(dumps_canonical(object_to_obj(fc)))["codewords"] == [[]]
    sc = SubspaceCode(2, 3, [span([], 3, 2)])
    assert json.loads(dumps_canonical(object_to_obj(sc)))["subspaces"] == [{"basis": []}]


@pytest.mark.parametrize("report", [
    lambda: code_min_distance(span_code(spread(3, 1, 2), 3), "insdel"),  # Word witnesses
    lambda: folded_code_min_distance(
        folded_code_from_vector_code(span_code(spread(2, 2, 4), 4), 3), "subset"),  # FoldedWord
    lambda: subspace_code_min_distance(spread(3, 2, 6)),  # Subspace witnesses
])
def test_a_metric_report_is_written_as_json_dumps_writes_its_lists(report):
    rep = report()
    want = _oracle(expand(metric_report_to_obj(rep)))
    assert dumps_canonical(metric_report_to_obj(rep)) == want
    assert len(json.loads(want)["witness"]) == 2


def test_the_text_cache_keeps_apart_leaves_that_differ_in_one_key_field():
    P = serialize._Packed
    tree = {"d": [P((1, 5), 2, 3), P((1, 5), 2, 3, 1), P((1, 5), 3, 3), P((1, 5), 2, 4)],
            "e": P((1, 5), 2, 3)}  # and in indent
    assert dumps_canonical(tree) == _oracle(expand(tree))


def _peak(save) -> int:
    """The tracemalloc peak of save(), in bytes."""
    tracemalloc.start()
    try:
        save()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_saving_a_folded_code_keeps_memory_bounded(tmp_path):
    fc = evaluation_folded_code(FieldCtx(2, 8), singer_difference_set(FieldCtx(2, 8)).members)
    assert _peak(lambda: save_file(str(tmp_path / "folded8.json"), fc)) < 1 << 20  # of 4.5 MB


def test_the_text_cache_stays_bounded_when_few_ints_repeat(tmp_path):
    # 40,000 distinct ints of one (q, n, per, indent), five times what the cache holds;
    # unbounded, the cache peaked at 1.8 times the file size
    tree = [serialize._Packed(range(i * 1000, (i + 1) * 1000), 2, 16) for i in range(40)]
    path = str(tmp_path / "tree.json")
    peak = _peak(lambda: _save_tree(path, tree))
    assert open(path).read() == _oracle(expand(tree))
    assert peak < 0.75 * os.path.getsize(path)


def test_atomic_write_text_writes_utf8_and_returns_its_digest(tmp_path):
    path = tmp_path / "r.csv"
    text = "bound,\u00e9t\u00e9\n"
    assert atomic_write_text(str(path), text) == hashlib.sha256(text.encode()).hexdigest()
    assert path.read_bytes() == text.encode("utf-8")
