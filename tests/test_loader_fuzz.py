"""Fuzzed file input: a mutated artifact loads or raises ParseError, and
every command that reads it exits 0, 1 or 2, with one stderr line unless 0.
An artifact that loads is written back as it was read, apart from defaults.

Each example takes a valid artifact written by save_file and replaces or
deletes one node of its JSON tree."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcodes.cli import main
from fqcodes.constructions import SubspaceCode, spread
from fqcodes.derived import folded_code_from_vector_code, singer_difference_set
from fqcodes.errors import ParseError
from fqcodes.gf import FieldCtx
from fqcodes.linalg import span
from fqcodes.metrics import VectorCode, word
from fqcodes.rankmetric import gabidulin_code
from fqcodes.serialize import dumps_canonical, load_file, load_obj, object_to_obj, save_file

F4 = FieldCtx(2, 2)
GF8 = FieldCtx(2, 3)


def _vector_code():
    return VectorCode.from_generator(F4, [word(F4, [(1, 0), (0, 1)])],
                                     provenance={"construction": "fuzz"})


FACTORIES = {
    "vector_code": _vector_code,
    "rank_code": lambda: gabidulin_code(F4, 1),
    "subspace_code": lambda: spread(2, 2, 4),
    # no constant dimension, and the zero subspace first
    "mixed_subspace_code": lambda: SubspaceCode(2, 3, [span([], 3, 2), span([0b100, 0b010], 3, 2)]),
    "folded_code": lambda: folded_code_from_vector_code(_vector_code(), 2),
    "difference_set": lambda: singer_difference_set(GF8),
}

# Integers stay small, apart from two primes above the characteristic cap,
# so a mutated field is either cheap to build or rejected by that cap.
_INTS = st.integers(-2, 64) | st.sampled_from([2 ** 16 + 1, 2 ** 61 - 1])
_LEAVES = (st.none() | st.booleans() | _INTS | _INTS.map(str)
           | st.floats(-2, 64) | st.text(max_size=3))
_DELETE = object()
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8)


def _paths(obj, prefix=()):
    """Every node, descending only into the first element of a list: the
    other elements have the same shape and would swamp the draw."""
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list) and obj:
        yield from _paths(obj[0], prefix + (0,))


def _mutate(obj, path, value):
    """Replace the node at `path` by `value`, or delete it when `value` is _DELETE."""
    if not path:
        return None if value is _DELETE else value
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    objs = {}
    for kind, make in FACTORIES.items():
        path = root / f"{kind}.json"
        save_file(str(path), make())
        objs[kind] = json.loads(path.read_text())
        load_file(str(path))  # the unmutated artifact loads
    return root / "mutated.json", objs


def _draw_mutated(data, objs):
    """A mutated artifact and the kind of the artifact it came from."""
    kind = data.draw(st.sampled_from(sorted(objs)), label="kind")
    obj = objs[kind]
    where = data.draw(st.sampled_from(list(_paths(obj))), label="path")
    return kind, _mutate(obj, where, data.draw(st.just(_DELETE) | _VALUES, label="value"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_artifact_loads_or_raises_parse_error(artifacts, data):
    path, objs = artifacts
    path.write_text(json.dumps(_draw_mutated(data, objs)[1]))
    try:
        load_file(str(path))
    except ParseError as exc:
        assert "\n" not in str(exc)


# the --metric values that apply to each kind of file; the other kinds get
# one, which they refuse
METRICS = {
    "vector_code": ("hamming", "insdel", "subspace", "subset", "r_subspace", "r_subset"),
    "subspace_code": ("subspace",),
    "mixed_subspace_code": ("subspace",),
    "folded_code": ("subset", "subspace"),
}


def _file_commands(kind, code, out):
    """Every CLI command that reads the file `code`."""
    for metric in METRICS.get(kind, ("subset",)):
        yield ["metric", code, "--metric", metric] + (
            ["--block-len", "2"] if metric.startswith("r_") else [])
    yield ["bounds", "--code", code]
    yield ["simulate", "--code", code, "--trials", "3"]
    yield ["fold", "--code", code, "--block-len", "2", "--out", out]
    for construct in ("span", "all-vectors"):
        yield ["construct", "--kind", construct, "--from", code, "--length", "2", "--out", out]
    yield ["construct", "--kind", "lifted-mrd", "--from", code, "--out", out]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_file_command_exits_without_a_traceback(artifacts, data):
    path, objs = artifacts
    kind, mutated = _draw_mutated(data, objs)
    path.write_text(json.dumps(mutated))
    for argv in _file_commands(kind, str(path), str(path.with_name("out.json"))):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        # exit 1 is a verification failure, such as a lifted rank code that
        # misses the rank distance its file declares
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        if code:
            prefix = "error: " if code == 2 else "verification failure: "
            assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1, argv


# the keys a file may leave out, each written back as null
OPTIONAL = {
    "vector_code": ("generator", "provenance"),
    "rank_code": ("src_field", "declared_rank_distance", "provenance"),
    "subspace_code": ("constant_dim", "declared_distance", "provenance"),
    "folded_code": ("provenance",),
    "difference_set": (),
}


def _written_back(d):
    """d as the writer emits what load_obj reads from it: each missing
    optional key null, an empty provenance null, an int beyond +-2^53 in a
    provenance a decimal string, and a rank code's src_field equal to its
    field null."""
    d = json.loads(dumps_canonical(dict({key: None for key in OPTIONAL[d["kind"]]}, **d)))
    if "provenance" in d:
        d["provenance"] = d["provenance"] or None
    if d["kind"] == "rank_code" and d["src_field"] == d["field"]:
        d["src_field"] = None
    return d


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_artifact_that_loads_is_written_back_as_read(artifacts, data):
    mutated = _draw_mutated(data, artifacts[1])[1]
    try:
        loaded = load_obj(mutated)
    except ParseError:
        return
    assert json.loads(dumps_canonical(object_to_obj(loaded))) == _written_back(mutated)
