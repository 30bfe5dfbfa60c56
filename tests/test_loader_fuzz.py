"""Fuzzed loader input: a mutated artifact loads or raises ParseError, nothing else.

Each example takes a valid artifact written by save_file and replaces or
deletes one node of its JSON tree."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqcodes.constructions import spread
from fqcodes.derived import folded_code_from_vector_code, singer_difference_set
from fqcodes.errors import ParseError
from fqcodes.gf import FieldCtx
from fqcodes.metrics import VectorCode, word
from fqcodes.rankmetric import gabidulin_code
from fqcodes.serialize import load_file, save_file

F4 = FieldCtx(2, 2)
GF8 = FieldCtx(2, 3)


def _vector_code():
    return VectorCode.from_generator(F4, [word(F4, [(1, 0), (0, 1)])],
                                     provenance={"construction": "fuzz"})


FACTORIES = {
    "vector_code": _vector_code,
    "rank_code": lambda: gabidulin_code(F4, 1),
    "subspace_code": lambda: spread(2, 2, 4),
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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_artifact_loads_or_raises_parse_error(artifacts, data):
    path, objs = artifacts
    obj = objs[data.draw(st.sampled_from(sorted(objs)), label="kind")]
    where = data.draw(st.sampled_from(list(_paths(obj))), label="path")
    mutated = _mutate(obj, where, data.draw(st.just(_DELETE) | _VALUES, label="value"))
    path.write_text(json.dumps(mutated))
    try:
        load_file(str(path))
    except ParseError as exc:
        assert "\n" not in str(exc)
