"""Canonical JSON interchange for every code object, plus CSV projections.

JSON is the single source of truth on disk; CSV is only a projection for
tabular reports.  Writing is canonical (sorted keys, two-space indent,
trailing newline) and atomic (temp file + rename), so identical runs produce
byte-identical files.  One emitter yields that text in bounded chunks, which
a writer hashes as it writes them and `dumps_canonical` joins.  Integers
beyond the 53-bit float-safe range are emitted as decimal strings, and
readers accept such an integer only in that form.  A field element is
written as its coefficient list (c_0 first), and so is a subspace basis
row; a folded word's block is its symbols' lists.  The library holds each
of the three as a packed int, and so do the trees the `*_to_obj` writers
return: a word, a folded word's blocks, a basis, a rank-code member and a
difference set's members are each one `_Packed` leaf, a run of packed
ints.  The emitter writes a leaf from a cache of each int's text, keyed
by (q, n, per, indent), so a symbol is unpacked once per artifact, not
once per use, and it yields a chunk after each leaf.  Readers take the
list form, which no tree holds.

Every file of a code object carries a "kind" discriminator.  `_KINDS` is
the one table of them: each kind's class, writer, reader and JSON shape.
`load_obj` checks a file against its shape with `_read`, then calls the
reader, and is the one place that names the kind in a ParseError:
`malformed <kind>` for a misfit, `invalid <kind>` for a value the library
rejects, such as a basis not in RREF or a repeated member.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .bounds import BoundReport
from .channel import TrialSummary
from .constructions import SubspaceCode
from .derived import DifferenceSet, FoldedCode
from .errors import FqcodesError, InvalidParams, ParseError
from .gf import FieldCtx, check_characteristic, check_ints, pack, unpack
from .linalg import Subspace
from .metrics import FoldedWord, MetricReport, VectorCode, Word, word
from .rankmetric import LinearizedPoly, RankCode

_SAFE_INT = 1 << 53
_CHUNK = 8192  # pieces of JSON text joined into one chunk; also the text cache's size


class _Packed:
    """A run of packed ints, which the emitter writes as one JSON array: each
    int as the array of its n base-q digits (gf.unpack), or, for per > 0, as
    per such arrays cut from its n * per digits, as a folded block is.  Every
    run of symbols, blocks or basis rows a writer emits is one such leaf."""

    __slots__ = ("ints", "q", "n", "per")

    def __init__(self, ints: tuple, q: int, n: int, per: int = 0):
        self.ints, self.q, self.n, self.per = ints, q, n, per


def _array(items: list, pad: str) -> str:
    """The JSON array, at indent `pad`, of items already rendered as text."""
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]" if items else "[]"


def _packed_text(x: int, leaf: _Packed, pad: str) -> str:
    """The text of x, one int of `leaf`, as an element of it at indent `pad`."""
    n, inner = leaf.n, pad + "  "
    digits = [*map(str, unpack(x, leaf.q, n * (leaf.per or 1)))]  # each < q, a small int
    if not leaf.per:
        return _array(digits, pad)
    return _array([_array(digits[i:i + n], inner) for i in range(0, n * leaf.per, n)], pad)


def _canonical_chunks(x, out: list, pad: str = "", texts: dict | None = None):
    """Yield json.dumps(x, sort_keys=True, indent=2) + "\\n", with every int beyond
    +-2^53 as a decimal string and every _Packed leaf as the arrays it stands
    for, in chunks of about _CHUNK pieces gathered in out, a new list, and a
    chunk after each leaf.  A nested call (at indent `pad`) adds its pieces to
    the caller's and shares `texts`: per (q, n, per, indent), each int's text
    as a leaf element, the same for every leaf of that key."""
    if texts is None:
        texts = {}
    if type(x) is _Packed:
        cache = texts.setdefault((x.q, x.n, x.per, pad), {})
        if len(cache) > _CHUNK:  # bounds the cache when few ints repeat
            cache.clear()
        for v in set(x.ints).difference(cache):
            cache[v] = _packed_text(v, x, pad + "  ")
        out.append(_array([*map(cache.__getitem__, x.ints)], pad))
    elif isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, dict) and x:
        out.append("{")
        for i, k in enumerate(sorted(x)):  # _quote raises TypeError on a non-str key
            out.append(f"{',' if i else ''}\n{pad}  {_quote(k)}: ")
            yield from _canonical_chunks(x[k], out, pad + "  ", texts)
        out.append(f"\n{pad}}}")
    elif isinstance(x, (list, tuple)) and x:
        out.append("[")
        for i, v in enumerate(x):
            out.append(f"{',' if i else ''}\n{pad}  ")
            yield from _canonical_chunks(v, out, pad + "  ", texts)
        out.append(f"\n{pad}]")
    elif isinstance(x, int) and abs(x) > _SAFE_INT:
        out.append(_quote(str(x)))
    else:  # an empty list or dict, None, a bool, an int or a float; TypeError on others
        out.append(json.dumps(x))
    if len(out) > _CHUNK or not pad or type(x) is _Packed:  # pad "" only at the top: the end
        yield "".join(out) + ("" if pad else "\n")
        out.clear()


def dumps_canonical(obj) -> str:
    return "".join(_canonical_chunks(obj, []))


_BIG_INT = re.compile(r"-?[1-9][0-9]*")


def as_int(v, at: str = "") -> int:
    """An integer in the one form the writer emits: a JSON integer within
    +-2^53, a decimal string beyond it.  Anything else, such as a number
    beyond +-2^53, "+2" or "07", is rejected (at path `at`)."""
    if type(v) is int and -_SAFE_INT <= v <= _SAFE_INT:
        return v
    if isinstance(v, str) and _BIG_INT.fullmatch(v):
        try:
            if abs(n := int(v)) > _SAFE_INT:
                return n
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"{at}: " * bool(at) + f"expected an integer, got {v!r}")


def _read(v, shape, at: str):
    """v checked against `shape` and returned as plain ints, lists and dicts.
    A shape is int; [s], an array of s; {key: s}, an object of exactly those
    keys, returned with all of them; dict, any object; or (s,), s or null,
    which a missing key reads as (any other missing key is an error).  `at`
    is v's path, "" at the top."""
    if type(shape) is tuple and v is None:
        return None
    shape, null = (shape[0], " or null") if type(shape) is tuple else (shape, "")
    if shape is int:
        return as_int(v, at)
    if type(v) is not (list if type(shape) is list else dict):
        what = "an array" if type(shape) is list else "an object"
        raise ParseError(f"{at} must be {what}{null}, not {type(v).__name__}")
    if type(shape) is list:
        todo = [(shape[0], v)]  # fast path: whether v fits as it is, a level at a time
        for s, nodes in todo:  # in C where it can; an array of objects key by key
            if type(s) is list and {*map(type, nodes)} <= {list}:
                todo.append((s[0], [*chain.from_iterable(nodes)]))
            elif type(s) is dict and all(type(n) is dict and n.keys() == s.keys() for n in nodes):
                todo += [(t, [n[k] for n in nodes]) for k, t in s.items()]
            elif not (s is int and {*map(type, nodes)} <= {int}):
                break
        else:
            return v
        return [_read(x, shape[0], f"{at}[{i}]") for i, x in enumerate(v)]
    if shape is dict:
        return v
    where = f" in {at}" * bool(at)
    if not v.keys() <= shape.keys():
        raise ParseError(f"unknown key {min(v.keys() - shape.keys())!r}{where}")
    if missing := {k for k, s in shape.items() if type(s) is not tuple} - v.keys():
        raise ParseError(f"missing key {min(missing)!r}{where}")
    return {k: _read(v.get(k), s, f"{at}.{k}" if at else k) for k, s in shape.items()}


def _distinct(keys: list, what: str) -> None:
    """A file lists each member of a code once; the library would drop a repeat."""
    if len(set(keys)) != len(keys):
        raise InvalidParams(f"{what} must be distinct")


def _umask() -> int:
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write_text(path: str, text) -> str:
    """Write text (a str or an iterable of str chunks) to path as UTF-8 through a
    temp file and a rename; return the SHA-256 of the bytes, hashed as written.
    A path that cannot be written raises InvalidParams naming it."""
    tmp = None
    h = hashlib.sha256()
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-fqcodes-")
        with os.fdopen(fd, "wb") as fh:
            for chunk in [text] if isinstance(text, str) else text:
                h.update(data := chunk.encode("utf-8"))
                fh.write(data)
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except OSError as exc:
        raise InvalidParams(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return h.hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# -- field ---------------------------------------------------------------

def field_to_obj(ctx: FieldCtx) -> dict:
    return {"q": ctx.q, "n": ctx.n, "modulus": list(ctx.modulus)}


def field_from_obj(d) -> FieldCtx:
    return FieldCtx(d["q"], d["n"], d["modulus"])


# -- subspaces -------------------------------------------------------------

def _subspace_from_lists(q: int, ambient: int, basis) -> Subspace:
    """A subspace read from its basis: rows of `ambient` entries in [0, q)
    that already form a zero-row-free RREF matrix, checked as such: each
    row's first nonzero entry, its pivot, is 1 and lies right of the pivot
    above, and every other entry of a pivot's column is 0."""
    for r in basis:
        if len(r) != ambient:
            raise InvalidParams(f"basis row of length {len(r)} in ambient {ambient}")
        check_ints(r, q, "basis entry")
    pivots = [next((j for j, e in enumerate(r) if e), None) for r in basis]
    rref = (None not in pivots and all(r[j] == 1 for j, r in zip(pivots, basis))
            and all(a < b for a, b in zip(pivots, pivots[1:]))
            and not any(r[j] for i, r in enumerate(basis) for j in pivots[i + 1:]))
    if not rref:
        raise InvalidParams("subspace basis must be a zero-row-free RREF matrix")
    return Subspace(q, ambient, tuple(pack(r, q) for r in basis))


def _basis(s: Subspace) -> _Packed:
    return _Packed(s.rows, s.q, s.ambient)


# -- vector codes ----------------------------------------------------------

def _symbols(w: Word) -> _Packed:
    return _Packed(w.symbols, w.ctx.q, w.ctx.n)


def vector_code_to_obj(c: VectorCode) -> dict:
    return {
        "field": field_to_obj(c.ctx),
        "length": c.length,
        "codewords": [_symbols(w) for w in c.codewords],
        "generator": ([_symbols(w) for w in c.generator]
                      if c.generator is not None else None),
        "provenance": c.provenance or None,
    }


def vector_code_from_obj(d) -> VectorCode:
    ctx = field_from_obj(d["field"])
    codewords = [word(ctx, w) for w in d["codewords"]]
    _distinct([w.symbols for w in codewords], "codewords")
    gen = [word(ctx, w) for w in d["generator"]] if d["generator"] is not None else None
    return VectorCode(ctx, d["length"], codewords, generator=gen, provenance=d["provenance"])


# -- rank codes --------------------------------------------------------------

def rank_code_to_obj(c: RankCode) -> dict:
    return {
        "field": field_to_obj(c.ctx),
        "src_field": field_to_obj(c.src) if c.src is not None else None,
        "t": c.t,
        "declared_rank_distance": c.declared_rank_distance,
        "members": [_Packed(p.coeffs, c.ctx.q, c.ctx.n) for p in c.members],
        "provenance": c.provenance or None,
    }


def rank_code_from_obj(d) -> RankCode:
    ctx = field_from_obj(d["field"])
    src = field_from_obj(d["src_field"]) if d["src_field"] is not None else None
    members = [LinearizedPoly(ctx, tuple(map(ctx.element, coeffs)), src)
               for coeffs in d["members"]]
    return RankCode(ctx, members, d["t"], src=src, provenance=d["provenance"],
                    declared_rank_distance=d["declared_rank_distance"])


# -- subspace codes ----------------------------------------------------------

def subspace_code_to_obj(sc: SubspaceCode) -> dict:
    return {
        "q": sc.q,
        "ambient": sc.ambient,
        "constant_dim": sc.constant_dim,
        "declared_distance": sc.declared_distance,
        "subspaces": [{"basis": _basis(s)} for s in sc.members],
        "provenance": sc.provenance or None,
    }


def subspace_code_from_obj(d) -> SubspaceCode:
    q, ambient = d["q"], d["ambient"]
    check_characteristic(q)
    members = [_subspace_from_lists(q, ambient, entry["basis"]) for entry in d["subspaces"]]
    _distinct([s.rows for s in members], "subspaces")
    return SubspaceCode(q, ambient, members, constant_dim=d["constant_dim"],
                        declared_distance=d["declared_distance"], provenance=d["provenance"])


# -- folded codes -------------------------------------------------------------

def _blocks(w: FoldedWord) -> _Packed:
    return _Packed(w.blocks, w.ctx.q, w.ctx.n, w.block_len)


def folded_code_to_obj(fc: FoldedCode) -> dict:
    return {
        "field": field_to_obj(fc.ctx),
        "block_len": fc.block_len,
        "codewords": [_blocks(w) for w in fc.codewords],
        "provenance": fc.provenance or None,
    }


def folded_code_from_obj(d) -> FoldedCode:
    ctx, block_len = field_from_obj(d["field"]), d["block_len"]
    words = []
    for w in d["codewords"]:
        if any(len(blk) != block_len for blk in w):
            raise InvalidParams("ragged block in folded word")
        blocks = tuple(pack(list(map(ctx.element, blk)), ctx.order) for blk in w)
        words.append(FoldedWord(ctx, block_len, blocks))
    _distinct([w.blocks for w in words], "codewords")
    return FoldedCode(ctx, block_len, tuple(words), d["provenance"])


# -- difference sets -----------------------------------------------------------

def difference_set_to_obj(ds: DifferenceSet) -> dict:
    return {
        "field": field_to_obj(ds.ctx),
        "members": _Packed(ds.members, ds.ctx.q, ds.ctx.n),
        "v": ds.v,
        "k": ds.k,
        "lambda": ds.lam,
    }


def difference_set_from_obj(d) -> DifferenceSet:
    ctx = field_from_obj(d["field"])
    return DifferenceSet(ctx, tuple(map(ctx.element, d["members"])), d["v"], d["k"], d["lambda"])


# -- reports ---------------------------------------------------------------------

def _witness_to_obj(item):
    """A sweep's witness: a Word, a FoldedWord or a Subspace."""
    if isinstance(item, Word):
        return {"word": _symbols(item)}
    if isinstance(item, FoldedWord):
        return {"blocks": _blocks(item)}
    return {"basis": _basis(item)}


def metric_report_to_obj(r: MetricReport) -> dict:
    return {
        "kind": "metric_report",
        "metric": r.metric,
        "minimum": r.minimum,
        "witness_indices": list(r.witness_indices),
        "witness": [_witness_to_obj(w) for w in r.witness],
        "pairs": r.pairs,
        "notes": r.notes,
    }


def bound_report_to_obj(r: BoundReport) -> dict:
    return {"kind": "bound_report", **{k: getattr(r, k) for k in r.__slots__}}


def bounds_csv(reports) -> str:
    lines = ["bound,value,satisfied"]
    for r in reports:
        sat = "" if r.satisfied is None else str(r.satisfied).lower()
        lines.append(f"{r.bound},{r.value},{sat}")
    return "\n".join(lines) + "\n"


def trial_summary_to_obj(s: TrialSummary) -> dict:
    fields = {k: getattr(s, k) for k in s.__slots__ if k != "records"}
    return {"kind": "trial_summary", "success_rate": s.success_rate, **fields}


_FIELD = {"q": int, "n": int, "modulus": [int]}
# kind on disk -> (class, writer of the rest of the object, reader, its shape)
_KINDS = {
    "vector_code": (VectorCode, vector_code_to_obj, vector_code_from_obj, {
        "field": _FIELD, "length": int, "codewords": [[[int]]],
        "generator": ([[[int]]],), "provenance": (dict,)}),
    "rank_code": (RankCode, rank_code_to_obj, rank_code_from_obj, {
        "field": _FIELD, "src_field": (_FIELD,), "t": int, "members": [[[int]]],
        "declared_rank_distance": (int,), "provenance": (dict,)}),
    "subspace_code": (SubspaceCode, subspace_code_to_obj, subspace_code_from_obj, {
        "q": int, "ambient": int, "subspaces": [{"basis": [[int]]}],
        "constant_dim": (int,), "declared_distance": (int,), "provenance": (dict,)}),
    "folded_code": (FoldedCode, folded_code_to_obj, folded_code_from_obj, {
        "field": _FIELD, "block_len": int, "codewords": [[[[int]]]], "provenance": (dict,)}),
    "difference_set": (DifferenceSet, difference_set_to_obj, difference_set_from_obj, {
        "field": _FIELD, "members": [[int]], "v": int, "k": int, "lambda": int}),
}


def object_to_obj(obj) -> dict:
    for kind, (cls, to_obj, _, _) in _KINDS.items():
        if isinstance(obj, cls):
            return {"kind": kind, **to_obj(obj)}
    raise ParseError(f"cannot serialize {type(obj).__name__}")


def load_obj(d):
    try:
        kind = d["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError("file has no 'kind' discriminator") from exc
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    _, _, reader, shape = _KINDS[kind]
    try:
        return reader(_read({k: x for k, x in d.items() if k != "kind"}, shape, ""))
    except ParseError as exc:  # only _read raises it
        raise ParseError(f"malformed {kind.replace('_', ' ')}: {exc}") from None
    except FqcodesError as exc:
        raise ParseError(f"invalid {kind.replace('_', ' ')}: {exc}") from exc


def load_file(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return load_obj(d)


def save_file(path: str, obj) -> str:
    """Write obj's canonical JSON to path atomically; return its SHA-256."""
    return atomic_write_text(path, _canonical_chunks(object_to_obj(obj), []))
