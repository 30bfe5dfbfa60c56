"""Canonical JSON interchange for every code object, plus CSV projections.

JSON is the single source of truth on disk; CSV is only a projection for
tabular reports.  Writing is canonical (sorted keys, two-space indent,
trailing newline) and atomic (temp file + rename), so identical runs produce
byte-identical files.  One emitter yields that text in bounded chunks, which
a writer hashes as it writes them and `dumps_canonical` joins.  Integers
beyond the 53-bit float-safe range are emitted as decimal strings, and
readers accept a string only in that form.  A field element is written as
its coefficient list (c_0 first), and so is a subspace basis row; a folded
word's block is its symbols' lists.  The library holds each of the three as
a packed int: this module is the one place outside gf where any takes the
list form.  Subspace bases are checked entry by entry and re-validated as
RREF on read, a folded word's blocks for their length, a code's members for
repeats, and any structural problem surfaces as ParseError.

Every file of a code object carries a "kind" discriminator.  `_KINDS` is
the one table of them: it maps each kind to its class and to the pair of
functions that write and read the rest of the object.  `object_to_obj`
looks the class up there and adds the kind; `load_obj` looks the kind up
and calls its reader.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import tempfile
from json.encoder import encode_basestring_ascii as _quote

from .bounds import BoundReport
from .channel import TrialSummary
from .constructions import SubspaceCode
from .derived import DifferenceSet, FoldedCode
from .errors import FqcodesError, InvalidParams, ParseError
from .gf import FieldCtx, check_characteristic, pack, unpack
from .linalg import Subspace, span
from .metrics import FoldedWord, MetricReport, VectorCode, Word
from .rankmetric import LinearizedPoly, RankCode

_SAFE_INT = 1 << 53
_CHUNK = 8192  # pieces of JSON text joined into one chunk


def _canonical_chunks(x, out: list, pad: str = ""):
    """Yield json.dumps(x, sort_keys=True, indent=2) + "\\n", with every int beyond
    +-2^53 as a decimal string, in chunks of about _CHUNK pieces gathered in out,
    a new list.  A nested call (at indent `pad`) adds its pieces to the caller's."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, dict) and x:
        out.append("{")
        for i, k in enumerate(sorted(x)):  # _quote raises TypeError on a non-str key
            out.append(f"{',' if i else ''}\n{pad}  {_quote(k)}: ")
            yield from _canonical_chunks(x[k], out, pad + "  ")
        out.append(f"\n{pad}}}")
    elif isinstance(x, (list, tuple)) and x:
        if all(type(v) is int for v in x) and -_SAFE_INT <= min(x) and max(x) <= _SAFE_INT:
            out.append(f"[\n{pad}  " + f",\n{pad}  ".join(map(str, x)) + f"\n{pad}]")
        else:
            out.append("[")
            for i, v in enumerate(x):
                out.append(f"{',' if i else ''}\n{pad}  ")
                yield from _canonical_chunks(v, out, pad + "  ")
            out.append(f"\n{pad}]")
    elif isinstance(x, int) and abs(x) > _SAFE_INT:
        out.append(_quote(str(x)))
    else:  # an empty list or dict, None, a bool, an int or a float; TypeError on others
        out.append(json.dumps(x))
    if len(out) > _CHUNK or not pad:  # only the top-level call has pad "": the end
        yield "".join(out) + ("" if pad else "\n")
        out.clear()


def dumps_canonical(obj) -> str:
    return "".join(_canonical_chunks(obj, []))


_BIG_INT = re.compile(r"-?[1-9][0-9]*")


def as_int(v) -> int:
    """A JSON integer, or the decimal string the writer emits for one beyond
    +-2^53; any other string, such as " 2 ", "+2", "07" or "2", is rejected."""
    if type(v) is int:
        return v
    if isinstance(v, str) and _BIG_INT.fullmatch(v):
        try:
            if abs(n := int(v)) > _SAFE_INT:
                return n
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"expected an integer, got {v!r}")


def _parses(what: str):
    """Make a loader raise only ParseError: `malformed <what>` for a missing
    key or a wrong JSON type, `invalid <what>` for a value the library rejects."""
    def decorate(loader):
        @functools.wraps(loader)
        def load(d):
            try:
                return loader(d)
            except (KeyError, TypeError) as exc:
                raise ParseError(f"malformed {what}: {exc}") from exc
            except FqcodesError as exc:
                raise ParseError(f"invalid {what}: {exc}") from exc
        return load
    return decorate


def _distinct(keys: list, what: str) -> None:
    """A file lists each member of a code once; the library would drop a repeat."""
    if len(set(keys)) != len(keys):
        raise InvalidParams(f"{what} must be distinct")


def _provenance(d):
    """The optional provenance of a code file: an object or null."""
    prov = d.get("provenance")
    if prov is not None and not isinstance(prov, dict):
        raise ParseError(f"provenance must be an object or null, not {type(prov).__name__}")
    return prov


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

def _symbol_from_obj(ctx: FieldCtx, coeffs) -> int:
    """A symbol read from a file: its integer coefficients, each in [0, q)."""
    return ctx.element([as_int(c) for c in coeffs])


def field_to_obj(ctx: FieldCtx) -> dict:
    return {"q": ctx.q, "n": ctx.n, "modulus": list(ctx.modulus)}


@_parses("field object")
def field_from_obj(d) -> FieldCtx:
    return FieldCtx(as_int(d["q"]), as_int(d["n"]), [as_int(c) for c in d["modulus"]])


# -- subspaces -------------------------------------------------------------

def _basis_to_lists(s: Subspace) -> list:
    return [list(unpack(r, s.q, s.ambient)) for r in s.rows]


def _subspace_from_lists(q: int, ambient: int, basis) -> Subspace:
    """A subspace read from its basis: rows of `ambient` entries in [0, q)
    that already form a zero-row-free RREF matrix."""
    rows = []
    for r in basis:
        r = [as_int(e) for e in r]
        if len(r) != ambient:
            raise InvalidParams(f"basis row of length {len(r)} in ambient {ambient}")
        for e in r:
            if not 0 <= e < q:
                raise InvalidParams(f"basis entry {e} is not in [0, {q})")
        rows.append(pack(r, q))
    s = span(rows, ambient, q)
    if s.rows != tuple(rows):
        raise InvalidParams("subspace basis must be a zero-row-free RREF matrix")
    return s


def subspace_to_obj(s: Subspace) -> dict:
    return {"ambient": s.ambient, "q": s.q, "basis": _basis_to_lists(s)}


# -- vector codes ----------------------------------------------------------

def _word_to_lists(w: Word):
    return [list(w.ctx.coefficients(s)) for s in w.symbols]


def _word_from_lists(ctx: FieldCtx, w) -> Word:
    return Word(ctx, tuple(_symbol_from_obj(ctx, s) for s in w))


def vector_code_to_obj(c: VectorCode) -> dict:
    return {
        "field": field_to_obj(c.ctx),
        "length": c.length,
        "codewords": [_word_to_lists(w) for w in c.codewords],
        "generator": ([_word_to_lists(w) for w in c.generator]
                      if c.generator is not None else None),
        "provenance": c.provenance or None,
    }


@_parses("vector code")
def vector_code_from_obj(d) -> VectorCode:
    ctx = field_from_obj(d["field"])
    length = as_int(d["length"])
    codewords = [_word_from_lists(ctx, w) for w in d["codewords"]]
    _distinct([w.symbols for w in codewords], "codewords")
    generator = d.get("generator")
    if generator is not None:
        generator = [_word_from_lists(ctx, w) for w in generator]
    return VectorCode(ctx, length, codewords, generator=generator, provenance=_provenance(d))


# -- rank codes --------------------------------------------------------------

def rank_code_to_obj(c: RankCode) -> dict:
    return {
        "field": field_to_obj(c.ctx),
        "src_field": field_to_obj(c.src) if c.src is not None else None,
        "t": c.t,
        "declared_rank_distance": c.declared_rank_distance,
        "members": [[list(c.ctx.coefficients(a)) for a in p.coeffs] for p in c.members],
        "provenance": c.provenance or None,
    }


@_parses("rank code")
def rank_code_from_obj(d) -> RankCode:
    ctx = field_from_obj(d["field"])
    src = d.get("src_field")
    src = field_from_obj(src) if src is not None else None
    members = [LinearizedPoly(ctx, tuple(_symbol_from_obj(ctx, a) for a in coeffs), src)
               for coeffs in d["members"]]
    declared = d.get("declared_rank_distance")
    return RankCode(ctx, members, as_int(d["t"]), src=src,
                    declared_rank_distance=as_int(declared) if declared is not None else None,
                    provenance=_provenance(d))


# -- subspace codes ----------------------------------------------------------

def subspace_code_to_obj(sc: SubspaceCode) -> dict:
    return {
        "q": sc.q,
        "ambient": sc.ambient,
        "constant_dim": sc.constant_dim,
        "declared_distance": sc.declared_distance,
        "subspaces": [{"basis": _basis_to_lists(s)} for s in sc.members],
        "provenance": sc.provenance or None,
    }


@_parses("subspace code")
def subspace_code_from_obj(d) -> SubspaceCode:
    q = as_int(d["q"])
    check_characteristic(q)
    ambient = as_int(d["ambient"])
    members = [_subspace_from_lists(q, ambient, entry["basis"]) for entry in d["subspaces"]]
    _distinct([s.rows for s in members], "subspaces")
    cdim = d.get("constant_dim")
    dist = d.get("declared_distance")
    return SubspaceCode(q, ambient, members,
                        constant_dim=as_int(cdim) if cdim is not None else None,
                        declared_distance=as_int(dist) if dist is not None else None,
                        provenance=_provenance(d))


# -- folded codes -------------------------------------------------------------

def _blocks_to_lists(w: FoldedWord):
    """Each block as its symbols' coefficient lists: its n r base-q digits in runs of n."""
    n, q, width = w.ctx.n, w.ctx.q, w.ctx.n * w.block_len
    return [[list(d[i:i + n]) for i in range(0, width, n)]
            for d in (unpack(b, q, width) for b in w.blocks)]


def folded_code_to_obj(fc: FoldedCode) -> dict:
    return {
        "field": field_to_obj(fc.ctx),
        "block_len": fc.block_len,
        "codewords": [_blocks_to_lists(w) for w in fc.codewords],
        "provenance": fc.provenance or None,
    }


@_parses("folded code")
def folded_code_from_obj(d) -> FoldedCode:
    ctx = field_from_obj(d["field"])
    block_len = as_int(d["block_len"])
    words = []
    for w in d["codewords"]:
        if any(len(blk) != block_len for blk in w):
            raise InvalidParams("ragged block in folded word")
        blocks = tuple(pack([_symbol_from_obj(ctx, s) for s in blk], ctx.order) for blk in w)
        words.append(FoldedWord(ctx, block_len, blocks))
    # a bad block_len is named before a repeat: words of no blocks are all equal
    fc = FoldedCode(ctx, block_len, tuple(words), _provenance(d))
    _distinct([w.blocks for w in words], "codewords")
    return fc


# -- difference sets -----------------------------------------------------------

def difference_set_to_obj(ds: DifferenceSet) -> dict:
    return {
        "field": field_to_obj(ds.ctx),
        "members": [list(ds.ctx.coefficients(m)) for m in ds.members],
        "v": ds.v,
        "k": ds.k,
        "lambda": ds.lam,
    }


@_parses("difference set")
def difference_set_from_obj(d) -> DifferenceSet:
    ctx = field_from_obj(d["field"])
    members = tuple(_symbol_from_obj(ctx, m) for m in d["members"])
    return DifferenceSet(ctx, members, as_int(d["v"]), as_int(d["k"]),
                         as_int(d["lambda"]))


# -- reports ---------------------------------------------------------------------

def _witness_to_obj(item):
    """A sweep's witness: a Word, a FoldedWord or a Subspace."""
    if isinstance(item, Word):
        return {"word": _word_to_lists(item)}
    if isinstance(item, FoldedWord):
        return {"blocks": _blocks_to_lists(item)}
    return {"basis": _basis_to_lists(item)}


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
    return {"kind": "bound_report", **dataclasses.asdict(r)}


def bounds_csv(reports) -> str:
    lines = ["bound,value,satisfied"]
    for r in reports:
        sat = "" if r.satisfied is None else str(r.satisfied).lower()
        lines.append(f"{r.bound},{r.value},{sat}")
    return "\n".join(lines) + "\n"


def trial_summary_to_obj(s: TrialSummary) -> dict:
    fields = {f.name: getattr(s, f.name) for f in dataclasses.fields(s) if f.name != "records"}
    return {"kind": "trial_summary", "success_rate": s.success_rate, **fields}


# kind on disk -> (class, writer of the rest of the object, reader)
_KINDS = {
    "vector_code": (VectorCode, vector_code_to_obj, vector_code_from_obj),
    "rank_code": (RankCode, rank_code_to_obj, rank_code_from_obj),
    "subspace_code": (SubspaceCode, subspace_code_to_obj, subspace_code_from_obj),
    "folded_code": (FoldedCode, folded_code_to_obj, folded_code_from_obj),
    "difference_set": (DifferenceSet, difference_set_to_obj, difference_set_from_obj),
}


def object_to_obj(obj) -> dict:
    for kind, (cls, to_obj, _) in _KINDS.items():
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
    return _KINDS[kind][2](d)


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
