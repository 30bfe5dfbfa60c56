"""Command-line surface: construct, metric, verify, bounds, simulate, fold.

Every command has one shape: check its options, load its input files, compute,
write its artifact, record a manifest, print.  An input file is loaded in
`_load`, which checks that it holds the expected kind of object; a command
that writes a file records `<out>.manifest.json` through `_write_manifest`,
with the exact argv, parameters, modulus, seed and SHA-256 hashes of all
inputs and the output.  Only `simulate` and `verify` draw random numbers,
so only they take `--seed`; every other manifest records seed 0.  Nothing
in an output depends on wall-clock state, so re-running a manifest's argv
reproduces the files byte for byte.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .bounds import (
    BoundReport,
    half_singleton,
    klo_bound,
    levenshtein_bound,
    singleton_bound,
    verify_bounds,
)
from .channel import ChannelSpec, run_trials
from .constructions import (
    SubspaceCode,
    block_enlarged_family,
    lift_rank_code,
    orbit_cyclic_code,
    sidon_search,
    spread,
    subspace_code_min_distance,
)
from .derived import (
    DifferenceSet,
    FoldedCode,
    all_vectors_code,
    evaluation_folded_code,
    folded_code_from_vector_code,
    folded_code_min_distance,
    singer_difference_set,
    span_code,
)
from .errors import FqcodesError, InvalidParams, PropertyViolation
from .gf import FieldCtx, unpack
from .metrics import VectorCode, code_min_distance
from .rankmetric import RankCode, gabidulin_code, rank_distance_of_code
from .serialize import (
    atomic_write_text,
    bound_report_to_obj,
    bounds_csv,
    dumps_canonical,
    field_to_obj,
    load_file,
    metric_report_to_obj,
    save_file,
    sha256_file,
    trial_summary_to_obj,
)
from .suites import SUITE_OPTIONS, SUITES, run_suites

# The options each construction kind needs, then the ones it may also take,
# by argparse dest: all that it reads, so any other exits 2.  --q is 2 where
# it is not given.  lifted-mrd given --from reads that file and nothing else.
CONSTRUCT_KINDS = {
    "gabidulin": (("n", "t"), ("q", "modulus")),
    "lifted-mrd": (("n", "t"), ("q", "modulus", "from_path")),
    "spread": (("k", "n"), ("q",)),
    "sidon-orbit": (("n", "k"), ("q", "modulus")),
    "block-enlarged": (("n", "t"), ("q", "modulus")),
    "span": (("from_path", "length"), ()),
    "all-vectors": (("from_path", "length"), ()),
    "folded-eval": (("n",), ("modulus", "ds_path")),
    "singer-ds": (("n",), ("modulus",)),
}
_KIND_OPTIONS = tuple(dict.fromkeys(d for needs, may in CONSTRUCT_KINDS.values()
                                    for d in needs + may))
_INPUT_PARAMS = {"from_path": "source", "ds_path": "ds"}  # manifest names of input files


def _load(path: str, cls, what: str):
    """The object stored in `path`, which must be a `what` (an instance of cls)."""
    obj = load_file(path)
    if not isinstance(obj, cls):
        raise InvalidParams(f"{path} is not a {what} file")
    return obj


def _write_manifest(args, params: dict, inputs, digest: str, field=None) -> None:
    """Record how `args.out` was made: the command, its argv, parameters, seed
    and field, the SHA-256 of every input, and `digest`, that of the output."""
    manifest = {
        "kind": "run_manifest",
        "tool": "fqcodes",
        "version": __version__,
        "command": args.command,
        "argv": args._argv,
        "params": params,
        "seed": getattr(args, "seed", 0),
        "field": field,
        "inputs": {p: sha256_file(p) for p in inputs},
        "outputs": {args.out: digest},
    }
    atomic_write_text(args.out + ".manifest.json", dumps_canonical(manifest))


def _render(args, obj: dict, csv_text: str) -> str:
    return csv_text if args.format == "csv" else dumps_canonical(obj)


def _emit(args, obj: dict, csv_text: str) -> int:
    """Print the command's result in its --format."""
    sys.stdout.write(_render(args, obj, csv_text))
    return 0


def _report(args, obj: dict, csv_text: str, params: dict, inputs) -> int:
    """Print a report; with --out, first write the same text and its manifest."""
    text = _render(args, obj, csv_text)
    if args.out is not None:
        _write_manifest(args, params, inputs, atomic_write_text(args.out, text))
    sys.stdout.write(text)
    return 0


def _flag(dest: str) -> str:
    return "--" + dest.removesuffix("_path").replace("_", "-")


def _kind_reads(args) -> tuple:
    """The options --kind needs and the ones it may also take."""
    if args.kind == "lifted-mrd" and args.from_path is not None:
        return ("from_path",), ()
    return CONSTRUCT_KINDS[args.kind]


def check_options(args) -> None:
    """Exit 2 on a missing option, or on a given one that the command does not read."""
    unread = ()
    if args.command == "construct":
        needs, may = _kind_reads(args)
        missing = [_flag(d) for d in needs if getattr(args, d) is None]
        if missing:
            raise InvalidParams(f"--kind {args.kind} needs {' and '.join(missing)}")
        owner, unread = f"--kind {args.kind}", [d for d in _KIND_OPTIONS if d not in needs + may]
    elif args.command == "verify":
        keys = SUITES if args.suite == "all" else [args.suite]
        reads = {d for key in keys for d in SUITE_OPTIONS.get(key, ())}
        owner, unread = f"--suite {args.suite}", [d for d in ("samples", "seed") if d not in reads]
    elif args.command == "metric" and not args.metric.startswith("r_"):
        owner, unread = f"--metric {args.metric}", ("block_len",)
    elif args.command == "bounds" and args.code is not None:
        owner, unread = "--code", ("n", "q", "k", "d")
    elif args.command == "bounds" and None in (args.n, args.q):
        raise InvalidParams("bounds need --code or both --n and --q")
    given = [_flag(d) for d in unread if getattr(args, d) is not None]
    if given:
        raise InvalidParams(f"{owner} does not take {' or '.join(given)}")


def _cmd_construct(args) -> int:
    kind = args.kind
    needs, may = _kind_reads(args)
    q = 2 if args.q is None else args.q
    ctx = FieldCtx(q, args.n, args.modulus) if "modulus" in may else None
    if kind == "gabidulin":
        obj = gabidulin_code(ctx, args.t)
        measured = rank_distance_of_code(obj)
        if measured != obj.declared_rank_distance:
            raise PropertyViolation(
                f"rank distance {measured} != declared {obj.declared_rank_distance}")
        obj.provenance["verified_rank_distance"] = measured
    elif kind == "lifted-mrd":
        if args.from_path is not None:
            rc = _load(args.from_path, RankCode, "rank code")
        else:
            rc = gabidulin_code(ctx, args.t)
        obj = lift_rank_code(rc)
    elif kind == "spread":
        obj = spread(q, args.k, args.n)
    elif kind == "sidon-orbit":
        sidon = sidon_search(ctx, args.k)
        obj = orbit_cyclic_code(ctx, sidon)
        obj.declared_distance = max(2 * args.k - 2, 2)  # the orbit of a line is every line
        obj.provenance["sidon_basis"] = [list(unpack(r, q, sidon.ambient)) for r in sidon.rows]
    elif kind == "block-enlarged":
        obj = block_enlarged_family(ctx, args.t)
    elif kind in ("span", "all-vectors"):
        builder = span_code if kind == "span" else all_vectors_code
        obj = builder(_load(args.from_path, SubspaceCode, "subspace code"), args.length)
        if len(obj) >= 2:
            rep = code_min_distance(obj, "insdel", force=args.force)
            obj.provenance["verified_insdel_distance"] = rep.minimum
        else:
            obj.provenance["verified_insdel_distance"] = None
        ctx = obj.ctx  # span codes record the field of their symbols
    elif kind == "folded-eval":
        if args.ds_path is not None:
            ds = _load(args.ds_path, DifferenceSet, "difference set")
            if ds.ctx != ctx:
                raise InvalidParams("difference set lives in a different field")
        else:
            ds = singer_difference_set(ctx)
        obj = evaluation_folded_code(ctx, ds.members)
        measured = folded_code_min_distance(obj, "subset", force=args.force).minimum
        if measured != 2 * (ds.k - ds.lam):
            raise PropertyViolation(f"measured subset distance {measured} != "
                                    f"2(k - lambda) = {2 * (ds.k - ds.lam)}")
        obj.provenance["verified_subset_distance"] = measured
        obj.provenance["difference_set"] = {"v": ds.v, "k": ds.k, "lambda": ds.lam}
    else:  # singer-ds
        obj = singer_difference_set(ctx)
    if isinstance(obj, SubspaceCode):
        obj = _verify_subspace_code(obj, args.force, exact=kind == "sidon-orbit")
    digest = save_file(args.out, obj)
    given = dict(vars(args), q=q)
    read = [d for d in needs + may if d != "modulus" and given[d] is not None]
    _write_manifest(args, {"kind": kind} | {_INPUT_PARAMS.get(d, d): given[d] for d in read},
                    [given[d] for d in read if d in _INPUT_PARAMS], digest,
                    field_to_obj(ctx) if ctx is not None else None)
    summary = {"kind": kind, "out": args.out}
    if kind != "singer-ds":
        summary["members"] = len(obj)
    return _emit(args, summary, f"{kind},{args.out}\n")


def _verify_subspace_code(sc: SubspaceCode, force: bool, exact: bool = False) -> SubspaceCode:
    if len(sc) < 2:
        sc.provenance["verified_distance"] = None  # vacuous for singletons
        return sc
    measured = subspace_code_min_distance(sc, force=force).minimum
    declared = sc.declared_distance
    if declared is not None:
        bad = measured != declared if exact else measured < declared
        if bad:
            raise PropertyViolation(
                f"measured subspace distance {measured} violates declared {declared}")
    sc.provenance["verified_distance"] = measured
    return sc


def _check_block_len(code: VectorCode, r: int | None) -> None:
    """Refuse r past the code's length: it scores as the length but pads in r^2 time."""
    if r is not None and r > code.length:
        raise InvalidParams(f"--block-len {r} exceeds the code length {code.length}")


def _cmd_metric(args) -> int:
    obj = _load(args.code, (VectorCode, SubspaceCode, FoldedCode),
                "vector, subspace or folded code")
    if isinstance(obj, VectorCode):
        _check_block_len(obj, args.block_len)
        rep = code_min_distance(obj, args.metric, r=args.block_len, force=args.force)
    elif isinstance(obj, SubspaceCode):
        if args.metric != "subspace":
            raise InvalidParams("subspace code files only support --metric subspace")
        rep = subspace_code_min_distance(obj, force=args.force)
    else:
        rep = folded_code_min_distance(obj, args.metric, force=args.force)
    return _report(args, metric_report_to_obj(rep), rep.csv_line() + "\n",
                   {"metric": args.metric, "block_len": args.block_len}, [args.code])


def _cmd_verify(args) -> int:
    results = run_suites(args.suite, args.seed, args.samples)
    failed = 0
    for res in results:
        for check in res.checks:
            status = "ok" if check.ok else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"[{res.name}] {check.name}: {status}{detail}")
            if not check.ok:
                failed += 1
        for finding in res.findings:
            print(f"FINDING: {finding}")
    print(f"{'PASS' if failed == 0 else 'FAIL'}: "
          f"{sum(len(r.checks) for r in results)} checks, {failed} failures")
    return 0 if failed == 0 else 1


def _cmd_bounds(args) -> int:
    if args.code is not None:
        reports = verify_bounds(_load(args.code, VectorCode, "vector code"), force=args.force)
    else:
        n, q = args.n, args.q
        if n < 1 or q < 2:
            raise InvalidParams(f"bounds need n >= 1 and q >= 2, got n={n}, q={q}")
        reports = []
        if n >= 2:
            reports.append(BoundReport("levenshtein", {"n": n, "q": q}, levenshtein_bound(n, q)))
        if n == 4 and q % 2 == 0:
            reports.append(BoundReport("klo", {"q": q}, klo_bound(q)))
        for k in [args.k] if args.k is not None else range(1, n + 1):
            reports.append(BoundReport("half_singleton", {"n": n, "k": k}, half_singleton(n, k)))
        if args.d is not None:  # a row for every metric whose bound takes d
            rejected = []
            for metric in ("hamming", "insdel", "subspace", "subset"):
                try:
                    reports.append(singleton_bound(n, args.d, q, metric))
                except InvalidParams as exc:
                    rejected.append(str(exc))
            if len(rejected) == 4:
                raise InvalidParams(
                    f"no singleton bound takes d={args.d}: {'; '.join(rejected)}")
    return _report(args, {"kind": "bounds_table",
                          "bounds": [bound_report_to_obj(r) for r in reports]},
                   bounds_csv(reports), {"n": args.n, "q": args.q, "k": args.k, "d": args.d},
                   [args.code] if args.code is not None else [])


def _cmd_simulate(args) -> int:
    code = _load(args.code, VectorCode, "vector code")
    summary = run_trials(code, ChannelSpec(args.ins, args.dels, args.seed), args.trials,
                         force=args.force)
    csv_text = summary.transcript_csv()
    if args.out is not None:
        _write_manifest(args, {"ins": args.ins, "del": args.dels, "trials": args.trials},
                        [args.code], atomic_write_text(args.out, csv_text))
    return _emit(args, trial_summary_to_obj(summary), csv_text)


def _cmd_fold(args) -> int:
    code = _load(args.code, VectorCode, "vector code")
    _check_block_len(code, args.block_len)
    fc = folded_code_from_vector_code(code, args.block_len)
    _write_manifest(args, {"block_len": args.block_len}, [args.code], save_file(args.out, fc))
    return _emit(args, {"kind": "folded_code", "out": args.out, "members": len(fc)},
                 f"folded_code,{args.out}\n")


def _add_common(p: argparse.ArgumentParser, func, sweeps: bool = True):
    """--format, --force if the command sweeps, and its function."""
    p.set_defaults(func=func)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if sweeps:
        p.add_argument("--force", action="store_true",
                       help="override pair-count guards on exhaustive sweeps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqcodes",
        description="finite-field subspace/subset-metric and insdel code toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code and write it to a file")
    c.add_argument("--kind", choices=tuple(CONSTRUCT_KINDS), required=True)
    for dest in ("q", "n", "t", "k", "length"):
        c.add_argument("--" + dest, type=int)
    c.add_argument("--modulus", type=int, nargs="+")
    c.add_argument("--from", dest="from_path")
    c.add_argument("--ds", dest="ds_path")
    c.add_argument("--out", required=True)
    _add_common(c, _cmd_construct)

    m = sub.add_parser("metric", help="exhaustive minimum distance of a code file")
    m.add_argument("code")
    m.add_argument("--metric", required=True,
                   choices=("hamming", "insdel", "subspace", "subset",
                            "r_subspace", "r_subset"))
    m.add_argument("--block-len", type=int, dest="block_len")
    m.add_argument("--out")
    _add_common(m, _cmd_metric)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    v.add_argument("--samples", type=int)
    v.add_argument("--seed", type=int)
    v.set_defaults(func=_cmd_verify)  # verify prints text only, so it takes no --format

    b = sub.add_parser("bounds", help="evaluate closed-form bounds")
    b.add_argument("--code")
    for dest in ("n", "q", "k", "d"):
        b.add_argument("--" + dest, type=int)
    b.add_argument("--out")
    _add_common(b, _cmd_bounds)

    s = sub.add_parser("simulate", help="seeded insdel channel trials")
    s.add_argument("--code", required=True)
    s.add_argument("--ins", type=int, default=0)
    s.add_argument("--del", type=int, default=0, dest="dels")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out")
    _add_common(s, _cmd_simulate)

    f = sub.add_parser("fold", help="fold a vector code into blocks")
    f.add_argument("--code", required=True)
    f.add_argument("--block-len", type=int, required=True, dest="block_len")
    f.add_argument("--out", required=True)
    _add_common(f, _cmd_fold, sweeps=False)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args._argv = list(argv)
    try:
        check_options(args)
        return args.func(args)
    except PropertyViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except FqcodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
