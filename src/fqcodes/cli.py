"""Command-line surface: construct, metric, verify, bounds, simulate, fold.

Every command that writes an artifact also writes a `<out>.manifest.json`
recording the exact argv, parameters, modulus, seed and SHA-256 hashes of
all inputs and outputs.  Nothing in an output depends on wall-clock state,
so re-running a manifest's argv reproduces the files byte for byte.

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
from .gf import FieldCtx
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
    subspace_to_obj,
    trial_summary_to_obj,
)
from .suites import SUITES, run_suites

# The options each construction kind needs, by argparse dest; lifted-mrd
# needs none of them when it reads its rank code with --from.
REQUIRED_FLAGS = {
    "gabidulin": ("n", "t"),
    "lifted-mrd": ("n", "t"),
    "spread": ("k", "n"),
    "sidon-orbit": ("n", "k"),
    "block-enlarged": ("n", "t"),
    "span": ("from_path", "length"),
    "all-vectors": ("from_path", "length"),
    "folded-eval": ("n",),
    "singer-ds": ("n",),
}
CONSTRUCT_KINDS = tuple(REQUIRED_FLAGS)


def _write_manifest(out_path: str, command: str, argv, params: dict,
                    seed=None, field=None, inputs=None, outputs=None):
    manifest = {
        "kind": "run_manifest",
        "tool": "fqcodes",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "params": params,
        "seed": seed,
        "field": field,
        "inputs": {p: sha256_file(p) for p in (inputs or [])},
        "outputs": {p: sha256_file(p) for p in (outputs or [])},
    }
    atomic_write_text(out_path + ".manifest.json", dumps_canonical(manifest))


def _emit(obj: dict, fmt: str, csv_text: str | None = None,
          out: str | None = None, manifest: dict | None = None):
    text = csv_text if (fmt == "csv" and csv_text is not None) else dumps_canonical(obj)
    sys.stdout.write(text)
    if out:
        atomic_write_text(out, text)
        if manifest is not None:
            _write_manifest(out, manifest["command"], manifest["argv"],
                            manifest.get("params", {}),
                            seed=manifest.get("seed"),
                            inputs=manifest.get("inputs"), outputs=[out])


def _require_flags(args) -> None:
    needed = REQUIRED_FLAGS[args.kind]
    if args.kind == "lifted-mrd" and args.from_path:
        needed = ()
    missing = ["--" + d.removesuffix("_path") for d in needed if getattr(args, d) is None]
    if missing:
        raise InvalidParams(f"--kind {args.kind} needs {' and '.join(missing)}")


def _cmd_construct(args) -> int:
    _require_flags(args)
    kind = args.kind
    params = {"kind": kind}
    inputs = []
    field_obj = None
    if kind == "gabidulin":
        ctx = FieldCtx(args.q, args.n, args.modulus)
        params.update(q=args.q, n=args.n, t=args.t)
        rc = gabidulin_code(ctx, args.t)
        measured = rank_distance_of_code(rc)
        if measured != rc.declared_rank_distance:
            raise PropertyViolation(
                f"rank distance {measured} != declared {rc.declared_rank_distance}")
        rc.provenance["verified_rank_distance"] = measured
        obj = rc
        field_obj = field_to_obj(ctx)
    elif kind == "lifted-mrd":
        if args.from_path:
            rc = load_file(args.from_path)
            if not isinstance(rc, RankCode):
                raise InvalidParams("--from must point at a rank code file")
            inputs.append(args.from_path)
            params.update(source=args.from_path)
        else:
            ctx = FieldCtx(args.q, args.n, args.modulus)
            rc = gabidulin_code(ctx, args.t)
            params.update(q=args.q, n=args.n, t=args.t)
            field_obj = field_to_obj(ctx)
        sc = lift_rank_code(rc)
        obj = _verify_subspace_code(sc, args.force)
    elif kind == "spread":
        params.update(q=args.q, k=args.k, n=args.n)
        sc = spread(args.q, args.k, args.n)
        obj = _verify_subspace_code(sc, args.force)
    elif kind == "sidon-orbit":
        params.update(q=args.q, n=args.n, k=args.k)
        ctx = FieldCtx(args.q, args.n, args.modulus)
        field_obj = field_to_obj(ctx)
        sidon = sidon_search(ctx, args.k)
        sc = orbit_cyclic_code(ctx, sidon)
        sc.declared_distance = 2 * args.k - 2
        sc.provenance["sidon_basis"] = subspace_to_obj(sidon)["basis"]
        obj = _verify_subspace_code(sc, args.force, exact=True)
    elif kind == "block-enlarged":
        params.update(q=args.q, n=args.n, t=args.t)
        ctx = FieldCtx(args.q, args.n, args.modulus)
        field_obj = field_to_obj(ctx)
        sc = block_enlarged_family(ctx, args.t)
        obj = _verify_subspace_code(sc, args.force)
    elif kind in ("span", "all-vectors"):
        sc = load_file(args.from_path)
        if not isinstance(sc, SubspaceCode):
            raise InvalidParams("--from must point at a subspace code file")
        inputs.append(args.from_path)
        params.update(source=args.from_path, length=args.length)
        builder = span_code if kind == "span" else all_vectors_code
        vc = builder(sc, args.length)
        if len(vc) >= 2:
            rep = code_min_distance(vc, "insdel", force=args.force)
            vc.provenance["verified_insdel_distance"] = rep.minimum
        else:
            vc.provenance["verified_insdel_distance"] = None
        field_obj = field_to_obj(vc.ctx)
        obj = vc
    elif kind == "folded-eval":
        ctx = FieldCtx(2, args.n, args.modulus)
        field_obj = field_to_obj(ctx)
        params.update(n=args.n)
        if args.ds_path:
            ds = load_file(args.ds_path)
            if not isinstance(ds, DifferenceSet):
                raise InvalidParams("--ds must point at a difference set file")
            if ds.ctx != ctx:
                raise InvalidParams("difference set lives in a different field")
            inputs.append(args.ds_path)
            params.update(ds=args.ds_path)
        else:
            ds = singer_difference_set(ctx)
        fc = evaluation_folded_code(ctx, ds.members)
        rep = folded_code_min_distance(fc, "subset", force=args.force)
        fc.provenance["verified_subset_distance"] = rep.minimum
        fc.provenance["difference_set"] = {"v": ds.v, "k": ds.k, "lambda": ds.lam}
        obj = fc
    elif kind == "singer-ds":
        ctx = FieldCtx(2, args.n, args.modulus)
        field_obj = field_to_obj(ctx)
        params.update(n=args.n)
        obj = singer_difference_set(ctx)
    else:
        raise InvalidParams(f"unknown construction kind {kind!r}")
    save_file(args.out, obj)
    _write_manifest(args.out, "construct", args._argv, params,
                    seed=args.seed, field=field_obj,
                    inputs=inputs, outputs=[args.out])
    summary = {"kind": kind, "out": args.out}
    if isinstance(obj, (RankCode, SubspaceCode, VectorCode, FoldedCode)):
        summary["members"] = len(obj)
    _emit(summary, args.format, csv_text=f"{kind},{args.out}\n")
    return 0


def _verify_subspace_code(sc: SubspaceCode, force: bool, exact: bool = False) -> SubspaceCode:
    if len(sc) < 2:
        sc.provenance["verified_distance"] = None  # vacuous for singletons
        return sc
    rep = subspace_code_min_distance(sc, force=force)
    declared = sc.declared_distance
    if declared is not None:
        bad = rep.minimum != declared if exact else rep.minimum < declared
        if bad:
            raise PropertyViolation(
                f"measured subspace distance {rep.minimum} violates declared {declared}")
    sc.provenance["verified_distance"] = rep.minimum
    return sc


def _cmd_metric(args) -> int:
    obj = load_file(args.code)
    if isinstance(obj, VectorCode):
        rep = code_min_distance(obj, args.metric, r=args.block_len, force=args.force)
    elif isinstance(obj, SubspaceCode):
        if args.metric != "subspace":
            raise InvalidParams("subspace code files only support --metric subspace")
        rep = subspace_code_min_distance(obj, force=args.force)
    elif isinstance(obj, FoldedCode):
        if args.metric not in ("subset", "subspace"):
            raise InvalidParams("folded code files support subset/subspace metrics")
        rep = folded_code_min_distance(obj, args.metric, force=args.force)
    else:
        raise InvalidParams(f"no metrics defined for {type(obj).__name__} files")
    _emit(metric_report_to_obj(rep), args.format, csv_text=rep.csv_line() + "\n",
          out=args.out,
          manifest={"command": "metric", "argv": args._argv, "seed": args.seed,
                    "params": {"metric": args.metric, "block_len": args.block_len},
                    "inputs": [args.code]})
    return 0


def _cmd_verify(args) -> int:
    results = run_suites([args.suite], seed=args.seed, samples=args.samples)
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
    if args.code:
        obj = load_file(args.code)
        if not isinstance(obj, VectorCode):
            raise InvalidParams("bounds on a file need a vector code")
        reports = verify_bounds(obj, force=args.force)
    else:
        if args.n is None or args.q is None:
            raise InvalidParams("bounds need --code or both --n and --q")
        reports = []
        if args.n >= 2:
            reports.append(BoundReport("levenshtein", {"n": args.n, "q": args.q},
                                       levenshtein_bound(args.n, args.q)))
        if args.n == 4 and args.q % 2 == 0:
            reports.append(BoundReport("klo", {"q": args.q}, klo_bound(args.q)))
        ks = [args.k] if args.k is not None else range(1, args.n + 1)
        for k in ks:
            reports.append(BoundReport("half_singleton", {"n": args.n, "k": k},
                                       half_singleton(args.n, k)))
        if args.d:
            for metric in ("hamming", "insdel", "subspace", "subset"):
                try:
                    reports.append(singleton_bound(args.n, args.d, args.q, metric))
                except FqcodesError:
                    pass
    obj_out = {"kind": "bounds_table",
               "bounds": [bound_report_to_obj(r) for r in reports]}
    _emit(obj_out, args.format, csv_text=bounds_csv(reports),
          out=args.out,
          manifest={"command": "bounds", "argv": args._argv, "seed": args.seed,
                    "params": {"n": args.n, "q": args.q, "k": args.k, "d": args.d},
                    "inputs": [args.code] if args.code else []})
    return 0


def _cmd_simulate(args) -> int:
    obj = load_file(args.code)
    if not isinstance(obj, VectorCode):
        raise InvalidParams("simulate needs a vector code file")
    spec = ChannelSpec(args.ins, args.dels, args.seed)
    summary = run_trials(obj, spec, args.trials, force=args.force)
    if args.out:
        atomic_write_text(args.out, summary.transcript_csv())
        _write_manifest(args.out, "simulate", args._argv,
                        {"ins": args.ins, "del": args.dels,
                         "trials": args.trials}, seed=args.seed,
                        inputs=[args.code], outputs=[args.out])
    _emit(trial_summary_to_obj(summary), args.format,
          csv_text=summary.transcript_csv())
    return 0


def _cmd_fold(args) -> int:
    obj = load_file(args.code)
    if not isinstance(obj, VectorCode):
        raise InvalidParams("fold needs a vector code file")
    fc = folded_code_from_vector_code(obj, args.block_len)
    save_file(args.out, fc)
    _write_manifest(args.out, "fold", args._argv,
                    {"block_len": args.block_len}, seed=args.seed,
                    inputs=[args.code], outputs=[args.out])
    _emit({"kind": "folded_code", "out": args.out, "members": len(fc)},
          args.format, csv_text=f"folded_code,{args.out}\n")
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true",
                   help="override pair-count guards on exhaustive sweeps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqcodes",
        description="finite-field subspace/subset-metric and insdel code toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code and write it to a file")
    c.add_argument("--kind", choices=CONSTRUCT_KINDS, required=True)
    c.add_argument("--q", type=int, default=2)
    c.add_argument("--n", type=int)
    c.add_argument("--t", type=int)
    c.add_argument("--k", type=int)
    c.add_argument("--length", type=int)
    c.add_argument("--modulus", type=int, nargs="+")
    c.add_argument("--from", dest="from_path")
    c.add_argument("--ds", dest="ds_path")
    c.add_argument("--out", required=True)
    _add_common(c)
    c.set_defaults(func=_cmd_construct)

    m = sub.add_parser("metric", help="exhaustive minimum distance of a code file")
    m.add_argument("code")
    m.add_argument("--metric", required=True,
                   choices=("hamming", "insdel", "subspace", "subset",
                            "r_subspace", "r_subset"))
    m.add_argument("--block-len", type=int, dest="block_len")
    m.add_argument("--out")
    _add_common(m)
    m.set_defaults(func=_cmd_metric)

    v = sub.add_parser("verify", help="run a property suite")
    v.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    v.add_argument("--samples", type=int, default=10000)
    _add_common(v)
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bounds", help="evaluate closed-form bounds")
    b.add_argument("--code")
    b.add_argument("--n", type=int)
    b.add_argument("--q", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--d", type=int)
    b.add_argument("--out")
    _add_common(b)
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("simulate", help="seeded insdel channel trials")
    s.add_argument("--code", required=True)
    s.add_argument("--ins", type=int, default=0)
    s.add_argument("--del", type=int, default=0, dest="dels")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--out")
    _add_common(s)
    s.set_defaults(func=_cmd_simulate)

    f = sub.add_parser("fold", help="fold a vector code into blocks")
    f.add_argument("--code", required=True)
    f.add_argument("--block-len", type=int, required=True, dest="block_len")
    f.add_argument("--out", required=True)
    _add_common(f)
    f.set_defaults(func=_cmd_fold)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args._argv = list(argv)
    try:
        return args.func(args)
    except PropertyViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except FqcodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
