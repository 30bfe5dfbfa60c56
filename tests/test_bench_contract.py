"""The benchmark scripts under bench/ still fit the package.

bench/traced_cli.py wraps package functions by name and bench/gen_inputs.py
imports from the package, so renaming or deleting one of those names would
otherwise only show up as a failed `bench/run.py --trace 1` run.  These
tests read bench/ and write nothing there (no bytecode caches either).
"""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_bench_module(name: str):
    """Import bench/<name>.py; run.py imports traced_cli from its own directory."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


def test_every_benchmark_argv_passes_the_option_checks():
    """No benchmark job, set-up step included, gives an option its command does not read."""
    from fqcodes.cli import build_parser, check_options
    run = _load_bench_module("run")
    parser = build_parser()
    argvs = {step.argv for seed in (0, 1) for w in run.workloads(seed).values()
             for step in w.setup + w.jobs if isinstance(step, run.Job)}
    assert {argv[0] for argv in argvs} == {"construct", "metric", "simulate", "verify", "bounds"}
    for argv in sorted(argvs):
        check_options(parser.parse_args(argv))


def test_gen_inputs_builds_every_input():
    gen = _load_bench_module("gen_inputs")
    for kind, build in gen.GENERATORS.items():
        assert len(build(random.Random(f"{kind}:0"), 0)) >= 2


def test_every_traced_target_resolves():
    traced = _load_bench_module("traced_cli")
    for module, attr, _mode in traced.TARGETS:
        obj = importlib.import_module(f"fqcodes.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"
    for module in traced.MODULES:
        importlib.import_module(f"fqcodes.{module}")
    from fqcodes.suites import SUITES
    assert set(traced.SUITE_NAMES) == set(SUITES)


def test_traced_run_leaves_no_binding_unpatched(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    # commands that build artifacts, then ones that load them and write reports;
    # construct certifies the spread from its orbit structure, so only metric
    # sweeps it; the last two score insdel pairs (a sweep, then decoding)
    for argv, counted, calls in (
            (["construct", "--kind", "spread", "--q", "2", "--k", "2", "--n", "4",
              "--out", "spread.json"], "constructions.spread", 1),
            (["metric", "spread.json", "--metric", "subspace", "--out", "r.json"],
             "constructions.subspace_code_min_distance", 1),
            (["construct", "--kind", "all-vectors", "--from", "spread.json", "--length", "3",
              "--out", "av.json"], "derived.all_vectors_code", 1),
            (["metric", "av.json", "--metric", "insdel", "--out", "i.json"],
             "metrics.pairwise_min_report", 1),
            (["simulate", "--code", "av.json", "--del", "1", "--trials", "5",
              "--out", "s.csv"], "channel.decode_nearest", 5)):
        subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), "trace.json", "job",
                        "0", "--", *argv], cwd=tmp_path, env=env, check=True,
                       capture_output=True)
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["rc"] == 0
        assert trace["unpatched"] == []
        assert trace["calls"][counted] == calls
