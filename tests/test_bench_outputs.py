"""The benchmark's CLI outputs stay byte-identical, run in this process.

bench/run.py checks the sha256 of every artifact, manifest and stdout of
its jobs against bench/expected_sha256.json, but only when the benchmark
runs.  This test runs most of those jobs through `fqcodes.cli.main` in a
temporary directory, with the same argv and the same seeded inputs
(seed 0), and compares every hash with the recorded table; that includes
the three `simulate` jobs of the channel workload, whose transcripts pin
every decoding decision, ties included.  Every construct job runs here,
spread.2.8.16 included; the sampling suites are left to the benchmark
itself.  bench/ is read, never written (no bytecode caches).
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fqcodes.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 0


def _load(name: str):
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


RUN = _load("run")
GEN = _load("gen_inputs")
WORKLOADS = RUN.workloads(SEED)
TABLE = json.loads((BENCH / "expected_sha256.json").read_text())

# (workload, steps): set-up steps and jobs, in the benchmark's order
CASES = {
    "sweep": WORKLOADS["sweep"].setup + WORKLOADS["sweep"].jobs,
    "construct": WORKLOADS["construct"].jobs,
    "channel": WORKLOADS["channel"].setup + WORKLOADS["channel"].jobs,
    "verify": WORKLOADS["verify"].setup + tuple(
        j for j in WORKLOADS["verify"].jobs
        if j.id in ("verify.delsarte", "verify.spread", "verify.orbit",
                    "verify.folded-eval", "linear.bounds")),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_step(step, capsys) -> tuple[dict, bool]:
    """Run one set-up step or job; its output digests and whether it is seeded."""
    if isinstance(step, RUN.Gen):
        assert GEN.main([str(SEED), f"{step.kind}={step.path}"]) == 0
        return {step.path: _sha(Path(step.path).read_bytes())}, True
    rc = main(list(step.argv))
    captured = capsys.readouterr()
    assert rc == 0, f"{step.id}: exit {rc}: {captured.err}"
    digests = {f"stdout:{step.id}": _sha(captured.out.encode())}
    digests.update({name: _sha(Path(name).read_bytes()) for name in step.outputs})
    return digests, step.seeded


@pytest.mark.parametrize("workload", sorted(CASES))
def test_benchmark_outputs_match_recorded_hashes(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    expected = RUN.Expected(TABLE, workload, SEED)
    problems = []
    for step in CASES[workload]:
        digests, seeded = _run_step(step, capsys)
        problems += [f"{workload}/{step.id if hasattr(step, 'id') else step.path}: {p}"
                     for p in expected.problems(digests, seeded)]
    assert problems == []
