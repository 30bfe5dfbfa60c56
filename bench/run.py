"""End-to-end benchmark of the fqcodes command-line tool.

    python3 bench/run.py --workload sweep --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --all            # every workload, one table
    python3 bench/run.py --selftest       # exact call counts of the tracer
    python3 bench/run.py --record         # rewrite expected_sha256.json

Every job is one `python -m fqcodes ...` command in a fresh child
process, run one at a time from this process (a closed loop with one
client).  Inputs are built from `--seed` in a set-up phase, by CLI
`construct` calls and by `gen_inputs.py`; the CLI only receives files.
All paths are relative to a fixed working directory, so manifest argv
repeats byte for byte.  Every job's outputs are checked (see
`check_job`); a job that fails any check counts in `failed`.

A pass runs a workload's job list once.  Passes repeat while the next one
is expected to end within `--seconds`, and the end-to-end metrics are
medians over passes.  Set-up repeats at least three times and reports
its median.  With `--trace 1` the run alternates plain and traced passes
(`traced_cli.py`) and reports the per-layer metrics of the traced ones;
end-to-end numbers only ever come from plain passes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details, run context and trace spans go to `.bench_work/results`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import traced_cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected_sha256.json"
RECORDED_SEEDS = (0, 1)  # the default seed and one held-out seed
RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 2.0, 9
TRIALS = 1000  # simulate's default trial count


@dataclass(frozen=True)
class Job:
    """One CLI command; `seeded` marks outputs that depend on the seed."""

    id: str
    argv: tuple
    seeded: bool = False
    within_radius: bool | None = None  # simulate: is ins+del <= capability?

    @property
    def out(self) -> str | None:
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None

    @property
    def outputs(self) -> tuple:
        return (self.out, self.out + ".manifest.json") if self.out else ()


@dataclass(frozen=True)
class Gen:
    """A seeded input file written by gen_inputs.py."""

    kind: str
    path: str
    seeded = True


def output_keys(step) -> list:
    """Keys of a step's outputs in the sha256 table."""
    return [step.path] if isinstance(step, Gen) else [*step.outputs, f"stdout:{step.id}"]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple
    jobs: tuple


def _job(job_id: str, cmd: str, **kw) -> Job:
    return Job(job_id, tuple(shlex.split(cmd)), **kw)


def workloads(seed: int) -> dict[str, Workload]:
    s = seed
    span_code = (
        _job("lifted241", "construct --kind lifted-mrd --q 2 --n 4 --t 1 --out lifted241.json"),
        _job("span", "construct --kind span --from lifted241.json --length 5 --out span.json"),
    )
    return {w.name: w for w in (
        # L1 row reduction and L2 per-pair distances on codewords that repeat
        # across pairs: per-codeword precompute, bit-parallel LCS, chain
        # pruning and symmetry reduction show here.  The random code and the
        # random half of a lifted code have no structure to exploit.
        Workload("sweep", span_code + (
            _job("lifted232", "construct --kind lifted-mrd --q 2 --n 3 --t 2 --out lifted232.json"),
            Gen("random-vector", "random.json"),
            Gen("lifted-half", "lifted521half.json"),
        ), (
            _job("span.subspace", "metric span.json --metric subspace --out span.subspace.json"),
            _job("span.insdel", "metric span.json --metric insdel --out span.insdel.json"),
            _job("span.subset", "metric span.json --metric subset --out span.subset.json"),
            _job("random.insdel", "metric random.json --metric insdel --out random.insdel.json",
                 seeded=True),
            _job("random.subset", "metric random.json --metric subset --out random.subset.json",
                 seeded=True),
            _job("lifted232.subspace",
                 "metric lifted232.json --metric subspace --out lifted232.subspace.json"),
            _job("lifted521half.subspace",
                 "metric lifted521half.json --metric subspace --out lifted521half.subspace.json",
                 seeded=True),
        )),
        # Nearest-codeword decoding: lcs_length on codeword-versus-received
        # pairs of unequal length, one full scan per trial.  The job beyond
        # the radius (3) must keep detecting ties; the last adds q = 3.
        Workload("channel", span_code + (
            _job("spread326", "construct --kind spread --q 3 --k 2 --n 6 --out spread326.json"),
            _job("allvec", "construct --kind all-vectors --from spread326.json --length 4"
                           " --out allvec.json"),
        ), (
            _job("span.del1", f"simulate --code span.json --del 1 --seed {s} --out span.del1.csv",
                 seeded=True, within_radius=True),
            _job("span.ins2del2", f"simulate --code span.json --ins 2 --del 2 --seed {s}"
                                  " --out span.ins2del2.csv", seeded=True, within_radius=False),
            _job("allvec.ins1del1", f"simulate --code allvec.json --ins 1 --del 1 --seed {s}"
                                    " --out allvec.ins1del1.csv", seeded=True, within_radius=True),
        )),
        # Field set-up (L0), constructions (L4) and artifact I/O (L5) dominate;
        # pair sweeps are small, so sweep-kernel changes should not move it.
        Workload("construct", (), (
            _job("spread.2.8.16", "construct --kind spread --q 2 --k 8 --n 16 --out spread2816.json"),
            _job("singer10", "construct --kind singer-ds --n 10 --out singer10.json"),
            _job("folded8", "construct --kind folded-eval --n 8 --out folded8.json"),
            _job("sidon273", "construct --kind sidon-orbit --q 2 --n 7 --k 3 --out sidon273.json"),
            _job("lifted232", "construct --kind lifted-mrd --q 2 --n 3 --t 2 --out lifted232.json"),
            _job("block321", "construct --kind block-enlarged --q 3 --n 2 --t 1 --out block321.json"),
        )),
        # Distances on ~42,000 fresh random words that never repeat, so
        # per-codeword caching cannot pay off; the only workload running
        # ext_rref, GHW enumeration, the rank census and the shift witness.
        # The seven suites of `verify --suite all`, one job each, with 8,000
        # samples rather than 10,000 so that a 28 s run holds three passes.
        # The shift witness draws the sizes of its 100 codes from its seed
        # (on a 2-core Xeon at 2.1 GHz: 1.8 s for seed 0, 2.1-3.7 s for seeds
        # 100-104), so it keeps seed 0 and a pass does the same work for
        # every seed.
        Workload("verify", (Gen("linear-f4", "linear.json"),), (
            _job("verify.pseudometric",
                 f"verify --suite pseudometric --samples 8000 --seed {s}", seeded=True),
            _job("verify.chain", f"verify --suite chain --samples 8000 --seed {s}",
                 seeded=True),
            _job("verify.delsarte", "verify --suite delsarte"),
            _job("verify.spread", "verify --suite spread"),
            _job("verify.orbit", "verify --suite orbit"),
            _job("verify.shift-witness", "verify --suite shift-witness --seed 0"),
            _job("verify.folded-eval", "verify --suite folded-eval"),
            _job("linear.bounds", "bounds --code linear.json --out linear.bounds.json",
                 seeded=True),
        )),
    )}


# -- child processes ---------------------------------------------------------

class Runner:
    """Spawns children one at a time and reaps each with its own rusage."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        # Bytecode caching on, as for an installed package; a fixed hash seed
        # keeps set and dict iteration order, and so timing, the same per run.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, argv: list, cwd: Path, log: Path, trace_out: Path | None = None,
              job_id: str = "") -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run time limit reached")
        with open(log.with_suffix(".stdout"), "wb") as out, \
                open(log.with_suffix(".stderr"), "wb") as err:
            t0 = time.monotonic()
            if trace_out is None:
                cmd = [sys.executable, "-m", "fqcodes", *argv]
            else:
                cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_out),
                       job_id, repr(t0), "--", *argv]
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode, "t0": t0, "t1": t1, "wall_s": t1 - t0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            "stdout": log.with_suffix(".stdout").read_text(),
            "stderr": log.with_suffix(".stderr").read_text(),
        }

    def generate(self, seed: int, gens: list, cwd: Path, log: Path) -> dict:
        argv = [str(BENCH / "gen_inputs.py"), str(seed), *(f"{g.kind}={g.path}" for g in gens)]
        with open(log.with_suffix(".stderr"), "wb") as err:
            try:
                proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=self.env,
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=max(self.deadline - time.monotonic(), 0.1))
            except subprocess.TimeoutExpired as exc:
                raise TimeoutError("run time limit reached in gen_inputs") from exc
        return {"rc": proc.returncode, "stderr": log.with_suffix(".stderr").read_text()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- checks --------------------------------------------------------------------

class Expected:
    """sha256 table recorded at the commit that defined the benchmark.

    `table=None` checks nothing; that is how the table gets recorded.
    """

    def __init__(self, table: dict | None, workload: str, seed: int):
        per_wl = table[workload] if table is not None else {}
        self.unseeded = per_wl.get("any")
        self.seeded = per_wl.get(str(seed))  # None for seeds without a record

    def problems(self, digests: dict, seeded: bool) -> list:
        table = self.seeded if seeded else self.unseeded
        if table is None:
            return []
        out = []
        for key, digest in digests.items():
            want = table.get(key)
            if want is None:
                out.append(f"{key}: no recorded sha256")
            elif want != digest:
                out.append(f"{key}: sha256 {digest[:12]} != recorded {want[:12]}")
        return out


def _code_size(path: Path) -> int:
    obj = json.loads(path.read_text())
    return len(obj["codewords"] if obj["kind"] == "vector_code" else obj["subspaces"])


def check_job(job: Job, res: dict, wd: Path, expected: Expected, hashes: dict) -> list:
    """Problems with one finished job; records its output hashes in `hashes`."""
    if res["rc"] != 0:
        return [f"exit {res['rc']}: {res['stderr'].strip()[-300:]}"]
    stdout = res["stdout"]
    digests = {f"stdout:{job.id}": hashlib.sha256(stdout.encode()).hexdigest()}
    try:
        for name in job.outputs:
            digests[name] = sha256(wd / name)
    except OSError as exc:
        return [f"missing output: {exc}"]
    hashes.update(digests)
    problems = expected.problems(digests, job.seeded)
    cmd = job.argv[0]
    try:
        if job.out:
            manifest = json.loads((wd / (job.out + ".manifest.json")).read_text())
            if manifest["argv"] != list(job.argv):
                problems.append("manifest argv differs from the command")
            for name, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
                if sha256(wd / name) != digest:
                    problems.append(f"manifest hash of {name} does not match the file")
        if cmd == "metric":
            text = (wd / job.out).read_text()
            report = json.loads(text)
            m = _code_size(wd / job.argv[1])
            if stdout != text:
                problems.append("stdout differs from the report file")
            if report["pairs"] != m * (m - 1) // 2:
                problems.append(f"pairs {report['pairs']} != m(m-1)/2 for m={m}")
            res["pairs"] = report["pairs"]
            res["minimum"] = report["minimum"]
        elif cmd == "simulate":
            summary = json.loads(stdout)
            rows = (wd / job.out).read_text().splitlines()
            results = [row.rsplit(",", 1)[1] for row in rows[1:]]
            if summary["trials"] != TRIALS or len(results) != TRIALS:
                problems.append("trial count differs from the request")
            if [results.count(r) for r in ("ok", "wrong", "ambiguous")] != \
                    [summary["successes"], summary["wrong"], summary["ambiguous"]]:
                problems.append("transcript and summary disagree")
            if summary["within_guarantee"] is not job.within_radius:
                problems.append(f"within_guarantee is {summary['within_guarantee']}")
            if job.within_radius and (summary["success_rate"] != 1.0 or summary["wrong"]
                                      or summary["ambiguous"]):
                problems.append(f"inside the radius: success_rate {summary['success_rate']}, "
                                f"wrong {summary['wrong']}, ambiguous {summary['ambiguous']}")
            res["trials"] = summary["trials"]
        elif cmd == "verify":
            lines = stdout.splitlines()
            findings = [ln for ln in lines if ln.startswith("FINDING:")]
            if not lines or not lines[-1].startswith("PASS:") or ": FAIL" in stdout:
                problems.append("verify did not print PASS")
            # The folded-eval suite documents two findings; no other suite has any.
            want = 2 if job.argv[job.argv.index("--suite") + 1] in ("all", "folded-eval") else 0
            if len(findings) != want:
                problems.append(f"{len(findings)} FINDING lines, expected the {want} documented")
        elif cmd == "bounds":
            text = (wd / job.out).read_text()
            if stdout != text:
                problems.append("stdout differs from the report file")
            bounds = {b["bound"]: b for b in json.loads(text)["bounds"]}
            # The doubled weight-hierarchy form is a published claim the tool
            # adjudicates: it may fail, but its flag must match the numbers.
            adjudicated = bounds.pop("strong_half_singleton_doubled", None)
            broken = [name for name, b in bounds.items() if b["satisfied"] is False]
            if adjudicated and adjudicated["satisfied"] != (
                    bounds["min_insdel"]["value"] <= adjudicated["value"]):
                broken.append("strong_half_singleton_doubled")
            if broken:
                problems.append(f"bounds not satisfied: {broken}")
        elif cmd == "construct":
            summary = json.loads(stdout)
            if summary["kind"] != job.argv[job.argv.index("--kind") + 1] or \
                    summary["out"] != job.out:
                problems.append("construct summary does not name the artifact")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def chain_problems(jobs: list, results: list) -> dict:
    """d_S <= d_subset <= d_insdel over the metric reports of each code file."""
    order = ("subspace", "subset", "insdel")
    by_code = {}
    for job, res in zip(jobs, results):
        if job.argv[0] == "metric" and "minimum" in res:
            metric = job.argv[job.argv.index("--metric") + 1]
            by_code.setdefault(job.argv[1], {})[metric] = (job.id, res["minimum"])
    problems = {}
    for code, found in by_code.items():
        values = [found[m] for m in order if m in found]
        if any(a[1] > b[1] for a, b in zip(values, values[1:])):
            msg = f"{code}: minima break d_S <= d_subset <= d_insdel: " + \
                  ", ".join(f"{m}={found[m][1]}" for m in order if m in found)
            for job_id, _ in values:
                problems.setdefault(job_id, []).append(msg)
    return problems


# -- set-up and passes -----------------------------------------------------------

class SetupError(Exception):
    pass


def set_up(wl: Workload, seed: int, runner: Runner, expected: Expected, hashes: dict) -> float:
    """Build the workload's input files in a fresh directory; returns seconds."""
    t0 = time.monotonic()
    wd, logs = WORK / wl.name / "files", WORK / wl.name / "logs"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    logs.mkdir(parents=True, exist_ok=True)
    problems = []
    probe = runner.spawn(["--version"], wd, logs / "setup-probe")
    if probe["rc"] != 0 or not probe["stdout"].strip():
        raise SetupError(f"`fqcodes --version` failed: {probe['stderr'].strip()[-300:]}")
    for step in (s for s in wl.setup if isinstance(s, Job)):
        res = runner.spawn(list(step.argv), wd, logs / f"setup-{step.id}")
        problems += [f"{step.id}: {p}" for p in check_job(step, res, wd, expected, hashes)]
    gens = [s for s in wl.setup if isinstance(s, Gen)]
    if gens:
        res = runner.generate(seed, gens, wd, logs / "setup-gen")
        if res["rc"] != 0:
            raise SetupError(f"gen_inputs failed: {res['stderr'].strip()[-300:]}")
        digests = {g.path: sha256(wd / g.path) for g in gens}
        hashes.update(digests)
        problems += expected.problems(digests, seeded=True)
    if problems:
        raise SetupError("; ".join(problems))
    return time.monotonic() - t0


@dataclass
class Pass:
    traced: bool
    wall_s: float
    jobs: list = field(default_factory=list)  # per job: id, measurements, problems
    traces: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j["problems"])


def run_pass(wl: Workload, runner: Runner, expected: Expected, traced: bool,
             hashes: dict) -> Pass:
    wd, logs = WORK / wl.name / "files", WORK / wl.name / "logs"
    for job in wl.jobs:
        for name in job.outputs:
            (wd / name).unlink(missing_ok=True)
    results = []
    for job in wl.jobs:
        trace_out = logs / f"{job.id}.trace.json" if traced else None
        if trace_out:
            trace_out.unlink(missing_ok=True)
        results.append(runner.spawn(list(job.argv), wd, logs / job.id, trace_out, job.id))
    p = Pass(traced, results[-1]["t1"] - results[0]["t0"])
    problems = [check_job(job, res, wd, expected, hashes) for job, res in zip(wl.jobs, results)]
    chain = chain_problems(list(wl.jobs), results)
    for job, res, probs in zip(wl.jobs, results, problems):
        probs += chain.get(job.id, [])
        if traced:
            trace_out = logs / f"{job.id}.trace.json"
            if trace_out.is_file():
                trace = json.loads(trace_out.read_text())
                if trace["unpatched"]:
                    probs.append(f"tracer missed bindings: {trace['unpatched']}")
                p.traces.append(trace)
            else:
                probs.append("the traced child wrote no trace")
        res.pop("stdout"), res.pop("stderr")
        p.jobs.append({"id": job.id, **res, "problems": probs})
    return p


# -- metrics -------------------------------------------------------------------

def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(setups: list, passes: list) -> dict:
    """Metrics a user sees; name -> (summary, unit).  Only from untraced passes."""
    plain = [p for p in passes if not p.traced]
    walls = [p.wall_s for p in plain]
    out = {
        "wall_s": (summarize(walls), "s"),
        "setup_s": (summarize(setups), "s"),
        "peak_rss_mb": (summarize([max(j["maxrss_mb"] for j in p.jobs) for p in plain]), "MB"),
    }
    pairs = [sum(j.get("pairs", 0) for j in p.jobs) / p.wall_s for p in plain]
    trials = [sum(j.get("trials", 0) for j in p.jobs) / p.wall_s for p in plain]
    if any(pairs):
        out["pairs_per_s"] = (summarize(pairs), "pairs/s")
    if any(trials):
        out["trials_per_s"] = (summarize(trials), "trials/s")
    attempted = sum(len(p.jobs) for p in passes)
    out["error_rate"] = (summarize([sum(p.failed for p in passes) / attempted]), "fraction")
    return out


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", ".pairs")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "channel.insdel_per_decode":
        return "calls/decode"
    return "s"


def per_layer_names() -> list:
    names = []
    for module in traced_cli.MODULES:
        for mod, attr, mode in traced_cli.TARGETS:
            if mod != module:
                continue
            name = traced_cli.metric_name(mod, attr)
            if name != "cli.main":
                names.append(name + ".calls")
            if mode != "count":
                names.append(name + ".s")
            if name == "metrics.pairwise_min_report":
                names.append(name + ".pairs")
            if name in ("serialize.dumps_canonical", "serialize.sha256_file"):
                names.append(name + ".bytes")
        if module == "suites":
            names += [f"suites.{s}.s" for s in traced_cli.SUITE_NAMES]
        if module == "channel":
            names.append("channel.insdel_per_decode")
        if module == "cli":
            names.append("cli.startup_s")
        names.append(f"{module}.self_s")
    return names + ["proc.cpu_s", "trace.wall_s", "trace.overhead_s"]


def per_layer(passes: list) -> dict:
    """Per traced pass: totals over its jobs; then the median over passes."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = []
    for p in traced:
        totals = Counter()
        for t in p.traces:
            totals.update({f"{k}.calls": v for k, v in t["calls"].items()})
            totals.update({f"{k}.s": v for k, v in t["incl_s"].items()})
            totals.update({f"{k}.self_s": v for k, v in t["self_s"].items()})
            totals.update(t["extra"])
        decodes = totals["channel.decode_nearest.calls"]
        if decodes:
            totals["channel.insdel_per_decode"] = \
                totals["channel.decode_nearest.nested_insdel"] / decodes
        if p.traces:
            totals["cli.startup_s"] = statistics.median(t["startup_s"] for t in p.traces)
        totals["trace.wall_s"] = p.wall_s
        per_pass.append(totals)
    out = {name: statistics.median(v[name] for v in per_pass) for name in per_layer_names()}
    out["proc.cpu_s"] = statistics.median(sum(j["cpu_s"] for j in p.jobs) for p in plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(p.wall_s for p in plain)
    return out


# -- run context -----------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


# -- one workload --------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool, table: dict | None,
            hashes: dict | None = None) -> dict:
    """Set up, run passes for `seconds`, check; returns the full result."""
    start = time.monotonic()
    runner = Runner(start + RUN_LIMIT_S)
    wl = workloads(seed)[name]
    expected = Expected(table, name, seed)
    ctx = context()
    hashes = {} if hashes is None else hashes
    setups = []
    while len(setups) < SETUP_MIN_REPS or (sum(setups) < SETUP_MIN_S
                                            and len(setups) < SETUP_MAX_REPS):
        setups.append(set_up(wl, seed, runner, expected, hashes))
        if trace:
            break
    passes = []
    t_measure = time.monotonic()
    while True:
        passes.append(run_pass(wl, runner, expected, False, hashes))
        if trace:
            passes.append(run_pass(wl, runner, expected, True, hashes))
        elapsed = time.monotonic() - t_measure
        rounds = len(passes) // (2 if trace else 1)
        if elapsed + elapsed / rounds > seconds or any(p.failed for p in passes):
            break
    ctx["loadavg_end"] = os.getloadavg()
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "context": ctx, "setup_s": setups,
        "end_to_end": end_to_end(setups, passes),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "jobs": p.jobs} for p in passes],
        "attempted": sum(len(p.jobs) for p in passes),
        "failed": sum(p.failed for p in passes),
    }
    if trace:
        result["per_layer"] = per_layer(passes)
        ctx["tracing_overhead_s"] = result["per_layer"]["trace.overhead_s"]
        result["spans"] = [s for p in passes for t in p.traces for s in t["spans"]]
    return result


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report(result: dict, bench_metrics: list) -> dict:
    """Print the human-readable summary; return the contract's last line."""
    name, trace = result["workload"], result["trace"]
    print(f"{name} seed={result['seed']} trace={int(trace)}: {len(result['passes'])} passes, "
          f"{result['attempted']} jobs, {result['failed']} failed")
    for metric, (s, unit) in result["end_to_end"].items():
        print(f"  {metric:<14} {_fmt(s['median']):>12} {unit:<9} "
              f"(median of {s['n']}; q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])})")
    for p in result["passes"]:
        for j in p["jobs"]:
            for problem in j["problems"]:
                print(f"  FAILED {j['id']}{' (traced)' if p['traced'] else ''}: {problem}")
    if trace:
        metrics = {m: {"value": result["per_layer"][m], "unit": _layer_unit(m)}
                   for m in per_layer_names()}
        busiest = sorted((k for k in metrics if k.endswith(".self_s")),
                         key=lambda k: -metrics[k]["value"])
        print("  self time: " + ", ".join(f"{k} {_fmt(metrics[k]['value'])}"
                                          for k in busiest[:5]))
        print(f"  traced wall_s {_fmt(metrics['trace.wall_s']['value'])} s, "
              f"overhead {_fmt(metrics['trace.overhead_s']['value'])} s")
    else:
        metrics = {m: {"value": result["end_to_end"][m][0]["median"],
                       "unit": result["end_to_end"][m][1]} for m in bench_metrics}
    print("context: " + json.dumps(result["context"]))
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{result['seed']}-trace{int(trace)}"
    spans = result.pop("spans", None)
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans))
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# -- commands ------------------------------------------------------------------

def load_table() -> dict:
    return json.loads(EXPECTED.read_text())


def record() -> int:
    """Record output hashes for the recorded seeds (one pass per workload)."""
    table = {}
    for name in workloads(0):
        runs = {}
        for seed in RECORDED_SEEDS:
            hashes = {}
            result = measure(name, seed, 0, False, None, hashes)
            if result["failed"]:
                report(result, ["wall_s"])
                raise SystemExit(f"{name}: checks failed while recording")
            runs[seed] = hashes
        wl = workloads(0)[name]
        seeded_keys = {k for s in (*wl.setup, *wl.jobs) if s.seeded for k in output_keys(s)}
        any_seed = {k: v for k, v in runs[0].items() if k not in seeded_keys}
        if any(runs[1][k] != v for k, v in any_seed.items()):
            raise SystemExit(f"{name}: an output marked seed-independent changed with the seed")
        table[name] = {"any": any_seed, **{str(seed): {k: v for k, v in runs[seed].items()
                                                       if k in seeded_keys}
                                           for seed in RECORDED_SEEDS}}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


def selftest() -> int:
    """Exact call counts of the exhaustive kernels, which prove the patching.

    A subspace sweep of m words calls linalg.span 3*m(m-1)/2 times;
    simulate with T trials calls insdel_distance T*m + m(m-1)/2 times.
    """
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    wl = workloads(0)["channel"]
    set_up(wl, 0, runner, Expected(load_table(), "channel", 0), {})
    wd, logs = WORK / "channel" / "files", WORK / "channel" / "logs"
    m = _code_size(wd / "span.json")
    trials = 2000
    cases = (
        ("metric span.json --metric subspace", "linalg.span.calls", 3 * m * (m - 1) // 2),
        (f"simulate --code span.json --del 1 --trials {trials} --seed 0",
         "metrics.insdel_distance.calls", trials * m + m * (m - 1) // 2),
    )
    ok = True
    for i, (cmd, counter, want) in enumerate(cases):
        trace_out = logs / f"selftest{i}.trace.json"
        res = runner.spawn(shlex.split(cmd), wd, logs / f"selftest{i}", trace_out, f"selftest{i}")
        trace = json.loads(trace_out.read_text())
        got = trace["calls"].get(counter.rsplit(".", 1)[0], 0)
        good = res["rc"] == 0 and got == want and not trace["unpatched"]
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {cmd}: {counter} = {got}, expected {want}"
              + (f"; unpatched {trace['unpatched']}" if trace["unpatched"] else ""))
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    same = listed == per_layer_names()
    ok &= same
    print(f"{'ok  ' if same else 'FAIL'} BENCHMARK.json per_layer matches the traced metrics")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=tuple(workloads(0)))
    ap.add_argument("--all", action="store_true", help="run every workload, untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "fqcodes" / "cli.py").is_file():
        print(f"error: no fqcodes sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.record:
            return record()
        table = load_table()
        bench_metrics = [m["name"] for m in
                         json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
        if args.all:
            lines = [report(measure(name, args.seed, args.seconds, False, table), bench_metrics)
                     for name in workloads(args.seed)]
            return 0 if all(line["correct"] for line in lines) else 1
        if not args.workload:
            ap.error("--workload, --all, --selftest or --record is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), table)
        print(json.dumps(report(result, bench_metrics)))
        return 0
    except (SetupError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
