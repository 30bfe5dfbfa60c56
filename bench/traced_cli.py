"""Run one fqcodes CLI command in this process with its layers wrapped.

    python3 bench/traced_cli.py TRACE_OUT JOB_ID SPAWN_T -- <fqcodes argv>

SPAWN_T is the parent's `time.monotonic()` just before it spawned this
process (CLOCK_MONOTONIC is shared by all processes of the machine), so
`cli.startup_s` covers interpreter start and `import fqcodes`.

The wrappers live here, outside `src/`.  A function imported with
`from .linalg import span` is a second binding of the same object, so
`install` replaces every binding it can reach: module attributes,
values of module-level dicts, lists and tuples (such as `SUITES`), and
methods of `FieldCtx`.  `unpatched_bindings` then looks for any binding
that still holds an original, including default arguments and closure
cells; the runner treats a non-empty answer as a failed job.

Functions of the hot layers (L0 field arithmetic, L1 row reduction, L2
per-pair distances) only aggregate calls and inclusive time in memory.
Calls of L3-L5 (sweeps, constructions, suites, CLI, load and save) also
record spans: name, start, end, parent span and the job id.  A module's
self time is its wrappers' inclusive time minus the time of wrapped
children.  Everything is written to TRACE_OUT when the command ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, mode): "count" counts calls only; "agg" adds
# inclusive and self time; "span" also records a span per call.
TARGETS = (
    ("gf", "FieldCtx.__init__", "agg"),
    ("gf", "FieldCtx.mul", "count"),
    ("gf", "FieldCtx.add", "count"),
    ("linalg", "span", "agg"),
    ("linalg", "rref", "agg"),
    ("linalg", "gf2_rank", "agg"),
    ("linalg", "ext_rref", "agg"),
    ("metrics", "hamming_distance", "agg"),
    ("metrics", "insdel_distance", "agg"),
    ("metrics", "lcs_length", "agg"),
    ("metrics", "subspace_distance", "agg"),
    ("metrics", "subset_distance", "agg"),
    ("metrics", "folded_subset_distance", "agg"),
    ("metrics", "folded_subspace_distance", "agg"),
    ("metrics", "pairwise_min_report", "span"),
    ("metrics", "generalized_hamming_weights", "span"),
    ("rankmetric", "gabidulin_code", "span"),
    ("rankmetric", "poly_rank", "agg"),
    ("constructions", "subspace_code_min_distance", "span"),
    ("constructions", "spread", "span"),
    ("constructions", "lift_rank_code", "span"),
    ("constructions", "sidon_search", "span"),
    ("constructions", "orbit_cyclic_code", "span"),
    ("constructions", "block_enlarged_family", "span"),
    ("derived", "span_code", "span"),
    ("derived", "all_vectors_code", "span"),
    ("derived", "singer_difference_set", "span"),
    ("derived", "evaluation_folded_code", "span"),
    ("derived", "folded_code_min_distance", "span"),
    ("bounds", "verify_bounds", "span"),
    ("bounds", "cyclic_shift_witness", "span"),
    ("channel", "run_trials", "span"),
    ("channel", "decode_nearest", "agg"),
    ("channel", "correction_capability", "span"),
    ("serialize", "load_file", "span"),
    ("serialize", "save_file", "span"),
    ("serialize", "dumps_canonical", "span"),
    ("serialize", "sha256_file", "span"),
    ("serialize", "atomic_write_text", "span"),
    ("cli", "main", "span"),
)

SUITE_NAMES = ("pseudometric", "chain", "delsarte", "spread", "orbit",
               "shift-witness", "folded-eval")
MODULES = ("gf", "linalg", "metrics", "rankmetric", "constructions", "derived",
           "bounds", "channel", "suites", "serialize", "cli")


def metric_name(module: str, attr: str) -> str:
    """`gf.FieldCtx` for the constructor, `gf.mul` for a method, else module.attr."""
    if attr.startswith("FieldCtx."):
        meth = attr.split(".", 1)[1]
        return f"{module}.FieldCtx" if meth == "__init__" else f"{module}.{meth}"
    return f"{module}.{attr}"


class Tracer:
    """Counters, times and spans of one job, kept in memory."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = Counter()
        self.spans = []
        self._stack = []  # per active timed call: [child seconds, span id]
        self.originals = {}  # id(original) -> original
        self.wrappers = set()  # ids of the wrappers, whose closures hold originals

    def _extra_after(self, name, args, result):
        if name == "metrics.pairwise_min_report":
            self.extra[name + ".pairs"] += result.pairs
        elif name == "serialize.dumps_canonical":
            self.extra[name + ".bytes"] += len(result)  # ASCII JSON
        elif name == "serialize.sha256_file":
            self.extra[name + ".bytes"] += os.path.getsize(args[0])

    def wrap(self, name: str, module: str, mode: str, fn):
        self.originals[id(fn)] = fn
        wrapper = self._make_wrapper(name, module, mode, fn)
        self.wrappers.add(id(wrapper))
        return wrapper

    def _make_wrapper(self, name: str, module: str, mode: str, fn):
        calls = self.calls
        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        incl, self_s, stack, spans = self.incl, self.self_s, self._stack, self.spans
        clock = time.perf_counter
        record_span = mode == "span"
        nested = "metrics.insdel_distance" if name == "channel.decode_nearest" else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent_span = stack[-1][1] if stack else None
            span_id = parent_span
            if record_span:
                span_id = len(spans)
                spans.append([name, time.monotonic(), None, parent_span])
            frame = [0.0, span_id]
            stack.append(frame)
            before = calls[nested] if nested else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                incl[name] += dt
                self_s[module] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if record_span:
                    spans[span_id][2] = time.monotonic()
                if nested:
                    self.extra[name + ".nested_insdel"] += calls[nested] - before
            self._extra_after(name, args, result)
            return result
        return timed

    def install(self):
        """Replace every reachable binding of each target with its wrapper."""
        import fqcodes.cli  # noqa: F401  (imports every module of the package)
        from fqcodes.gf import FieldCtx
        from fqcodes.suites import SUITES

        replace = {}
        for module, attr, mode in TARGETS:
            name = metric_name(module, attr)
            if attr.startswith("FieldCtx."):
                meth = attr.split(".", 1)[1]
                orig = FieldCtx.__dict__[meth]
                setattr(FieldCtx, meth, self.wrap(name, module, mode, orig))
                continue
            orig = getattr(sys.modules[f"fqcodes.{module}"], attr)
            replace[id(orig)] = self.wrap(name, module, mode, orig)
        for key in SUITE_NAMES:
            orig = SUITES[key]
            replace[id(orig)] = self.wrap(f"suites.{key}", "suites", "span", orig)

        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            value[k] = replace[id(v)]
                elif isinstance(value, (list, tuple)) and any(id(v) in replace for v in value):
                    patched = [replace.get(id(v), v) for v in value]
                    if isinstance(value, list):
                        value[:] = patched
                    else:
                        setattr(mod, attr, tuple(patched))

    def unpatched_bindings(self) -> list[str]:
        """Every place in the package that still refers to an original."""
        found = []
        classes_seen = set()

        def check(where, value):
            if id(value) in self.originals:  # originals stay alive, so ids are unique
                found.append(where)

        for mod in _package_modules():
            for attr, value in vars(mod).items():
                where = f"{mod.__name__}.{attr}"
                check(where, value)
                if isinstance(value, dict):
                    for k, v in value.items():
                        check(f"{where}[{k!r}]", v)
                elif isinstance(value, (list, tuple)):
                    for i, v in enumerate(value):
                        check(f"{where}[{i}]", v)
                if isinstance(value, type):
                    if not value.__module__.startswith("fqcodes") or id(value) in classes_seen:
                        continue
                    classes_seen.add(id(value))
                    where = f"{value.__module__}.{value.__qualname__}"
                    members = vars(value).items()
                else:
                    members = [(None, value)]
                for member_name, member in members:
                    label = where if member_name is None else f"{where}.{member_name}"
                    if member_name is not None:
                        check(label, member)
                    fn = getattr(member, "__func__", member)
                    if not hasattr(fn, "__code__") or id(fn) in self.wrappers:
                        continue
                    for i, v in enumerate(fn.__defaults__ or ()):
                        check(f"{label} default {i}", v)
                    for k, v in (fn.__kwdefaults__ or {}).items():
                        check(f"{label} default {k}", v)
                    for i, cell in enumerate(fn.__closure__ or ()):
                        try:
                            check(f"{label} closure {i}", cell.cell_contents)
                        except ValueError:  # empty cell
                            pass
        return found

    def result(self, startup_s: float, rc: int) -> dict:
        return {
            "job": self.job_id,
            "rc": rc,
            "startup_s": startup_s,
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "job": self.job_id}
                      for n, s, e, p in self.spans],
            "unpatched": self.unpatched_bindings(),
        }


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fqcodes" or name.startswith("fqcodes."))]


def main(argv: list[str]) -> int:
    trace_out, job_id, spawn_t, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE_OUT JOB_ID SPAWN_T -- ARGV...")
    import fqcodes.cli
    startup_s = time.monotonic() - float(spawn_t)
    tracer = Tracer(job_id)
    tracer.install()
    rc = fqcodes.cli.main(cli_argv)
    sys.stdout.flush()
    with open(trace_out, "w") as fh:
        json.dump(tracer.result(startup_s, rc), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
