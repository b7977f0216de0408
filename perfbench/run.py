"""prooflab benchmark: one closed-loop client, four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oplab_verify --seed 1 --seconds 25 --trace 0

Every op waits for the one before it.  The run repeats the workload's op
list for ``--seconds`` seconds (whole passes only), judges every op against
``reference``, and prints a readable report followed by one JSON line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (a separate traced phase after an untraced one).
"""

from __future__ import annotations

import argparse
import collections
import fnmatch
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import prooflab.cli, prooflab.operator_lab as o; "
    "o.build_catalog(0); print(time.perf_counter() - t)"
)
EXACT_COUNTERS = ("checks_recorded", "iterations", "reduction_steps", "refusals")
# Host speed on the shared sandbox drifts by up to 1.5x over seconds to
# minutes.  A fixed pure-Python probe is timed before each pass and after
# every PROBE_EVERY_S of op time; each op's time is scaled by the mean of
# the probes just before and after it to the host speed at which the probe
# takes PROBE_REF_S.  Raw times are printed too.
PROBE_EVERY_S = 0.1
PROBE_REF_S = 1e-3


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def speed_probe() -> float:
    """Seconds for a fixed pure-Python kernel (objects, dicts, sorting):
    how fast the host runs interpreter code right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cells = {}
        for i in range(1500):
            c = _Cell(i, (i, str(i)))
            cells[c.key] = c
            if c.value[0] - 1 in cells:
                cells[c.value[0] - 1].key += 1
        sorted(cells, key=lambda k: -k)
        best = min(best, time.perf_counter() - start)
    return best


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the CLI and build the
    catalog.  Not scaled: the probe reads slow right after a child exits."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
                              check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def load_modules() -> dict:
    sys.path.insert(0, str(SRC))
    names = ("cli", "operator_lab", "algorithms", "term_calculus", "formula_engine",
             "real_codes", "majorization", "finite_types")
    return {n: importlib.import_module(f"prooflab.{n}") for n in names}


class KnownFailures:
    """Seed-state failures recorded in ``known_failures.json``: an op fails
    there with exactly this reason.  Op ids may be glob patterns."""

    def __init__(self, workload: str):
        entries = json.loads((HERE / "known_failures.json").read_text(encoding="utf-8"))
        self.entries = [e for e in entries if e["workload"] == workload]
        self.seen: set[int] = set()

    def match(self, op_id: str, reason: str) -> bool:
        for i, e in enumerate(self.entries):
            if fnmatch.fnmatchcase(op_id, e["op"]) and e["reason"] == reason:
                self.seen.add(i)
                return True
        return False


class Run:
    """Executes passes over one op list and keeps what the metrics need."""

    def __init__(self, ops, known: KnownFailures, tracer=None):
        self.ops = ops
        self.known = known
        self.tracer = tracer
        self.attempted = 0
        self.failed: list[tuple[str, str]] = []  # not a recorded seed-state failure
        self.expected: list[tuple[str, str]] = []  # recorded seed-state failures reproduced

    def execute(self, ops) -> dict:
        """One pass: latencies, work and exact counters."""
        seen: dict = {}
        latency, works = [], []
        counters: collections.Counter = collections.Counter()
        clock = time.perf_counter
        probes = [(0, speed_probe())]  # (index of the next op, probe seconds)
        since_probe = 0.0
        for i, op in enumerate(ops):
            if self.tracer is not None:
                self.tracer.op = i
            start = clock()
            try:
                out = op.run()
            except Exception as exc:  # the op's reference says what it should have done
                out = exc
            latency.append(clock() - start)
            since_probe += latency[-1]
            if since_probe > PROBE_EVERY_S:
                probes.append((i + 1, speed_probe()))
                since_probe = 0.0
            seen[op.id] = out
            if isinstance(out, Exception):
                verdict = workloads.Verdict(f"raised {type(out).__name__}")
            else:
                verdict = op.judge(out, seen)
            self.attempted += 1
            works.append(verdict.work)
            counters.update(verdict.counters)
            if verdict.reason is not None:
                bucket = self.expected if self.known.match(op.id, verdict.reason) else self.failed
                bucket.append((op.id, verdict.reason))
        probes.append((len(ops), probes[-1][1]))
        scaled = []
        for (first, before), (last, after) in zip(probes, probes[1:]):
            factor = 2 * PROBE_REF_S / (before + after)
            scaled += [t * factor for t in latency[first:last]]
        return {"latency": latency, "scaled": scaled, "wall": sum(latency), "work": sum(works),
                "works": works, "counters": counters,
                "probe": statistics.median(t for _, t in probes)}

    def traced_pass(self) -> dict:
        self.tracer.reset()
        p = self.execute(self.ops)
        p["spans"] = list(self.tracer.spans)
        p["calls"] = collections.Counter(self.tracer.calls)
        p["leaves"] = {"busy": dict(self.tracer.leaf_busy), "child": dict(self.tracer.leaf_child),
                       "layer_busy": dict(self.tracer.leaf_layer_busy)}
        return p

    def passes(self, seconds: float, minimum: int, traced: bool = False) -> list[dict]:
        """Whole passes until another would overrun ``seconds``."""
        done = []
        start = time.perf_counter()
        while True:
            done.append(self.traced_pass() if traced else self.execute(self.ops))
            elapsed = time.perf_counter() - start
            if len(done) >= minimum and elapsed * (len(done) + 1) / len(done) > seconds:
                return done


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    i = max(0, n - 11)
    return ordered[i], 100.0 * (i + 1) / n, n


def per_op_median(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each op's median latency over the passes, at reference host speed."""
    key = "scaled" if scaled else "latency"
    return [statistics.median(p[key][i] for p in passes) for i in range(len(passes[0][key]))]


def end_to_end(passes: list[dict], setup_s: float) -> tuple[dict, str]:
    per_op = per_op_median(passes)
    tail_s, pct, n = tail(per_op)
    wall = sum(per_op)  # one pass, each op at its median: robust to a burst in one pass
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "work_per_s": (passes[0]["work"] / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, f"op_tail_ms is p{pct:.1f} of {n} ops (per-op medians over {len(passes)} passes)"


def per_layer(ops, traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics from the traced passes (medians for times)."""
    rows = []
    for p in traced:
        spans, calls = p["spans"], p["calls"]
        s = tracing.summarize(spans, p["leaves"])
        busy, self_s, layer = s["busy"], s["self"], s["layer_busy"]
        res_calls = calls["operator_lab.resolvent"]
        res_busy = busy["operator_lab.resolvent"]
        inst_busy: collections.Counter = collections.Counter()
        inst_calls: collections.Counter = collections.Counter()
        for name, start, end, _, op in spans:
            if name == "operator_lab.resolvent":
                inst = ops[op].instance
                inst_busy[inst] += end - start
                inst_calls[inst] += 1
        steps = p["counters"]["reduction_steps"]
        iters = p["counters"]["iterations"]
        checks = ("class", "resolvent", "min_selection", "closedness")
        algo_busy = busy["algorithms.proximal_point"] + busy["algorithms.moudafi_iteration"]
        formulas = sum(1 for op in ops if op.id.startswith("oracle-"))
        row = {
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.main.self_s": (self_s["cli.main"], "s"),
            "cli.jobs2_speedup": (_jobs2_speedup(ops, p["latency"]), "ratio"),
            "operator_lab.build_catalog.calls": (calls["operator_lab.build_catalog"], "count"),
            "operator_lab.build_catalog.busy_s": (busy["operator_lab.build_catalog"], "s"),
            "operator_lab.resolvent.calls": (res_calls, "count"),
            "operator_lab.resolvent.busy_s": (res_busy, "s"),
            "operator_lab.resolvent.us_per_call": (_ratio(res_busy * 1e6, res_calls), "us"),
            **{f"operator_lab.resolvent.us_per_call.{inst}":
               (_ratio(inst_busy[inst] * 1e6, inst_calls[inst]), "us")
               for inst in workloads.INSTANCES},
            **{f"operator_lab.check.{c}.busy_s": (busy[f"operator_lab.check.{c}"], "s")
               for c in checks},
            "operator_lab.check.self_s": (sum(self_s[f"operator_lab.check.{c}"] for c in checks),
                                          "s"),
            "operator_lab.checks_recorded": (p["counters"]["checks_recorded"], "count"),
            "operator_lab.zero_coverage_reports": (p["counters"]["zero_coverage_reports"],
                                                   "count"),
            "term_calculus.reduce_term.calls": (calls["term_calculus.reduce_term"], "count"),
            "term_calculus.reduce_term.busy_s": (busy["term_calculus.reduce_term"], "s"),
            "term_calculus.reduction_steps": (steps, "count"),
            "term_calculus.us_per_step": (_ratio(busy["term_calculus.reduce_term"] * 1e6, steps),
                                          "us"),
            "term_calculus.step_cost_growth": (_step_cost_growth(ops, p), "ratio"),
            "term_calculus.typecheck.busy_s": (busy["term_calculus.typecheck"], "s"),
            "term_calculus.evaluate.calls": (calls["term_calculus.evaluate"], "count"),
            "term_calculus.evaluate.busy_s": (busy["term_calculus.evaluate"], "s"),
            "term_calculus.enumerate_values.busy_s": (busy["term_calculus.enumerate_values"],
                                                      "s"),
            "formula_engine.eval_dialectica.busy_s": (busy["formula_engine.eval_dialectica"],
                                                      "s"),
            "formula_engine.eval_formula.busy_s": (busy["formula_engine.eval_formula"], "s"),
            "formula_engine.translate.busy_s": (
                busy["formula_engine.translate.negative_translation"]
                + busy["formula_engine.translate.dialectica"], "s"),
            "formula_engine.parse_formula.busy_s": (busy["formula_engine.parse_formula"], "s"),
            "formula_engine.refusals": (p["counters"]["refusals"], "count"),
            "formula_engine.decided_ratio": (
                _ratio(formulas - p["counters"]["refusals"], formulas), "ratio"),
            "real_codes.calls": (sum(v for k, v in calls.items() if k.startswith("real_codes.")),
                                 "count"),
            "real_codes.busy_s": (layer["real_codes"], "s"),
            "majorization.bobs_uniform_majorant.busy_s": (
                busy["majorization.bobs_uniform_majorant"], "s"),
            "algorithms.iterations": (iters, "count"),
            "algorithms.us_per_iteration": (_ratio(algo_busy * 1e6, iters), "us"),
            "algorithms.self_s": (self_s["algorithms.proximal_point"]
                                  + self_s["algorithms.moudafi_iteration"], "s"),
            "algorithms.serialize.busy_s": (busy["algorithms.serialize.to_json"]
                                            + busy["algorithms.serialize.to_csv"], "s"),
            "trace.overhead_pct": (100.0 * (sum(p["scaled"]) - untraced_wall) / untraced_wall, "%"),
        }
        rows.append(row)
    out = {}
    for name, (_, unit) in rows[0].items():
        values = [r[name][0] for r in rows]
        out[name] = (statistics.median(values), unit)
    return out


def _ratio(a: float, b: float) -> float:
    """``a / b``, or 0 when the layer did no work on this workload."""
    return a / b if b else 0.0


def _jobs2_speedup(ops, latency) -> float:
    pairs = collections.defaultdict(dict)
    for op, t in zip(ops, latency):
        kind, _, key = op.group.partition(":")
        if kind in ("jobs1", "jobs2"):
            pairs[key][kind] = t
    ratios = [p["jobs1"] / p["jobs2"] for p in pairs.values() if len(p) == 2]
    return statistics.median(ratios) if ratios else 0.0


def _step_cost_growth(ops, p) -> float:
    """µs per step on the largest monus rung over that on the smallest."""
    rungs = collections.defaultdict(list)
    for op, t, steps in zip(ops, p["latency"], p["works"]):
        if op.group.startswith("monus:") and steps:
            rungs[int(op.group[6:])].append(t / steps)
    if len(rungs) < 2:
        return 0.0
    return statistics.median(rungs[max(rungs)]) / statistics.median(rungs[min(rungs)])


def source_digest() -> str:
    """Digest of the program and of this benchmark: same digest, same work."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "prooflab").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counters(workload: str, seed: int, passes: list[dict], extra: dict) -> list[str]:
    """Exact counters must repeat across passes of this run, and across runs
    of the same source with the same seed (kept in ``.perfbench_out``)."""
    problems = []
    first = {k: passes[0]["counters"][k] for k in EXACT_COUNTERS}
    for i, p in enumerate(passes[1:], 2):
        now = {k: p["counters"][k] for k in EXACT_COUNTERS}
        if now != first:
            problems.append(f"pass {i} counters {now} differ from pass 1 {first}")
    first.update(extra)
    path = OUT / "counters.json"
    store = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    key = f"{source_digest()}:{workload}:{seed}"
    before = store.get(key, {})
    for name in sorted(set(before) & set(first)):
        if before[name] != first[name]:
            problems.append(f"{name} = {first[name]}, an earlier run of this source had "
                            f"{before[name]}")
    store[key] = {**before, **first}
    path.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prooflab" / "__init__.py").is_file():
        sys.stderr.write(f"no prooflab sources under {SRC}; run from a prooflab checkout\n")
        return 2

    OUT.mkdir(exist_ok=True)
    setup_s = measure_setup()
    modules = load_modules()
    tmp = OUT / f"tmp-{args.workload}-{args.seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        ops, deep = workloads.WORKLOADS[args.workload](rng, modules, tmp)
        known = KnownFailures(args.workload)
        run = Run(ops, known)
        run.execute(deep)
        if args.trace:
            untraced = run.passes(0.4 * args.seconds, minimum=1)
            run.tracer = tracing.Tracer(modules)
            run.tracer.install()
            try:
                traced = run.passes(0.6 * args.seconds, minimum=2, traced=True)
            finally:
                run.tracer.remove()
            tracing.write_spans(OUT / f"trace-{args.workload}.tsv",
                                [s for p in traced for s in p["spans"]])
        else:
            untraced, traced = run.passes(args.seconds, minimum=1), []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    e2e, tail_note = end_to_end(untraced, setup_s)
    extra = {}
    if traced:
        extra["resolvent_calls"] = traced[0]["calls"]["operator_lab.resolvent"]
    problems = check_counters(args.workload, args.seed, untraced + traced, extra)
    for i, p in enumerate(traced[1:], 2):
        if p["calls"]["operator_lab.resolvent"] != extra["resolvent_calls"]:
            problems.append(f"traced pass {i} made {p['calls']['operator_lab.resolvent']} "
                            f"resolvent calls, traced pass 1 made {extra['resolvent_calls']}")

    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
             + (f", {len(traced)} traced" if args.trace else "")
             + f"  ops/pass {len(ops)}  deep-and-refusal ops {len(deep)}"]
    for name, (value, unit) in e2e.items():
        lines.append(f"  {name:<14} {value:12.4f} {unit}")
    lines.append(f"  {tail_note}")
    raw = per_op_median(untraced, scaled=False)
    lines.append(f"  times above are at reference host speed (probe {PROBE_REF_S * 1e3:.3f} ms); "
                 f"this run's probe took {statistics.median(p['probe'] for p in untraced) * 1e3:.3f}"
                 f" ms, raw: wall_s {sum(raw):.4f} s, op_p50_ms {statistics.median(raw) * 1e3:.4f}"
                 f" ms, op_tail_ms {tail(raw)[0] * 1e3:.4f} ms")
    failures = len(run.failed) + len(run.expected)
    lines.append(f"  error_rate     {failures / run.attempted:12.6f} ratio  "
                 f"({failures} of {run.attempted} ops; {len(run.expected)} are recorded "
                 "seed-state failures)")
    for op_id, reason in sorted(set(run.expected)):
        lines.append(f"  known failure: {op_id}: {reason}")
    for i, e in enumerate(known.entries):
        if i not in known.seen and not any(ch in e["op"] for ch in "*?["):
            lines.append(f"  recorded failure no longer fails: {e['op']}")
    for op_id, reason in sorted(set(run.failed)):
        lines.append(f"  FAILED: {op_id}: {reason}")
    for problem in problems:
        lines.append(f"  COUNTER MISMATCH: {problem}")
    counters = {k: untraced[0]["counters"][k] for k in EXACT_COUNTERS}
    lines.append(f"  exact counters per pass: {json.dumps({**counters, **extra}, sort_keys=True)}")

    if args.trace:
        layer = per_layer(ops, traced, statistics.median(sum(p["scaled"]) for p in untraced))
        lines.append("per-layer (traced passes):")
        for name, (value, unit) in layer.items():
            lines.append(f"  {name:<52} {value:14.6f} {unit}")
        metrics = layer
    else:
        metrics = e2e
    print("\n".join(lines))
    if run.failed or problems:
        sys.stderr.write("benchmark check failed; see FAILED / COUNTER MISMATCH lines\n")
    correct = not run.failed and not problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
