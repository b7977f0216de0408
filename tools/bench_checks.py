"""Layer (e) record: per check group and resolvent times of the ``oplab_verify`` workload.

For each ``--src LABEL=CHECKOUT`` (the root of a prooflab checkout, holding
``src/`` and ``perfbench/``) the harness runs, from that checkout,

    python3 perfbench/run.py --workload oplab_verify --seed SEED --seconds SECONDS --trace 1

``--runs`` times, alternating the order of the sources from run to run, and
keeps the per-layer metrics named ``operator_lab.check.*`` and
``operator_lab.resolvent.*``.  A source's value is the median over its runs,
and ``runs`` lists every run's value in order.  A run that is not correct, or
that fails an op, stops the harness.  Usage, from the root of a checkout::

    python tools/bench_checks.py --src change=. --src parent=../parent --runs 3 > BENCH_checks.json

The JSON record goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PREFIXES = ("operator_lab.check.", "operator_lab.resolvent.")
METRICS = {
    "operator_lab.check.<group>.busy_s": "seconds a pass spends inside the group's entry "
    "point (class, resolvent suite, minimal-norm selection, graph closedness): its draws, "
    "the sample sets its reported checks read, and the reports; on neg_half_identity the "
    "resolvent suite builds neither the minimality set nor the change points' resolvents "
    "at gamma, which none of its checks reads",
    "operator_lab.check.self_s": "seconds a pass spends in the four groups outside their "
    "traced children",
    "operator_lab.resolvent.*": "spans of the one-row resolvent(op, gamma, x); the checks call "
    "resolve_rows, which the tracer does not wrap, so on this workload these read 0 and the "
    "kernel's time is inside the check groups",
}


def one_run(checkout: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oplab_verify", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: the run is not correct:\n{done.stdout}{done.stderr}")
    return {name: round(m["value"], 6) for name, m in result["metrics"].items()
            if name.startswith(PREFIXES)}


def _host() -> str:
    import numpy

    return (f"{platform.machine()}, {os.cpu_count()} cpus, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=CHECKOUT",
                        help="a labelled prooflab checkout (repeatable)")
    parser.add_argument("--runs", type=int, default=3, help="runs per source")
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    sources = dict(s.split("=", 1) for s in args.src or ["src=."])
    runs = {label: [] for label in sources}
    for i in range(args.runs):
        for label in list(sources)[:: 1 if i % 2 == 0 else -1]:
            runs[label].append(one_run(sources[label], args.seed, args.seconds))
    record = {
        "layer": "(e) property-suite check groups, with the resolvent kernel they call",
        "harness": "tools/bench_checks.py, over perfbench/run.py --trace 1",
        "command": "python tools/bench_checks.py "
        + " ".join(f"--src '{label}=...'" for label in sources)
        + f" --runs {args.runs} --seed {args.seed} --seconds {args.seconds:g}",
        "workload": "oplab_verify",
        "host": _host(),
        "method": f"{args.runs} runs per source, alternating the order of the sources; a value "
        "is the median over the runs of the traced passes' per-layer metric, and runs lists "
        "every run's value in order; per-pass values are medians over the run's traced "
        "passes, and times are raw, not scaled to the host probe",
        "metrics": METRICS,
    }
    for label, per_run in runs.items():
        record[label] = {
            name: {"value": statistics.median(r[name] for r in per_run),
                   "runs": [r[name] for r in per_run]}
            for name in sorted(per_run[0])
        }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
