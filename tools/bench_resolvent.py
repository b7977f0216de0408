"""Micro-harness for the resolvent kernel, one record per catalog instance.

For each instance it builds 300 rows ``(gamma, x)`` cycling the instance's
step-size grid, the way proximal-point runs meet them: half are drawn from
the resolvent domain, and the next iterate ``J_gamma(x)`` of each drawn row
follows it where it still lies in the domain (for the box, a point on its
faces or inside); more drawn rows fill up the rest.  Two medians over
``--repeats`` timed passes are reported:

- ``scalar_us_per_call``: one ``resolvent(op, gamma, x)`` call per row;
- ``batch_us_per_row``: one ``resolve_rows(op, gammas, X)`` call over all rows,
  divided by the row count.  A source tree without ``resolve_rows`` resolves
  the batch with one ``resolvent`` call per row instead.

Each ``--src LABEL=DIR`` names a directory holding a ``prooflab`` package.
The harness makes ``--runs`` runs per source, each in a fresh interpreter,
alternating the order of the sources from run to run.  A source's value is
the median of its run medians, and ``*_runs`` lists every run's median in
order.  Usage, from the root of a checkout::

    python tools/bench_resolvent.py --src change=src --src parent=../parent/src --runs 10

The JSON record goes to stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROWS = 300
METRICS = {
    "scalar_us_per_call": "one resolvent(op, gamma, x) call per row",
    "batch_us_per_row": "one resolve_rows(op, gammas, X) call over all 300 rows, per row; a "
    "source without the batch kernel resolves one call per row",
}


def _rows(operator_lab, np, name: str, seed: int):
    op = operator_lab.build_catalog(seed)[name]
    rng = np.random.default_rng(seed)
    draw = op.domain_sampler or (lambda rng, n, gamma, r: rng.uniform(-r, r, size=(n, op.dim)))
    gammas = np.resize(np.asarray(operator_lab.CATALOG[name].gamma_grid, dtype=float), ROWS)
    drawn = np.concatenate([draw(rng, 1, gamma, 5.0) for gamma in gammas])

    def resolvable(gamma, x) -> bool:
        try:
            operator_lab.resolvent(op, gamma, x)
        except operator_lab.OutsideDomain:
            return False
        return True

    rows = []
    for gamma, x in zip(gammas[: ROWS // 2], drawn):
        nxt = operator_lab.resolvent(op, gamma, x)
        rows += [(gamma, x)] + ([(gamma, nxt)] if resolvable(gamma, nxt) else [])
    rows = (rows + list(zip(gammas[ROWS // 2 :], drawn[ROWS // 2 :])))[:ROWS]
    return op, np.array([g for g, _ in rows]), np.array([x for _, x in rows])


def _median_us(fn, repeats: int) -> float:
    fn()  # warm-up: first-call costs are not the kernel's
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter_ns()
            fn()
            times.append((time.perf_counter_ns() - start) / 1e3 / ROWS)
    finally:
        gc.enable()
    return round(statistics.median(times), 2)


def measure(src: str, repeats: int, seed: int) -> dict:
    """One run: per-instance medians for the ``prooflab`` package under ``src``."""
    sys.path.insert(0, src)
    import numpy as np

    from prooflab import operator_lab

    resolvent = operator_lab.resolvent
    batch = getattr(operator_lab, "resolve_rows", None)
    out = {}
    for name in operator_lab.CATALOG:
        op, gammas, points = _rows(operator_lab, np, name, seed)
        pairs = list(zip(gammas.tolist(), points))

        def scalar():
            for gamma, x in pairs:
                resolvent(op, gamma, x)

        batched = scalar if batch is None else (lambda: batch(op, gammas, points))
        out[name] = {"scalar_us_per_call": _median_us(scalar, repeats),
                     "batch_us_per_row": _median_us(batched, repeats)}
    return out


def _host() -> str:
    import numpy

    return (f"{platform.machine()}, {os.cpu_count()} cpus, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a labelled directory holding the prooflab package (repeatable)")
    parser.add_argument("--runs", type=int, default=5, help="fresh-interpreter runs per source")
    parser.add_argument("--repeats", type=int, default=15, help="timed passes per run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--one", metavar="DIR", help=argparse.SUPPRESS)  # a single run
    args = parser.parse_args(argv)
    if args.one:
        json.dump(measure(args.one, args.repeats, args.seed), sys.stdout)
        return 0
    sources = dict(s.split("=", 1) for s in args.src or ["src=src"])
    runs = {label: [] for label in sources}
    for i in range(args.runs):
        for label in list(sources)[:: 1 if i % 2 == 0 else -1]:
            cmd = [sys.executable, __file__, "--one", sources[label],
                   "--repeats", str(args.repeats), "--seed", str(args.seed)]
            runs[label].append(json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                                         text=True).stdout))
    record = {
        "layer": "(d) resolvent kernel, per catalog operator",
        "harness": "tools/bench_resolvent.py",
        "command": "python tools/bench_resolvent.py "
        + " ".join(f"--src '{label}=...'" for label in sources)
        + f" --runs {args.runs} --repeats {args.repeats} --seed {args.seed}",
        "rows": ROWS,
        "unit": "us",
        "host": _host(),
        "method": f"{args.runs} runs per source, each in a fresh interpreter, alternating the "
        "order of the sources; a value is the median of the run medians (each over --repeats "
        "timed passes), and *_runs lists every run's median in order",
        "rows_drawn": "half drawn from the resolvent domain at the step-size grid, each followed "
        "by its next proximal-point iterate where that stays in the domain, the rest drawn",
        "metrics": METRICS,
    }
    for label, per_run in runs.items():
        record[label] = {
            name: {
                **{m: round(statistics.median(r[name][m] for r in per_run), 2) for m in METRICS},
                **{m.split("_")[0] + "_runs": [r[name][m] for r in per_run] for m in METRICS},
            }
            for name in per_run[0]
        }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
