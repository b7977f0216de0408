"""Micro-harness for the resolvent kernel, one record per catalog instance.

For each instance it builds 300 rows ``(gamma, x)`` cycling the instance's
step-size grid, the way proximal-point runs meet them: half are drawn from
the resolvent domain, and the next iterate ``J_gamma(x)`` of each drawn row
follows it where it still lies in the domain (for the box, a point on its
faces or inside); more drawn rows fill up the rest.  Three medians over
``--repeats`` timed passes are reported:

- ``scalar_us_per_call``: one ``resolvent(op, gamma, x)`` call per row;
- ``batch_us_per_row``: one ``resolve_rows(op, gammas, X)`` call over all rows,
  divided by the row count;
- ``ppa_us_per_step``: one ``proximal_point`` run of at most ``PPA_STEPS`` steps from
  the instance's start in ``PPA_RUNS``, divided by the steps it takes.

For ``tan_subgradient``, whose bisection takes one path for small batches and
another for large ones, ``batch_us_per_row_by_rows`` also gives
``batch_us_per_row`` for batches of each size in ``SIZES``: the first rows of a
set of ``max(SIZES)`` rows drawn the same way.

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
SIZES = (1, 16, 32, 64, 300, 750)  # batch sizes of the tan_subgradient sweep
METRICS = {
    "scalar_us_per_call": "one resolvent(op, gamma, x) call per row",
    "batch_us_per_row": "one resolve_rows(op, gammas, X) call over all 300 rows, per row",
    "ppa_us_per_step": "one proximal_point run of at most 1000 steps from PPA_RUNS, per step taken",
}
PPA_STEPS = 1000
PPA_RUNS = {  # instance: start point and schedule, as the prox_iterate workload draws them
    "identity": ([2.0, -3.0], "const:0.006"),
    "psd_skew": ([1.0, 2.0, 3.0, -1.0, 0.0, 5.0], "const:0.006"),
    "abs_subdiff": ([4.0], "harmonic:0.4"),  # never reaches the zero
    "box_normal_cone": ([2.0, -3.0, 0.5], "harmonic:1.0"),  # reaches a face, a zero, at step 1
    "neg_half_identity": ([3.0, -1.0], "const:8.0"),  # reaches the zero at step 20
    "tan_subgradient": ([1.4], "const:0.0013"),  # leaves the domain at step 604
}
SWEEP = "batch_us_per_row_by_rows"


def _rows(operator_lab, np, name: str, seed: int, count: int = ROWS):
    op = operator_lab.build_catalog(seed)[name]
    rng = np.random.default_rng(seed)
    draw = op.domain_sampler or (lambda rng, n, gamma, r: rng.uniform(-r, r, size=(n, op.dim)))
    gammas = np.resize(np.asarray(operator_lab.CATALOG[name].gamma_grid, dtype=float), count)
    drawn = np.concatenate([draw(rng, 1, gamma, 5.0) for gamma in gammas])

    def resolvable(gamma, x) -> bool:
        try:
            operator_lab.resolvent(op, gamma, x)
        except operator_lab.OutsideDomain:
            return False
        return True

    rows = []
    for gamma, x in zip(gammas[: count // 2], drawn):
        nxt = operator_lab.resolvent(op, gamma, x)
        rows += [(gamma, x)] + ([(gamma, nxt)] if resolvable(gamma, nxt) else [])
    rows = (rows + list(zip(gammas[count // 2 :], drawn[count // 2 :])))[:count]
    return op, np.array([g for g, _ in rows]), np.array([x for _, x in rows])


def _median_us(fn, repeats: int, rows: int = ROWS) -> float:
    fn()  # warm-up: first-call costs are not the kernel's
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter_ns()
            fn()
            times.append((time.perf_counter_ns() - start) / 1e3 / rows)
    finally:
        gc.enable()
    return round(statistics.median(times), 2)


def measure(src: str, repeats: int, seed: int) -> dict:
    """One run: per-instance medians for the ``prooflab`` package under ``src``."""
    sys.path.insert(0, src)
    import numpy as np

    from prooflab import algorithms, operator_lab

    resolvent, batch = operator_lab.resolvent, operator_lab.resolve_rows
    out = {}
    for name in operator_lab.CATALOG:
        op, gammas, points = _rows(operator_lab, np, name, seed)
        pairs = list(zip(gammas.tolist(), points))

        def scalar():
            for gamma, x in pairs:
                resolvent(op, gamma, x)

        x0, schedule = PPA_RUNS[name]

        def ppa():
            return algorithms.proximal_point(op, x0, schedule, PPA_STEPS)

        out[name] = {"scalar_us_per_call": _median_us(scalar, repeats),
                     "batch_us_per_row": _median_us(lambda: batch(op, gammas, points), repeats),
                     "ppa_us_per_step": _median_us(ppa, repeats, len(ppa().points) - 1)}
        if name == "tan_subgradient":
            op, gammas, points = _rows(operator_lab, np, name, seed, max(SIZES))
            out[name][SWEEP] = {
                str(n): _median_us(lambda n=n: batch(op, gammas[:n], points[:n]), repeats, n)
                for n in SIZES
            }
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
        "metrics": {**METRICS, SWEEP: "batch_us_per_row of a batch of each of the first "
                    f"{', '.join(map(str, SIZES))} rows of {max(SIZES)}, tan_subgradient only"},
    }
    for label, per_run in runs.items():
        record[label] = {
            name: {
                **{m: round(statistics.median(r[name][m] for r in per_run), 2) for m in METRICS},
                **{m.split("_")[0] + "_runs": [r[name][m] for r in per_run] for m in METRICS},
            }
            for name in per_run[0]
        }
        for name, entry in record[label].items():
            if SWEEP in per_run[0][name]:
                sweeps = [r[name][SWEEP] for r in per_run]
                entry[SWEEP] = {n: round(statistics.median(s[n] for s in sweeps), 2)
                                for n in sweeps[0]}
                entry[SWEEP + "_runs"] = {n: [s[n] for s in sweeps] for n in sweeps[0]}
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
