"""Layer harness: the soundness oracle (b), the resolvent kernel (d) and the check groups (e).

``python tools/bench_layers.py LAYER --src LABEL=DIR ...`` measures one layer of
each ``prooflab`` package named by ``--src`` (a directory holding the package),
``--runs`` times per source, each run in a fresh interpreter, alternating the
order of the sources from run to run.  A source's value is the median of its
runs, and its ``*_runs`` keys list every run in order.  With two sources the
record adds a ``paired`` block: per metric, the median, min and max of the
ratio second/first over the adjacent runs, and ``wins``, the pairs in which the
second source is lower; their min and max show how far the host's drift moves one pair.

Layer ``b``, per stratum of the ``symbolic_oracle`` workload of ``perfbench/workloads.py``:
its oracle ops on the corpus it draws at ``--seed``, one ``check_interpretation_soundness``
call per formula (``"refused"`` past the budget), timed in-process; the formulas decided,
the refusals and the witness tuples (the sum of ``search_size``) are counts recorded once
per source.

Layer ``d``, per catalog instance, over 300 rows ``(gamma, x)`` cycling the
instance's step-size grid (half drawn from the resolvent domain, each followed by
its next proximal-point iterate where that stays in the domain, the rest drawn):

- ``scalar_us_per_call``: one ``resolvent(op, gamma, x)`` call per row;
- ``batch_us_per_row``: one ``resolve_rows(op, gammas, X)`` call over all rows, per row;
- ``ppa_us_per_step``: one ``proximal_point`` run of at most ``PPA_STEPS`` steps from
  the instance's start in ``PPA_RUNS``, per step taken;
- for ``tan_subgradient``, ``batch_us_per_row_by_rows``: ``batch_us_per_row`` of the
  first rows of a larger draw, at sizes that bracket the measured package's
  ``_TAN_LOCKSTEP_ROWS`` cutoff between its two bisections.

Layer ``e``, per group of ``operator_lab.CHECK_GROUPS``: the ``check_group(op, group, rng,
gamma_grid, samples, 1e-8)`` calls of ``prooflab oplab verify`` at the sample sizes the
``oplab_verify`` workload runs (30, 60 and ``LARGE_SAMPLES`` per instance of
``perfbench/workloads.py``), ``rng`` spawned per group as the verb does, timed in-process;
``samples_checked``, the sum of the reports' ``checks``, and the ``resolve_rows`` calls and
rows the group makes are counts recorded once per source.

Each time is the median of ``--repeats`` timed passes after a warm-up.  Usage, from
the root of a checkout, the JSON record on stdout::

    python tools/bench_layers.py d --src parent=../parent/src --src change=src --runs 10
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROWS = 300
SIZES = (1, 16, 32, 64, 300, 750)  # tan sweep sizes next to the two at the cutoff
SWEEP = "batch_us_per_row_by_rows"
CHECK_COUNTS = "check_counts"  # a run's counts: one set per group, the same in every run
ORACLE_COUNTS = "oracle_counts"  # likewise, one per stratum
PPA_STEPS = 1000
PPA_RUNS = {  # instance: start point and schedule, as the prox_iterate workload draws them
    "identity": ([2.0, -3.0], "const:0.006"),
    "psd_skew": ([1.0, 2.0, 3.0, -1.0, 0.0, 5.0], "const:0.006"),
    "abs_subdiff": ([4.0], "harmonic:0.4"),  # never reaches the zero
    "box_normal_cone": ([2.0, -3.0, 0.5], "harmonic:1.0"),  # reaches a face, a zero, at step 1
    "neg_half_identity": ([3.0, -1.0], "const:8.0"),  # reaches the zero at step 20
    "tan_subgradient": ([1.4], "const:0.0013"),  # leaves the domain at step 604
}


def _median_s(fn, repeats: int) -> float:
    """Median seconds of one ``fn()`` over ``repeats`` timed passes, after a warm-up."""
    fn()  # first-call costs are not the layer's
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter_ns()
            fn()
            times.append((time.perf_counter_ns() - start) / 1e9)
    finally:
        gc.enable()
    return statistics.median(times)


def sweep_sizes(operator_lab) -> list[int]:
    cutoff = operator_lab._TAN_LOCKSTEP_ROWS
    return sorted({*SIZES, cutoff - 1, cutoff})


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


def measure_d(repeats: int, seed: int) -> dict:
    import numpy as np

    from prooflab import algorithms, operator_lab

    resolvent, batch = operator_lab.resolvent, operator_lab.resolve_rows

    def us(fn, per: int = ROWS) -> float:
        return round(_median_s(fn, repeats) * 1e6 / per, 4)

    out = {}
    for name in operator_lab.CATALOG:
        op, gammas, points = _rows(operator_lab, np, name, seed)
        pairs = list(zip(gammas.tolist(), points))
        x0, schedule = PPA_RUNS[name]

        def ppa():
            return algorithms.proximal_point(op, x0, schedule, PPA_STEPS)

        out[name] = {"scalar_us_per_call": us(lambda: [resolvent(op, g, x) for g, x in pairs]),
                     "batch_us_per_row": us(lambda: batch(op, gammas, points)),
                     "ppa_us_per_step": us(ppa, len(ppa().points) - 1)}
        if name == "tan_subgradient":
            sizes = sweep_sizes(operator_lab)
            op, gammas, points = _rows(operator_lab, np, name, seed, max(sizes))
            out[name][SWEEP] = {str(n): us(lambda n=n: batch(op, gammas[:n], points[:n]), n)
                                for n in sizes}
    return out


def _workloads():
    """``perfbench/workloads.py``, read for its sizes and corpora, not run as a benchmark."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


def measure_b(repeats: int, seed: int) -> dict:
    import random
    import tempfile

    from prooflab import cli, formula_engine, term_calculus

    workloads, m = _workloads(), {"cli": cli, "formula_engine": formula_engine,
                                  "term_calculus": term_calculus}
    with tempfile.TemporaryDirectory() as tmp:  # the workload writes files for its CLI ops
        ops, _ = workloads.symbolic_oracle(random.Random(f"symbolic_oracle:{seed}"), m,
                                           pathlib.Path(tmp))
    strata = {}
    for op in ops:  # an oracle op's formula is the default argument of its run
        if op.id.startswith("oracle-"):
            strata.setdefault(op.group, []).append(op.run.__defaults__[0])
    model = term_calculus.FiniteModel(workloads.ORACLE_CARRIER)
    out, counts = {}, {}
    for stratum, formulas in sorted(strata.items()):

        def run():  # the ops' own call: check_interpretation_soundness, or "refused"
            return [workloads._oracle_call(m, f) for f in formulas]

        decided = [f for f, got in zip(formulas, run()) if got != "refused"]
        counts[stratum] = {"decided": len(decided), "refusals": len(formulas) - len(decided),
                           "witness_tuples": sum(formula_engine.dialectica(f).search_size(model)
                                                 for f in decided)}
        out[f"oracle.{stratum}.in_process_s"] = {"value": round(_median_s(run, repeats), 6)}
    return {**out, ORACLE_COUNTS: counts}


def measure_e(repeats: int, seed: int) -> dict:
    import numpy as np

    from prooflab import cli, operator_lab

    workloads = _workloads()
    ops, groups = operator_lab.build_catalog(seed), operator_lab.CHECK_GROUPS
    calls = [(ops[name], operator_lab.CATALOG[name].gamma_grid, samples)
             for inst in workloads.INSTANCES for name in [cli.INSTANCE_ALIASES.get(inst, inst)]
             for samples in (30, 60, workloads.LARGE_SAMPLES[inst])]  # as oplab_verify runs them
    kernel, tally = operator_lab.resolve_rows, {}

    def counted(op, gammas, X, tol=1e-8):  # the outermost calls: a partial domain recurses
        outermost = not tally["open"]
        tally["resolve_rows_calls"] += outermost
        tally["resolve_rows_rows"] += outermost * len(gammas)
        tally["open"] += 1
        try:
            return kernel(op, gammas, X, tol)
        finally:
            tally["open"] -= 1

    out, counts = {}, {}
    for group, child in zip(groups, np.random.SeedSequence(seed).spawn(len(groups))):

        def run():  # every call draws from the group's child of seed, as oplab verify does
            return [report for op, grid, samples in calls for report in operator_lab.check_group(
                op, group, np.random.default_rng(child), grid, samples, 1e-8)]

        tally.update(open=0, resolve_rows_calls=0, resolve_rows_rows=0)
        operator_lab.resolve_rows = counted
        try:
            checked = sum(report.checks for report in run())
        finally:
            operator_lab.resolve_rows = kernel
        counts[group] = {"samples_checked": checked,
                         "resolve_rows_calls": tally["resolve_rows_calls"],
                         "resolve_rows_rows": tally["resolve_rows_rows"]}
        out[f"check_group.{group}.in_process_s"] = {"value": round(_median_s(run, repeats), 6)}
    return {**out, CHECK_COUNTS: counts}


LAYERS = {
    "b": {
        "measure": measure_b,
        "runs_key": lambda key: "runs",
        "counts": ORACLE_COUNTS,
        "layer": "(b) the translation-soundness oracle, per symbolic_oracle stratum",
        "record": {
            "unit": "s",
            "metrics": {
                "oracle.<stratum>.in_process_s": "seconds of the stratum's oracle ops of the "
                "symbolic_oracle workload, on the corpus it draws from Random('symbolic_oracle:"
                "<seed>'): one check_interpretation_soundness(f, FiniteModel(ORACLE_CARRIER), "
                "budget=ORACLE_BUDGET) call per formula, a refusal being EnumerationBudgetExceeded",
                ORACLE_COUNTS: "per stratum, formulas decided, refusals, and witness tuples (the "
                "sum of search_size of the decided formulas' Dialectica forms); they do not "
                "depend on the machine, so they are recorded once per source",
            },
        },
    },
    "d": {
        "measure": measure_d,
        "runs_key": lambda key: f"{key}_runs" if key == SWEEP else key.split("_")[0] + "_runs",
        "layer": "(d) resolvent kernel, per catalog operator",
        "record": {
            "rows": ROWS,
            "unit": "us",
            "rows_drawn": "half drawn from the resolvent domain at the step-size grid, each "
            "followed by its next proximal-point iterate where that stays in the domain, the "
            "rest drawn",
            "metrics": {
                "scalar_us_per_call": "one resolvent(op, gamma, x) call per row",
                "batch_us_per_row": "one resolve_rows(op, gammas, X) call over all 300 rows, "
                "per row",
                "ppa_us_per_step": f"one proximal_point run of at most {PPA_STEPS} steps from "
                "PPA_RUNS, per step taken",
                SWEEP: "batch_us_per_row of a batch of the first n rows of a larger draw, at n "
                f"in {', '.join(map(str, SIZES))} and the two sizes at the package's "
                "_TAN_LOCKSTEP_ROWS cutoff L (L - 1 and L), tan_subgradient only",
            },
        },
    },
    "e": {
        "measure": measure_e,
        "runs_key": lambda key: "runs",
        "counts": CHECK_COUNTS,
        "layer": "(e) property-suite check groups, with the resolvent kernel they call",
        "record": {
            "unit": "s",
            "metrics": {
                "check_group.<group>.in_process_s": "seconds of the check_group(op, group, rng, "
                "gamma_grid, samples, 1e-8) calls of oplab_verify, at 30, 60 and LARGE_SAMPLES "
                "samples per instance, rng spawned per group from SeedSequence(seed) as oplab "
                "verify does: the group's draws, the sample sets its checks read (resolvents "
                "included), and the reports; not the tracer's operator_lab.check.*.busy_s",
                CHECK_COUNTS: "per group, samples_checked, the sum of those reports' checks, and "
                "resolve_rows_calls and resolve_rows_rows, the outermost operator_lab.resolve_rows "
                "calls the group makes and their rows; they do not depend on the machine, so they "
                "are recorded once per source",
            },
        },
    },
}


def _tree(f, *trees):
    """``f`` over the leaves that the nested dicts ``trees`` share."""
    return {key: _tree(f, *(t[key] for t in trees)) if isinstance(first, dict)
            else f(*(t[key] for t in trees))
            for key, first in trees[0].items() if all(key in t for t in trees)}


def paired(first: list, second: list) -> dict:
    """The ratio second/first over the adjacent runs: median, min, max, and the wins of
    the second source, the pairs in which it is lower."""
    ratios = [b / a for a, b in zip(first, second)]
    return {"median": round(statistics.median(ratios), 4), "min": round(min(ratios), 4),
            "max": round(max(ratios), 4), "wins": sum(r < 1 for r in ratios)}


def build_record(layer: str, runs: dict[str, list], command: str, host: str) -> dict:
    """The layer's record from each source's list of runs, in order."""
    spec = LAYERS[layer]
    record = {"layer": spec["layer"], "harness": f"tools/bench_layers.py {layer}",
              "command": command, "host": host,
              "method": f"{len(next(iter(runs.values())))} runs per source, each in a fresh "
              "interpreter, alternating the order of the sources; a value is the median of "
              "the runs (each a median over --repeats timed passes), *_runs lists every run "
              "in order, and paired gives the ratio second/first over adjacent runs",
              **spec["record"]}
    columns, counted = {}, spec.get("counts")
    for label, per_run in runs.items():
        counts = [run.get(counted) for run in per_run]
        if any(count != counts[0] for count in counts):
            raise ValueError(f"{label}: {counted} differs between runs: {counts}")
        columns[label] = column = _tree(lambda *xs: list(xs), *(
            {key: value for key, value in run.items() if key != counted} for run in per_run))
        record[label] = {
            top: {**_tree(lambda xs: round(statistics.median(xs), 6), entry),
                  **{spec["runs_key"](key): value for key, value in entry.items()}}
            for top, entry in column.items()}
        if counts[0] is not None:
            record[label][counted] = counts[0]
    if len(columns) == 2:
        first, second = columns.values()
        record["paired"] = {"ratio": "/".join(reversed(columns)),
                            **_tree(paired, first, second)}
    return record


def _host() -> str:
    import numpy

    return (f"{platform.machine()}, {os.cpu_count()} cpus, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("layer", choices=sorted(LAYERS))
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a labelled directory holding the prooflab package (repeatable)")
    parser.add_argument("--runs", type=int, default=5, help="fresh-interpreter runs per source")
    parser.add_argument("--repeats", type=int, default=15, help="timed passes per run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--one", metavar="DIR", help=argparse.SUPPRESS)  # a single run
    args = parser.parse_args(argv)
    if args.one:
        sys.path.insert(0, args.one)
        json.dump(LAYERS[args.layer]["measure"](args.repeats, args.seed), sys.stdout)
        return 0
    sources = dict(s.split("=", 1) for s in args.src or ["src=src"])
    runs = {label: [] for label in sources}
    for i in range(args.runs):
        for label in list(sources)[:: 1 if i % 2 == 0 else -1]:
            cmd = [sys.executable, __file__, args.layer, "--one", sources[label],
                   "--repeats", str(args.repeats), "--seed", str(args.seed)]
            runs[label].append(json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                                         text=True).stdout))
    command = (f"python tools/bench_layers.py {args.layer} "
               + " ".join(f"--src '{label}=...'" for label in sources)
               + f" --runs {args.runs} --repeats {args.repeats} --seed {args.seed}")
    json.dump(build_record(args.layer, runs, command, _host()), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
