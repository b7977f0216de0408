"""Layer harness: the cases of term reduction (a), the soundness oracle (b), the resolvent
kernel (d) and the check groups (e), as ``LAYERS`` describes them.

Each of ``--runs`` rounds starts one resident worker per ``--src`` package, alternating the
launch order by round, warms every case, then times ``PAIRS`` pairs of requests per case in
ABBA order, one worker at a time.  A request is ``calls_per_request`` back-to-back calls with
gc off, as many for both sources, set in the first round so that it lasts about ``REQUEST_S``.
Rounds of fresh processes are resampled because a process's memory layout biases its timings
for its whole life (Mytkowicz et al., ASPLOS 2009; Kalibera and Jones, ISMM 2013).

A case's record holds each source's median in microseconds per ``per`` (rows, steps, formulas,
terms or 1), the median ratio second/first over the pairs, a 95% interval from a seeded
two-level bootstrap (rounds, then pairs within a round), and the verdict: ``gain`` when the
interval's top is below 1, ``defect`` (a slowdown) when its bottom is above ``DEFECT``,
``level`` otherwise.  Counts that do not depend on the machine are recorded once; sources
whose cases or counts differ are refused (exit 1).

Usage, from the root of a checkout, the JSON record on stdout::

    python tools/bench_layers.py d --src parent=../parent/src --src change=src
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib.metadata
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import time

ROWS = 300
SIZES = (1, 16, 32, 64, 300, 750)  # tan sweep sizes next to the two at the cutoff
SWEEP = "batch_us_per_row_by_rows"
PPA_STEPS = 1000
PPA_RUNS = {  # instance: start point and schedule, as the prox_iterate workload draws them
    "identity": ([2.0, -3.0], "const:0.006"),
    "psd_skew": ([1.0, 2.0, 3.0, -1.0, 0.0, 5.0], "const:0.006"),
    "abs_subdiff": ([4.0], "harmonic:0.4"),  # never reaches the zero
    "box_normal_cone": ([2.0, -3.0, 0.5], "harmonic:1.0"),  # reaches a face, a zero, at step 1
    "neg_half_identity": ([3.0, -1.0], "const:8.0"),  # reaches the zero at step 20
    "tan_subgradient": ([1.4], "const:0.0013"),  # leaves the domain at step 604
}
PAIRS = 30  # timed pairs per case and round
REQUEST_S = 0.002  # a request's target length
RESAMPLES = 2000  # bootstrap resamples per interval
DEFECT = 1.10  # an interval whose bottom is above this is a slowdown defect


def sweep_sizes(operator_lab) -> list[int]:
    cutoff = operator_lab._TAN_LOCKSTEP_ROWS
    return sorted({*SIZES, cutoff - 1, cutoff})


def _rows(operator_lab, np, name: str, seed: int, count: int = ROWS):
    op = operator_lab.build_catalog(seed)[name]
    rng = np.random.default_rng(seed)
    draw = op.domain_sampler or (lambda rng, n, gamma, r: rng.uniform(-r, r, size=(n, op.dim)))
    gammas = np.resize(np.asarray(operator_lab.CATALOG[name].gamma_grid, dtype=float), count)
    drawn = np.concatenate([draw(rng, 1, gamma, 5.0) for gamma in gammas])

    half, rows = count // 2, []
    nxt = operator_lab.resolve_rows(op, gammas[:half], drawn[:half])[0]
    stays = ~np.isnan(operator_lab.resolve_rows(op, gammas[:half], nxt)[0]).any(1)
    for gamma, x, y, inside in zip(gammas, drawn, nxt, stays):
        rows += [(gamma, x)] + ([(gamma, y)] if inside else [])
    rows = (rows + list(zip(gammas[half:], drawn[half:])))[:count]
    return op, np.array([g for g, _ in rows]), np.array([x for _, x in rows])


def _each(calls) -> list:
    return [call() for call in calls]


def cases_d(seed: int) -> tuple[dict, dict]:
    import numpy as np

    from prooflab import algorithms, operator_lab

    cases = {}
    for name in operator_lab.CATALOG:
        op, gammas, points = _rows(operator_lab, np, name, seed)
        ppa = functools.partial(algorithms.proximal_point, op, *PPA_RUNS[name], PPA_STEPS)
        cases[f"{name}.scalar_us_per_call"] = (functools.partial(_each, [functools.partial(
            operator_lab.resolvent, op, g, x) for g, x in zip(gammas.tolist(), points)]), ROWS)
        cases[f"{name}.batch_us_per_row"] = (
            functools.partial(operator_lab.resolve_rows, op, gammas, points), ROWS)
        cases[f"{name}.ppa_us_per_step"] = (ppa, len(ppa().points) - 1)
        if name == "tan_subgradient":
            sizes = sweep_sizes(operator_lab)
            op, gammas, points = _rows(operator_lab, np, name, seed, max(sizes))
            cases.update({f"{name}.{SWEEP}.{n}": (functools.partial(
                operator_lab.resolve_rows, op, gammas[:n], points[:n]), n) for n in sizes})
    return cases, {}


def _workloads():
    """``perfbench/workloads.py``, read for its sizes and corpora, not run as a benchmark."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


def cases_a(seed: int) -> tuple[dict, dict]:
    from prooflab import term_calculus

    ops, _ = _workloads().term_normalize(random.Random(f"term_normalize:{seed}"),
                                         {"term_calculus": term_calculus}, None)
    kinds = {}
    for op in ops:  # a rung's four monus ops repeat one term: its first stands for them
        kind = op.id.split("-")[0]
        if kind != "monus" or op.id.endswith("-0"):
            kinds.setdefault(kind, []).append(op.run)
    cases = {kind: (functools.partial(_each, runs), len(runs)) for kind, runs in kinds.items()}
    return cases, {kind: sum(result.steps for result in _each(runs))
                   for kind, runs in kinds.items() if kind != "typecheck"}


def cases_b(seed: int) -> tuple[dict, dict]:
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
    cases, counts = {}, {}
    for stratum, formulas in sorted(strata.items()):
        run = functools.partial(_each, [functools.partial(workloads._oracle_call, m, f)
                                        for f in formulas])
        decided = [f for f, got in zip(formulas, run()) if got != "refused"]
        counts[stratum] = {"decided": len(decided), "refusals": len(formulas) - len(decided),
                           "witness_tuples": sum(formula_engine.dialectica(f).search_size(model)
                                                 for f in decided)}
        cases[f"oracle.{stratum}"] = (run, len(formulas))
    trips = [op.run for op in ops if op.id.startswith("roundtrip-")]
    cases["roundtrip"] = (functools.partial(_each, trips), len(trips))
    return cases, counts


def cases_e(seed: int) -> tuple[dict, dict]:
    import numpy as np

    from prooflab import cli, operator_lab

    workloads = _workloads()
    ops, groups = operator_lab.build_catalog(seed), operator_lab.CHECK_GROUPS
    calls = [(ops[name], operator_lab.CATALOG[name].gamma_grid, samples)
             for inst in workloads.INSTANCES for name in [cli.INSTANCE_ALIASES.get(inst, inst)]
             for samples in (30, 60, workloads.LARGE_SAMPLES[inst])]  # as oplab_verify runs them
    kernel, tally, open_calls = operator_lab.resolve_rows, {}, []

    def counted(op, gammas, X, tol=1e-8):  # the outermost calls: a partial domain recurses
        tally["resolve_rows_calls"] += not open_calls
        tally["resolve_rows_rows"] += (not open_calls) * len(gammas)
        open_calls.append(op)
        try:
            return kernel(op, gammas, X, tol)
        finally:
            open_calls.pop()

    def run(group, child):  # every call draws from the group's child of seed, as oplab verify
        return [report for op, grid, samples in calls for report in operator_lab.check_group(
            op, group, np.random.default_rng(child), grid, samples, 1e-8)]

    cases, counts = {}, {}
    for group, child in zip(groups, np.random.SeedSequence(seed).spawn(len(groups))):
        tally.update(resolve_rows_calls=0, resolve_rows_rows=0)
        operator_lab.resolve_rows = counted
        try:
            counts[group] = {"samples_checked": sum(report.checks for report in run(group, child)),
                             **tally}
        finally:
            operator_lab.resolve_rows = kernel
        cases[f"check_group.{group}"] = (functools.partial(run, group, child), 1)
    return cases, counts


LAYERS = {
    "a": {
        "cases": cases_a,
        "layer": "(a) term reduction and type checking, per kind of term_normalize op",
        "metrics": {
            "<kind>": "one pass over the kind's ops of the term_normalize workload, on the terms "
            "it draws from Random('term_normalize:<seed>'), per term: reduce (reduce_term on the "
            "random corpus, fuel 200000), typecheck (on the same terms), monus (reduce_term of "
            "monus n n/2 at each rung of MONUS_RUNGS, one op per rung) and pred",
            "counts": "reduction steps per kind",
        },
    },
    "b": {
        "cases": cases_b,
        "layer": "(b) the translation-soundness oracle, per symbolic_oracle stratum",
        "metrics": {
            "oracle.<stratum>": "the stratum's oracle ops of the symbolic_oracle workload on the "
            "corpus it draws from Random('symbolic_oracle:<seed>'), per formula: one "
            "check_interpretation_soundness(f, FiniteModel(ORACLE_CARRIER), budget=ORACLE_BUDGET)",
            "roundtrip": "its round-trip ops, per formula: parse_formula, then format_formula",
            "counts": "per stratum, formulas decided, refusals, and witness tuples (the sum of "
            "search_size of the decided formulas' Dialectica forms)",
        },
    },
    "d": {
        "cases": cases_d,
        "layer": "(d) resolvent kernel, per catalog operator",
        "rows": ROWS,
        "rows_drawn": "half drawn from the resolvent domain at the step-size grid, each followed "
        "by its next proximal-point iterate where that stays in the domain, the rest drawn",
        "metrics": {
            "<instance>.scalar_us_per_call": "one resolvent(op, gamma, x) call per row",
            "<instance>.batch_us_per_row": "one resolve_rows(op, gammas, X) call, per row",
            "<instance>.ppa_us_per_step": f"one proximal_point run of at most {PPA_STEPS} steps "
            "from PPA_RUNS, per step taken",
            f"tan_subgradient.{SWEEP}.<n>": "batch_us_per_row of a batch of the first n rows of "
            f"a larger draw, at n in {', '.join(map(str, SIZES))} and the two sizes at the "
            "package's _TAN_LOCKSTEP_ROWS cutoff L (L - 1 and L)",
        },
    },
    "e": {
        "cases": cases_e,
        "layer": "(e) property-suite check groups, with the resolvent kernel they call",
        "metrics": {
            "check_group.<group>": "the check_group(op, group, rng, gamma_grid, samples, 1e-8) "
            "calls of oplab_verify, at 30, 60 and LARGE_SAMPLES samples per instance, rng "
            "spawned per group from SeedSequence(seed) as oplab verify does",
            "counts": "per group, samples_checked (the sum of the reports' checks), and the "
            "outermost operator_lab.resolve_rows calls the group makes and their rows",
        },
    },
}


def serve(layer: str, src: str, seed: int) -> int:
    """A worker: the case names and counts as one JSON line, then, for each ``NAME K`` line,
    the seconds of ``K`` back-to-back calls of the case, with gc off; it exits at EOF."""
    sys.path.insert(0, src)
    import prooflab

    if pathlib.Path(prooflab.__file__).resolve().parents[1] != pathlib.Path(src).resolve():
        sys.exit(f"{src} holds no prooflab package (found {prooflab.__file__})")
    out, sys.stdout = sys.stdout, sys.stderr  # the replies own stdout
    cases, counts = LAYERS[layer]["cases"](seed)
    print(json.dumps({"cases": {name: per for name, (_, per) in cases.items()},
                      "counts": counts}), file=out, flush=True)
    for line in sys.stdin:
        name, calls = line.split()
        fn, calls = cases[name][0], range(int(calls))
        gc.disable()
        start = time.perf_counter_ns()
        for _ in calls:
            fn()
        elapsed = time.perf_counter_ns() - start
        gc.enable()
        print(elapsed / 1e9, file=out, flush=True)
    return 0


def _ask(proc, label: str, request: str = "") -> str:
    if request:
        proc.stdin.write(request + "\n")
        proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        sys.exit(f"bench_layers: the worker of source {label} exited with {proc.wait()}")
    return line


def agreed(headers: dict) -> dict:
    """The header all ``{label: header}`` share; exit 1, naming what differs, if none."""
    (first, head), *rest = headers.items()
    for label, other in rest:
        differ = sorted(key for part in ("cases", "counts") for key in {*head[part], *other[part]}
                        if head[part].get(key) != other[part].get(key))
        if differ:
            sys.exit(f"bench_layers: {label} and {first} differ in their cases or counts: "
                     f"{differ}")
    return head


def abba(labels: list, pairs: int = PAIRS) -> list:
    """The order of one case's requests: ``labels``, then reversed, pair by pair."""
    return [label for i in range(pairs) for label in labels[:: 1 if i % 2 == 0 else -1]]


def interval(rounds: list, seed: int = 0, resamples: int = RESAMPLES) -> list:
    """95% interval of the median of ``rounds``' per-pair ratios, from a two-level bootstrap:
    rounds drawn with replacement, then the pairs within each drawn round."""
    rng, medians = random.Random(seed), []
    for _ in range(resamples):
        medians.append(statistics.median(
            ratio for drawn in rng.choices(rounds, k=len(rounds))
            for ratio in rng.choices(drawn, k=len(drawn))))
    cuts = statistics.quantiles(medians, n=40)
    return [round(cuts[0], 4), round(cuts[-1], 4)]


def verdict(low: float, high: float) -> str:
    return "gain" if high < 1 else "defect" if low > DEFECT else "level"


def measure(layer: str, sources: dict, runs: int, seed: int):
    """The shared header, each case's calls per request, and ``times[case]``: per round, the
    seconds of each pair's requests as ``{label: seconds}``."""
    labels, headers, calls, times = list(sources), {}, {}, {}
    for i in range(runs):
        order = labels[:: 1 if i % 2 == 0 else -1]
        with contextlib.ExitStack() as stack:  # closing a worker's stdin ends it
            procs = {}
            for label in order:  # each starts once the last has named its cases
                procs[label] = stack.enter_context(subprocess.Popen(
                    [sys.executable, __file__, layer, "--worker", sources[label], "--seed",
                     str(seed)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
                headers[f"{label} (round {i + 1})"] = json.loads(_ask(procs[label], label))
            head = agreed(headers)
            for name in head["cases"]:  # two warm-up calls; the first source's second sizes
                for label in order * 2:
                    took = float(_ask(procs[label], label, f"{name} 1"))
                    if i == 0 and label == labels[0]:
                        calls[name] = max(1, round(REQUEST_S / took))
            for name in head["cases"]:
                pairs = [{} for _ in range(PAIRS)]
                for j, label in enumerate(abba(labels)):
                    pairs[j // len(labels)][label] = float(_ask(procs[label], label,
                                                                f"{name} {calls[name]}"))
                times.setdefault(name, []).append(pairs)
    return head, calls, times


def build_record(layer: str, head: dict, calls: dict, times: dict, command: str,
                 host: str) -> dict:
    """The layer's record from ``measure``'s results."""
    rounds = next(iter(times.values()))
    labels = list(rounds[0][0])
    record = {**{key: value for key, value in LAYERS[layer].items() if key != "cases"},
              "harness": f"tools/bench_layers.py {layer}", "command": command, "host": host,
              "method": " ".join(" ".join(__doc__.split("\n\n")[1:3]).split()),
              "rounds": len(rounds), "pairs": PAIRS, "resamples": RESAMPLES,
              "defect_above": DEFECT, "ratio": f"{labels[-1]}/{labels[0]}" if labels[1:] else None,
              "unit": "us per the case's per", "counts": head["counts"], "cases": {}}
    for name, per in head["cases"].items():
        entry = record["cases"][name] = {"per": per, "calls_per_request": calls[name]}
        for label in labels:
            entry[label] = round(statistics.median(pair[label] for one in times[name]
                                                   for pair in one) * 1e6 / (calls[name] * per), 4)
        if len(labels) > 1:
            ratios = [[pair[labels[-1]] / pair[labels[0]] for pair in one] for one in times[name]]
            low, high = interval(ratios)
            entry.update(ratio=round(statistics.median(r for one in ratios for r in one), 4),
                         interval=[low, high], width=round(high - low, 4),
                         verdict=verdict(low, high))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("layer", choices=sorted(LAYERS))
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a labelled directory holding the prooflab package (repeatable)")
    parser.add_argument("--runs", type=int, default=20, help="rounds of fresh workers")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", metavar="DIR", help=argparse.SUPPRESS)  # one resident worker
    args = parser.parse_args(argv)
    if args.worker:
        return serve(args.layer, args.worker, args.seed)
    sources = dict(s.split("=", 1) for s in args.src or ["src=src"])
    head, calls, times = measure(args.layer, sources, args.runs, args.seed)
    command = (f"python tools/bench_layers.py {args.layer} "
               + " ".join(f"--src '{label}=...'" for label in sources)
               + f" --runs {args.runs} --seed {args.seed}")
    host = (f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}, "
            f"numpy {importlib.metadata.version('numpy')}")
    json.dump(build_record(args.layer, head, calls, times, command, host), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
