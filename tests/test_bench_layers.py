"""The layer harness, without timing: its request order, bootstrap, verdict and record over
synthetic timings, its refusals, and the workers it leaves behind."""

import contextlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from prooflab import operator_lab

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
bench_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_layers)

SWEEP = bench_layers.SWEEP


def _record(layer, cases, counts, seconds, calls=2):
    """``build_record`` over rounds of pairs ``{label: seconds}``, the same for every case."""
    head = {"cases": cases, "counts": counts}
    return bench_layers.build_record(layer, head, dict.fromkeys(cases, calls),
                                     dict.fromkeys(cases, seconds), "cmd", "host")


# two rounds of three pairs; the ratios change/parent are 0.5, 1.5, 1.0 and 2.0, 1.0, 0.75
ROUNDS = [[{"parent": 2e-6, "change": 1e-6}, {"parent": 2e-6, "change": 3e-6},
           {"parent": 4e-6, "change": 4e-6}],
          [{"parent": 1e-6, "change": 2e-6}, {"parent": 4e-6, "change": 4e-6},
           {"parent": 4e-6, "change": 3e-6}]]


def _lists(tree):
    """Every list in a record."""
    if isinstance(tree, dict):
        return [found for value in tree.values() for found in _lists(value)]
    return [tree] if isinstance(tree, list) else []


def test_paired_ratio_is_second_over_first_over_adjacent_runs():
    record = _record("e", {"check_group.class": 1}, {}, ROUNDS)
    entry = record["cases"]["check_group.class"]
    assert record["ratio"] == "change/parent" and record["rounds"] == 2
    # medians over every request, in us per call: 3 us over 2 calls a request for both
    assert entry["parent"] == 1.5 and entry["change"] == 1.5
    assert entry["ratio"] == 1.0  # the median of 0.5, 1.5, 1.0, 2.0, 1.0, 0.75
    low, high = entry["interval"]
    assert low <= 1.0 <= high and entry["width"] == round(high - low, 4)
    assert entry["verdict"] == "level" and entry["calls_per_request"] == 2


def test_resolvent_layer_record_keeps_its_keys():
    cases = {"identity.scalar_us_per_call": 300, "identity.ppa_us_per_step": 1000,
             f"tan_subgradient.{SWEEP}.96": 96}
    record = _record("d", cases, {}, ROUNDS)
    for key in ("layer", "harness", "command", "host", "method", "rows", "rows_drawn", "unit",
                "metrics", "rounds", "pairs", "counts", "cases"):
        assert key in record
    assert record["harness"] == "tools/bench_layers.py d" and record["rows"] == 300
    assert set(record["metrics"]) == {"<instance>.scalar_us_per_call",
                                      "<instance>.batch_us_per_row", "<instance>.ppa_us_per_step",
                                      f"tan_subgradient.{SWEEP}.<n>"}
    assert "ABBA" in record["method"] and "cases" not in record["metrics"]
    # a case's time is per row, step or call: 3 us a request of 2 calls over 300 rows
    assert record["cases"]["identity.scalar_us_per_call"]["parent"] == 0.005
    assert record["cases"][f"tan_subgradient.{SWEEP}.96"]["per"] == 96
    # no per-run list: the intervals are the record's only lists
    assert all(len(found) == 2 for found in _lists(record))
    assert len(_lists(record)) == len(cases)


def test_check_group_layer_record_keeps_its_keys():
    counts = dict.fromkeys(operator_lab.CHECK_GROUPS, {
        "samples_checked": 1200, "resolve_rows_calls": 2, "resolve_rows_rows": 6750})
    cases = {f"check_group.{group}": 1 for group in operator_lab.CHECK_GROUPS}
    record = _record("e", cases, counts, ROUNDS)
    assert record["harness"] == "tools/bench_layers.py e"
    assert set(record["metrics"]) == {"check_group.<group>", "counts"}
    assert set(record["cases"]) == set(cases)
    # the counts are recorded once, not per source or per case
    assert record["counts"] == counts and "counts" not in record["cases"]["check_group.class"]
    # one source: its medians, no pairs
    alone = _record("e", cases, counts, [[{"src": 1e-6}] * 3])
    assert alone["cases"]["check_group.class"] == {"per": 1, "calls_per_request": 2, "src": 0.5}
    assert alone["ratio"] is None


STRATA = ("flat", "huge-False", "refused")


def test_oracle_layer_record_keeps_its_keys():
    counts = {stratum: {"decided": 36, "refusals": 0, "witness_tuples": 562500}
              for stratum in STRATA}
    record = _record("b", {**{f"oracle.{stratum}": 36 for stratum in STRATA}, "roundtrip": 1704},
                     counts, ROUNDS)
    assert record["harness"] == "tools/bench_layers.py b"
    assert set(record["metrics"]) == {"oracle.<stratum>", "roundtrip", "counts"}
    assert record["counts"]["huge-False"] == {"decided": 36, "refusals": 0,
                                              "witness_tuples": 562500}
    assert record["cases"]["roundtrip"]["per"] == 1704


def test_tan_sweep_brackets_the_lockstep_cutoff():
    cutoff = operator_lab._TAN_LOCKSTEP_ROWS
    sizes = bench_layers.sweep_sizes(operator_lab)
    assert {cutoff - 1, cutoff, 1, 750} <= set(sizes) and sizes == sorted(sizes)


def test_requests_alternate_abba():
    assert bench_layers.abba(["p", "c"], 4) == ["p", "c", "c", "p", "p", "c", "c", "p"]
    assert bench_layers.abba(["src"], 3) == ["src"] * 3
    assert len(bench_layers.abba(["p", "c"])) == 2 * bench_layers.PAIRS


def test_two_level_bootstrap_is_seeded():
    # one round reads 4% slow, another 2% fast: resampling the pairs alone, without their
    # rounds, would give [0.99, 1.02] on this input
    rounds = [[1.00, 1.02, 0.98, 1.01, 0.99], [1.05, 1.04, 1.06, 1.03, 1.05],
              [0.97, 0.99, 0.98, 0.96, 0.98], [1.01, 1.00, 1.02, 1.01, 1.00]]
    assert bench_layers.interval(rounds) == [0.98, 1.04] == bench_layers.interval(rounds)
    assert bench_layers.interval(rounds, resamples=200) == [0.98, 1.045]
    assert bench_layers.interval([[1.04] * 5] * 3) == [1.04, 1.04]
    # rounds are resampled whole: one round far off widens the interval past it
    low, high = bench_layers.interval([[1.0] * 30] * 4 + [[1.5] * 30])
    assert low == 1.0 and high == 1.5


def test_verdict_is_gain_defect_or_level():
    assert bench_layers.verdict(0.90, 0.99) == "gain"
    assert bench_layers.verdict(1.11, 1.30) == "defect"
    for low, high in ((0.97, 1.03), (0.90, 1.00), (1.03, 1.08), (1.10, 1.20)):
        assert bench_layers.verdict(low, high) == "level"


def test_sources_whose_cases_or_counts_differ_are_refused():
    head = {"cases": {"identity.batch_us_per_row": 300, "tan.ppa_us_per_step": 604},
            "counts": {"flat": {"decided": 360}}}
    assert bench_layers.agreed({"parent": head, "change": dict(head)}) is head
    moved = {**head, "cases": {**head["cases"], "tan.ppa_us_per_step": 603}}
    with pytest.raises(SystemExit, match=r"change and parent differ .*tan\.ppa_us_per_step"):
        bench_layers.agreed({"parent": head, "change": moved})
    renamed = {**head, "cases": {"identity.batch": 300, "tan.ppa_us_per_step": 604}}
    with pytest.raises(SystemExit, match=r"\['identity\.batch', 'identity\.batch_us_per_row'\]"):
        bench_layers.agreed({"parent": head, "change": renamed})
    counted = {**head, "counts": {"flat": {"decided": 359}}}
    with pytest.raises(SystemExit, match=r"parent \(round 2\) and parent \(round 1\).*flat"):
        bench_layers.agreed({"parent (round 1)": head, "parent (round 2)": counted})


def _running(marker: bytes) -> list:
    found = []
    for path in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
        with contextlib.suppress(OSError):
            found += [path] if marker in path.read_bytes() else []
    return found


@pytest.mark.skipif(not pathlib.Path("/proc/self/cmdline").exists(), reason="needs /proc")
def test_a_source_without_the_package_fails_and_leaves_no_worker(tmp_path):
    good, empty = tmp_path / "good", tmp_path / "empty"
    good.symlink_to(_PATH.parents[1] / "src")
    empty.mkdir()
    # with the package on PYTHONPATH, the empty source would import it from there
    env = {**os.environ, "PYTHONPATH": str(_PATH.parents[1] / "src")}
    proc = subprocess.run([sys.executable, str(_PATH), "e", "--src", f"good={good}", "--src",
                           f"bad={empty}", "--runs", "1"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert f"{empty} holds no prooflab package" in proc.stderr
    assert "the worker of source bad exited with 1" in proc.stderr
    assert not _running(str(tmp_path).encode())
