"""The layer harness's record, over synthetic runs: its keys and the paired statistic."""

import importlib.util
import pathlib

import pytest

from prooflab import operator_lab

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
bench_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_layers)

SWEEP = bench_layers.SWEEP


def _d_run(scale, sweep=("1", "95", "96")):
    return {"identity": {"scalar_us_per_call": 10.0 * scale, "batch_us_per_row": 2.0 * scale,
                         "ppa_us_per_step": 5.0 * scale},
            "tan_subgradient": {"scalar_us_per_call": 20.0 * scale, "batch_us_per_row": 4.0,
                                "ppa_us_per_step": 8.0, SWEEP: {n: scale for n in sweep}}}


def _e_run(seconds, checked=1200):
    return {**{f"check_group.{group}.in_process_s": {"value": seconds}
               for group in operator_lab.CHECK_GROUPS},
            "samples_checked": {group: checked for group in operator_lab.CHECK_GROUPS}}


def test_paired_ratio_is_second_over_first_over_adjacent_runs():
    # ratios 0.5, 1.5, 0.5, 1.0: the second source is lower in two pairs
    assert bench_layers.paired([1.0, 2.0, 4.0, 2.0], [0.5, 3.0, 2.0, 2.0]) == {
        "median": 0.75, "min": 0.5, "max": 1.5, "wins": 2}


def test_resolvent_layer_record_keeps_its_keys():
    runs = {"parent": [_d_run(1.0), _d_run(2.0), _d_run(3.0)],
            "change": [_d_run(scale, sweep=("1", "127", "128")) for scale in (0.5, 3.0, 1.5)]}
    record = bench_layers.build_record("d", runs, "cmd", "host")
    for key in ("layer", "harness", "command", "host", "method", "rows", "unit", "metrics"):
        assert key in record
    assert set(record["metrics"]) == {"scalar_us_per_call", "batch_us_per_row", "ppa_us_per_step",
                                      SWEEP}
    assert record["harness"] == "tools/bench_layers.py d" and record["rows"] == 300
    identity = record["change"]["identity"]
    assert identity == {"scalar_us_per_call": 15.0, "batch_us_per_row": 3.0,
                        "ppa_us_per_step": 7.5, "scalar_runs": [5.0, 30.0, 15.0],
                        "batch_runs": [1.0, 6.0, 3.0], "ppa_runs": [2.5, 15.0, 7.5]}
    tan = record["parent"]["tan_subgradient"]
    assert tan[SWEEP] == {"1": 2.0, "95": 2.0, "96": 2.0}
    assert tan[SWEEP + "_runs"] == {"1": [1.0, 2.0, 3.0], "95": [1.0, 2.0, 3.0],
                                    "96": [1.0, 2.0, 3.0]}
    paired = record["paired"]
    assert paired["ratio"] == "change/parent"
    assert paired["identity"]["scalar_us_per_call"] == {
        "median": 0.5, "min": 0.5, "max": 1.5, "wins": 2}
    # a source whose cutoff moved sweeps other sizes; only the shared ones are paired
    assert set(record["change"]["tan_subgradient"][SWEEP]) == {"1", "127", "128"}
    assert paired["tan_subgradient"][SWEEP] == {"1": paired["identity"]["scalar_us_per_call"]}
    assert paired["tan_subgradient"]["batch_us_per_row"]["median"] == 1.0


def test_check_group_layer_record_keeps_its_keys():
    runs = {"parent": [_e_run(0.2), _e_run(0.4)], "change": [_e_run(0.1), _e_run(0.5)]}
    record = bench_layers.build_record("e", runs, "cmd", "host")
    assert record["harness"] == "tools/bench_layers.py e" and record["unit"] == "s"
    for group in operator_lab.CHECK_GROUPS:
        key = f"check_group.{group}.in_process_s"
        assert record["change"][key] == {"value": 0.3, "runs": [0.1, 0.5]}
        assert record["paired"][key]["value"] == {
            "median": 0.875, "min": 0.5, "max": 1.25, "wins": 1}
    # a count is recorded once per source, with no runs and no pairs
    assert record["parent"]["samples_checked"] == dict.fromkeys(operator_lab.CHECK_GROUPS, 1200)
    assert "samples_checked" not in record["paired"]
    # the tracer's keys are gone: self_s, and the one-row resolvent spans that read 0
    assert set(record["metrics"]) == {"check_group.<group>.in_process_s", "samples_checked"}
    # one source: no pairs
    assert "paired" not in bench_layers.build_record("e", {"src": runs["parent"]}, "cmd", "h")
    # a count that moves between runs is not a count
    with pytest.raises(ValueError, match="samples_checked"):
        bench_layers.build_record("e", {"src": [_e_run(0.2), _e_run(0.2, checked=1201)]}, "c", "h")


STRATA = ("flat", "huge-False", "refused")


def _b_run(seconds, tuples=562500):
    return {**{f"oracle.{stratum}.in_process_s": {"value": seconds} for stratum in STRATA},
            "oracle_counts": {stratum: {"decided": 36, "refusals": 0, "witness_tuples": tuples}
                              for stratum in STRATA}}


def test_oracle_layer_record_keeps_its_keys():
    runs = {"parent": [_b_run(0.2), _b_run(0.4)], "change": [_b_run(0.1), _b_run(0.3)]}
    record = bench_layers.build_record("b", runs, "cmd", "host")
    assert record["harness"] == "tools/bench_layers.py b" and record["unit"] == "s"
    assert set(record["metrics"]) == {"oracle.<stratum>.in_process_s", "oracle_counts"}
    for stratum in STRATA:
        key = f"oracle.{stratum}.in_process_s"
        assert record["change"][key] == {"value": 0.2, "runs": [0.1, 0.3]}
        assert record["paired"][key]["value"] == {"median": 0.625, "min": 0.5, "max": 0.75,
                                                  "wins": 2}
    # the counts are recorded once per source, with no runs and no pairs
    assert record["parent"]["oracle_counts"]["huge-False"] == {
        "decided": 36, "refusals": 0, "witness_tuples": 562500}
    assert "oracle_counts" not in record["paired"]
    with pytest.raises(ValueError, match="oracle_counts"):
        bench_layers.build_record("b", {"src": [_b_run(0.2), _b_run(0.2, tuples=1)]}, "c", "h")


def test_tan_sweep_brackets_the_lockstep_cutoff():
    cutoff = operator_lab._TAN_LOCKSTEP_ROWS
    sizes = bench_layers.sweep_sizes(operator_lab)
    assert {cutoff - 1, cutoff, 1, 750} <= set(sizes) and sizes == sorted(sizes)

