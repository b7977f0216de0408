import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prooflab import cli
from prooflab.algorithms import IterationTrace, trace_report
from prooflab.cli import INSTANCE_ALIASES, main
from prooflab.majorization import bobs_uniform_majorant
from prooflab.operator_lab import CATALOG, l2


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_types_payload(capsys):
    code, out, _ = run_cli(capsys, ["types", "X(X)(0)"])
    assert code == 0
    payload = json.loads(out)
    assert payload["parsed"] == "X(X)(0)"
    assert payload["hat"] == "0(0)(0)"
    assert payload["admissible"] is True
    assert payload["pure_index"] is None


def test_types_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["types", "0(0)(0)"])
    _, second, _ = run_cli(capsys, ["types", "0(0)(0)"])
    assert first == second


def test_seed_flag_after_subcommand(capsys):
    code, _, _ = run_cli(capsys, ["types", "0", "--seed", "7"])
    assert code == 0


def test_translate_nt(capsys, tmp_path):
    src = tmp_path / "f.sexp"
    src.write_text("(forall (x 0) (= x x))")
    code, out, _ = run_cli(capsys, ["translate", "--nt", str(src)])
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "nt"
    assert payload["output"] == "(not (not (forall (x 0) (not (not (= x x))))))"
    src.write_text("(= (: y 0) 0)")  # a free variable keeps its escape
    payload = json.loads(run_cli(capsys, ["translate", "--nt", str(src)])[1])
    assert payload["output"] == "(not (not (= (: y 0) 0)))"


def test_translate_dialectica(capsys, tmp_path):
    src = tmp_path / "f.sexp"
    src.write_text("(forall (x 0) (exists (y 0) (= y (succ x))))")
    code, out, _ = run_cli(capsys, ["translate", "--dialectica", str(src)])
    assert code == 0
    payload = json.loads(out)
    assert [t for _, t in payload["ex"]] == ["0(0)"]
    assert payload["univ"] == [["x", "0"]]
    assert "succ x" in payload["matrix"]


def test_translate_needs_exactly_one_mode(capsys, tmp_path):
    src = tmp_path / "f.sexp"
    src.write_text("(= 0 0)")
    code, _, _ = run_cli(capsys, ["translate", str(src)])
    assert code == 2
    code, _, _ = run_cli(capsys, ["translate", "--nt", "--dialectica", str(src)])
    assert code == 2


def test_delta_recognized(capsys, tmp_path):
    src = tmp_path / "delta.sexp"
    src.write_text("(forall (a 0) (existsleq (b 0) a (forall (c 0) (<= b a))))")
    code, out, _ = run_cli(capsys, ["delta", str(src)])
    assert code == 0
    payload = json.loads(out)
    assert payload["recognized"] is True
    assert payload["a"] == [["a", "0"]]
    assert payload["b"] == [["b", "0", "a"]]
    assert payload["c"] == [["c", "0"]]
    assert payload["skolemized"].startswith("(exists")


def test_delta_rejected(capsys, tmp_path):
    src = tmp_path / "notdelta.sexp"
    src.write_text("(exists (x 0) (= x x))")
    code, out, err = run_cli(capsys, ["delta", str(src)])
    assert code == 1
    assert json.loads(out) == {"recognized": False}
    assert "delta_shape" in err


def test_real_canon_frozen_codes(capsys):
    code, out, _ = run_cli(capsys, ["real", "canon", "1/2", "--prec", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == [
        {"n": 0, "code": 8, "decoded": "1/2"},
        {"n": 1, "code": 32, "decoded": "1/2"},
    ]


def test_real_canon_rejects_negative(capsys):
    code, _, _ = run_cli(capsys, ["real", "canon", "-1/2"])
    assert code not in (0, None)


def test_majorant_resolvent_rule(capsys):
    code, out, _ = run_cli(
        capsys, ["majorant", "resolvent", "--n", "1", "--m", "0", "--l", "0", "--k", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rule"] == "xstar + 4 + (2 + 1*(alpha(0)+1))*1"
    assert len(payload["samples"]) == 9
    first = payload["samples"][0]
    assert first == {"alpha0": 0, "xstar": 0, "value": 7}


def test_majorant_bobs_bounded(capsys):
    code, out, _ = run_cli(capsys, ["majorant", "bobs", "soft_threshold"])
    assert code == 0
    payload = json.loads(out)
    assert payload["bounded"] is True
    assert payload["table"] == [1] * 9
    assert payload["worst_slack"] >= 0.0


def test_majorant_bobs_unbounded(capsys):
    code, out, err = run_cli(capsys, ["majorant", "bobs", "tan_subgradient"])
    assert code == 0
    assert json.loads(out)["bounded"] is False
    assert "no uniform majorant" in err


@pytest.mark.parametrize("instance", ["identity", "psd_skew", "soft_threshold", "neg_half"])
def test_majorant_bobs_matches_a_check_by_row(capsys, instance):
    # the batched slack against a per-sample loop through the one-row API
    for seed in range(3):
        code, out, _ = run_cli(capsys, ["majorant", "bobs", instance, "--seed", str(seed)])
        op = CATALOG[INSTANCE_ALIASES.get(instance, instance)].build(np.random.default_rng(seed))
        majorant = bobs_uniform_majorant(op)
        rng, worst = np.random.default_rng(seed), 0.0
        for _ in range(200):
            x = rng.uniform(-8, 8, size=op.dim)
            if op.in_domain(x):
                bound = majorant(math.ceil(l2(x)))
                worst = max(worst, l2(op.selection(x)) - bound)
        assert (code, json.loads(out)["worst_slack"]) == (0 if worst <= 0 else 1, -worst + 0.0)


def test_majorant_bobs_needs_instance(capsys):
    code, _, _ = run_cli(capsys, ["majorant", "bobs"])
    assert code == 2


def test_oplab_verify_soft_threshold(capsys):
    code, out, _ = run_cli(
        capsys, ["oplab", "verify", "soft_threshold", "--samples", "60", "--seed", "7"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["operator"] == "abs_subdiff"
    assert payload["gamma_grid"] == [0.25, 0.5, 1.0, 2.0, 4.0]
    for key in (
        "class.monotone",
        "resolvent.nonexpansive",
        "resolvent.resolvent_identity",
        "min_selection.min_selection_membership",
        "closedness.graph_closedness",
    ):
        assert payload["checks"][key]["passed"] is True


def test_oplab_comonotone_grid_and_reduced_suite(capsys):
    code, out, _ = run_cli(capsys, ["oplab", "verify", "neg_half", "--samples", "40"])
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma_grid"] == [8.0, 16.0]
    assert "resolvent.nonexpansive" not in payload["checks"]
    assert payload["checks"]["class.comonotone(rho=-2.0)"]["passed"] is True


def test_oplab_deterministic_across_jobs(capsys):
    argv = ["oplab", "verify", "soft_threshold", "--samples", "50", "--seed", "3"]
    _, serial, _ = run_cli(capsys, argv)
    _, serial_again, _ = run_cli(capsys, argv)
    assert serial == serial_again
    for jobs in ("2", "4"):
        assert run_cli(capsys, argv + ["--jobs", jobs])[1] == serial


# Exact per-check sample counts.  yosida_norm_minimality runs at the graph
# points of the defining-inclusion check (75 = 15 points x 5 step sizes).
PINNED_CHECK_COUNTS = {
    "soft_threshold --samples 60 --seed 7": {
        "class.monotone": 59,
        "closedness.graph_closedness": 25,
        "min_selection.min_selection_membership": 20,
        "min_selection.min_selection_uniqueness": 400,
        "min_selection.min_selection_variational": 400,
        "resolvent.averaged_form": 150,
        "resolvent.conical_form": 150,
        "resolvent.defining_inclusion_unique": 75,
        "resolvent.displacement_bound": 300,
        "resolvent.firmly_nonexpansive_inner_form": 150,
        "resolvent.firmly_nonexpansive_norm_form": 150,
        "resolvent.nonexpansive": 150,
        "resolvent.resolvent_identity": 300,
        "resolvent.yosida_lipschitz": 150,
        "resolvent.yosida_membership": 150,
        "resolvent.yosida_norm_minimality": 75,
    },
    "neg_half --samples 40 --seed 5": {
        "class.comonotone(rho=-2.0)": 39,
        "closedness.graph_closedness": 25,
        "min_selection.min_selection_membership": 20,
        "min_selection.min_selection_uniqueness": 400,
        "min_selection.min_selection_variational": 400,
        "resolvent.averaged_form": 40,
        "resolvent.conical_form": 40,
        "resolvent.defining_inclusion_unique": 20,
        "resolvent.resolvent_identity": 40,
        "resolvent.yosida_membership": 40,
    },
}


@pytest.mark.parametrize("args", sorted(PINNED_CHECK_COUNTS))
def test_oplab_check_counts_pinned(capsys, args):
    code, out, _ = run_cli(capsys, ["oplab", "verify", *args.split()])
    assert code == 0
    counts = {name: rep["checks"] for name, rep in json.loads(out)["checks"].items()}
    assert counts == PINNED_CHECK_COUNTS[args]


# sha256 of the whole stdout of `oplab verify INSTANCE --seed 0 --samples N`: every
# report, worst slack and witness stays byte for byte what it was
FROZEN_VERIFY_SHA256 = {
    ("abs_subdiff", "30"): "ddc67505b6a460cdaaa6845e2504f0a3fdf2977f4a913fc1bd1f096fdc2caf25",
    ("abs_subdiff", "60"): "72fc7b4b19c02e66934d6bf36bee52bc88c4dce33fde4bb0b3225bbe06de8a0e",
    ("box_normal_cone", "30"): "b59def1d0f5598cef686f63d201dd9772b9b5329d9bf77ddccd36e031bf5c26c",
    ("box_normal_cone", "60"): "14441b89d0906f4bc32fcdf0a1506a8cb92be6f07be08cbc6d00952176693100",
    ("identity", "30"): "bcbe9ba7fa06757f139bedc54204372bec8c6031a286a4a10c530de476fbe0a4",
    ("identity", "60"): "3cd0a7953d18a4bcdfb12759aefeab65bf495850f55ed2c318a02bad199f1601",
    ("neg_half_identity", "30"): "050d5bfa72a7c3048528e9270a63ffaaf38df31fc8048a508258d23e4205d460",
    ("neg_half_identity", "60"): "601064da6bdf8ec0f0cc882daf7b7bcb4a6f10a09736c29fdc5a8f52723b03ff",
    ("psd_skew", "30"): "1351870108407ae2885d703a8adce1265ab0ef658d63eaf3528efe990d7e63cb",
    ("psd_skew", "60"): "b79b5bada6fc93b5245c594ef58f585ce837b05acef3402e7391f97813ab852b",
    ("tan_subgradient", "30"): "b6b206e1b86a2b24c605360b326dc09505b86e259a071b0c57ab7e5b2f4ad203",
    ("tan_subgradient", "60"): "377f181796f3e6af0b97809d63cc07d4805953a93b61d87fced628a6d898ebf4",
}


@pytest.mark.parametrize("instance, samples", sorted(FROZEN_VERIFY_SHA256))
def test_oplab_verify_output_is_frozen(capsys, instance, samples):
    argv = ["oplab", "verify", instance, "--seed", "0", "--samples", samples]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_VERIFY_SHA256[instance, samples]


@pytest.mark.parametrize("seed", ["1", "5"])
def test_oplab_box_covers_yosida_norm_minimality(capsys, seed):
    # pair points rarely fall inside the box; the graph points always do
    code, out, _ = run_cli(capsys, ["oplab", "verify", "box", "--samples", "60", "--seed", seed])
    assert code == 0
    rep = json.loads(out)["checks"]["resolvent.yosida_norm_minimality"]
    assert rep["checks"] > 0 and rep["passed"] is True


def test_oplab_gamma_grid_override(capsys):
    code, out, _ = run_cli(
        capsys,
        ["oplab", "verify", "identity", "--samples", "30", "--gamma-grid", "0.5,1.0"],
    )
    assert code == 0
    assert json.loads(out)["gamma_grid"] == [0.5, 1.0]


def test_oplab_config_file(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# tighter run\nsamples = 40\ntol=1e-7\n")
    code, out, _ = run_cli(
        capsys, ["oplab", "verify", "identity", "--config", str(cfg)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 40
    assert payload["tol"] == 1e-7


def test_oplab_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("smaples=40\n")
    code, _, _ = run_cli(capsys, ["oplab", "verify", "identity", "--config", str(cfg)])
    assert code not in (0, None)


@pytest.mark.parametrize("tol", ["1e-13", "1e-14", "1e-15"])
def test_tan_verify_passes_small_tolerances(capsys, tol):
    # rows whose root lies an ulp or two off, where 1 / cos(p)^2 moves fast, were refused
    # here (at gamma = 4.0, x = 229682.84 and at gamma = 0.25, x = 212.74)
    argv = ["oplab", "verify", "tan_subgradient", "--samples", "300", "--seed", "0", "--tol", tol]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert all(check["passed"] for check in json.loads(out)["checks"].values())


def test_oplab_unknown_instance(capsys):
    code, _, err = run_cli(capsys, ["oplab", "verify", "mystery"])
    assert code == 2
    assert "'mystery'" in err
    assert all(f"'{name}'" in err for name in CATALOG)


def test_run_ppa_json(capsys):
    code, out, err = run_cli(
        capsys, ["run", "ppa", "--instance", "soft_threshold", "--x0", "3.5"]
    )
    assert code == 0
    trace = IterationTrace.from_json(out)
    assert trace.reached_zero_at == 4
    assert "proximal_point: 4 steps" in err


def test_run_ppa_certifies_steps_far_below_the_iterate(capsys):
    # gamma halves down to 2**-99 while x stays near 98: p rounds to x
    argv = ["run", "ppa", "--instance", "soft_threshold", "--x0", "100",
            "--gamma", "geom:1,0.5", "--steps", "100"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    trace = IterationTrace.from_json(out)
    assert len(trace.points) == 101
    # once p rounds to x, (x - p) / gamma is noise: the value 1 at p stands in for it
    assert trace.value_residuals == pytest.approx([1.0] * 100, abs=1e-8)
    assert "proximal_point: 100 steps, final residual 0.0" in err
    # at 5e-324 the spacing of 1e-300 squared underflows: the allowance is a scaled norm
    argv = ["run", "ppa", "--instance", "abs_subdiff", "--x0", "1e-300", "--gamma", "5e-324",
            "--steps", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and IterationTrace.from_json(out).points[-1].tolist() == [1e-300]


def test_run_ppa_certifies_identity_steps_near_ulp(capsys):
    # gamma halves down to 2**-59 on R^2: the rounding allowance is the L2 norm of the
    # coordinate spacings, so the miss 0.593 at gamma = 2**-53 stays inside its 0.707
    argv = ["run", "ppa", "--instance", "identity", "--x0", "2,2",
            "--gamma", "geom:1,0.5", "--steps", "60"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    trace = IterationTrace.from_json(out)
    assert len(trace.points) == 61
    # where p rounds to x, u is noise: the value x at p stands in for it
    last = trace.points[-1]
    assert trace.value_residuals[-1] == pytest.approx(float(np.linalg.norm(last)), rel=1e-12)


def test_run_ppa_csv_to_file(capsys, tmp_path):
    out_file = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        ["run", "ppa", "--instance", "soft_threshold", "--x0", "3.5",
         "--format", "csv", "--out", str(out_file)],
    )
    assert code == 0
    assert out == ""
    trace = IterationTrace.from_csv(out_file.read_text())
    assert [p[0] for p in trace.points] == pytest.approx([3.5, 2.5, 1.5, 0.5, 0.0])


def test_run_moudafi(capsys):
    code, out, _ = run_cli(
        capsys,
        ["run", "moudafi", "--instance", "identity", "--x0", "8,0", "--steps", "3"],
    )
    assert code == 0
    trace = IterationTrace.from_json(out)
    assert trace.final.tolist() == pytest.approx([3.375, 0.0])


# exit code and sha256 of the whole stdout of `run ppa --instance NAME --x0 X0 --gamma
# geom:1,0.5 --steps 30 --format FMT`: every iterate, residual and stop field stays byte
# for byte what it was (neg_half refuses gamma = 1 at step 0); likewise for one Moudafi run
RUN_PPA_START = {"identity": "2,2", "psd_skew": "1,2,3,-1,0,5", "soft_threshold": "100",
                 "box": "2,-3,0.5", "neg_half": "1,0", "tan_subgradient": "1.2"}
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
FROZEN_RUN_SHA256 = {
    ("identity", "json"): (0, "552a179c4fbfec7e4e27f7d000eafe9e58906f061e6988db4cd6a65fd0ebc8a7"),
    ("identity", "csv"): (0, "35e7f42e472f3ab521dd24fdd90c816c89952fc0356a2511d2f4732d88061cfc"),
    ("psd_skew", "json"): (0, "8eaf6b67ebcfae87453af1ec60123a483f7bfda10ba0072b581fa1a93d83a3b3"),
    ("psd_skew", "csv"): (0, "025f06560285e990e925c61df95fb54f2fe531fc10e0a92596e58319909a6a3e"),
    ("soft_threshold", "json"): (0, "d115c076fe53d0ca5bc44d34ab58f58b317955f625058b7df3ec7cbcea057afb"),
    ("soft_threshold", "csv"): (0, "b78de51aa90adf82b51611f3c96440ba73bc0a230d0afcb22da5d55f68feba4c"),
    ("box", "json"): (0, "922af035ffa244774e1f3857613ece2603e1b9e5ad2a6c0f1393166aa2a3942a"),
    ("box", "csv"): (0, "0f989c24d9266b16aab36cd3a46b0bb38932c35d51dd7300e3af73d572571a73"),
    ("neg_half", "json"): (2, EMPTY_SHA256),
    ("neg_half", "csv"): (2, EMPTY_SHA256),
    ("tan_subgradient", "json"): (0, "08704a5d46c6be8503dabc288ada3afb1e9a8b7bbfdd1decb58ba34c88cf3f0e"),
    ("tan_subgradient", "csv"): (0, "2626c0a7770d3119cd809e9053518b78077dc37da008bee2d3cc23d534215e8f"),
}
FROZEN_MOUDAFI_SHA256 = "0a3cec1a340a568ea0670dd46dcf4a83d669aa2c703e8e815f12f02eaf609c59"


@pytest.mark.parametrize("instance, fmt", sorted(FROZEN_RUN_SHA256))
def test_run_ppa_output_is_frozen(capsys, instance, fmt):
    argv = ["run", "ppa", "--instance", instance, f"--x0={RUN_PPA_START[instance]}",
            "--gamma", "geom:1,0.5", "--steps", "30", "--format", fmt]
    code, out, _ = run_cli(capsys, argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == FROZEN_RUN_SHA256[instance, fmt]


def test_run_moudafi_output_is_frozen(capsys):
    argv = ["run", "moudafi", "--instance", "identity", "--x0", "8,0", "--steps", "10"]
    code, out, _ = run_cli(capsys, argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, FROZEN_MOUDAFI_SHA256)


@pytest.mark.parametrize("instance", sorted(RUN_PPA_START))
def test_every_trace_run_writes_reads_back(capsys, tmp_path, instance):
    start = f"--x0={RUN_PPA_START[instance]}"
    runs = [["ppa", "--gamma", "geom:1,0.5", "--steps", "30"],
            ["ppa", "--gamma", "const:0.05", "--steps", "100"],
            ["ppa", "--gamma", "const:8.0", "--steps", "30"],
            ["moudafi", "--mu", "0.5", "--lam", "0.5", "--steps", "30"]]
    for k, run in enumerate(runs):
        path = tmp_path / f"{k}.json"
        code, _, _ = run_cli(capsys, ["run", *run, "--instance", instance, start, "--out", str(path)])
        if code == 2:  # neg_half refuses step sizes up to 4
            assert instance == "neg_half" and not path.exists()
            continue
        code, out, err = run_cli(capsys, ["report", str(path)])
        assert (code, err) == (0, "")
        trace = IterationTrace.from_json(path.read_text())
        assert json.loads(out)["iterations"] == len(trace.points) - 1


def test_run_dimension_mismatch_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, ["run", "ppa", "--instance", "identity", "--x0", "8"]
    )
    assert code not in (0, None)


def test_run_refuses_a_zero_of_the_wrong_dimension(capsys, tmp_path):
    path = tmp_path / "trace.json"
    for out_flags in ([], ["--out", str(path)]):
        argv = ["run", "ppa", "--instance", "identity", "--x0", "2,2", "--zero", "0", *out_flags]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and "dimension 2" in err
    assert not path.exists()


def test_run_zero_help_points_to_report(capsys):
    code, out, _ = run_cli(capsys, ["run", "--help"])
    assert code == 0
    assert ("--zero ZERO known zero, only checked for dimension and finiteness; report --zero "
            "prints the distance to it and the Fejer verdict") in " ".join(out.split())
    assert "stderr summary" not in out


@pytest.mark.parametrize("run", [
    ["ppa", "--instance", "soft_threshold", "--x0", "3.5"],
    ["ppa", "--instance", "psd_skew", "--x0", "1,2,3,-1,0,5", "--zero", "0,0,0,0,0,0"],
    ["ppa", "--instance", "identity", "--x0", "2,2", "--steps", "0", "--zero", "0,0"],
    ["moudafi", "--instance", "identity", "--x0", "8,0", "--steps", "3", "--zero", "0,0"],
], ids=["ppa", "ppa-zero", "no-steps", "moudafi"])
def test_run_summary_line_reads_the_trace_report(capsys, run):
    code, out, err = run_cli(capsys, ["run", *run])
    assert code == 0
    trace = IterationTrace.from_json(out)
    summary = trace_report(trace)
    assert err == (f"{trace.algorithm}: {summary['iterations']} steps, "
                   f"final residual {summary['final_step_residual']}\n")
    if run[0] == "ppa" and run[2] == "soft_threshold":
        assert err == "proximal_point: 4 steps, final residual 0.5\n"


def test_run_rejects_malformed_x0(capsys):
    code, _, err = run_cli(
        capsys, ["run", "ppa", "--instance", "box", "--x0", "oops"]
    )
    assert code == 2
    assert "--x0" in err and "'oops'" in err


def test_real_canon_rejects_malformed_rational(capsys):
    code, _, err = run_cli(capsys, ["real", "canon", "x/y"])
    assert code == 2
    assert "'x/y'" in err


def test_oplab_rejects_malformed_gamma_grid(capsys):
    code, _, err = run_cli(
        capsys, ["oplab", "verify", "identity", "--gamma-grid", "1.0,junk"]
    )
    assert code == 2
    assert "--gamma-grid" in err and "'1.0,junk'" in err


def test_run_rejects_bad_step_configuration(capsys):
    code, _, _ = run_cli(
        capsys,
        ["run", "ppa", "--instance", "neg_half", "--x0", "1,0", "--gamma", "const:1.0"],
    )
    assert code not in (0, None)
    code, _, _ = run_cli(
        capsys,
        ["run", "ppa", "--instance", "soft_threshold", "--x0", "1", "--gamma", "junk"],
    )
    assert code not in (0, None)


def test_report_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "trace.json"
    run_cli(
        capsys,
        ["run", "ppa", "--instance", "soft_threshold", "--x0", "3.5",
         "--out", str(out_file)],
    )
    code, out, _ = run_cli(capsys, ["report", str(out_file), "--zero", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fejer_monotone"] is True
    assert payload["distance_to_zero"] == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow too
def test_report_flags_non_fejer(capsys, tmp_path):
    trace = IterationTrace(algorithm="synthetic", params={})
    import numpy as np

    trace.push(np.array([0.5]))
    trace.push(np.array([2.0]), gamma=1.0, step_res=1.5, value_res=1.5)
    bad = tmp_path / "bad.json"
    bad.write_text(trace.to_json())
    code, _, err = run_cli(capsys, ["report", str(bad), "--zero", "0"])
    assert code == 1
    assert "fejer_monotone" in err
    code, out, err = run_cli(capsys, ["report", str(bad), "--zero", "1e308"])  # distances overflow
    assert (code, json.loads(out)["distance_to_zero"]) == (1, None)
    assert "fejer_monotone" in err


def test_unknown_command_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["nonsense"])
    assert code == 2


def test_tol_env_override(monkeypatch, capsys):
    argv = ["oplab", "verify", "identity", "--samples", "5"]
    monkeypatch.setenv("PROOFLAB_TOL", "1e-5")
    assert json.loads(run_cli(capsys, argv)[1])["tol"] == 1e-5
    monkeypatch.delenv("PROOFLAB_TOL")
    assert json.loads(run_cli(capsys, argv)[1])["tol"] == 1e-8


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cli.build_parser.cache_clear()
    run_cli(capsys, ["types", "0"])
    first = len(built)
    for argv in (["types", "0(0)"], ["real", "canon", "1/2"], ["oplab", "verify", "identity",
                 "--samples", "5"], ["nonsense"], ["majorant", "bobs", "identity"]):
        run_cli(capsys, argv)
    assert first > 0 and len(built) == first


def test_a_refused_call_leaves_nothing_behind(capsys):
    good = ["oplab", "verify", "identity", "--samples", "5", "--seed", "3"]
    alone = run_cli(capsys, good)
    assert run_cli(capsys, ["oplab", "verify", "identity", "--samples", "-5", "--seed", "9"])[0] == 2
    assert run_cli(capsys, good) == alone


def test_a_config_call_leaves_nothing_behind(capsys, tmp_path):
    (tmp_path / "five.cfg").write_text("samples = 5\ntol = 1e-3\n")
    argv = ["oplab", "verify", "abs_subdiff"]
    payload = json.loads(run_cli(capsys, [*argv, "--config", str(tmp_path / "five.cfg")])[1])
    assert (payload["samples"], payload["tol"]) == (5, 1e-3)
    payload = json.loads(run_cli(capsys, argv)[1])
    assert (payload["samples"], payload["tol"]) == (300, 1e-8)


def test_in_process_calls_match_a_fresh_process(capsys):
    argv = ["oplab", "verify", "identity", "--samples", "5"]
    run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PROOFLAB_TOL"}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    fresh = subprocess.run([sys.executable, "-m", "prooflab.cli", *argv], env=env,
                           capture_output=True, text=True)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == second


@pytest.mark.parametrize("name, grid", [
    ("identity", "1e-9"), ("psd_skew", "1e-9"), ("tan_subgradient", "1e-9"),
    ("identity", "1e-300"),
])
def test_yosida_checks_pass_at_tiny_step_sizes(capsys, name, grid):
    # u = (x - p) / gamma is rounding noise here: the Yosida checks read it off the box at p
    code, out, err = run_cli(capsys, ["oplab", "verify", name, "--gamma-grid", grid,
                                      "--samples", "60"])
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"]["resolvent.yosida_membership"]["checks"] == 30  # pairs


# Bad input: each exits 2 with nothing on stdout, and stderr names what was
# refused.  "{d}" stands for a directory holding the files below.
BAD_INPUT_FILES = {
    "malformed.sexp": "(forall (x 0) (= x",
    "ill_typed.sexp": "(forall (a 0) (existsleq (b 0) (a a) (= b b)))",
    "ill_typed_bound.sexp": "(forall (a 0) (existsleq (b 0) succ (= b b)))",
    "extra_argument.sexp": "(forall (x 0) (= x 0 5))",
    "bare_binder.sexp": "(forall x0 (= x x))",
    "digit_binder.sexp": "(forall (5 0) (= 5 5))",
    "digit_free_name.sexp": "(= (: 5 0) 0)",
    "samples.cfg": "samples = abc\n",
    "tol.cfg": "tol = inf\n",
    "jobs.cfg": "jobs = -3\n",
    "keys.json": '{"algorithm": "ppa"}',
    "text.json": "not json",
    "nan.json": (
        '{"algorithm": "ppa", "params": {}, "points": [[NaN]], "gammas": [],'
        ' "step_residuals": [], "value_residuals": [], "diverged": false,'
        ' "outside_domain_at": null, "reached_zero_at": null}'
    ),
    "outcomes.json": (
        '{"algorithm": "ppa", "params": {}, "points": [[2.0], [1.0]], "gammas": [],'
        ' "step_residuals": [], "value_residuals": [], "diverged": "no",'
        ' "outside_domain_at": "later", "reached_zero_at": -3}'
    ),
    "diverged.json": (
        '{"algorithm": "ppa", "params": {}, "points": [[2.0], [1.0]], "gammas": [1.0],'
        ' "step_residuals": [1.0], "value_residuals": [1.0], "diverged": "no",'
        ' "outside_domain_at": null, "reached_zero_at": null}'
    ),
    "strings.json": (
        '{"algorithm": "ppa", "params": {}, "points": [["2"], [true]], "gammas": ["1.5"],'
        ' "step_residuals": [false], "value_residuals": [1.0], "diverged": false,'
        ' "outside_domain_at": null, "reached_zero_at": null}'
    ),
    "bools.json": (
        '{"algorithm": "ppa", "params": {}, "points": [[2], [1.0]], "gammas": [1.0],'
        ' "step_residuals": [false], "value_residuals": [1.0], "diverged": false,'
        ' "outside_domain_at": null, "reached_zero_at": null}'
    ),
    "overflow.json": (
        '{"algorithm": "ppa", "params": {}, "points": [[2.0], [1.0]], "gammas": [1.0],'
        ' "step_residuals": [1e400], "value_residuals": [1.0], "diverged": false,'
        ' "outside_domain_at": null, "reached_zero_at": null}'
    ),
    "bigint.json": (
        '{"algorithm": "ppa", "params": {}, "points": [[2.0], [1.0]], "gammas": [1' + '0' * 400
        + '], "step_residuals": [1.0], "value_residuals": [1.0], "diverged": false,'
        ' "outside_domain_at": null, "reached_zero_at": null}'
    ),
}
PPA = ["run", "ppa", "--instance", "soft_threshold", "--x0", "1"]
BAD_INPUTS = [
    (["oplab", "verify", "mystery"], "'mystery'"),
    (["oplab", "verify", "neg_half", "--gamma-grid", "0.5"], "gamma = 0.5"),
    (["run", "ppa", "--instance", "soft_threshold", "--x0", "nan"], "'nan'"),
    (["run", "ppa", "--instance", "identity", "--x0", "8"], "dimension 2"),
    (PPA + ["--gamma", "junk"], "'junk'"),
    (PPA + ["--gamma", "const:nan"], "'const:nan'"),
    (PPA + ["--gamma", "const:inf"], "'const:inf'"),
    (["run", "moudafi", "--instance", "identity", "--x0", "8,0", "--mu", "0"], "gamma = 0.0"),
    (PPA + ["--gamma", "geom:1,0.5", "--steps", "1100"], "'geom:1,0.5' is not positive"),
    (PPA + ["--gamma", "harmonic:5e-324", "--steps", "2"], "steps = 2"),
    (["oplab", "verify", "identity", "--tol", "inf"], "'inf'"),
    # z + gamma * w and the identity's blend at gamma / lambda pass the float range
    *[(["oplab", "verify", name, "--gamma-grid", grid], "expected finite coordinates")
      for name in ("box", "identity") for grid in ("1e308", "1e-300,1e300")],
    # I + gamma * A overflows, and the solve gives NaN: the resolvent passes the float range
    (["oplab", "verify", "psd_skew", "--gamma-grid", "1e308"], "float range"),
    (["run", "ppa", "--instance", "psd_skew", "--x0", "1,2,3,-1,0,5", "--gamma", "const:1e308",
      "--steps", "1"], "float range"),
    (["real", "canon", "-1/2"], "rational"),
    (["real", "canon", "--", "-1/2"], "'-1/2'"),
    (["real", "canon", "x/y"], "'x/y'"),
    (["real", "canon", "1/0"], "'1/0'"),
    (["real", "canon", "1/2", "--prec", "-3"], "'-3'"),
    (["types", "X(("], "end of type"),
    (["oplab", "verify", "identity", "--samples", "-5"], "'-5'"),
    (["oplab", "verify", "identity", "--config", "{d}/missing.cfg"], "missing.cfg"),
    (["oplab", "verify", "identity", "--config", "{d}/samples.cfg"], "'abc'"),
    (["oplab", "verify", "identity", "--config", "{d}/tol.cfg"], "'inf'"),
    (["oplab", "verify", "identity", "--jobs", "-3"], "'-3'"),
    (["oplab", "verify", "identity", "--config", "{d}/jobs.cfg"], "'-3'"),
    (["translate", "--nt", "{d}/missing.sexp"], "missing.sexp"),
    (["translate", "--nt", "{d}/malformed.sexp"], "unbalanced parenthesis"),
    (["delta", "{d}/ill_typed.sexp"], "non-arrow type"),
    (["translate", "--nt", "{d}/ill_typed_bound.sexp"], "succ has type 0(0), expected 0"),
    (["delta", "{d}/ill_typed_bound.sexp"], "succ has type 0(0), expected 0"),
    (["translate", "--nt", "{d}/extra_argument.sexp"], "= has arity 2, not 3"),
    (["delta", "{d}/bare_binder.sexp"], "forall wants a name and a type, got 'x0'"),
    (["translate", "--nt", "{d}/digit_binder.sexp"], "forall wants a name and a type"),
    (["translate", "--nt", "{d}/digit_free_name.sexp"], ": wants a name and a type, got '5'"),
    (["report", "{d}/missing.json"], "missing.json"),
    (["report", "{d}/keys.json"], "malformed trace"),
    (["report", "{d}/text.json"], "malformed trace"),
    (["report", "{d}/nan.json"], "non-finite"),
    (["report", "{d}/outcomes.json"], "one entry per step"),
    (["report", "{d}/diverged.json"], "diverged = 'no'"),
    (["report", "{d}/strings.json"], "points holds '2', which is not a JSON number"),
    (["report", "{d}/bools.json"], "step_residuals holds False"),
    (["report", "{d}/overflow.json"], "non-finite number: a value beyond the float range"),
    (["report", "{d}/bigint.json"], "int too large"),
]


@pytest.mark.parametrize("argv, named", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS])
def test_bad_input_exits_2(capsys, tmp_path, argv, named):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, [a.format(d=tmp_path) for a in argv])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert named in err
    if err.startswith("prooflab: error:"):  # raised by the library, not argparse
        assert err.count("\n") == 1


def test_deep_type_prints_and_classifies(capsys):
    # the type walks loop over explicit stacks: nesting past Python's recursion limit reads
    text = "0(" * 1500 + "0" + ")" * 1500
    code, out, err = run_cli(capsys, ["types", text])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["degree"], payload["shorthand"], payload["pure_index"]) == (1500, "1500", 1500)
    assert payload["parsed"] == payload["hat"] == text
    assert (payload["small"], payload["admissible"]) == (False, False)


# Nesting deeper than Python's recursion limit: the formula reader recurses once per level
DEEP_INPUTS = {"translate-depth-3000": ["translate", "--nt", "{d}/deep.sexp"]}


@pytest.mark.parametrize("argv", DEEP_INPUTS.values(), ids=DEEP_INPUTS.keys())
def test_deep_input_exits_2(capsys, tmp_path, argv):
    (tmp_path / "deep.sexp").write_text("(not " * 3000 + "(= 0 0)" + ")" * 3000)
    code, out, err = run_cli(capsys, [a.format(d=tmp_path) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("prooflab: error: input nested too deeply")
    assert err.count("\n") == 1


def test_types_refuses_digits_int_cannot_read(capsys):
    assert "²".isdigit()  # so a reader that trusts isdigit() would call int("²") and fail
    code, out, err = run_cli(capsys, ["types", "²"])
    assert (code, out) == (2, "")
    assert err.startswith("prooflab: error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, grid, want", [
    ("box", "1e308", 2), ("box", "1e-300,1e300", 2), ("identity", "1e308", 2),
    ("identity", "1e-300,1e300", 2),
    ("abs_subdiff", "1e308", 1),  # its points stay finite, and really miss in floats
])
def test_extreme_step_sizes_warn_nothing(capsys, name, grid, want):
    assert run_cli(capsys, ["oplab", "verify", name, "--gamma-grid", grid])[0] == want


def test_tol_env_must_be_finite(monkeypatch, capsys):
    for value in ("inf", "abc"):
        monkeypatch.setenv("PROOFLAB_TOL", value)
        code, out, err = run_cli(capsys, ["oplab", "verify", "identity", "--samples", "5"])
        assert (code, out) == (2, "")
        assert f"'{value}'" in err
        assert run_cli(capsys, ["types", "0"])[0] == 0  # only verbs that take --tol read it


@pytest.mark.parametrize("way", ["flag", "env", "config"])
@pytest.mark.parametrize("value", ["0", "-0.0", "-1e-9"])
def test_a_tolerance_at_or_below_zero_is_refused(monkeypatch, capsys, tmp_path, way, value):
    # at --tol 0 rounding alone fails correct resolvents: identity's worst slacks of the
    # defining inclusion and the resolvent identity are -4.4e-16 and -9.9e-16 at 5 samples
    argv = ["oplab", "verify", "identity", "--samples", "5"]
    if way == "flag":
        argv += [f"--tol={value}"]
    elif way == "env":
        monkeypatch.setenv("PROOFLAB_TOL", value)
    else:
        (tmp_path / "tol.cfg").write_text(f"tol = {value}\n")
        argv += ["--config", str(tmp_path / "tol.cfg")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert f"want a value > 0, got '{value}'" in err and "Traceback" not in err


def test_the_least_positive_tolerance_is_accepted(capsys):
    code, out, _ = run_cli(capsys, ["oplab", "verify", "identity", "--samples", "5",
                                    "--tol", "5e-324"])
    assert code in (0, 1) and json.loads(out)["tol"] == 5e-324


@pytest.mark.parametrize("key", sorted(CATALOG))
def test_oplab_default_grid_is_the_catalog_grid(capsys, key):
    code, out, _ = run_cli(capsys, ["oplab", "verify", key, "--samples", "5"])
    assert code in (0, 1)
    assert json.loads(out)["gamma_grid"] == list(CATALOG[key].gamma_grid)


def test_single_entry_build_matches_the_catalog():
    from prooflab import cli as cli_mod
    from prooflab.operator_lab import build_catalog, resolvent

    for seed in range(10):
        catalog = build_catalog(seed)
        for key, entry in CATALOG.items():
            op, ref = cli_mod._resolve_instance(key, seed), catalog[key]
            assert (op.name, op.dim, op.rho) == (ref.name, ref.dim, ref.rho)
            gamma = entry.gamma_grid[0]
            for x in (0.3, 1.2, 2.5):
                point = np.full(op.dim, x)
                assert np.array_equal(resolvent(op, gamma, point), resolvent(ref, gamma, point))


# Random argv for the cheap verbs: main returns 0, 1 or 2, or argparse exits 2,
# and nothing else escapes.  --steps and --samples come last (the last
# occurrence wins) so every run stays small.
NAMES = [*sorted(CATALOG), "box", "soft_threshold", "neg_half", "mystery"]
NUMBERS = ["0", "1", "-1", "0.5", "2.5", "1e308", "1e-300", "nan", "inf", "abc", "", "1,2",
           "8,0", "1,1,1", "0.5,1.0"]
OTHER = ["1/2", "x/y", "1/0", "-1/2", "X(X)(0)", "X((", "0(0)", "2", "const:1.0", "const:0",
         "const:nan", "harmonic:2", "geom:1,0.5", "geom:1,2", "json", "csv"]
name, number = st.sampled_from(NAMES), st.sampled_from(NUMBERS)
value = st.sampled_from(NAMES + NUMBERS + OTHER)


def flags(*names):
    pairs = st.lists(st.tuples(st.sampled_from(names), value), max_size=2)
    return pairs.map(lambda chosen: [f"{flag}={v}" for flag, v in chosen])


CHEAP_ARGV = st.one_of(
    st.tuples(st.just(["types"]), value.map(lambda v: [v]), flags("--seed")),
    st.tuples(st.just(["real", "canon"]), flags("--seed", "--prec"),
              value.map(lambda v: ["--", v])),
    st.tuples(st.sampled_from([["run", "ppa"], ["run", "moudafi"]]),
              st.tuples(name, number).map(lambda v: [f"--instance={v[0]}", f"--x0={v[1]}"]),
              flags("--seed", "--instance-s", "--gamma", "--mu", "--lam", "--zero", "--format"),
              st.sampled_from(["0", "1", "3"]).map(lambda n: ["--steps", n])),
    st.tuples(st.just(["oplab", "verify"]), name.map(lambda v: [v]),
              flags("--seed", "--tol", "--gamma-grid", "--jobs"),
              st.sampled_from(["0", "1", "5"]).map(lambda n: ["--samples", n])),
).map(lambda parts: [token for part in parts for token in part])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(CHEAP_ARGV)
def test_cli_random_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
