import importlib
import json

import pytest

from prooflab.algorithms import IterationTrace
from prooflab.cli import main


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
    _, threaded, _ = run_cli(capsys, argv + ["--jobs", "4"])
    assert serial == serial_again
    payload_serial = json.loads(serial)
    payload_threaded = json.loads(threaded)
    assert payload_serial["checks"] == payload_threaded["checks"]


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


def test_oplab_unknown_instance(capsys):
    code, _, _ = run_cli(capsys, ["oplab", "verify", "mystery"])
    assert code not in (0, None)
    assert isinstance(code, str) and "known:" in code


def test_run_ppa_json(capsys):
    code, out, err = run_cli(
        capsys, ["run", "ppa", "--instance", "soft_threshold", "--x0", "3.5"]
    )
    assert code == 0
    trace = IterationTrace.from_json(out)
    assert trace.reached_zero_at == 4
    assert "proximal_point: 4 steps" in err


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


def test_run_dimension_mismatch_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, ["run", "ppa", "--instance", "identity", "--x0", "8"]
    )
    assert code not in (0, None)


def test_run_rejects_malformed_x0(capsys):
    code, _, _ = run_cli(
        capsys, ["run", "ppa", "--instance", "box", "--x0", "oops"]
    )
    assert code not in (0, None)
    assert "bad point" in str(code)


def test_real_canon_rejects_malformed_rational(capsys):
    code, _, _ = run_cli(capsys, ["real", "canon", "x/y"])
    assert code not in (0, None)
    assert "bad rational" in str(code)


def test_oplab_rejects_malformed_gamma_grid(capsys):
    code, _, _ = run_cli(
        capsys, ["oplab", "verify", "identity", "--gamma-grid", "1.0,junk"]
    )
    assert code not in (0, None)
    assert "bad gamma grid" in str(code)


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


def test_unknown_command_usage_error(capsys):
    code, _, _ = run_cli(capsys, ["nonsense"])
    assert code == 2


def test_tol_env_override(monkeypatch):
    from prooflab import cli as cli_mod

    monkeypatch.setenv("PROOFLAB_TOL", "1e-5")
    importlib.reload(cli_mod)
    assert cli_mod.DEFAULT_TOL == 1e-5
    monkeypatch.delenv("PROOFLAB_TOL")
    importlib.reload(cli_mod)
    assert cli_mod.DEFAULT_TOL == 1e-8
