import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prooflab.algorithms import IterationTrace
from prooflab.cli import main
from prooflab.operator_lab import CATALOG


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


def test_run_dimension_mismatch_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, ["run", "ppa", "--instance", "identity", "--x0", "8"]
    )
    assert code not in (0, None)


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
    "keys.json": '{"algorithm": "ppa"}',
    "text.json": "not json",
    "nan.json": (
        '{"algorithm": "ppa", "params": {}, "points": [[NaN]], "gammas": [],'
        ' "step_residuals": [], "value_residuals": [], "diverged": false,'
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
    (["oplab", "verify", "identity", "--tol", "inf"], "'inf'"),
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


def test_tol_env_must_be_finite(monkeypatch, capsys):
    for value in ("inf", "abc"):
        monkeypatch.setenv("PROOFLAB_TOL", value)
        code, out, err = run_cli(capsys, ["oplab", "verify", "identity", "--samples", "5"])
        assert (code, out) == (2, "")
        assert f"'{value}'" in err
        assert run_cli(capsys, ["types", "0"])[0] == 0  # only verbs that take --tol read it


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
