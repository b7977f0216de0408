"""The import layout: ``prooflab``'s public names load their module on first use, the CLI
loads only what a verb uses, and every binding the benchmark tracer wraps still exists."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prooflab
from prooflab import cli, errors
from prooflab.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(prooflab.__file__).resolve().parents[1]

# the public names of the package, fixed by the compatibility contract
PUBLIC = set("""
App Arrow BaseType CATALOG CompareResult Const DeltaForm DialecticaForm FinType FiniteModel
Formula GammaSchedule IterationTrace NOT_BOUNDED RatCode RealCode SetValuedOperator Term
TypeClass TypeContainsX Var X ZERO bobs_uniform_majorant bracket_abstract build_catalog
canonical_rep check_interpretation_soundness check_majorizes check_operator_class
check_resolvent_properties chi_majorant clamp_tilde classify compare_at degree
delta_recognize dialectica evaluate expand_defined generate_corpus guarded_recip hat
is_admissible is_small minimal_norm_selection monotone_hull moudafi_iteration
negative_translation numeral pair_j parse_formula parse_gamma_schedule parse_type
proximal_point pure_type rat_value real_arith reduce_term resolvent resolvent_majorant
resolvent_param_modulus skolemize_delta trace_report typecheck unpair_j yosida
""".split())

# each exception the CLI reports as bad input, by the module that raises it
RAISED_BY = {
    "finite_types": ["TypeSyntaxError"],
    "term_calculus": ["IllTypedApplication"],
    "formula_engine": ["FormulaSyntaxError"],
    "operator_lab": ["NoConvergence", "ComonotoneStepError", "NonPositiveGamma",
                     "DimensionMismatch", "NonFiniteInput"],
    "algorithms": ["ScheduleSyntaxError", "TraceFormatError"],
}

# the modules perfbench/run.py's load_modules imports before the tracer is installed
BENCHMARKED = ("cli", "operator_lab", "algorithms", "term_calculus", "formula_engine",
               "real_codes", "majorization", "finite_types")


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that finds this checkout's package."""
    env = {k: v for k, v in os.environ.items() if k != "PROOFLAB_TOL"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_every_public_name_resolves_to_its_module():
    assert set(prooflab.__all__) == PUBLIC
    assert PUBLIC <= set(dir(prooflab))
    for name in sorted(PUBLIC):
        home = importlib.import_module(f"prooflab.{prooflab._HOME[name]}")
        assert getattr(prooflab, name) is getattr(home, name), name
    from prooflab import reduce_term, resolvent  # noqa: F401  the from-import form too
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        prooflab.nope
    from prooflab import majorization  # a submodule, not a public name, still imports

    assert majorization is sys.modules["prooflab.majorization"]


def test_input_errors_are_reexported_as_the_same_classes():
    raised = [getattr(errors, name) for names in RAISED_BY.values() for name in names]
    assert set(cli.INPUT_ERRORS) == {OSError, UnicodeDecodeError, *raised}
    for module, names in RAISED_BY.items():
        home = importlib.import_module(f"prooflab.{module}")
        for name in names:
            assert getattr(home, name) is getattr(errors, name), (module, name)


def test_instances_are_the_catalog_keys_and_the_aliases():
    from prooflab import operator_lab

    assert cli.INSTANCES == tuple(sorted([*operator_lab.CATALOG, *cli.INSTANCE_ALIASES]))


def test_every_binding_the_tracer_wraps_exists():
    """A binding moved inside a function (say ``cli``'s ``parse_type`` import) passes every
    other test, but makes each traced benchmark run raise ``KeyError`` in ``Tracer.install``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {n: importlib.import_module(f"prooflab.{n}") for n in BENCHMARKED}
    tracer = tracing.Tracer(modules)
    missing = [(path, attr) for _, _, bindings in tracing.TRACED for path, attr in bindings
               if attr not in tracer._target(path).__dict__]
    assert missing == []


def test_the_package_and_the_cli_load_only_what_they_need():
    loaded = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
              "if m == 'numpy' or m.startswith('prooflab'))))")
    done = _fresh("-c", f"import prooflab; {loaded}; import prooflab.cli; {loaded}")
    assert done.returncode == 0, done.stderr
    after_package, after_cli = map(json.loads, done.stdout.splitlines())
    assert after_package == ["prooflab"]
    assert after_cli == ["prooflab", "prooflab.cli", "prooflab.errors", "prooflab.finite_types"]


SYMBOLIC = {
    "f.sexp": "(forall (x 0) (exists (y 0) (= y (succ x))))",
    "delta.sexp": "(forall (a 0) (existsleq (b 0) a (forall (c 0) (<= b a))))",
}


@pytest.mark.parametrize("argv", [
    ["types", "X(X)(0)"],
    ["types", "X(("],  # bad input: exit 2 through INPUT_ERRORS
    ["translate", "--nt", "{d}/f.sexp"],
    ["translate", "--dialectica", "{d}/f.sexp"],
    ["delta", "{d}/delta.sexp"],
    ["real", "canon", "2/3", "--prec", "3"],
], ids=" ".join)
def test_symbolic_verbs_run_without_numpy(capsys, monkeypatch, tmp_path, argv):
    for name, text in SYMBOLIC.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(d=tmp_path) for a in argv]
    done = _fresh("-X", "importtime", "-m", "prooflab.cli", *argv)
    lines = done.stderr.splitlines(keepends=True)
    imported = {ln.rsplit("|", 1)[1].strip() for ln in lines if ln.startswith("import time:")}
    assert "prooflab.finite_types" in imported and "numpy" not in imported
    err = "".join(ln for ln in lines if not ln.startswith("import time:"))
    monkeypatch.delenv("PROOFLAB_TOL", raising=False)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, in_err = capsys.readouterr()
    assert (done.returncode, done.stdout, err) == (code, out, in_err)
