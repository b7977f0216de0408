"""Workbench for quantitative analysis of monotone and comonotone operators:
a typed combinator core with logical translations on one side, numerical
resolvent experiments on the other, glued by majorant constructions.

The public names below load their module on first use (PEP 562), so a process
that needs only the symbolic half never imports numpy."""

import importlib

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in {
        "finite_types": "Arrow BaseType FinType TypeClass TypeContainsX X ZERO classify degree"
        " hat is_admissible is_small parse_type pure_type",
        "term_calculus": "App Const Term Var bracket_abstract evaluate FiniteModel numeral"
        " reduce_term typecheck",
        "real_codes": "CompareResult RatCode RealCode canonical_rep compare_at guarded_recip"
        " pair_j rat_value real_arith unpair_j",
        "formula_engine": "DeltaForm DialecticaForm Formula check_interpretation_soundness"
        " delta_recognize dialectica expand_defined generate_corpus negative_translation"
        " parse_formula skolemize_delta",
        "majorization": "NOT_BOUNDED bobs_uniform_majorant check_majorizes chi_majorant"
        " monotone_hull resolvent_majorant",
        "operator_lab": "CATALOG SetValuedOperator build_catalog check_operator_class"
        " check_resolvent_properties clamp_tilde minimal_norm_selection resolvent"
        " resolvent_param_modulus yosida",
        "algorithms": "GammaSchedule IterationTrace moudafi_iteration parse_gamma_schedule"
        " proximal_point trace_report",
    }.items()
    for name in names.split()
}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # any other name fails here, so ``from prooflab import cli`` goes on to import the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without calling this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
