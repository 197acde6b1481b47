"""Provability-model semantics for propositional modal logics.

Importing the package loads ``formulas``, ``kripke`` and ``decide``, which
every command but ``unravel`` needs.  The names of ``theories``,
``provability``, ``glp`` and ``interpret`` are resolved on first use
(PEP 562), so a program that decides formulas never loads the provability
models.  Importing provmod changes no interpreter setting.
"""

from importlib import import_module as _import_module

from provmod.formulas import (
    BOX,
    RHD,
    OMEGA,
    Formula,
    FormulaError,
    LanguageError,
    ParseError,
    parse,
    to_text,
    atom,
    imp,
    box,
    rhd,
    boxn,
    neg,
    top,
    lor,
    land,
    liff,
    diamond,
    rbox,
    rdiamond,
    boxdot,
    conj,
    disj,
    boxes,
    FALSUM,
    is_purely_modal,
    skeleton,
    pre_interpolant,
    substitute,
    classical_entails,
    tautology,
    phrase_cnf,
    Phrase,
)
from provmod.kripke import (
    KripkeModel,
    VeltmanModel,
    FrameReport,
    ModelError,
    forces,
    forces_plus,
    veltman_forces,
    veltman_forces_alt,
    check_frame,
    unravel,
    unravelled_forces,
)
# binds ``decide`` to the function: the submodule is loaded by now, so no
# later import rebinds the package attribute to it
from provmod.decide import (
    DecisionVerdict,
    decide,
    decide_k,
    decide_k4,
    decide_s4,
    decide_gl,
    decide_ilm,
    gl_consequence,
    finfals_check,
    representatives_gl,
    representatives_ilm,
)

# name -> home module, for the names loaded on first use
_LAZY = {
    **dict.fromkeys((
        "TheoryOracle",
        "finite_axioms_mp",
        "kripke_world_theory",
        "gl_theorems",
        "gl_n",
    ), "theories"),
    **dict.fromkeys((
        "PreModel",
        "ProvabilityModel",
        "pm_forces",
        "pm_forces_plus",
        "pm_forces_rhd",
        "lift_kripke",
        "project_and_check",
        "generate_gl",
        "generate_ilm",
        "is_l_isomorphic",
        "countermodel_pipeline_gl",
        "countermodel_pipeline_ilm",
        "soundness_suite",
    ), "provability"),
    **dict.fromkeys((
        "PolyModel",
        "glp_forces",
        "glp_forces_plus_0",
        "check_glp_model",
        "glp_soundness_suite",
    ), "glp"),
    **dict.fromkeys((
        "phrase_truth",
        "t_interpretation",
        "incompleteness_witness",
        "soundness_gate",
    ), "interpret"),
}
_LAZY_MODULES = ("theories", "provability", "glp", "interpret")

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY) | set(_LAZY_MODULES))


def __getattr__(name):
    # looked up on every use, not cached here, so a name rebound in its
    # home module (as tracing wrappers do) is seen through the package
    if name in _LAZY:
        return getattr(_import_module(f"provmod.{_LAZY[name]}"), name)
    if name in _LAZY_MODULES:
        # importing a submodule binds it on the package
        return _import_module(f"provmod.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
