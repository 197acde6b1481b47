"""The names the benchmark in ``perfbench/`` imports and patches.

The benchmark traces provmod from outside by rebinding functions by name, so
a refactor that renames or drops one of them breaks the benchmark without
breaking any other test.  These checks import the benchmark's own modules
and fail here instead.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("tracing"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_resolves(perfbench_modules):
    tracing, _ = perfbench_modules
    for (module, name) in tracing.TRACED:
        assert callable(getattr(module, name, None)), (module.__name__, name)
    assert inspect.isgeneratorfunction(
        tracing.decide.enumerate_veltman_models)
    for cls, method in ((tracing.theories.TheoryOracle, "derives"),
                        (tracing.provability.GeneratedTheory, "decide")):
        assert callable(getattr(cls, method, None)), (cls, method)


def test_cache_report_runs(perfbench_modules):
    tracing, _ = perfbench_modules
    report = tracing.cache_report()
    assert report["intern_nodes"] > 0
    assert set(report) == {"intern_nodes", "pre_interpolant", "free_atoms"}


def test_deciders_table_holds_the_four_tableaux(perfbench_modules):
    tracing, workloads = perfbench_modules
    decide = tracing.decide
    assert decide._DECIDERS == {"k": decide.decide_k, "k4": decide.decide_k4,
                                "s4": decide.decide_s4,
                                "gl": decide.decide_gl}
    assert workloads.DECIDERS == decide._DECIDERS


def test_benchmark_inputs_build(perfbench_modules):
    inputs = importlib.import_module("inputs")
    assert len(inputs.glp_models()) == 3


def test_generated_models_still_answer_pre(perfbench_modules):
    # the generate workload reads the theories as ``model.pre.theories``
    _, workloads = perfbench_modules
    inputs = importlib.import_module("inputs")
    for language, generate, kwargs in (
            (workloads.BOX, workloads.generate_gl, {}),
            (workloads.RHD, workloads.generate_ilm,
             {"e_family": workloads.pipeline_family_rhd(["p", "q"], 4)})):
        seed = inputs.seed_premodel([-1, 0], [0, 1],
                                    inputs.axiom_sets(language), language)
        model = generate(seed, **kwargs)
        assert model.pre.theories.keys() == {"s1"}
