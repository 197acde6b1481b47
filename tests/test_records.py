"""The library's result records are named tuples: immutable, built by
keyword or position with their defaults, and true or false by the rule
each report defines."""

import pytest

from provmod.decide import (
    NON_THEOREM,
    THEOREM,
    DecisionVerdict,
    decide,
    finfals_check,
    representatives_gl,
)
from provmod.formulas import Phrase, atom, box, parse, phrase_cnf, skeleton
from provmod.glp import GlpReport, check_glp_model
from provmod.interpret import (
    GateCheck,
    InterpretationResult,
    soundness_gate,
    t_interpretation,
)
from provmod.kripke import KripkeModel, PropertyCheck, check_frame
from provmod.provability import (
    Certificate,
    countermodel_pipeline_gl,
    lift_kripke,
    project_and_check,
)
from provmod.theories import finite_axioms_mp
from glp_fixtures import FAMILY, fixture_single_edge

p = atom("p")


def _records():
    """One record of each immutable kind, as the library builds it."""
    k = KripkeModel("ab", [("a", "a"), ("b", "b"), ("a", "b")], [("b", "p")])
    lifted = lift_kripke(k, transitive=True)
    interpretation = t_interpretation(parse("[]p -> [][]p"),
                                      finite_axioms_mp([p]))
    gate = soundness_gate(finite_axioms_mp([p]), [parse("[]p -> [][]p")])
    reps = representatives_gl(1, ["p"])
    frame = check_frame(k)
    return {
        "DecisionVerdict": decide("gl", parse("[]p -> p")),
        "PropertyCheck": frame.tree,
        "FrameReport": frame,
        "Skeleton": skeleton(parse("p -> []p")),
        "Phrase": phrase_cnf(box(p))[0],
        "TreeType": reps.types[0],
        "RepresentativeSet": reps,
        "FinfalsReport": finfals_check(p, 2),
        "Certificate": lifted.certificate,
        "ProjectionReport": project_and_check(lifted, [p])[1],
        "GlpReport": check_glp_model(fixture_single_edge(), FAMILY),
        "PhraseTrace": interpretation.traces[0],
        "InterpretationResult": interpretation,
        "GateCheck": gate.gates[0],
        "SoundnessGateReport": gate,
        "PipelineResult": countermodel_pipeline_gl(parse("[]p -> p")),
    }


def test_every_record_refuses_assignment():
    records = _records()
    assert len(records) == 16
    for name, record in records.items():
        assert type(record).__name__ == name
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert tuple(record) == tuple(getattr(record, f)
                                      for f in record._fields), name


def test_keyword_construction_and_defaults():
    assert DecisionVerdict(status=THEOREM) == DecisionVerdict(THEOREM, None,
                                                              None)
    assert DecisionVerdict(status=THEOREM).is_theorem
    assert Certificate(kind="lifted").family == ()
    assert GateCheck("mp", True).witness == ()
    check = PropertyCheck(True)
    assert check.holds and check.witness is None


def test_truth_of_the_reports():
    assert PropertyCheck(True) and not PropertyCheck(False, ("w",))
    assert GlpReport(()) and not GlpReport((("classical", "w"),))
    assert InterpretationResult(p, "t", True, ())
    assert not InterpretationResult(p, "t", False, ())
    # a non-theorem is refuted at some k; a theorem agrees at every k
    refuted = finfals_check(parse("[]p -> p"), 2)
    assert refuted.base.status == NON_THEOREM and refuted
    assert not refuted._replace(least_failing_k=None)
    theorem = finfals_check(parse("[]([]p -> p) -> []p"), 2)
    assert theorem.base.status == THEOREM and theorem
    assert not theorem._replace(agrees=False)


def test_records_equal_their_field_tuples_with_the_same_hash():
    # the frozen dataclasses they replace hashed the same field tuples, so
    # sets and dicts of records keep their iteration order
    verdict = DecisionVerdict(THEOREM)
    assert verdict == (THEOREM, None, None)
    assert hash(verdict) == hash((THEOREM, None, None))
    ph = Phrase((box(p), "p", "p"), ())
    assert ph == (("p", box(p)), ())
    assert hash(ph) == hash((("p", box(p)), ()))
