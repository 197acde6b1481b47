import pytest

from provmod import formulas as fm
from provmod.formulas import (
    FALSUM,
    OMEGA,
    Atom,
    Bot,
    Imp,
    BoxN,
    atom,
    boxn,
    imp,
    land,
    lor,
    neg,
    top,
)
from provmod.glp import (
    PolyModel,
    PolyModelError,
    check_glp_model,
    glp_forces,
    glp_forces_plus_0,
    glp_soundness_suite,
)
from provmod.theories import TheoryOracle, finite_axioms_mp
from provmod.provability import PreModel, pm_forces
from glp_fixtures import (
    COMPLIANT,
    FAMILY,
    fixture_chain,
    fixture_empty,
    fixture_nec_broken,
    fixture_non_ascending_edges,
    fixture_pi_incomplete,
    fixture_single_edge,
    leaf_truth_oracle,
)

p = atom("p")
q = atom("q")


# ---------------------------------------------------------------------------
# construction and evaluation

def test_poly_model_structural_validation():
    leaf = leaf_truth_oracle(set())
    with pytest.raises(PolyModelError):
        # level-1 edge to a world that is not level-0 accessible
        PolyModel(["w", "u"], {0: [], 1: [("w", "u")]}, {}, [], max_index=1)
    with pytest.raises(PolyModelError):
        # missing theory levels
        PolyModel(["w", "u"], {0: [("w", "u")], 1: []},
                  {"u": {0: leaf}}, [], max_index=1)


def test_poly_model_rejects_negative_levels():
    for max_index in (None, 0, 1):
        with pytest.raises(PolyModelError):
            PolyModel(["w"], {0: [], -1: [("w", "w")]}, {}, [],
                      max_index=max_index)
    with pytest.raises(PolyModelError):
        PolyModel(["w"], {-1: [("w", "w")]}, {}, [])


@pytest.mark.parametrize("edges, theory_level, max_index, field", [
    # int() would read 1.9 and true as 1 and the key "0" as level 0
    ({0: [("w", "u")], 1: []}, 1, 1.9, "max_index"),
    ({0: [("w", "u")], 1: []}, 1, True, "max_index"),
    ({"0": [("w", "u")]}, 0, None, "edge level"),
    ({0: [("w", "u")]}, "0", None, "theory level of 'u'"),
])
def test_poly_model_refuses_a_level_that_is_no_integer(edges, theory_level,
                                                       max_index, field):
    leaf = leaf_truth_oracle(set())
    theories = {"u": {0: leaf, theory_level: leaf}}
    with pytest.raises(PolyModelError, match=f"^{field} must be an integer"):
        PolyModel(["w", "u"], edges, theories, [], max_index=max_index)


def test_poly_model_levels_share_worlds_and_valuation():
    m = fixture_chain()
    assert [level.worlds for level in m.levels] == \
        [m.worlds] * (m.max_index + 1)
    assert all(level.valuation == m.valuation for level in m.levels)
    assert m.levels[0] is m
    assert m.descendants("w") == {"u", "v"}
    assert m.descendants("u") == {"v"} and not m.descendants("v")


def test_vacuous_boxes():
    m = fixture_empty()
    for n in range(3):
        for w in m.worlds:
            assert glp_forces(m, w, boxn(n, FALSUM))


def test_two_chain_level_0_example():
    finite = finite_axioms_mp([p], language=OMEGA)
    m = PolyModel(
        ["w", "u"],
        {0: [("w", "u")], 1: []},
        {"u": {0: finite, 1: finite}},
        [],
        max_index=1,
    )
    assert glp_forces(m, "w", boxn(0, p))
    assert glp_forces(m, "w", boxn(1, q))
    assert not glp_forces(m, "w", boxn(0, q))


def test_boxed_tautologies_hold():
    m = fixture_single_edge()
    for t in [top(), imp(p, p)]:
        assert glp_forces(m, "w", boxn(0, t))


def test_index_out_of_range():
    m = fixture_single_edge()
    with pytest.raises(PolyModelError):
        glp_forces(m, "w", boxn(3, p))


def test_plus_zero_covers_descendants():
    m = fixture_chain()
    assert glp_forces_plus_0(m, "v", p)
    assert glp_forces_plus_0(m, "u", p)
    assert not glp_forces_plus_0(m, "w", p)
    with pytest.raises(PolyModelError):
        glp_forces_plus_0(m, "v", fm.parse("[]p"))


# ---------------------------------------------------------------------------
# the model-property checker and the axiom harness

@pytest.mark.parametrize("make", COMPLIANT)
def test_compliant_fixtures_pass_checker(make):
    m = make()
    report = check_glp_model(m, FAMILY)
    assert report.ok, report.violations[:4]


@pytest.mark.parametrize("make", COMPLIANT)
def test_compliant_fixtures_pass_soundness_suite(make):
    m = make()
    report = glp_soundness_suite(m, ["p"], 1)
    assert report.ok, report.violations[:4]


def test_non_ascending_edges_detected_with_matching_axiom_failure():
    m = fixture_non_ascending_edges()
    report = check_glp_model(m, FAMILY)
    assert not report.ok
    edge_violations = report.by_clause("ascending_edges")
    assert edge_violations and edge_violations[0][2] == ("u", "v")

    suite = glp_soundness_suite(m, ["p"], 1)
    assert any(name == "ascending" for (name, n, f, w) in suite.violations)


def test_pi_incompleteness_detected_with_matching_axiom_failure():
    m = fixture_pi_incomplete()
    report = check_glp_model(m, FAMILY)
    assert report.by_clause("pi_completeness")
    # the witness names the edge and the refuted box
    u, w = report.by_clause("pi_completeness")[0][1:3]
    assert (u, w) == ("w", "u")

    suite = glp_soundness_suite(m, ["p"], 1)
    assert any(name.startswith("pi_completeness")
               for (name, n, f, w) in suite.violations)


def test_broken_necessitation_detected():
    m = fixture_nec_broken()
    report = check_glp_model(m, FAMILY)
    assert report.by_clause("poly_nec")
    suite = glp_soundness_suite(m, ["p"], 1)
    assert any(name in ("four", "four_boxed")
               for (name, n, f, w) in suite.violations)


def test_checker_reports_the_classical_poly_loeb_and_ascending_clauses():
    empty = TheoryOracle(language=OMEGA, axioms=(), rules=frozenset(),
                         provenance="custom", decide=lambda f: False)
    loeb_only = finite_axioms_mp([imp(boxn(0, p), p)], language=OMEGA)
    m = PolyModel(["w", "u", "v"], {0: [("w", "u"), ("w", "v")], 1: []},
                  {"u": {0: finite_axioms_mp([p], language=OMEGA), 1: empty},
                   "v": {0: loeb_only, 1: loeb_only}}, [], max_index=1)
    report = check_glp_model(m, [p])
    # the empty oracle derives no tautology
    assert report.by_clause("classical") == [
        ("classical", "u", 1, "tautology", t)
        for t in (top(), imp(p, p), lor(p, neg(p)))]
    # v's level-0 theory derives [0]p -> p but not p
    assert report.by_clause("poly_loeb") == [("poly_loeb", "v", 0, p)]
    # u derives p at level 0 and nothing at level 1
    assert report.by_clause("ascending_theories") == [
        ("ascending_theories", "u", 0, p)]


def test_checker_reports_are_witnessed():
    m = fixture_pi_incomplete()
    report = check_glp_model(m, FAMILY)
    for violation in report.violations:
        assert len(violation) >= 2


# ---------------------------------------------------------------------------
# embedding: an index-0-only model is an ordinary provability model

def _to_box(f):
    if isinstance(f, Atom) or isinstance(f, Bot):
        return f
    if isinstance(f, Imp):
        return fm.imp(_to_box(f.left), _to_box(f.right))
    if isinstance(f, BoxN):
        assert f.index == 0
        return fm.box(_to_box(f.sub))
    raise AssertionError(f)


def test_index_zero_model_matches_box_semantics():
    finite_omega = finite_axioms_mp([p], language=OMEGA)
    poly = PolyModel(
        ["w", "u"],
        {0: [("w", "u")]},
        {"u": {0: finite_omega}},
        [("u", "p")],
        max_index=0,
    )
    box_pre = PreModel(["w", "u"], [("w", "u")], [("u", "p")],
                       {"u": finite_axioms_mp([p])})
    family = [p, q, boxn(0, p), boxn(0, q), imp(boxn(0, p), p),
              boxn(0, boxn(0, FALSUM)), land(p, boxn(0, p))]
    for f in family:
        for w in ["w", "u"]:
            assert glp_forces(poly, w, f) == pm_forces(box_pre, w, _to_box(f))
