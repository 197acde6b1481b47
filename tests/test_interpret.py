import pytest

from provmod.formulas import (
    FALSUM,
    Phrase,
    atom,
    box,
    land,
    lor,
    neg,
    parse,
    top,
)
from provmod.decide import decide_gl
from provmod.theories import MP, TheoryOracle, finite_axioms_mp, gl_n, \
    gl_theorems
from provmod.interpret import (
    InterpretationError,
    incompleteness_witness,
    phrase_truth,
    soundness_gate,
    t_interpretation,
)

p = atom("p")
q = atom("q")


def test_phrase_truth_examples():
    theory = finite_axioms_mp([p])
    ph = Phrase((box(p),), (box(box(p)),))
    assert not phrase_truth(ph, theory)

    inconsistent = finite_axioms_mp([FALSUM])
    assert phrase_truth(Phrase((), (box(FALSUM),)), inconsistent)

    assert phrase_truth(Phrase((box(FALSUM),), ()), gl_theorems())


def test_phrase_truth_ignores_bare_atoms():
    theory = finite_axioms_mp([p])
    # the atom on the left never makes the hypothesis fail
    assert not phrase_truth(Phrase(("p", box(p)), (box(q),)), theory)
    # and an atom on the right is never a witness
    assert not phrase_truth(Phrase((), ("p",)), theory)


def test_t_interpretation_examples():
    four = parse("[]p -> [][]p")
    assert not t_interpretation(four, finite_axioms_mp([p])).truth

    for taut in [parse("p -> p"), top(), parse("p | ~p")]:
        assert t_interpretation(taut, finite_axioms_mp([])).truth
        assert t_interpretation(taut, finite_axioms_mp([FALSUM])).truth

    loeb = parse("[]([]p -> p) -> []p")
    assert t_interpretation(loeb, gl_theorems()).truth


def test_t_interpretation_traces_cover_cnf():
    from provmod.formulas import phrase_cnf
    f = parse("([]p -> [][]p) & ~[]bot")
    result = t_interpretation(f, finite_axioms_mp([p]))
    assert tuple(tr.phrase for tr in result.traces) == phrase_cnf(f)
    assert result.truth == all(tr.truth for tr in result.traces)


def test_t_interpretation_invariant_under_equivalence():
    theories = [finite_axioms_mp([]), finite_axioms_mp([p]),
                finite_axioms_mp([FALSUM]), gl_theorems(), gl_n(1)]
    pairs = [
        (parse("[]p -> [][]p"), parse("~[][]p -> ~[]p")),
        (parse("[]p & []q"), parse("[]q & []p")),
        (parse("[]p"), land(box(p), lor(q, neg(q)))),
    ]
    for a, b in pairs:
        for t in theories:
            assert t_interpretation(a, t).truth == t_interpretation(b, t).truth


def test_incompleteness_witness():
    assert incompleteness_witness(finite_axioms_mp([FALSUM])) == box(FALSUM)
    assert incompleteness_witness(gl_theorems()) == neg(box(FALSUM))
    assert incompleteness_witness(finite_axioms_mp([])) == neg(box(FALSUM))
    for theory in [finite_axioms_mp([p]), gl_n(2)]:
        w = incompleteness_witness(theory)
        assert t_interpretation(w, theory).truth
        assert not decide_gl(w).is_theorem


CORPUS = [parse(s) for s in [
    "[]([]p -> p) -> []p",
    "[](p -> q) -> ([]p -> []q)",
    "[]p -> [][]p",
    "[]top",
    "[]([]([]p -> p) -> []p)",
    "[](p & q) -> []p",
]]


def test_soundness_gate_passes_for_gl_like_theories():
    for theory in [gl_theorems(), gl_n(1), gl_n(2)]:
        report = soundness_gate(theory, CORPUS)
        assert report.gates_pass
        assert report.corpus_true
        assert report.ok


def test_soundness_gate_fails_with_matching_probe():
    report = soundness_gate(finite_axioms_mp([p]), CORPUS)
    assert not report.gates_pass
    nec = report.gate("nec")
    assert not nec.passed and nec.witness == (p,)
    probe = next(pr for pr in report.probes if pr[0] == "nec")
    assert probe[1] == parse("[]p -> [][]p")
    assert probe[2] is False


def test_soundness_gate_fails_the_mp_gate_with_matching_probe():
    # derives every formula but top: so a -> top but not top
    theory = TheoryOracle(language="box", axioms=(), rules=frozenset({MP}),
                          provenance="custom", decide=lambda f: f != top())
    report = soundness_gate(theory, CORPUS)
    assert [g.name for g in report.gates if not g.passed] == ["mp"]
    a = parse("[]([]p -> p) -> []p")
    assert report.gate("mp").witness == (a, top())
    probe = parse("[](([]([]p -> p) -> []p) -> top) -> "
                  "([]([]([]p -> p) -> []p) -> []top)")
    assert report.probes == (("mp", probe, False),)


def test_soundness_gate_rejects_non_theorem_corpus():
    with pytest.raises(InterpretationError):
        soundness_gate(gl_theorems(), [parse("[]p -> p")])


def _equivalent_rewrite(rng, f):
    """One random truth-preserving rewrite applied at the root."""
    from provmod.formulas import imp, land, lor, neg, top

    kind = rng.randrange(5)
    if kind == 0:
        return neg(neg(f))
    if kind == 1:
        return land(f, top())
    if kind == 2:
        return lor(f, land(p, neg(p)))
    if kind == 3:
        return land(f, f)
    return imp(top(), f)


def test_equivalent_rewrites_share_interpretation():
    import random

    from provmod.formulas import BOX, land, lor, neg, phrase_cnf, top
    import sys
    sys.path.insert(0, "tests")
    import support

    rng = random.Random(42)
    theories = [finite_axioms_mp([]), finite_axioms_mp([p]),
                finite_axioms_mp([FALSUM]), gl_theorems(), gl_n(1)]
    for _ in range(40):
        f = support.random_formula(rng, BOX, 2, [p, q])
        g = f
        for _ in range(rng.randint(1, 3)):
            g = _equivalent_rewrite(rng, g)
        assert phrase_cnf(f) == phrase_cnf(g)
        for t in theories:
            assert t_interpretation(f, t).truth == \
                t_interpretation(g, t).truth
