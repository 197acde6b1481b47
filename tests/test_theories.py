import pytest

from provmod.formulas import (
    FALSUM,
    atom,
    box,
    imp,
    land,
    neg,
    parse,
    top,
)
from provmod.kripke import KripkeModel
from provmod.theories import (
    TheoryError,
    classicality_violations,
    finite_axioms_mp,
    gl_n,
    gl_theorems,
    kripke_world_theory,
)

p = atom("p")
q = atom("q")


def test_finite_axioms_mp_examples():
    t = finite_axioms_mp([p])
    assert t.derives(p)
    assert not t.derives(box(p))

    empty = finite_axioms_mp([])
    assert empty.derives(imp(box(p), box(p)))

    absurd = finite_axioms_mp([FALSUM])
    for f in [p, box(p), neg(p), FALSUM]:
        assert absurd.derives(f)


def test_finite_axioms_mp_monotone():
    small = finite_axioms_mp([p])
    large = finite_axioms_mp([p, box(q)])
    family = [p, q, box(p), box(q), imp(p, q), land(p, box(q)), top()]
    for f in family:
        if small.derives(f):
            assert large.derives(f)


def test_kripke_world_theory_plain_vs_transitive():
    k = KripkeModel(["w0", "w1"], [("w0", "w1")], [("w1", "p")])
    plain = kripke_world_theory(k, "w0")
    assert plain.derives(box(p))
    assert not plain.derives(p)

    trans = kripke_world_theory(k, "w0", transitive=True)
    assert trans.derives(box(p))
    # transitive variant needs truth below as well
    assert not trans.derives(neg(p))


def test_kripke_world_theory_leaf():
    k = KripkeModel(["w0", "w1"], [("w0", "w1")], [("w1", "p")])
    leaf = kripke_world_theory(k, "w1", transitive=True)
    assert leaf.derives(land(p, box(FALSUM)))
    assert not leaf.derives(FALSUM)


def test_kripke_world_theory_transitive_flag_checked():
    k = KripkeModel("abc", [("a", "b"), ("b", "c")], [])
    with pytest.raises(TheoryError):
        kripke_world_theory(k, "a", transitive=True)


def test_transitive_world_theory_closed_under_nec():
    k = KripkeModel(
        "abc",
        [("a", "b"), ("b", "c"), ("a", "c")],
        [("b", "p"), ("c", "p")],
    )
    t = kripke_world_theory(k, "a", transitive=True)
    family = [p, box(p), top(), imp(p, p), box(FALSUM)]
    for f in family:
        if t.derives(f):
            assert t.derives(box(f)), str(f)


def test_gl_theorems_oracle():
    t = gl_theorems()
    assert t.derives(parse("[]([]p -> p) -> []p"))
    assert not t.derives(parse("[]p -> p"))
    assert not t.derives(FALSUM)


def test_gl_n_examples():
    g0 = gl_n(0)
    assert g0.derives(FALSUM)

    g1 = gl_n(1)
    assert g1.derives(box(p))
    assert not g1.derives(p)

    g2 = gl_n(2)
    assert g2.derives(parse("[][]p"))
    assert not g2.derives(box(p))


def test_gl_n_closed_under_nec():
    g1 = gl_n(1)
    family = [p, box(p), parse("[]bot"), parse("[]p -> p"), top()]
    for f in family:
        if g1.derives(f):
            assert g1.derives(box(f)), str(f)


def test_memo_is_idempotent():
    t = finite_axioms_mp([p])
    assert t.derives(box(p)) == t.derives(box(p))
    assert t.derives(p) and t.derives(p)


def test_classicality_spot_check():
    for oracle in [
        finite_axioms_mp([]),
        finite_axioms_mp([p]),
        finite_axioms_mp([FALSUM]),
        gl_theorems(),
        gl_n(2),
    ]:
        assert classicality_violations(oracle) == []


def test_language_mismatch_raises():
    t = finite_axioms_mp([p])
    with pytest.raises(TheoryError):
        t.derives(parse("p |> q", "rhd"))
