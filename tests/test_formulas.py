import random
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

import support
from provmod import formulas as fm
from provmod.formulas import (
    BOX,
    FALSUM,
    LANGUAGES,
    OMEGA,
    RHD,
    Phrase,
    atom,
    box,
    boxn,
    classical_entails,
    conj,
    diamond,
    imp,
    is_purely_modal,
    land,
    liff,
    lor,
    neg,
    parse,
    phrase_cnf,
    pre_interpolant,
    rbox,
    rdiamond,
    rhd,
    skeleton,
    substitute,
    tautology,
    to_text,
    top,
)

p = atom("p")
q = atom("q")
r = atom("r")


# ---------------------------------------------------------------------------
# construction and desugaring

def test_derived_connectives_desugar():
    assert neg(p) is imp(p, FALSUM)
    assert top() is imp(FALSUM, FALSUM)
    assert lor(p, q) is imp(neg(p), q)
    assert land(p, q) is neg(lor(neg(p), neg(q)))
    assert liff(p, q) is land(imp(p, q), imp(q, p))
    assert diamond(p) is neg(box(neg(p)))
    assert rbox(p) is rhd(neg(p), FALSUM)


def test_interning_gives_identity_equality():
    assert imp(p, q) is imp(p, q)
    assert box(imp(p, q)) is box(imp(p, q))
    assert boxn(2, p) is boxn(2, p)
    assert boxn(1, p) is not boxn(2, p)


def test_language_tags():
    assert p.lang is None
    assert box(p).lang == BOX
    assert rhd(p, q).lang == RHD
    assert boxn(0, p).lang == OMEGA
    assert imp(box(p), q).lang == BOX


def test_mixed_trees_rejected():
    with pytest.raises(fm.LanguageError):
        imp(box(p), rhd(p, q))
    with pytest.raises(fm.LanguageError):
        box(rhd(p, q))
    with pytest.raises(fm.LanguageError):
        rhd(box(p), q)
    with pytest.raises(fm.LanguageError):
        boxn(1, box(p))


def test_reserved_words_are_not_atoms():
    with pytest.raises(fm.FormulaError):
        atom("bot")
    with pytest.raises(fm.FormulaError):
        atom("Q")


# ---------------------------------------------------------------------------
# parsing

def test_parse_neg_desugars():
    assert parse("~p -> bot") is imp(imp(p, FALSUM), FALSUM)


def test_parse_diamond_desugars():
    assert parse("<>q") is neg(box(neg(q)))


def test_parse_box_in_rhd_language():
    assert parse("[]p", RHD) is rhd(neg(p), FALSUM)


def test_parse_precedence():
    assert parse("p & q | r") is lor(land(p, q), r)
    assert parse("p | q -> r") is imp(lor(p, q), r)
    assert parse("p -> q -> r") is imp(p, imp(q, r))
    assert parse("~p & q") is land(neg(p), q)
    assert parse("[]p -> p") is imp(box(p), p)
    assert parse("p <-> q") is liff(p, q)


def test_parse_rhd_precedence():
    got = parse("p & q |> r -> p", RHD)
    assert got is imp(rhd(land(p, q), r), p)
    with pytest.raises(fm.ParseError):
        parse("p |> q |> r", RHD)


def test_parse_boxn():
    assert parse("[0]p -> [12]q", OMEGA) is imp(boxn(0, p), boxn(12, q))


def test_parse_errors_carry_position():
    with pytest.raises(fm.ParseError):
        parse("p -> ")
    with pytest.raises(fm.ParseError):
        parse("p @ q")
    with pytest.raises(fm.ParseError):
        parse("|>p q")


def test_operators_illegal_outside_language():
    with pytest.raises(fm.ParseError):
        parse("p |> q", BOX)
    with pytest.raises(fm.ParseError):
        parse("[1]p", BOX)
    with pytest.raises(fm.ParseError):
        parse("[]p", OMEGA)
    with pytest.raises(fm.ParseError):
        parse("<>p", OMEGA)


# ---------------------------------------------------------------------------
# printing

def test_print_resugars():
    assert to_text(land(p, q)) == "p & q"
    assert to_text(lor(p, q)) == "p | q"
    assert to_text(neg(p)) == "~p"
    assert to_text(top()) == "top"
    assert to_text(diamond(p)) == "<>p"
    assert to_text(neg(box(p))) == "~[]p"
    assert to_text(neg(land(p, q))) == "~(p & q)"
    assert to_text(imp(box(imp(box(p), p)), box(p))) == "[]([]p -> p) -> []p"
    assert to_text(rbox(p)) == "~p |> bot"
    assert to_text(boxn(2, imp(p, q))) == "[2](p -> q)"


def _random_formula(rng, lang, depth, atom_pool):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([rng.choice(atom_pool), FALSUM, top()])
    kind = rng.choice(["imp", "neg", "and", "or", "modal", "modal", "imp"])
    sub = lambda: _random_formula(rng, lang, depth - 1, atom_pool)
    if kind == "imp":
        return imp(sub(), sub())
    if kind == "neg":
        return neg(sub())
    if kind == "and":
        return land(sub(), sub())
    if kind == "or":
        return lor(sub(), sub())
    if lang == BOX:
        return rng.choice([box, diamond])(sub())
    if lang == RHD:
        return rhd(sub(), sub())
    return boxn(rng.randrange(3), sub())


@pytest.mark.parametrize("lang", [BOX, RHD, OMEGA])
def test_print_parse_roundtrip(lang):
    rng = random.Random(7)
    pool = [p, q, r]
    for _ in range(400):
        f = _random_formula(rng, lang, 4, pool)
        assert parse(to_text(f), lang) is f


# Well-formed texts over every operator of the three languages, their
# prefixes, and token soups that are mostly malformed: unbalanced
# parentheses, operators out of place or outside their language, chained
# |>, stray characters.
_PREFIXES = ["~", "[]", "<>", "[0]", "[12]"]
_INFIXES = ["&", "|", "|>", "->", "<->"]
_ATOM_TEXTS = ["p", "q", "top", "bot"]
_WELL_FORMED = st.recursive(
    st.sampled_from(_ATOM_TEXTS),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(_PREFIXES), sub).map("".join),
        sub.map(lambda t: f"({t})"),
        st.tuples(sub, st.sampled_from(_INFIXES), sub).map(" ".join)),
    max_leaves=12)
_CUT = st.builds(lambda text, cut: text[:cut], _WELL_FORMED,
                 st.integers(min_value=0, max_value=30))
_SOUP = st.lists(
    st.sampled_from(_PREFIXES + _INFIXES + _ATOM_TEXTS
                    + ["(", ")", " ", "[", "-", "<", ">", "#", "x1"]),
    max_size=14).map(" ".join)


def _parse_outcome(parser, text, lang):
    try:
        return parser(text, lang)
    except fm.ParseError as exc:
        return ("ParseError", str(exc), exc.position)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_WELL_FORMED, _CUT, _SOUP), st.sampled_from(LANGUAGES))
@example("p & q |> r |> p", RHD)
@example("(p |> q) |> ~r -> p |> q", RHD)
def test_parser_matches_the_recursive_reference(text, lang):
    # formulas are interned, so == on them is identity
    got = _parse_outcome(parse, text, lang)
    assert got == _parse_outcome(support.reference_parse, text, lang)
    if isinstance(got, fm.Formula):
        assert to_text(got) == support.reference_to_text(got)


def _formulas(lang):
    modal = {BOX: [box, diamond], RHD: [rbox, rdiamond],
             OMEGA: [partial(boxn, 0), partial(boxn, 3)]}[lang]
    binary = [imp, land, lor, liff] + ([rhd] if lang == RHD else [])
    return st.recursive(
        st.sampled_from([p, q, FALSUM, top()]),
        lambda sub: st.one_of(
            st.builds(lambda make, a: make(a), st.sampled_from([neg] + modal),
                      sub),
            st.builds(lambda make, a, b: make(a, b), st.sampled_from(binary),
                      sub, sub)),
        max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_printer_matches_the_recursive_reference(data):
    lang = data.draw(st.sampled_from(LANGUAGES))
    f = data.draw(_formulas(lang))
    text = to_text(f)
    assert text == support.reference_to_text(f)
    assert parse(text, lang) is f


# ---------------------------------------------------------------------------
# purely modal, substitute, skeleton

def test_is_purely_modal():
    assert is_purely_modal(box(p))
    assert not is_purely_modal(imp(p, box(p)))
    assert is_purely_modal(FALSUM)
    assert is_purely_modal(rhd(p, q))
    assert not is_purely_modal(imp(rhd(p, q), p))


def test_substitute():
    assert substitute(imp(p, q), {"p": top()}) is imp(top(), q)
    assert substitute(box(p), {"p": FALSUM}) is box(FALSUM)
    assert substitute(p, {}) is p


def test_skeleton_single_box():
    sk = skeleton(imp(p, box(p)))
    q0 = atom(sk.q_atoms[0])
    assert sk.skeleton is imp(p, q0)
    assert sk.binding_map == {sk.q_atoms[0]: box(p)}
    assert sk.p_atoms == ("p",)
    assert sk.restore() is imp(p, box(p))


def test_skeleton_shares_identical_modal_parts():
    sk = skeleton(imp(box(p), box(p)))
    assert len(sk.q_atoms) == 1
    assert sk.p_atoms == ()
    assert sk.restore() is imp(box(p), box(p))


def test_skeleton_keeps_inner_boxes():
    f = box(land(p, box(q)))
    sk = skeleton(f)
    assert len(sk.q_atoms) == 1
    assert sk.binding_map[sk.q_atoms[0]] is f
    assert sk.restore() is f


def test_skeleton_avoids_clashing_fresh_names():
    q0 = atom("q0")
    sk = skeleton(imp(q0, box(q0)))
    assert "q0" not in sk.q_atoms
    assert sk.restore() is imp(q0, box(q0))


def test_skeleton_rhd():
    f = imp(p, rhd(p, q))
    sk = skeleton(f)
    assert sk.p_atoms == ("p",)
    assert sk.restore() is f


# ---------------------------------------------------------------------------
# pre-interpolant

def test_pre_interpolant_examples():
    got = pre_interpolant(imp(p, box(p)))
    assert got is land(imp(top(), box(p)), imp(FALSUM, box(p)))

    assert pre_interpolant(box(p)) is box(p)

    assert pre_interpolant(p) is land(top(), FALSUM)


def test_pre_interpolant_entails_original():
    f = imp(land(p, box(q)), lor(box(p), q))
    assert classical_entails([pre_interpolant(f)], f)


# ---------------------------------------------------------------------------
# classical entailment with opaque boxes

def test_entailment_examples():
    assert classical_entails([box(p), imp(box(p), q)], q)
    assert not classical_entails([box(p)], box(land(p, p)))
    strongest = imp(land(imp(top(), box(p)), imp(FALSUM, box(p))),
                    imp(p, box(p)))
    assert classical_entails([], strongest)


def test_entailment_treats_distinct_boxes_independently():
    assert not classical_entails([box(p)], box(q))
    assert classical_entails([box(p)], box(p))
    assert not classical_entails([boxn(0, p)], boxn(1, p))


def test_entailment_rejects_mixed_languages():
    with pytest.raises(fm.LanguageError):
        classical_entails([box(p)], rhd(p, q))


def test_tautology():
    assert tautology(imp(p, p))
    assert tautology(lor(box(p), neg(box(p))))
    assert not tautology(imp(box(p), box(q)))


# ---------------------------------------------------------------------------
# phrases

def test_phrase_cnf_examples():
    assert phrase_cnf(box(p)) == (Phrase((), (box(p),)),)
    assert phrase_cnf(imp(box(p), box(q))) == (Phrase((box(p),), (box(q),)),)
    assert phrase_cnf(neg(box(FALSUM))) == (Phrase((box(FALSUM),), ()),)


def test_phrase_cnf_tautology_is_empty():
    assert phrase_cnf(imp(p, p)) == ()
    assert phrase_cnf(top()) == ()


def test_phrase_cnf_falsum_is_empty_phrase():
    assert phrase_cnf(FALSUM) == (Phrase((), ()),)


def test_phrase_cnf_mixes_atoms_and_boxes():
    got = phrase_cnf(imp(p, box(q)))
    assert got == (Phrase(("p",), (box(q),)),)


def test_phrase_cnf_roundtrip_equivalence():
    rng = random.Random(3)
    for _ in range(60):
        f = _random_formula(rng, BOX, 3, [p, q])
        z = phrase_cnf(f)
        back = conj([ph.formula() for ph in z])
        assert classical_entails([f], back) and classical_entails([back], f)


def test_phrase_cnf_is_kept_on_the_node():
    rng = random.Random(5)
    for _ in range(40):
        f = _random_formula(rng, BOX, 3, [p, q, r])
        first = phrase_cnf(f)
        assert phrase_cnf(f) is first
        assert first == support.reference_phrase_cnf(f)
    # eleven boxed atoms exceed the limit of ten on every call
    wide = conj([box(atom(f"a{i}")) for i in range(11)])
    for _ in range(2):
        with pytest.raises(fm.EntailmentTooLarge):
            phrase_cnf(wide)
        assert wide._phrases is None


def test_phrase_cnf_invariant_under_equivalence():
    pairs = [
        (imp(p, box(q)), lor(neg(p), box(q))),
        (land(box(p), box(q)), land(box(q), box(p))),
        (box(p), land(box(p), lor(q, neg(q)))),
        (neg(neg(box(p))), box(p)),
    ]
    for a, b in pairs:
        assert phrase_cnf(a) == phrase_cnf(b)


def test_phrase_ordering_is_canonical():
    ph = Phrase((box(q), "p", box(FALSUM), "p", box(q)), ())
    assert ph.antecedent == ("p", box(FALSUM), box(q))
    with pytest.raises(fm.FormulaError):
        Phrase(("p",), ("p",))


# ---------------------------------------------------------------------------
# property tests

_atom_st = st.sampled_from([p, q])


def _formula_st(lang, atom_st=_atom_st):
    base = st.one_of(atom_st, st.just(FALSUM), st.just(top()))
    if lang == BOX:
        modal = lambda c: st.one_of(c.map(box), c.map(diamond))
    elif lang == RHD:
        modal = lambda c: st.tuples(c, c).map(lambda ab: rhd(*ab))
    else:
        modal = lambda c: st.tuples(st.integers(0, 2), c).map(
            lambda ia: boxn(*ia))
    return st.recursive(
        base,
        lambda c: st.one_of(
            st.tuples(c, c).map(lambda ab: imp(*ab)),
            st.tuples(c, c).map(lambda ab: land(*ab)),
            st.tuples(c, c).map(lambda ab: lor(*ab)),
            c.map(neg),
            modal(c),
        ),
        max_leaves=12,
    )


@settings(max_examples=120, deadline=None)
@given(_formula_st(BOX))
def test_pre_interpolant_laws_box(f):
    star = pre_interpolant(f)
    assert is_purely_modal(star)
    assert classical_entails([star], f)


@settings(max_examples=80, deadline=None)
@given(_formula_st(RHD))
def test_pre_interpolant_laws_rhd(f):
    star = pre_interpolant(f)
    assert is_purely_modal(star)
    assert classical_entails([star], f)


@settings(max_examples=60, deadline=None)
@given(_formula_st(BOX))
def test_pre_interpolant_is_strongest(f):
    # any purely modal consequence-provider implies the pre-interpolant
    star = pre_interpolant(f)
    for b in (star, FALSUM, land(star, box(p))):
        assert classical_entails([b], f)
        assert classical_entails([b], star)


@settings(max_examples=80, deadline=None)
@given(_formula_st(BOX))
def test_skeleton_roundtrip(f):
    assert skeleton(f).restore() is f


# ---------------------------------------------------------------------------
# the rewriting walks each distinct node once, and agrees with a tree walk

@st.composite
def _formula_and_mapping(draw):
    lang = draw(st.sampled_from(LANGUAGES))
    f = draw(_formula_st(lang))
    names = draw(st.lists(st.sampled_from(["p", "q", "r"]), unique=True))
    return f, {n: draw(_formula_st(lang)) for n in names}


@settings(max_examples=150, deadline=None)
@given(_formula_and_mapping())
def test_rewriting_matches_a_tree_walk(case):
    f, mapping = case
    assert substitute(f, mapping) is support.tree_substitute(f, mapping)
    sk = skeleton(f)
    assert (sk.skeleton, sk.p_atoms, sk.q_atoms, sk.bindings) == \
        support.tree_skeleton(f)
    assert fm.outer_modal_subformulas(f) == \
        support.tree_outer_modal_subformulas(f)
    assert fm.subformulas(f) == support.tree_subformulas(f)
    assert fm.atoms(f) == support.tree_atoms(f)
    assert fm.free_atoms(f) == support.tree_atoms(f, free_only=True)
    assert pre_interpolant(f) is support.tree_pre_interpolant(f)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(LANGUAGES).flatmap(_formula_st))
def test_instances_are_kept_on_the_node_and_match_a_tree_walk(f):
    got = fm.instances(f)
    assert type(got) is tuple
    assert fm.instances(f) is got
    assert fm.instance_table(f) == (tuple(sorted(fm.free_atoms(f))), got)
    assert got == tuple(support.tree_instances(f))
    assert conj(got) is pre_interpolant(f)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LANGUAGES).flatmap(
    partial(_formula_st, atom_st=st.sampled_from([p, q, r]))))
def test_instance_tables_are_the_references_fold(f):
    # every node is checked, so the tables kept on the children are too
    for g in fm.subformulas(f):
        support.assert_instance_table_is_the_reference(g)


_CLOSED = {BOX: box(q), RHD: rbox(q), OMEGA: boxn(1, q)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LANGUAGES).flatmap(
    lambda lang: st.tuples(_formula_st(lang), st.sampled_from(
        [FALSUM, _CLOSED[lang]]))))
def test_instance_tables_are_built_from_the_childrens_kept_tables(case):
    f, d = case
    names, got = fm.instance_table(f)
    skeleton = [f]
    for g in skeleton:
        if type(g) is fm.Imp:
            assert g._instances is not None, to_text(g)
            skeleton += (g.left, g.right)
    # the table of f -> d, for a closed d, takes one implication per
    # instance of f once f's table is kept, and none when f is closed too
    g = imp(f, d)
    fresh = g._instances is None
    made = []
    counting = lambda left, right: made.append(1) or imp(left, right)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fm, "imp", counting)
        table = fm.instance_table(g)
    assert table == (names, tuple(imp(x, d) for x in got))
    if fresh:
        assert len(made) == (len(got) if names else 0)


def _doubling(g, levels=40):
    for _ in range(levels):
        g = imp(g, g)
    return g


def test_rewriting_a_doubling_dag_visits_each_node_once():
    # 44 distinct nodes, about 5 * 2**40 read as a tree
    f = _doubling(imp(p, box(q)))
    assert len(fm.subformulas(f)) == 44
    got = support.within(1.0, lambda: substitute(f, {"p": box(r), "q": p}))
    assert got is _doubling(imp(box(r), box(p)))
    sk = support.within(1.0, lambda: skeleton(f))
    assert sk.skeleton is _doubling(imp(p, atom("q0")))
    assert sk.bindings == (("q0", box(q)),)
    assert sk.p_atoms == ("p",)
    assert fm.outer_modal_subformulas(f) == [box(q)]
    star = support.within(1.0, lambda: pre_interpolant(f))
    assert star is land(_doubling(imp(top(), box(q))),
                        _doubling(imp(FALSUM, box(q))))
