import functools
import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from provmod import formulas as fm
from provmod.formulas import (
    FALSUM,
    Box,
    Imp,
    atom,
    box,
    boxes,
    conj,
    diamond,
    disj,
    imp,
    land,
    liff,
    lor,
    neg,
    parse,
    rbox,
    rdiamond,
    rhd,
    top,
)
from provmod.decide import (
    NON_THEOREM,
    NO_COUNTERMODEL_UP_TO_BOUND,
    DecisionError,
    EnvelopeError,
    _materialize,
    _saturate,
    _strict_posets,
    _veltman_frames,
    certify_pairwise,
    decide,
    decide_gl,
    decide_ilm,
    decide_k,
    decide_k4,
    decide_s4,
    enumerate_veltman_models,
    finfals_check,
    gl_consequence,
    representatives_gl,
    representatives_ilm,
)
from provmod.kripke import check_frame, forces, veltman_forces

p = atom("p")
q = atom("q")

LOEB = parse("[]([]p -> p) -> []p")


# ---------------------------------------------------------------------------
# GL

def test_gl_loeb_axiom_is_theorem():
    assert decide_gl(LOEB).is_theorem


def test_gl_reflection_fails():
    verdict = decide_gl(parse("[]p -> p"))
    assert verdict.status == NON_THEOREM
    assert not forces(verdict.countermodel, verdict.world, parse("[]p -> p"))
    report = check_frame(verdict.countermodel)
    assert report.irreflexive and report.transitive


GL_THEOREMS = [
    "[](p -> q) -> ([]p -> []q)",
    "[]p -> [][]p",
    "[]([]p -> p) -> []p",
    "[]([]([]p -> p) -> []p)",
    "[](p & q) <-> ([]p & []q)",
    "[]bot -> []p",
    "[]top",
    "~[]bot -> ~[](<>top)",
    "[](p -> q) -> (<>p -> <>q)",
    "<>p -> <>(p & ~<>p)",
]

GL_NON_THEOREMS = [
    "p",
    "[]p -> p",
    "p -> []p",
    "<>top",
    "~[]bot",
    "[]p",
    "<>p -> p",
    "[]p -> q",
    "[](p | q) -> ([]p | []q)",
    "<>p | <>~p",
]


@pytest.mark.parametrize("text", GL_THEOREMS)
def test_gl_theorems(text):
    assert decide_gl(parse(text)).is_theorem


@pytest.mark.parametrize("text", GL_NON_THEOREMS)
def test_gl_non_theorems(text):
    verdict = decide_gl(parse(text))
    assert verdict.status == NON_THEOREM
    assert not forces(verdict.countermodel, verdict.world, parse(text))


def _random_box_formula(rng, depth, pool):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(pool + [FALSUM, top()])
    kind = rng.choice(["imp", "imp", "neg", "and", "or", "box", "dia"])
    sub = lambda: _random_box_formula(rng, depth - 1, pool)
    if kind == "imp":
        return imp(sub(), sub())
    if kind == "neg":
        return neg(sub())
    if kind == "and":
        return land(sub(), sub())
    if kind == "or":
        return lor(sub(), sub())
    if kind == "box":
        return box(sub())
    return diamond(sub())


def test_gl_agrees_with_brute_force_search():
    import support

    rng = random.Random(11)
    for _ in range(120):
        f = _random_box_formula(rng, 2, [p, q])
        brute = support.gl_valid_brute(f, max_nodes=4)
        verdict = decide_gl(f)
        if verdict.is_theorem:
            assert brute is None, fm.to_text(f)
        elif brute is not None:
            model, world = brute
            assert not forces(model, world, f)


def test_gl_tree_models_are_the_rooted_trees_up_to_isomorphism():
    import support

    # 1, 1, 2 and 4 rooted trees on 1 to 4 nodes (OEIS A000081)
    assert sum(1 for _ in support.gl_tree_models(4, [])) == 8
    # with one atom: 2 + 4 + 2 * 8 + 4 * 16 valuations
    assert sum(1 for _ in support.gl_tree_models(4, ["p"])) == 86


# ---------------------------------------------------------------------------
# K, K4, S4

def test_textbook_separations():
    assert decide_s4(parse("[]p -> p")).is_theorem
    assert decide_k(parse("[]p -> [][]p")).status == NON_THEOREM
    assert decide_k4(parse("[]p -> [][]p")).is_theorem
    assert decide_k4(parse("[]p -> p")).status == NON_THEOREM
    assert decide_k(parse("[](p -> q) -> ([]p -> []q)")).is_theorem
    assert decide_s4(parse("[]p -> [][]p")).is_theorem
    assert not decide_s4(LOEB).is_theorem
    assert not decide_k4(LOEB).is_theorem
    assert decide_k(parse("[]top")).is_theorem
    assert decide_s4(parse("<>top")).is_theorem
    assert decide_k(parse("<>top")).status == NON_THEOREM
    assert decide_gl(parse("<>top")).status == NON_THEOREM


def test_s4_loop_case_terminates_and_refutes():
    # satisfiable only on a frame with a cluster
    f = parse("[](<>p) -> []bot")
    verdict = decide_s4(f)
    assert verdict.status == NON_THEOREM
    assert not forces(verdict.countermodel, verdict.world, f)
    report = check_frame(verdict.countermodel)
    assert report.reflexive and report.transitive


def test_k4_loop_case():
    f = neg(land(diamond(top()), box(diamond(top()))))
    verdict = decide_k4(f)
    assert verdict.status == NON_THEOREM
    assert not forces(verdict.countermodel, verdict.world, f)
    assert check_frame(verdict.countermodel).transitive
    # on converse well-founded frames the same shape is impossible
    assert decide_gl(f).is_theorem


def test_countermodels_verified_in_class():
    for decider, texts in [
        (decide_k, ["p", "[]p -> p", "[]p"]),
        (decide_k4, ["p", "[]p -> p"]),
        (decide_s4, ["p", "p -> []p", "[]p -> q"]),
    ]:
        for text in texts:
            verdict = decider(parse(text))
            assert verdict.status == NON_THEOREM
            assert not forces(verdict.countermodel, verdict.world, parse(text))


@pytest.mark.parametrize("logic", ["k4", "s4", "gl"])
def test_countermodel_edges_are_the_closure_of_the_tableau_edges(logic):
    import support

    decide_mod = importlib.import_module("provmod.decide")
    refuted = 0
    for text in GL_THEOREMS + GL_NON_THEOREMS:
        root = decide_mod._search(logic, frozenset({(parse(text), False)}),
                                  ())
        if root is None:
            continue
        raw, _ = decide_mod._materialize("k", root)
        model, _ = decide_mod._materialize(logic, root)
        expected = support.fixpoint_closure(raw.edges)
        if logic == "s4":
            expected |= {(w, w) for w in raw.worlds}
        assert model.edges == expected, text
        refuted += 1
    assert refuted >= len(GL_NON_THEOREMS)


def test_decide_rejects_wrong_language():
    with pytest.raises(DecisionError):
        decide_gl(rhd(p, q))


# ---------------------------------------------------------------------------
# lazy saturation and the per-decision caches, against the eager tableau

BOX_LOGICS = ["k", "k4", "s4", "gl"]


def _modal_depth(f):
    if isinstance(f, Imp):
        return max(_modal_depth(f.left), _modal_depth(f.right))
    if isinstance(f, Box):
        return 1 + _modal_depth(f.sub)
    return 0


_BOX_FORMULAS = st.recursive(
    st.sampled_from([p, q, FALSUM, top()]),
    lambda c: st.one_of(st.tuples(c, c).map(lambda ab: imp(*ab)),
                        st.tuples(c, c).map(lambda ab: land(*ab)),
                        st.tuples(c, c).map(lambda ab: lor(*ab)),
                        c.map(neg), c.map(box), c.map(diamond)),
    max_leaves=10,
).filter(lambda f: _modal_depth(f) <= 3)


@settings(max_examples=120, deadline=None)
@given(_BOX_FORMULAS)
def test_verdicts_agree_with_the_eager_tableau(f):
    import support

    for logic in BOX_LOGICS:
        verdict = decide(logic, f)
        reference = support.reference_search(logic, frozenset({(f, False)}),
                                             ())
        assert verdict.is_theorem == (reference is None), (logic,
                                                           fm.to_text(f))
        if not verdict.is_theorem:
            assert not forces(verdict.countermodel, verdict.world, f)


@settings(max_examples=120, deadline=None)
@given(st.frozensets(st.tuples(_BOX_FORMULAS, st.booleans()), max_size=4))
def test_lazy_saturation_yields_the_eager_branches_in_order(demand):
    import support

    for logic in BOX_LOGICS:
        assert (list(_saturate(demand, logic))
                == support.reference_saturate(demand, logic))


@settings(max_examples=120, deadline=None)
@given(st.frozensets(st.tuples(_BOX_FORMULAS, st.booleans()), max_size=4),
       st.randoms(use_true_random=False))
def test_saturation_skips_only_branches_that_keep_blamed_literals(demand,
                                                                  rng):
    import support

    # a right branch inherits the blame that sent the search to it, so a
    # skipped branch may keep an earlier blamed set rather than the last one
    def blamed_before(branch, sent):
        return any(all(branch.get(f) == s for f, s in blamed)
                   for blamed in sent)

    for logic in BOX_LOGICS:
        eager = [list(b.items())
                 for b in support.reference_saturate(demand, logic)]
        branches = _saturate(demand, logic)
        at = 0
        sent = []
        try:
            literals = next(branches)
            while True:
                while eager[at] != list(literals.items()):
                    assert blamed_before(dict(eager[at]), sent), logic
                    at += 1
                at += 1
                items = list(literals.items())
                sent.append(rng.sample(items, rng.randint(0, len(items))))
                literals = branches.send([f for f, _ in sent[-1]])
        except StopIteration:
            pass
        assert all(blamed_before(dict(b), sent) for b in eager[at:]), logic


def _assert_countermodel_is_the_eager_one(logic, f):
    import support

    reference = support.reference_search(logic, frozenset({(f, False)}), ())
    verdict = decide(logic, f)
    if reference is None:
        assert verdict.is_theorem, (logic, fm.to_text(f))
    else:
        assert ((verdict.countermodel, verdict.world)
                == _materialize(logic, reference)), (logic, fm.to_text(f))


@pytest.mark.parametrize("logic", BOX_LOGICS)
@settings(max_examples=80, deadline=None)
@given(_BOX_FORMULAS)
def test_k_and_gl_countermodels_are_the_eager_ones(logic, f):
    _assert_countermodel_is_the_eager_one(logic, f)


def _cnf_clause(rng, depth):
    """Three literals, each negated with probability 1/2 and, above depth 0,
    a boxed clause with probability 1/2, else an atom (Patel-Schneider and
    Sebastiani, JAIR 18, 2003)."""
    literals = []
    for _ in range(3):
        if depth > 0 and rng.random() < 0.5:
            base = box(_cnf_clause(rng, depth - 1))
        else:
            base = atom(rng.choice(("p", "q", "r")))
        literals.append(neg(base) if rng.random() < 0.5 else base)
    return disj(literals)


def test_depth_two_modal_cnf_is_decided_within_seconds():
    import support

    rng = random.Random(0)
    queries = [neg(conj([_cnf_clause(rng, 2) for _ in range(6)]))
               for _ in range(12)]
    # on a 2-vCPU VM, one of these took 109 s and 283 s (two processes) in
    # s4 with eager saturation and no cache, and about 0.1 s with lazy
    # saturation and the caches
    statuses = support.within(5, lambda: [decide(logic, f).status
                                          for logic in BOX_LOGICS
                                          for f in queries])
    assert statuses == [NON_THEOREM] * 48


def test_depth_one_modal_cnf_countermodels_are_the_eager_ones():
    rng = random.Random(0)
    queries = [neg(conj([_cnf_clause(rng, 1) for _ in range(6)]))
               for _ in range(48)]
    for f in queries:
        for logic in BOX_LOGICS:
            _assert_countermodel_is_the_eager_one(logic, f)


# ---------------------------------------------------------------------------
# consequence and bounded-falsum checks

def test_gl_consequence_examples():
    assert gl_consequence([box(p)], box(p))
    assert not gl_consequence([p], box(p))
    assert gl_consequence([box(imp(box(p), p))], box(p))


def test_finfals_on_theorem():
    report = finfals_check(LOEB, 4)
    assert report.base.is_theorem
    assert report.agrees and report.ok
    assert report.least_failing_k is None


def test_finfals_on_non_theorem():
    report = finfals_check(p, 4)
    assert not report.base.is_theorem
    assert report.least_failing_k == 1
    assert report.ok


def test_finfals_trivial():
    report = finfals_check(top(), 2)
    assert report.ok and report.agrees


def test_finfals_needs_two_levels():
    report = finfals_check(parse("p -> []p"), 4)
    assert report.least_failing_k == 2


# ---------------------------------------------------------------------------
# ILM bounded search

def test_ilm_axiom_has_no_small_countermodel():
    f = rhd(rdiamond(p), p)
    verdict = decide_ilm(f, size_bound=3)
    assert verdict.status == NO_COUNTERMODEL_UP_TO_BOUND


def test_ilm_refutes_p_rhd_q():
    verdict = decide_ilm(rhd(p, q), size_bound=2)
    assert verdict.status == NON_THEOREM
    assert not veltman_forces(verdict.countermodel, verdict.world, rhd(p, q))


def test_ilm_montagna_instance_holds():
    f = imp(rhd(p, q), rhd(land(rbox(atom("r")), p), land(rbox(atom("r")), q)))
    assert decide_ilm(f, size_bound=3).status == NO_COUNTERMODEL_UP_TO_BOUND


def test_ilm_box_encoding_refutable():
    verdict = decide_ilm(imp(rbox(p), p), size_bound=2)
    assert verdict.status == NON_THEOREM


def test_veltman_enumeration_is_deduplicated():
    import support

    models = list(enumerate_veltman_models(2, ["p"]))
    codes = set()
    for m in models:
        assert m not in codes
        codes.add(m)
    counts = {(n, tuple(names)): len(list(enumerate_veltman_models(n, names)))
              for n in (1, 2, 3) for names in (["p"], ["p", "q"])}
    assert counts == {(1, ("p",)): 2, (2, ("p",)): 7, (3, ("p",)): 46,
                      (1, ("p", "q")): 4, (2, ("p", "q")): 26,
                      (3, ("p", "q")): 332}
    # on a 2-vCPU VM, minimizing each labelled candidate over all 4!
    # relabellings took about 4 s, minimizing level by level about 0.25 s
    four = support.within(
        2.0, lambda: sum(1 for _ in enumerate_veltman_models(4, ["p"])))
    assert four == 683


@pytest.mark.parametrize("n", range(5))
def test_strict_posets_match_the_reference(n):
    import support

    assert _strict_posets(n) == list(support.reference_strict_posets(n))


def test_strict_posets_on_five_elements_are_built_not_filtered():
    import support

    # filtering all 2^20 relations took about 3 s on a 2-vCPU VM, building
    # by one element at a time about 0.06 s
    assert support.within(1, lambda: len(_strict_posets(5))) == 4231


@pytest.mark.parametrize("text", ["p |> q", "[]p -> p", "p -> []p",
                                  "(p |> q) -> (q |> p)",
                                  "<>p -> [](q -> p)"])
def test_ilm_countermodel_is_the_first_failing_world_in_str_order(text):
    import support

    f = parse(text, fm.RHD)
    verdict = decide_ilm(f, 3)
    expected = next(
        (m, w) for n in (1, 2, 3) for m in enumerate_veltman_models(
            n, sorted(fm.atoms(f)))
        for w in sorted(m.worlds, key=str)
        if not support.reference_veltman_forces(m, w, f))
    assert (verdict.countermodel, verdict.world) == expected


@pytest.mark.parametrize("n, names, max_height", [
    (1, ["p"], None), (2, ["p"], None), (3, ["p"], None),
    (1, ["p", "q"], None), (2, ["p", "q"], None), (3, ["p", "q"], None),
    (3, ["p", "q"], 2), (3, ["p", "q"], 3)])
def test_veltman_enumeration_matches_the_reference(n, names, max_height):
    import support

    if max_height is None:
        got = list(enumerate_veltman_models(n, names))
    else:
        # only the ILM pipeline bounds the height, on the frames themselves
        got = [frame.with_valuation(valuation) for frame, valuations
               in _veltman_frames(n, names, max_height)
               for valuation in valuations]
    assert got == list(support.reference_veltman_models(
        n, names, max_height=max_height))


def test_veltman_enumeration_of_four_worlds_over_two_atoms_is_quick():
    import support

    # on a 2-vCPU VM, building and canonicalizing all 221,440 labelled
    # candidates took about 1.7 s, walking each frame once about 0.12 s
    four = support.within(
        1.0, lambda: sum(1 for _ in enumerate_veltman_models(4, ["p", "q"])))
    assert four == 10027


def test_preorders_are_listed_once_per_poset_class(monkeypatch):
    module = importlib.import_module("provmod.decide")
    listed = []
    original = module._preorder_options

    def counted(rel, n, w):
        listed.append((n, w))
        return original(rel, n, w)

    monkeypatch.setattr(module, "_preorder_options", counted)
    assert sum(1 for _ in enumerate_veltman_models(4, ["p"])) == 683
    # 16 posets on four elements up to isomorphism, one call per world;
    # listing every labelled poset's options took 876 calls
    assert len(listed) == 16 * 4


def test_veltman_frames_on_five_worlds_take_seconds():
    import support

    module = importlib.import_module("provmod.decide")

    def count():
        frames = models = 0
        for _, valuations in module._veltman_frames(5, ["p"]):
            frames += 1
            models += len(valuations)
        return frames, models

    # on a 2-vCPU VM, listing the preorders of all 4231 labelled posets took
    # about 13 s, of one poset per isomorphism class about 2 s
    assert support.within(8, count) == (1036, 29834)


@pytest.mark.parametrize("text", ["[](p -> q) -> (p |> q)", "<>p |> p",
                                  "(p |> q) -> (<>p -> <>q)", "p |> p"])
def test_ilm_theorems_have_no_countermodel_up_to_three_worlds(text):
    verdict = decide_ilm(parse(text, fm.RHD), 3)
    assert verdict.status == NO_COUNTERMODEL_UP_TO_BOUND
    assert verdict.countermodel is None


@functools.lru_cache(maxsize=None)
def _veltman_models_up_to_three(names):
    return tuple(m for n in (1, 2, 3)
                 for m in enumerate_veltman_models(n, names))


def _above_depth(k, f):
    """``f`` at worlds with a chain of k successors above them, so that
    most countermodels need more than one world."""
    premise = top()
    for _ in range(k):
        premise = rdiamond(premise)
    return imp(premise, f) if k else f


_RHD_FORMULAS = st.builds(_above_depth, st.integers(0, 2), st.recursive(
    st.sampled_from([p, q, atom("r"), FALSUM, top()]),
    lambda c: st.one_of(st.tuples(c, c).map(lambda ab: imp(*ab)),
                        c.map(neg),
                        st.tuples(c, c).map(lambda ab: rhd(*ab))),
    max_leaves=8))


@settings(max_examples=100, deadline=None)
@given(_RHD_FORMULAS)
def test_ilm_search_on_lanes_finds_the_first_enumerated_countermodel(f):
    import support

    def first_refutation():
        for m in _veltman_models_up_to_three(tuple(sorted(fm.atoms(f)))):
            memo: dict = {}
            for w in sorted(m.worlds, key=str):
                if not support.reference_veltman_forces(m, w, f, memo):
                    return m, w
        return None

    verdict = decide_ilm(f, 3)
    expected = first_refutation()
    if expected is None:
        assert verdict.status == NO_COUNTERMODEL_UP_TO_BOUND
    else:
        assert verdict.status == NON_THEOREM
        assert (verdict.countermodel, verdict.world) == expected


# ---------------------------------------------------------------------------
# representative sets

def test_representatives_gl_n0():
    rep = representatives_gl(0, ["p"])
    assert rep.members == (FALSUM,)


def test_representatives_gl_n1_single_atom():
    rep = representatives_gl(1, ["p"])
    assert len(rep.members) == 4
    texts = {fm.to_text(m) for m in rep.members}
    assert "bot" in texts
    assert certify_pairwise(rep)


def test_representatives_gl_n1_no_atoms():
    rep = representatives_gl(1, [])
    assert len(rep.members) == 2
    assert certify_pairwise(rep)


def test_representatives_gl_n2_class_count():
    rep = representatives_gl(2, ["p"])
    assert len(rep.types) == 8
    assert len(rep.members) == 256


def test_representatives_gl_envelope():
    with pytest.raises(EnvelopeError):
        representatives_gl(3, ["p"])
    with pytest.raises(EnvelopeError):
        representatives_gl(2, ["p", "q"])


def test_representatives_gl_envelope_is_checked_up_front(monkeypatch):
    # the declared envelope is the real one: what it admits builds, what it
    # refuses is refused before any type is built
    assert len(representatives_gl(1, ["p", "q"]).members) == 16
    assert len(representatives_gl(2, []).members) == 1 << 2

    def no_types(*args):
        raise AssertionError("types built outside the envelope")

    # the package re-exports the function decide under the module's name
    monkeypatch.setattr(importlib.import_module("provmod.decide"),
                        "_gl_types", no_types)
    for n, names in [(2, ["p", "q"]), (1, ["p", "q", "r"]), (3, []),
                     (-1, []), (-3, ["p"])]:
        with pytest.raises(EnvelopeError, match="n = 2 with at most 1 atom"):
            representatives_gl(n, names)


def test_representatives_take_each_atom_once():
    # a repeated name is one atom: the members stay pairwise non-equivalent
    for build, n, names in [(representatives_gl, 1, ["p"]),
                            (representatives_gl, 2, ["p"]),
                            (representatives_ilm, 1, ["p"])]:
        once = build(n, names)
        twice = build(n, names + names)
        assert twice.atoms == once.atoms == ("p",)
        assert twice.members == once.members
    assert certify_pairwise(representatives_gl(1, ["p", "p"]))


def test_representatives_cover_generated_formulas():
    rep = representatives_gl(1, ["p"])
    n = rep.n
    for text in ["p", "~p", "p | ~p", "p & ~p", "[]p", "[]bot", "<>p"]:
        f = parse(text)
        member = rep.equivalent_member(f)
        equiv = imp(boxes(FALSUM, n), liff(f, member))
        assert decide_gl(equiv).is_theorem, text


def test_representatives_gl2_equivalence_samples():
    rep = representatives_gl(2, ["p"])
    for text in ["p", "[]p", "<>p", "p -> []p", "[]bot", "top"]:
        f = parse(text)
        member = rep.equivalent_member(f)
        equiv = imp(boxes(FALSUM, 2), liff(f, member))
        assert decide_gl(equiv).is_theorem, text


def test_representatives_gl2_pairwise_sample():
    rep = representatives_gl(2, ["p"])
    rng = random.Random(5)
    pairs = {tuple(sorted(rng.sample(range(256), 2))) for _ in range(25)}
    assert certify_pairwise(rep, pairs=pairs)


def test_representatives_ilm():
    rep0 = representatives_ilm(0, [])
    assert rep0.members == (FALSUM,)
    rep = representatives_ilm(1, [])
    assert len(rep.members) == 2
    rep_p = representatives_ilm(1, ["p"])
    assert len(rep_p.members) == 4
    assert certify_pairwise(rep_p, bound=1)
    for n in (2, -1, -3):
        with pytest.raises(EnvelopeError):
            representatives_ilm(n, ["p"])
