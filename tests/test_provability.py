import itertools

import pytest
from hypothesis import given, settings, strategies as st

from provmod import docio, formulas as fm, kripke
from provmod.formulas import (
    BOX,
    FALSUM,
    RHD,
    atom,
    box,
    diamond,
    imp,
    land,
    lor,
    neg,
    parse,
    rbox,
    rdiamond,
    rhd,
    top,
)
from provmod.kripke import KripkeModel, check_frame, forces, unravel
from provmod.theories import finite_axioms_mp, kripke_world_theory
from provmod.provability import (
    GenerationError,
    NoCountermodel,
    PipelineError,
    PreModel,
    PreModelError,
    ProjectionError,
    certify_modal_completeness,
    check_oracles_classical,
    countermodel_pipeline_gl,
    countermodel_pipeline_ilm,
    generate_gl,
    generate_ilm,
    is_l_isomorphic,
    l_isomorphism_witness,
    lift_kripke,
    pipeline_family_rhd,
    pm_forces,
    pm_forces_plus,
    pm_forces_rhd,
    project_and_check,
)

p = atom("p")
q = atom("q")


def two_chain_premodel(axioms=(p,), language=BOX):
    theories = {"w1": finite_axioms_mp(axioms, language=language)}
    return PreModel(["w0", "w1"], [("w0", "w1")], [], theories, language)


# ---------------------------------------------------------------------------
# evaluation

def test_pm_forces_vacuous_box_at_leaf():
    P = two_chain_premodel()
    assert pm_forces(P, "w1", box(FALSUM))


def test_pm_forces_consults_oracles():
    P = two_chain_premodel()
    assert pm_forces(P, "w0", box(p))
    assert not pm_forces(P, "w0", box(q))


def test_pm_forces_plus_false_without_predecessor():
    P = two_chain_premodel()
    assert not pm_forces_plus(P, "w0", top())
    assert pm_forces_plus(P, "w1", box(FALSUM))


def test_plus_forcing_takes_formulas_of_the_model_language():
    box_model = two_chain_premodel()
    rhd_model = rhd_two_chain()
    with pytest.raises(PreModelError):
        pm_forces_plus(box_model, "w1", parse("p |> q", RHD))
    with pytest.raises(PreModelError):
        pm_forces_plus(rhd_model, "w1", box(p))
    # the rhd model's plus-forcing runs its own clause
    assert pm_forces_plus(rhd_model, "w1", parse("[]p", RHD))
    assert not pm_forces_plus(rhd_model, "w1", parse("<>p", RHD))


def test_premodel_theories_must_match_accessible_worlds():
    with pytest.raises(PreModelError):
        PreModel(["w0", "w1"], [("w0", "w1")], [], {}, BOX)
    with pytest.raises(PreModelError):
        PreModel(["w0", "w1"], [("w0", "w1")], [],
                 {"w0": finite_axioms_mp([])}, BOX)


# ---------------------------------------------------------------------------
# lifting

def test_lift_kripke_equivalence_small():
    k = KripkeModel("ab", [("a", "b")], [("b", "p")])
    fam = [p, box(p), box(box(p)), diamond(p), imp(box(p), p)]
    lifted = lift_kripke(k)
    for w in k.worlds:
        for f in fam:
            assert forces(k, w, f) == pm_forces(lifted, w, f)


def test_lift_kripke_transitive_equivalence():
    k = KripkeModel(
        "abc",
        [("a", "b"), ("b", "c"), ("a", "c")],
        [("b", "p"), ("c", "p")],
    )
    fam = [p, box(p), box(box(p)), diamond(p), neg(box(q))]
    lifted = lift_kripke(k, transitive=True)
    assert lifted.certificate.kind == "lifted"
    for w in k.worlds:
        for f in fam:
            assert forces(k, w, f) == pm_forces(lifted, w, f)


def test_lift_single_world_forces_box_bot():
    k = KripkeModel(["w"], [], [])
    lifted = lift_kripke(k)
    assert pm_forces(lifted, "w", box(FALSUM))


def test_transitive_lift_oracles_closed_under_nec():
    k = KripkeModel(
        "abc",
        [("a", "b"), ("b", "c"), ("a", "c")],
        [("b", "p"), ("c", "p")],
    )
    lifted = lift_kripke(k, transitive=True)
    fam = [p, box(p), top(), box(FALSUM)]
    for w in k.accessible_worlds():
        th = lifted.theory(w)
        for f in fam:
            if th.derives(f):
                assert th.derives(box(f))


def test_a_transitive_lift_checks_the_frame_once(monkeypatch):
    from provmod import kripke

    # a transitive chain of 60 worlds; each world theory used to check the
    # whole frame again, 59 times over
    worlds = [f"w{i:02d}" for i in range(60)]
    edges = [(a, b) for i, a in enumerate(worlds) for b in worlds[i + 1:]]
    k = KripkeModel(worlds, edges, [(w, "p") for w in worlds[::3]])
    fam = [p, box(p), diamond(p), imp(box(p), p), box(diamond(top()))]
    expected = {(w, f): forces(k, w, f) for w in worlds for f in fam}
    searches = []
    find_cycle = kripke._find_cycle

    def counted(*args):
        searches.append(args)
        return find_cycle(*args)

    monkeypatch.setattr(kripke, "_find_cycle", counted)
    lifted = lift_kripke(k, transitive=True)
    assert len(searches) == 1
    assert {(w, f): pm_forces(lifted, w, f)
            for w in worlds for f in fam} == expected
    for w in k.accessible_worlds():
        for f in fam:
            assert lifted.theory(w).derives(f) == \
                forces(k, w, fm.boxdot(f))


# ---------------------------------------------------------------------------
# projection

def test_project_lifted_s4_model():
    k = KripkeModel(
        "ab",
        [("a", "a"), ("b", "b"), ("a", "b")],
        [("b", "p")],
    )
    lifted = lift_kripke(k, transitive=True)
    fam = [p, box(p), imp(box(p), p), diamond(p)]
    kripke, report = project_and_check(lifted, fam)
    assert report.equivalent
    assert kripke == k


def test_project_detects_local_soundness_violation():
    theories = {"u": finite_axioms_mp([q])}
    P = PreModel(["w", "u"], [("w", "u"), ("u", "u")], [], theories, BOX)
    with pytest.raises(ProjectionError) as err:
        project_and_check(P, [q])
    assert "soundness" in str(err.value)


def test_project_single_reflexive_world():
    k = KripkeModel(["w"], [("w", "w")], [("w", "p")])
    lifted = lift_kripke(k, transitive=True)
    kripke, report = project_and_check(lifted, [p, box(p)])
    assert report.equivalent


def test_project_requires_transitive_frame():
    k = KripkeModel("abc", [("a", "b"), ("b", "c")], [])
    lifted = lift_kripke(k)
    with pytest.raises(ProjectionError):
        project_and_check(lifted, [p])


# ---------------------------------------------------------------------------
# generated models (box language)

def test_generate_two_chain_seed_example():
    seed = two_chain_premodel([p])
    model = generate_gl(seed)
    th = model.theory("w1")
    assert th.derives(p)
    assert th.derives(box(FALSUM))
    assert not th.derives(q)
    assert not th.derives(FALSUM)
    assert pm_forces(model, "w0", land(box(p), box(box(FALSUM))))


def test_generate_empty_seed_leaf_derives_every_box():
    seed = two_chain_premodel([])
    model = generate_gl(seed)
    th = model.theory("w1")
    for f in [box(p), box(FALSUM), box(imp(p, q)), box(box(p))]:
        assert th.derives(f)
    assert not th.derives(p)


def test_generate_derives_tautologies():
    seed = two_chain_premodel([neg(p)])
    th = generate_gl(seed).theory("w1")
    for t in [top(), imp(p, p), imp(FALSUM, box(q))]:
        assert th.derives(t)


def test_generate_requires_tree_and_finite_seed():
    diamond_frame = PreModel(
        "wuvz",
        [("w", "u"), ("w", "v"), ("u", "z"), ("v", "z")],
        [],
        {x: finite_axioms_mp([]) for x in "uvz"},
        BOX,
    )
    with pytest.raises(GenerationError):
        generate_gl(diamond_frame)

    k = KripkeModel(["a", "b"], [("a", "b")], [])
    lifted_theory = kripke_world_theory(k, "b")
    seed = PreModel(["a", "b"], [("a", "b")], [], {"b": lifted_theory}, BOX)
    with pytest.raises(GenerationError):
        generate_gl(seed)


@pytest.mark.parametrize("language, generate", [
    (BOX, generate_gl), (RHD, lambda seed: generate_ilm(seed, [top()]))],
    ids=["box-generate_gl", "rhd-generate_ilm"])
def test_generation_refuses_a_seed_that_is_not_a_forest(language, generate):
    # a transitive three-chain: c's theory would evaluate the cone of its
    # predecessor a, where a modal node at b asks c's theory again
    chain = PreModel("abc", [("a", "b"), ("b", "c"), ("a", "c")], [],
                     {x: finite_axioms_mp([], language=language)
                      for x in "bc"}, language)
    with pytest.raises(GenerationError) as info:
        generate(chain)
    assert str(info.value) == \
        "seed frame is not a forest: 'c' has the predecessors 'a', 'b'"


def test_generated_oracles_closed_under_nec_and_loeb():
    seed = PreModel(
        ["r", "a", "b"],
        [("r", "a"), ("a", "b")],
        [("a", "p")],
        {"a": finite_axioms_mp([p]), "b": finite_axioms_mp([neg(p)])},
        BOX,
    )
    model = generate_gl(seed)
    family = [p, neg(p), box(p), box(FALSUM), imp(box(p), p),
              parse("[]([]p -> p) -> []p"), top(), diamond(p)]
    for w in ["a", "b"]:
        th = model.theory(w)
        for f in family:
            if th.derives(f):
                assert th.derives(box(f)), (w, str(f))
            if th.derives(imp(box(f), f)):
                assert th.derives(f), (w, str(f))


def test_generated_model_forest_seed():
    seed = PreModel(
        ["r1", "r2", "a"],
        [("r1", "a")],
        [],
        {"a": finite_axioms_mp([p])},
        BOX,
    )
    model = generate_gl(seed)
    assert pm_forces(model, "r1", box(p))
    assert pm_forces(model, "r2", box(q))  # vacuous at the isolated root


def test_generated_oracles_pass_classicality():
    model = generate_gl(two_chain_premodel([p]))
    assert check_oracles_classical(model) == []


# ---------------------------------------------------------------------------
# rhd evaluation on provability models

def rhd_two_chain(axioms=(p,)):
    seed = two_chain_premodel(axioms, language=RHD)
    return generate_ilm(seed, e_family=[top(), FALSUM, p])


def test_rhd_vacuous_at_leaf():
    model = rhd_two_chain()
    assert pm_forces_rhd(model, "w1", rhd(p, q))
    assert pm_forces_rhd(model, "w1", rhd(top(), FALSUM))


def test_rhd_generated_chain_example():
    model = rhd_two_chain([p])
    assert not pm_forces_rhd(model, "w0", rhd(p, FALSUM))
    assert pm_forces_rhd(model, "w0", rhd(p, p))


def test_rhd_box_encoding_matches_direct_derivability():
    model = rhd_two_chain([p])
    for f in [p, q, land(p, q), neg(q)]:
        encoded = pm_forces_rhd(model, "w0", rbox(f))
        direct = all(model.theory(u).derives(f)
                     for u in model.successors("w0"))
        assert encoded == direct, str(f)


def test_pm_forces_rhd_answers_alike_before_and_after_its_memo_is_warm():
    def generated(a_axioms=(p,)):
        seed = PreModel(["r", "a", "b"], [("r", "a"), ("a", "b")],
                        [("a", "p")],
                        {"a": finite_axioms_mp(a_axioms, language=RHD),
                         "b": finite_axioms_mp([], language=RHD)}, RHD)
        return generate_ilm(seed, e_family=[top(), FALSUM, p, q])

    queries = [(w, parse(t, RHD)) for w in ("r", "a", "b") for t in (
        "p |> q", "q |> p", "p |> bot", "[]p", "<>q |> q",
        "[](p -> q) -> (p |> q)", "(p |> q) & (q |> bot) -> (p |> bot)")]
    cold = [pm_forces_rhd(generated(), w, f) for w, f in queries]
    model = generated()
    warming = [pm_forces_rhd(model, w, f) for w, f in queries]
    warm = [pm_forces_rhd(model, w, f) for w, f in queries]
    assert cold == warming == warm
    assert True in cold and False in cold
    # a theory keeps one witness bitset per side of p |> q, and its bit k
    # is derivability of side -> <>E_k, asked of a fresh model
    fresh = generated()
    kept = [(w, side) for w, th in model.theories.items() for side in (q, p)
            if (side, model._diamonds) in th._diamond_memo]
    assert {side for _, side in kept} == {p, q}
    for w, side in kept:
        bits = model.theory(w)._diamond_memo[side, model._diamonds]
        assert bits == sum(1 << k for k, e in enumerate(model.e_family)
                           if fresh.theory(w).derives(imp(side, rdiamond(e))))


def test_pm_forces_takes_only_formulas_of_the_model_language():
    assert pm_forces_rhd is pm_forces
    box_model = two_chain_premodel()
    rhd_model = generate_ilm(two_chain_premodel(language=RHD),
                             e_family=[top(), p])
    for model, other in ((box_model, rhd(p, q)), (rhd_model, box(p))):
        for holds in (pm_forces, pm_forces_rhd):
            with pytest.raises(PreModelError, match=model.language):
                holds(model, "w0", other)


def test_rhd_needs_family():
    seed = two_chain_premodel(language=RHD)
    with pytest.raises(PreModelError):
        pm_forces_rhd(seed, "w0", rhd(p, q))
    with pytest.raises(GenerationError):
        generate_ilm(seed, e_family=[])


def test_a_witness_family_of_another_language_is_refused_when_built():
    seed = two_chain_premodel(language=RHD)
    with pytest.raises(PreModelError, match="rhd-language"):
        PreModel(seed.worlds, seed.edges, seed.valuation, seed.theories, RHD,
                 [top(), box(p)])
    with pytest.raises(PreModelError, match="rhd-language"):
        generate_ilm(seed, e_family=[box(p)])


def test_a_box_pre_model_refuses_a_witness_family():
    seed = two_chain_premodel()
    with pytest.raises(PreModelError, match="no witness family"):
        PreModel(seed.worlds, seed.edges, seed.valuation, seed.theories, BOX,
                 [p])
    assert PreModel(seed.worlds, seed.edges, seed.valuation, seed.theories,
                    BOX, []).e_family is None


@pytest.mark.parametrize("family", [None, []])
def test_generate_ilm_refuses_a_missing_or_empty_family(family):
    # a one-world seed too: no family is guessed for any seed size
    for seed in (PreModel(["w"], [], [], {}, RHD),
                 two_chain_premodel(language=RHD)):
        with pytest.raises(GenerationError,
                           match="^e_family must be nonempty$"):
            generate_ilm(seed, family)


def test_generate_ilm_envelope_and_flag():
    seed = two_chain_premodel([p], language=RHD)
    flagged = generate_ilm(seed, e_family=[top(), FALSUM])
    assert flagged.family_bounded


def test_generate_ilm_leaf_examples():
    seed = two_chain_premodel([], language=RHD)
    model = generate_ilm(seed, e_family=[top(), FALSUM])
    th = model.theory("w1")
    assert th.derives(rbox(FALSUM))
    assert pm_forces_rhd(model, "w1", rhd(p, q))


def test_ilm_axioms_hold_on_generated_tree():
    seed = PreModel(
        ["r", "a", "b"],
        [("r", "a"), ("a", "b")],
        [("a", "p")],
        {"a": finite_axioms_mp([p], language=RHD),
         "b": finite_axioms_mp([], language=RHD)},
        RHD,
    )
    family = pipeline_family_rhd(["p", "q"], 3)
    model = generate_ilm(seed, e_family=family)
    instances = [
        imp(rbox(imp(p, q)), rhd(p, q)),
        imp(land(rhd(p, q), rhd(q, FALSUM)), rhd(p, FALSUM)),
        imp(land(rhd(p, q), rhd(neg(p), q)), rhd(fm.lor(p, neg(p)), q)),
        rhd(rdiamond(p), p),
        imp(rhd(p, q), rhd(land(rbox(q), p), land(rbox(q), q))),
    ]
    for f in instances:
        for w in sorted(model.worlds, key=str):
            assert pm_forces_rhd(model, w, f), str(f)


# ---------------------------------------------------------------------------
# generated derivability against plus-forcing of the pre-interpolant

def _seed_axiom_sets(language):
    """The generate benchmark's axiom sets: at most two of p, ~p and the
    boxed falsum."""
    boxed_falsum = rbox(FALSUM) if language == RHD else box(FALSUM)
    return [()] + [combo for k in (1, 2) for combo in
                   itertools.combinations([p, neg(p), boxed_falsum], k)]


@st.composite
def _tree_seed_shapes(draw):
    n = draw(st.integers(1, 4))
    parents = [-1] + [draw(st.integers(-1, i - 1)) for i in range(1, n)]
    labels = [draw(st.integers(0, 6)) for _ in range(n)]
    return parents, labels


def _queries(modal, depth=2):
    """Formulas over p and q of modal depth at most ``depth``."""
    def boolean(c):
        return st.recursive(c, lambda d: st.one_of(
            st.tuples(d, d).map(lambda ab: imp(*ab)),
            st.tuples(d, d).map(lambda ab: land(*ab)),
            st.tuples(d, d).map(lambda ab: lor(*ab)),
            d.map(neg)), max_leaves=4)

    leaves = st.sampled_from([p, q, FALSUM, top()])
    level = boolean(leaves)
    for _ in range(depth):
        level = boolean(st.one_of(leaves, modal(level)))
    return level


_BOX_QUERIES = _queries(lambda c: st.one_of(c.map(box), c.map(diamond)))
_RHD_QUERIES = _queries(lambda c: st.one_of(
    st.tuples(c, c).map(lambda ab: rhd(*ab)), c.map(rbox), c.map(rdiamond)))
_RHD_FAMILY = (top(), FALSUM, p, q, rbox(FALSUM))


def _generate(language, shape, fresh_reference=False):
    import support

    seed = support.seed_premodel(*shape, _seed_axiom_sets(language), language)
    if language == BOX:
        generate, kwargs = generate_gl, {}
    else:
        generate, kwargs = generate_ilm, {"e_family": _RHD_FAMILY}
    if fresh_reference:
        return support.reference_generate(generate, seed, **kwargs)
    return generate(seed, **kwargs)


# free atoms on both sides of phi -> f, in both orders
_TWO_ATOM_TEXTS = ("p -> q", "q -> p", "p & ~q", "[]q -> p", "q -> []p")


def _assert_agrees_with_the_pre_interpolant_path(language, shape, queries):
    model = _generate(language, shape)
    reference = _generate(language, shape, fresh_reference=True)
    queries = queries + [parse(t, language) for t in _TWO_ATOM_TEXTS]
    for w in sorted(model.theories, key=str):
        for f in queries:
            assert model.theory(w).derives(f) == \
                reference.theory(w).derives(f), (w, fm.to_text(f))
    # the same derivability queries reached every theory
    for w in model.theories:
        assert model.theory(w)._memo == reference.theory(w)._memo, w
        _assert_bitsets_agree(model.theory(w)._diamond_memo,
                              reference.theory(w)._diamond_memo, w)


@settings(max_examples=150, deadline=None)
@given(_tree_seed_shapes(), st.lists(_BOX_QUERIES, min_size=1, max_size=4))
def test_generated_box_theories_agree_with_the_pre_interpolant_path(
        shape, queries):
    _assert_agrees_with_the_pre_interpolant_path(BOX, shape, queries)


@settings(max_examples=80, deadline=None)
@given(_tree_seed_shapes(), st.lists(_RHD_QUERIES, min_size=1, max_size=3))
def test_generated_rhd_theories_agree_with_the_pre_interpolant_path(
        shape, queries):
    _assert_agrees_with_the_pre_interpolant_path(RHD, shape, queries)


# ---------------------------------------------------------------------------
# region evaluation against the per-world walk

_MODEL_KINDS = (("seed", BOX), ("seed", RHD), ("generated", BOX),
                ("generated", RHD))


def _region_model(kind, language, shape):
    """A tree pre-model with finite-axiom theories, or the model generated
    over it; in the rhd language either carries the witness family
    ``_RHD_FAMILY``."""
    import support

    if kind == "generated":
        return _generate(language, shape)
    family = None if language == BOX else _RHD_FAMILY
    return support.seed_premodel(*shape, _seed_axiom_sets(language),
                                 language, family)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_MODEL_KINDS), _tree_seed_shapes(), st.data())
def test_region_evaluation_agrees_with_the_per_world_walk(kind, shape, data):
    import support

    language = kind[1]
    queries = _BOX_QUERIES if language == BOX else _RHD_QUERIES
    fam = data.draw(st.lists(queries, min_size=1, max_size=3))
    model = _region_model(*kind, shape)
    region = data.draw(st.integers(1, model._full))
    worlds = [w for w in model._order if model._bit[w] & region]
    # the reference: the per-world lazy walk on a model of its own
    reference = _region_model(*kind, shape)
    modal = support.reference_premodel_clause(reference)
    memo: dict = {}
    # one world at a time, through the public entry points, on a third
    single = _region_model(*kind, shape)
    for f in fam:
        got = kripke.evaluate_region(model, f, region)
        for w in worlds:
            expected = support.reference_evaluate(reference, w, f, modal, memo)
            assert bool(got & model._bit[w]) == expected, (w, fm.to_text(f))
            if language == BOX:
                assert pm_forces(single, w, f) == expected
            else:
                assert pm_forces_rhd(single, w, f) == expected
    # the same derivability queries reached every theory
    for w in model.theories:
        assert model.theory(w)._memo == single.theory(w)._memo, w
        assert model.theory(w)._diamond_memo == \
            single.theory(w)._diamond_memo, w
    _assert_asked_alike(model, reference)


def _assert_bitsets_agree(memo, reference, w):
    """Every bitset ``reference`` keeps, ``memo`` keeps with the same bits.
    A bitset evaluates every member's diamond wherever some phi[a] & X[a]
    holds, where the pre-interpolant walk stops at a member's first
    failing assignment, so for a member that is not derived the bitset
    may reach deeper theories with sides the walk never asks about."""
    for key, bits in reference.items():
        assert memo[key] == bits, (w, fm.to_text(key[0]))


def _assert_asked_alike(model, reference):
    """The theories of ``model``, whose rhd clause asks witness bitsets,
    and of ``reference``, whose clause asks X -> <>E member by member with
    ``derives``, reached the same queries outside the rhd clause, and
    every rhd side X the reference reached, with the bit of each member it
    asked about.  Generation runs a generated reference's own clause, whose
    bitsets are compared key for key."""
    diamonds = model._diamonds or ()

    def split(memo):
        outside, sides = {}, {}
        for f, answer in memo.items():
            if type(f) is fm.Imp and f.right in diamonds:
                sides.setdefault(f.left, {})[f.right] = answer
            else:
                outside[f] = answer
        return outside, sides

    for w, th in model.theories.items():
        outside, _ = split(th._memo)
        expected, sides = split(reference.theory(w)._memo)
        assert outside == expected, w
        kept = reference.theory(w)._diamond_memo
        assert set(th._diamond_memo) >= \
            set(kept) | {(x, model._diamonds) for x in sides}, w
        _assert_bitsets_agree(th._diamond_memo, kept, w)
        for x, answers in sides.items():
            bits = th._diamond_memo[x, model._diamonds]
            for k, d in enumerate(diamonds):
                if d in answers:
                    assert bool(bits >> k & 1) == answers[d], (w, k)


_SUITE_SHAPES = (([-1], [0]), ([-1, 0], [0, 1]), ([-1, 0, 1], [0, 3, 0]),
                 ([-1, 0, 0], [0, 1, 2]), ([-1, 0, 1, 2], [0, 0, 4, 1]),
                 ([-1, 0, 0, 1], [0, 6, 3, 5]), ([-1, -1, 1, 2], [0, 0, 2, 0]))


@pytest.mark.parametrize("shape", _SUITE_SHAPES)
def test_soundness_suite_matches_the_per_world_loop(shape):
    # generated models pass the gl and ilm suites, so the s4 suite and the
    # seed pre-models supply failures whose order is compared
    import support
    from provmod.provability import soundness_suite

    runs = [(BOX, "gl", 2), (BOX, "s4", 1), (RHD, "ilm", 2)]
    for kind in ("generated", "seed"):
        for language, logic, depth in runs:
            model = _region_model(kind, language, shape)
            fresh = _region_model(kind, language, shape)
            # every derives call, memo hits included, on each side
            asked: dict = {"region": [], "per world": []}
            for m, key in ((model, "region"), (fresh, "per world")):
                for w, th in m.theories.items():
                    _counting(th, asked[key], w)
            got = soundness_suite(model, logic, ["p"], depth)
            expected = support.reference_soundness_suite(fresh, logic, ["p"],
                                                         depth)
            assert got == expected, (kind, logic)
            assert sorted(asked["region"], key=str) == \
                sorted(asked["per world"], key=str), (kind, logic)
            for w in model.theories:
                assert model.theory(w)._memo == fresh.theory(w)._memo, \
                    (kind, logic, w)


def _counting(oracle, asked, key):
    """The oracle, with ``key`` recorded in ``asked`` on every ``derives``
    call."""
    derives = oracle.derives

    def counted(f):
        asked.append(key)
        return derives(f)

    oracle.derives = counted
    return oracle


def test_one_world_queries_ask_only_its_successors_theories():
    from provmod.glp import PolyModel, glp_forces

    worlds = ["r", "a", "b", "c"]
    edges = [("r", "a"), ("r", "b"), ("a", "c")]
    asked: list = []
    P = PreModel(worlds, edges, [("c", "q")],
                 {w: _counting(finite_axioms_mp([p]), asked, (w, 0))
                  for w in ("a", "b", "c")})
    poly = PolyModel(worlds, {0: edges, 1: [("r", "a")]},
                     {w: {n: _counting(finite_axioms_mp([p], fm.OMEGA),
                                       asked, (w, n))
                          for n in (0, 1)}
                      for w in ("a", "b", "c")},
                     [("c", "q")])
    checks = ((P, pm_forces, parse("[]p & ([]q -> [][]p) & (q -> []q)")),
              (poly, glp_forces,
               parse("[0]p & ([1]p -> [0][1]q) & (q -> [0]q)", fm.OMEGA)))
    for model, holds, f in checks:
        for w in ("r", "a", "c"):
            asked.clear()
            holds(model, w, f)
            # every query went to a successor on the box's level
            assert all(u in model.successors(w, n) if model is poly
                       else u in model.successors(w) for u, n in asked), \
                (w, asked)
            assert bool(asked) == bool(model.successors(w)), w


def test_a_world_decided_inside_the_clause_is_not_asked_again():
    # the theory at w1 answers by evaluating the same box at w1 itself, as
    # generated theories recurse into their model; a region over the chain
    # w0 -> w1 -> w2, which reaches w0 first, then asks w1's box once, as
    # one world at a time does
    from provmod.theories import TheoryOracle

    def model():
        asked: list = []
        theories = {"w1": TheoryOracle(BOX, (), frozenset(), "recursive",
                                       lambda f: pm_forces(P, "w1", box(f))),
                    "w2": finite_axioms_mp([p])}
        P = PreModel(["w0", "w1", "w2"], [("w0", "w1"), ("w1", "w2")], [],
                     {w: _counting(th, asked, w) for w, th in theories.items()})
        return P, asked

    region, asked = model()
    truth = kripke.evaluate_region(region, box(p), region._full)
    single, expected = model()
    worlds = ["w0", "w1", "w2"]
    assert [pm_forces(single, w, box(p)) for w in worlds] == \
        [bool(truth & region._bit[w]) for w in worlds] == [True] * 3
    assert asked == expected == ["w1", "w2"]


_FAMILY_TEXTS = ("p", "~p", "[]p", "[]bot", "<>p", "p -> []p", "[]p -> p",
                   "[]([]p -> p) -> []p", "[][]p", "[](p & []bot)", "<>[]p")


@pytest.mark.parametrize("language", [BOX, RHD])
def test_generated_theories_ask_the_pre_interpolant_queries_on_a_seed_sample(
        language):
    # every 11th of the 1173 tree seeds: a fixed sample on which a theory
    # that evaluated phi[a] and f[a] on other regions of the cone than the
    # region walk of the pre-interpolant, such as f[a] on every world
    # still undecided instead of only where phi[a] holds, or the cone
    # world by world up to the first failing world, asks other
    # derivability queries
    import support

    queries = [parse(t, language) for t in _FAMILY_TEXTS]
    for shape in support.tree_seeds(4, _seed_axiom_sets(language))[::11]:
        _assert_agrees_with_the_pre_interpolant_path(language, shape, queries)


def _sample_memos():
    """Each theory's memo as sorted (text, answer) pairs, once every theory
    of the models generated from every 11th tree seed, in both languages,
    has been asked each of ``_FAMILY_TEXTS``."""
    import support

    out = []
    for language in (BOX, RHD):
        queries = [parse(t, language) for t in _FAMILY_TEXTS]
        for shape in support.tree_seeds(4, _seed_axiom_sets(language))[::11]:
            model = _generate(language, shape)
            worlds = sorted(model.theories, key=str)
            for w in worlds:
                for f in queries:
                    model.theory(w).derives(f)
            out.append([sorted((fm.to_text(f), answer) for f, answer
                               in model.theory(w)._memo.items())
                        for w in worlds])
    return out


def test_generated_theories_ask_the_same_queries_under_every_hash_seed():
    # sets of worlds iterate in an order that follows the string hash, so
    # two interpreters with different hash seeds must still reach the same
    # derivability queries
    import json
    import os
    import pathlib
    import subprocess
    import sys

    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = ("import json, test_provability\n"
            "print(json.dumps(test_provability._sample_memos()))")
    procs = [subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True,
                              env=dict(os.environ, PYTHONPATH=path,
                                       PYTHONHASHSEED=seed))
             for seed in ("0", "1")]
    memos = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        memos.append(json.loads(out.splitlines()[-1]))
    assert memos[0] == memos[1]
    assert sum(len(memo) for model in memos[0] for memo in model) > 10000


@pytest.mark.parametrize("language", [BOX, RHD])
def test_assignment_instances_conjoin_to_the_pre_interpolant(language):
    # on a two-world chain over each of the benchmark's axiom sets, every
    # query the top world's theory was asked: its phi[a] -> f[a] conjoin,
    # in order, to the very node pre_interpolant(phi -> f)
    queries = [parse(t, language) for t in _FAMILY_TEXTS + _TWO_ATOM_TEXTS]
    checked = 0
    for label in range(7):
        model = _generate(language, ([-1, 0], [0, label]))
        theory = model.theory("s1")
        for f in queries:
            if language == BOX:
                pm_forces(model, "s0", box(f))
            else:
                pm_forces_rhd(model, "s0", rhd(f, p))
        for f in theory._memo:
            names, f_instances = fm.instance_table(f)
            got = fm.conj(imp(phi_a, f_instances[j])
                          for phi_a, j in theory._assignment_pairs(names))
            assert got is fm.pre_interpolant(imp(theory.phi, f)), \
                fm.to_text(f)
            checked += 1
        # and the rhd clause's bitsets: phi[a] -> (X[a] -> d) for X and
        # each diamond d, which is closed, so X's walk is the whole walk
        for x, diamonds in theory._diamond_memo:
            x_names, x_instances = fm.instance_table(x)
            for d in diamonds:
                assert fm.instance_table(d) == ((), (d,))
                got = fm.conj(
                    imp(phi_a, imp(x_instances[j], d))
                    for phi_a, j in theory._assignment_pairs(x_names))
                assert got is fm.pre_interpolant(imp(theory.phi, imp(x, d))),\
                    (fm.to_text(x), fm.to_text(d))
                checked += 1
    assert checked > 7 * len(queries)


@settings(max_examples=60, deadline=None)
@given(_tree_seed_shapes())
@pytest.mark.parametrize("language", [BOX, RHD])
def test_generation_self_checks_evaluate_every_phi_instance_on_the_whole_cone(
        language, shape):
    # generation asks every theory for its seed axioms, for which f[a]
    # holds wherever phi[a] does, so the pre-interpolant's region walk
    # never narrows and reaches every phi[a] on the whole parent's cone;
    # that is why a theory may evaluate each phi[a] on the whole cone on
    # its first query and still ask only the queries plus-forcing asks
    for reference in (False, True):
        model = _generate(language, shape, fresh_reference=reference)
        memos = {w: dict(model.theory(w)._memo) for w in model.theories}
        for w in model.theories:
            (parent,) = model._pred[w]
            cone = model.descendant_mask(parent)
            phi = model.theory(w).phi
            for phi_a in fm.instance_table(phi)[1]:
                kripke.evaluate_region(model, phi_a, cone)
        assert {w: model.theory(w)._memo for w in model.theories} == memos, \
            reference


@pytest.mark.parametrize("language", [BOX, RHD])
def test_decide_evaluates_each_phi_instance_at_most_once_per_theory(
        language, monkeypatch):
    from provmod import provability

    evaluated: list = []
    original = provability.evaluate_region

    def counting(model, f, region):
        evaluated.append(f)
        return original(model, f, region)

    monkeypatch.setattr(provability, "evaluate_region", counting)
    queries = [parse(t, language) for t in _FAMILY_TEXTS + _TWO_ATOM_TEXTS]
    for label in range(7):
        evaluated.clear()
        model = _generate(language, ([-1, 0], [0, label]))
        theory = model.theory("s1")
        for f in queries:
            theory.derives(f)
        _, phi_instances = fm.instance_table(theory.phi)
        counts = [evaluated.count(phi_a) for phi_a in phi_instances]
        assert max(counts) == 1, (label, counts)


def test_models_generated_from_one_seed_share_each_query_instances(
        monkeypatch):
    # the second model asks the same queries, and its theories get the very
    # tuples the first model's theories got
    import support

    shape = ([-1, 0, 0, 1], [0, 1, 2, 3])
    seed = support.seed_premodel(*shape, _seed_axiom_sets(BOX), BOX)
    queries = [parse(t) for t in _FAMILY_TEXTS + _TWO_ATOM_TEXTS]
    seen: list = []
    original = fm.instance_table

    def recording(f):
        got = original(f)
        seen.append((f, got))
        return got

    monkeypatch.setattr(fm, "instance_table", recording)
    asked = []
    for _ in range(2):
        seen.clear()
        model = generate_gl(seed)
        for w in sorted(model.theories, key=str):
            for f in queries:
                model.theory(w).derives(f)
        asked.append(list(seen))
    assert len(asked[0]) == len(asked[1]) > len(queries)
    for (f, first), (g, second) in zip(*asked):
        assert f is g and first is second, fm.to_text(f)
        assert first[1] is fm.instances(f)


_MONTAGNA_POOL = (p, q, neg(p), top())
_MONTAGNA = [imp(rhd(a, b), rhd(land(rbox(c), a), land(rbox(c), b)))
             for a in _MONTAGNA_POOL for b in _MONTAGNA_POOL
             for c in _MONTAGNA_POOL]


def _montagna_model():
    """An rhd model generated over a 4-world seed with the family of
    criterion 6, on which every Montagna instance has been forced."""
    import support

    seed = support.seed_premodel([-1, 0, 1, 1], [0, 1, 2, 3],
                                 _seed_axiom_sets(RHD), RHD)
    model = generate_ilm(seed, e_family=pipeline_family_rhd(["p", "q"], 4))
    for f in _MONTAGNA:
        for w in sorted(model.worlds, key=str):
            assert pm_forces(model, w, f), (w, fm.to_text(f))
    return model


def test_instance_tables_of_rhd_sides_and_seed_axioms_are_the_references():
    import support
    from provmod.provability import _phi

    model = _montagna_model()
    # the sides X of the Montagna nodes that some theory was asked about,
    # more than the 16 conjunctions
    sides = {x for th in model.theories.values() for x, _ in th._diamond_memo}
    assert len(sides) > 16
    sides |= set(model._diamonds)
    phis = [_phi(axioms, language) for language in (BOX, RHD)
            for axioms in _seed_axiom_sets(language)]
    for f in [*sides, *phis]:
        support.assert_instance_table_is_the_reference(f)


def test_each_witness_diamond_is_built_once_per_model(monkeypatch):
    from provmod import provability

    built = []
    original = provability.rdiamond

    def counting(e):
        built.append(e)
        return original(e)

    monkeypatch.setattr(provability, "rdiamond", counting)
    # the seed carries no family, so only the generated model builds any
    model = _montagna_model()
    assert len(model.e_family) == 14
    assert built == list(model.e_family)
    assert model._diamonds == tuple(map(original, model.e_family))
    # the generated theories test each diamond once, on one reach mask
    for d in model._diamonds:
        assert fm.instance_table(d) == ((), (d,))


@settings(max_examples=60, deadline=None)
@given(_RHD_QUERIES)
def test_witness_diamonds_have_no_free_atoms(e):
    assert fm.instance_table(rdiamond(e)) == ((), (rdiamond(e),))


_BITSET_FAMILIES = (_RHD_FAMILY, pipeline_family_rhd(["p", "q"], 4))


def _rhd_sides(formulas):
    return {h for f in formulas for g in fm.subformulas(f)
            if type(g) is fm.Rhd for h in (g.left, g.right)}


def test_generated_theories_read_phi_only_on_their_own_cone():
    # the trees s0 -> s2 -> s4 and s1 -> s3, every seed theory empty, so
    # all theories share phi; s2's theory evaluates it on its cone {s2, s4}
    # before s3's is first asked, and s3's witness bitsets must not read
    # the table there
    import support

    seed = support.seed_premodel([-1, -1, 0, 1, 2], [0] * 5,
                                 _seed_axiom_sets(RHD), RHD)
    model = generate_ilm(seed, e_family=_RHD_FAMILY)
    reference = support.reference_generate(generate_ilm, seed,
                                           e_family=_RHD_FAMILY)
    assert pm_forces(model, "s1", parse("<>top |> bot", RHD))
    for text in ("<>p |> bot", "<>top |> p", "p |> q", "<>p |> <>top"):
        f = parse(text, RHD)
        for w in sorted(model.worlds):
            assert pm_forces(model, w, f) == pm_forces(reference, w, f), \
                (text, w)
    for w, theory in model.theories.items():
        assert not any(mask & ~theory._cone
                       for mask in theory._phi_masks.values()), w


def test_five_world_seeds_force_as_the_reference_does():
    # on 5-world forests a phi mask not cut to its theory's cone can hold
    # worlds outside it, and witness bitsets that read them answer the rhd
    # probes wrongly at some seeds of this slice; no 4-world seed shows it
    import support

    axiom_sets = _seed_axiom_sets(RHD)
    family = pipeline_family_rhd(["p", "q"], 4)
    probes = [parse(t, RHD) for t in ("<>top |> bot", "<>p |> bot",
                                      "<>top |> p", "p |> q", "<>p |> <>top")]
    for shape in support.tree_seeds(5, axiom_sets)[1900:2030]:
        seed = support.seed_premodel(*shape, axiom_sets, RHD)
        model = generate_ilm(seed, e_family=family)
        reference = support.reference_generate(generate_ilm, seed,
                                               e_family=family)
        for f in probes:
            for w in sorted(model.worlds):
                assert pm_forces(model, w, f) == pm_forces(reference, w, f), \
                    (shape, fm.to_text(f), w)


@settings(max_examples=60, deadline=None)
@given(_tree_seed_shapes(), st.sampled_from(_BITSET_FAMILIES),
       st.lists(_RHD_QUERIES, min_size=1, max_size=3))
def test_witness_bitsets_are_the_member_by_member_pre_interpolant_answers(
        shape, family, queries):
    # bit k of a generated theory's bitset for a side X is derivability of
    # X -> <>E_k, decided on a model whose theories all decide through
    # plus-forcing of the pre-interpolant, one query per member
    import support

    seed = support.seed_premodel(*shape, _seed_axiom_sets(RHD), RHD)
    model = generate_ilm(seed, e_family=family)
    reference = support.reference_generate(generate_ilm, seed,
                                           e_family=family)
    sides = _rhd_sides(queries + _MONTAGNA)
    for w in sorted(model.theories, key=str):
        state = reference.theory(w)
        for x in sides:
            bits = model.theory(w).derives_diamonds(x, model._diamonds)
            for k, d in enumerate(model._diamonds):
                assert bool(bits >> k & 1) == \
                    support.reference_generated_decide(state, imp(x, d)), \
                    (w, fm.to_text(x), fm.to_text(d))


@settings(max_examples=60, deadline=None)
@given(_tree_seed_shapes(), st.sampled_from(_BITSET_FAMILIES),
       st.lists(_RHD_QUERIES, min_size=1, max_size=3))
def test_seed_rhd_premodels_answer_as_the_per_world_clause(
        shape, family, queries):
    # finite-axiom theories answer a bitset member by member through
    # ``derives``; the reference clause builds each implication per call
    import support

    def seed():
        return support.seed_premodel(*shape, _seed_axiom_sets(RHD), RHD,
                                     family)

    model, reference = seed(), seed()
    modal = support.reference_premodel_clause(reference)
    memo: dict = {}
    for f in queries + _MONTAGNA[::5]:
        for w in model._order:
            assert pm_forces(model, w, f) == support.reference_evaluate(
                reference, w, f, modal, memo), (w, fm.to_text(f))
    _assert_asked_alike(model, reference)


def test_soundness_suite_gives_the_same_failures_on_a_repeat_call():
    # the s4 suite fails on generated GL models, so the order of the
    # failures is compared; a fresh model takes the kept instances
    import support
    from provmod.provability import soundness_suite

    shape = ([-1, 0, 1], [0, 1, 2])
    runs = []
    for atom_names in (["p", "q"], ("q", "p"), iter(["p", "q"])):
        model = _generate(BOX, shape)
        runs.append(soundness_suite(model, "s4", atom_names, 1))
        expected = support.reference_soundness_suite(
            _generate(BOX, shape), "s4", ["p", "q"], 1)
        assert runs[-1] == expected
    assert runs[0] and runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# l-isomorphism

def test_l_isomorphic_reflexive():
    model = generate_gl(two_chain_premodel([p]))
    assert is_l_isomorphic(model, model, [p, box(p)])


def test_l_isomorphism_detects_difference():
    a = two_chain_premodel([p])
    b = two_chain_premodel([q])
    fam = [p, q, box(FALSUM)]
    assert not is_l_isomorphic(a, b, fam)
    w, f = l_isomorphism_witness(a, b, fam)
    assert w == "w1" and f in fam


def test_l_isomorphism_requires_same_frame():
    a = two_chain_premodel([p])
    b = PreModel(["x", "y"], [("x", "y")], [], {"y": finite_axioms_mp([p])},
                 BOX)
    with pytest.raises(PreModelError):
        is_l_isomorphic(a, b, [p])


# ---------------------------------------------------------------------------
# pipelines

@pytest.mark.parametrize("text", ["p", "[]p -> p", "~[]bot", "p -> []p",
                                  "<>top"])
def test_gl_pipeline_refutes(text):
    f = parse(text)
    result = countermodel_pipeline_gl(f)
    assert not pm_forces(result.model, result.designated, f)
    report = check_frame(result.model.kripke_part())
    assert report.tree and report.converse_well_founded


def test_gl_pipeline_l_isomorphic_to_lift():
    result = countermodel_pipeline_gl(parse("p -> []p"))
    assert is_l_isomorphic(result.model,
                           lift_kripke(result.kripke, transitive=True),
                           result.representatives.members)


def test_level_two_gl_pipeline_builds_no_pre_interpolant():
    import support

    # a warm cache from an earlier pipeline would hide the per-query walks
    # over phi that building pre_interpolant(phi -> f) costs
    fm.pre_interpolant.cache_clear()
    result = support.within(
        0.25, lambda: countermodel_pipeline_gl(parse("p -> []p")))
    assert result.n == 2
    assert not pm_forces(result.model, result.designated, result.formula)
    info = fm.pre_interpolant.cache_info()
    assert info.hits == info.misses == 0


def test_gl_pipeline_rejects_theorems():
    with pytest.raises(PipelineError):
        countermodel_pipeline_gl(parse("[]([]p -> p) -> []p"))


def test_ilm_pipeline_refutes_rhd_and_box():
    for text in ["p |> q", "[]p -> p"]:
        f = parse(text, RHD)
        result = countermodel_pipeline_ilm(f)
        assert not pm_forces_rhd(result.model, result.designated, f)


def test_ilm_pipeline_flags_a_family_outside_the_envelope():
    # []p -> p is refuted within the representative envelope, p |> q only
    # over the fallback family
    for text, bounded in (("[]p -> p", False), ("p |> q", True)):
        result = countermodel_pipeline_ilm(parse(text, RHD))
        assert result.model.family_bounded is bounded, text


def test_ilm_pipeline_montagna_on_result():
    result = countermodel_pipeline_ilm(parse("p |> q", RHD))
    model = result.model
    mont = imp(rhd(p, q), rhd(land(rbox(q), p), land(rbox(q), q)))
    for w in sorted(model.worlds, key=str):
        assert pm_forces_rhd(model, w, mont)


def test_ilm_pipeline_seeds_each_path_with_its_preorder_stable_members():
    import support

    for text in ["p |> q", "[]p -> p"]:
        f = parse(text, RHD)
        result = countermodel_pipeline_ilm(f)
        u = unravel(result.kripke)
        family = (pipeline_family_rhd(sorted(fm.atoms(f)), result.n)
                  if result.representatives is None
                  else result.representatives.members)
        for sigma in u.accessible_worlds():
            stable = [b for b in family
                      if all(support.reference_unravelled_forces(u, tau, b)
                             for tau in support.reference_unravelled_above(
                                 u, sigma))]
            assert result.seed.theory(sigma).axioms == \
                tuple(sorted(stable, key=fm.sort_key))


# formulas the ILM pipeline refutes at levels 1 to 3, or cannot refute
ILM_PIPELINE_PROBES = [
    "p |> q", "p |> p", "[]p -> p", "[]false", "[][]false", "<>p |> p",
    "(p |> q) -> [](p |> q)", "[](p -> q) -> (p |> q)", "~(p |> ~p)",
    "p -> (q |> p)", "(p |> q) -> ((p & []q) |> (q & []q))",
    "(<>p |> p) -> [](p |> q)", "((p |> q) & (q |> p)) -> (p |> p)",
    "<><>true -> (p |> q)"]


def test_ilm_pipeline_level_matches_the_per_level_search():
    import random

    import support

    from provmod.kripke import VeltmanModel

    rng = random.Random(30)
    corpus = [parse(text, RHD) for text in ILM_PIPELINE_PROBES] + [
        support.random_formula(rng, RHD, 3, [p, q]) for _ in range(40)]
    for f in corpus:
        expected = support.reference_least_level_ilm(f, 3)
        if expected is None:
            with pytest.raises(NoCountermodel):
                countermodel_pipeline_ilm(f, 3)
            continue
        k, m, w = expected
        result = countermodel_pipeline_ilm(f, 3)
        cone = {w} | set(m.descendants(w))
        assert (result.n, result.designated) == (k, (w,)), fm.to_text(f)
        assert result.kripke == VeltmanModel(
            cone, [(a, b) for (a, b) in m.edges if a in cone],
            {u: m.preorders[u] for u in cone},
            [(u, a) for (u, a) in m.valuation if u in cone]), fm.to_text(f)


def test_ilm_pipeline_walks_each_world_count_once(monkeypatch):
    from provmod import provability

    calls = []
    original = provability._veltman_frames

    def counted(n, *args):
        calls.append(n)
        return original(n, *args)

    monkeypatch.setattr(provability, "_veltman_frames", counted)
    with pytest.raises(NoCountermodel):
        countermodel_pipeline_ilm(parse("p |> p", RHD), 3)
    assert calls == [1, 2, 3]


def test_k_suite_on_lifted_models():
    from provmod.provability import soundness_suite

    k = KripkeModel("abc", [("a", "b"), ("b", "c")], [("b", "p")])
    lifted = lift_kripke(k)
    assert not soundness_suite(lifted, "k", ["p"], depth=1)


def test_k4_suite_on_transitive_lift():
    from provmod.provability import soundness_suite

    k = KripkeModel("abc", [("a", "b"), ("b", "c"), ("a", "c")],
                    [("b", "p"), ("c", "q")])
    lifted = lift_kripke(k, transitive=True)
    assert not soundness_suite(lifted, "k4", ["p", "q"], depth=1)


def test_s4_suite_on_reflexive_transitive_lift():
    from provmod.provability import soundness_suite

    k = KripkeModel(
        "ab",
        [("a", "a"), ("b", "b"), ("a", "b")],
        [("b", "p")],
    )
    lifted = lift_kripke(k, transitive=True)
    assert not soundness_suite(lifted, "s4", ["p"], depth=1)


def test_gl_suite_fails_on_reflexive_model():
    from provmod.provability import soundness_suite

    k = KripkeModel(["a"], [("a", "a")], [])
    lifted = lift_kripke(k, transitive=True)
    assert soundness_suite(lifted, "gl", ["p"], depth=1)


def test_every_provability_model_is_a_pre_model():
    k = KripkeModel("abc", [("a", "b"), ("b", "c"), ("a", "c")],
                    [("b", "p")])
    lifted = lift_kripke(k, transitive=True)
    certified = certify_modal_completeness(
        PreModel(["w0", "w1"], [("w0", "w1")], [],
                 {"w1": finite_axioms_mp([box(FALSUM), box(p)])}),
        [box(FALSUM), box(p)])
    pipeline = countermodel_pipeline_gl(parse("p -> []p"))
    models = {"lifted": lifted, "certified": certified,
              "generated gl": generate_gl(two_chain_premodel()),
              "generated rhd": rhd_two_chain(),
              "pipeline": pipeline.model,
              "pipeline lift": lift_kripke(pipeline.kripke, transitive=True)}
    texts = ("p", "[]p", "<>p", "[]bot", "[]p -> p")
    for name, model in models.items():
        assert isinstance(model, PreModel) and model.pre is model, name
        assert check_frame(model).converse_well_founded, name
        assert model.kripke_part() == KripkeModel(
            model.worlds, model.edges, model.valuation), name
        # answers exactly like the pre-model of its frame and theories
        pre = PreModel(model.worlds, model.edges, model.valuation,
                       model.theories, model.language, model.e_family)
        family = [parse(t, model.language) for t in texts]
        for w in sorted(model.worlds, key=str):
            for f in family:
                if model.language == BOX:
                    assert pm_forces(model, w, f) == pm_forces(pre, w, f)
                else:
                    assert pm_forces_rhd(model, w, f) == \
                        pm_forces_rhd(pre, w, f), (name, w)
        if name not in ("lifted", "certified", "pipeline lift"):
            # generated theories are saved as their seeds
            with pytest.raises(docio.DocumentError):
                docio.model_to_doc(model)
            continue
        doc = docio.model_to_doc(model)
        loaded = docio.loads(docio.dumps(doc))
        assert loaded.kind == "premodel", name
        assert docio.model_to_doc(loaded.model) == doc, name
        for w in model.theories:
            for f in family:
                assert loaded.model.theory(w).derives(f) == \
                    model.theory(w).derives(f), (name, w)


def test_soundness_suite_takes_logics_of_the_model_language():
    from provmod.provability import soundness_suite

    for model, logic in ((two_chain_premodel(), "ilm"),
                         (rhd_two_chain(), "gl"), (rhd_two_chain(), "k")):
        with pytest.raises(PreModelError) as exc:
            soundness_suite(model, logic, ["p"])
        assert f"the {logic} suite takes" in str(exc.value)
        assert BOX in str(exc.value) and RHD in str(exc.value)


def test_soundness_suite_refuses_a_logic_it_does_not_know():
    # the lift of a symmetric, non-transitive model fails k4's "four"; a
    # misspelt logic is refused by name rather than run as k
    from provmod.provability import soundness_suite

    k = KripkeModel(["a", "b"], [("a", "b"), ("b", "a")], [("a", "p")])
    lifted = lift_kripke(k)
    assert len(soundness_suite(lifted, "k4", ["p"], 1)) == 8
    assert not soundness_suite(lifted, "k", ["p"], 1)
    for logic in ("K4", "t4", "kk"):
        with pytest.raises(PreModelError, match=f"^unknown logic '{logic}'$"):
            soundness_suite(lifted, logic, ["p"], 1)


def test_box_axiom_instances_refuse_a_logic_without_box_schemes():
    # the same refusal as the suite's for a misspelt logic, and ilm, whose
    # schemes are rhd formulas, named rather than failing on its record
    from provmod.provability import box_axiom_instances

    assert len(box_axiom_instances("k", ["p"], 1)) == 98
    with pytest.raises(PreModelError, match="^unknown logic 'K4'$"):
        box_axiom_instances("K4", ["p"], 1)
    with pytest.raises(PreModelError, match="^ilm has no box schemes"):
        box_axiom_instances("ilm", ["p"], 1)


def test_certify_modal_completeness_keeps_the_witness_family():
    pre = PreModel(["w0", "w1", "w2"], [("w0", "w1"), ("w1", "w2")],
                   [("w2", "p")],
                   {"w1": finite_axioms_mp([rdiamond(p)], language=RHD),
                    "w2": finite_axioms_mp([rbox(FALSUM)], language=RHD)},
                   RHD, [top(), FALSUM, p])
    certified = certify_modal_completeness(pre, [rbox(FALSUM)])
    assert certified.certificate.kind == "family_checked"
    assert certified.e_family == pre.e_family == (top(), FALSUM, p)
    texts = ("p", "[]p", "<>p", "[]bot", "top |> bot", "p |> bot",
             "top |> p", "(p |> q) -> (<>p -> <>q)")
    answers = {}
    for model in (pre, certified):
        answers[model] = [pm_forces_rhd(model, w, parse(t, RHD))
                          for w in ("w0", "w1", "w2") for t in texts]
    assert answers[pre] == answers[certified]
    assert True in answers[pre] and False in answers[pre]


def test_certify_modal_completeness():
    # vacuously true boxes at the leaf must be derivable there
    good = PreModel(["w0", "w1"], [("w0", "w1")], [],
                    {"w1": finite_axioms_mp([box(FALSUM), box(p)])})
    family = [box(FALSUM), box(p)]
    model = certify_modal_completeness(good, family)
    assert model.certificate.kind == "family_checked"
    assert model.certificate.family == tuple(family)

    bad = PreModel(["w0", "w1"], [("w0", "w1")], [],
                   {"w1": finite_axioms_mp([])})
    with pytest.raises(PreModelError):
        certify_modal_completeness(bad, family)
