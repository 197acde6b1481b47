import itertools

import pytest
from hypothesis import given, settings, strategies as st

from provmod import docio, formulas as fm
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
    lifted = lift_kripke(k, certify_family=fam)
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
    lifted = lift_kripke(k, transitive=True, certify_family=fam)
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
    assert pm_forces_rhd(model, "w1", rhd(p, q), [top(), FALSUM])
    assert pm_forces_rhd(model, "w1", rhd(top(), FALSUM), [top(), FALSUM])


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
    def generated():
        seed = PreModel(["r", "a", "b"], [("r", "a"), ("a", "b")],
                        [("a", "p")],
                        {"a": finite_axioms_mp([p], language=RHD),
                         "b": finite_axioms_mp([], language=RHD)}, RHD)
        return generate_ilm(seed, e_family=[top(), FALSUM, p, q])

    queries = [(w, parse(t, RHD)) for w in ("r", "a", "b") for t in (
        "p |> q", "q |> p", "p |> bot", "[]p", "<>q |> q",
        "[](p -> q) -> (p |> q)", "(p |> q) & (q |> bot) -> (p |> bot)")]
    cold = [pm_forces_rhd(generated(), w, f) for w, f in queries]
    model = generated()
    warming = [pm_forces_rhd(model, w, f) for w, f in queries]
    # one entry per witness family: its diamonds, built once, and its memo
    (dia, _), = model._rhd_memos.values()
    assert dia == [rdiamond(e) for e in model.e_family]
    warm = [pm_forces_rhd(model, w, f) for w, f in queries]
    assert model._rhd_memos[model.e_family][0] is dia
    assert cold == warming == warm
    assert True in cold and False in cold


def test_rhd_needs_family():
    model = rhd_two_chain()
    with pytest.raises(PreModelError):
        pm_forces_rhd(model, "w0", rhd(p, q), [])


def test_generate_ilm_envelope_and_flag():
    single = PreModel(["w"], [], [], {}, RHD)
    model = generate_ilm(single)
    assert not model.family_bounded

    seed = two_chain_premodel([p], language=RHD)
    with pytest.raises(GenerationError):
        generate_ilm(seed)
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


_FAMILY_TEXTS = ("p", "~p", "[]p", "[]bot", "<>p", "p -> []p", "[]p -> p",
                   "[]([]p -> p) -> []p", "[][]p", "[](p & []bot)", "<>[]p")


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
        state = theory.decide.__self__
        for f in theory._memo:
            names, f_instances = model._instances[f]
            got = fm.conj(imp(phi_a, f_instances[j])
                          for phi_a, j in state._assignment_pairs(names))
            assert got is fm.pre_interpolant(imp(state.phi, f)), \
                fm.to_text(f)
            checked += 1
    assert checked > 7 * len(queries)


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
    assert is_l_isomorphic(result.model, result.lifted,
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
              "pipeline": pipeline.model, "pipeline lift": pipeline.lifted}
    texts = ("p", "[]p", "<>p", "[]bot", "[]p -> p")
    for name, model in models.items():
        assert isinstance(model, PreModel) and model.pre is model, name
        assert check_frame(model).converse_well_founded, name
        assert model.kripke_part() == KripkeModel(
            model.worlds, model.edges, model.valuation), name
        # answers exactly like the pre-model of its frame and theories
        pre = PreModel(model.worlds, model.edges, model.valuation,
                       model.theories, model.language)
        family = [parse(t, model.language) for t in texts]
        for w in sorted(model.worlds, key=str):
            for f in family:
                if model.language == BOX:
                    assert pm_forces(model, w, f) == pm_forces(pre, w, f)
                else:
                    assert pm_forces_rhd(model, w, f) == \
                        pm_forces_rhd(pre, w, f, model.e_family), (name, w)
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
