import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import support
from provmod import formulas as fm
from provmod import kripke
from provmod.decide import _veltman_frames
from provmod.formulas import (
    FALSUM,
    RHD,
    atom,
    box,
    diamond,
    imp,
    land,
    lor,
    neg,
    rbox,
    rhd,
    top,
)
from provmod.kripke import (
    KripkeModel,
    ModelError,
    UnravelledVeltman,
    VeltmanFrameError,
    VeltmanModel,
    check_frame,
    forces,
    forces_plus,
    unravel,
    unravelled_forces,
    veltman_forces,
    veltman_forces_alt,
)
from provmod.glp import PolyModel, glp_forces
from provmod.provability import PreModel, lift_kripke, pm_forces, pm_forces_rhd
from provmod.theories import finite_axioms_mp

p = atom("p")
q = atom("q")


def chain(n, valuation=()):
    worlds = [f"w{i}" for i in range(n)]
    edges = [(f"w{i}", f"w{i+1}") for i in range(n - 1)]
    return KripkeModel(worlds, edges, valuation)


# ---------------------------------------------------------------------------
# Kripke forcing

def test_box_vacuous_at_leaf():
    k = chain(1)
    assert forces(k, "w0", box(FALSUM))


def test_forces_two_chain():
    k = chain(2, [("w1", "p")])
    assert forces(k, "w0", box(p))
    assert forces(k, "w1", p)
    assert not forces(k, "w0", p)


def test_falsum_never_forced():
    k = chain(3, [("w0", "p"), ("w1", "p")])
    for w in k.worlds:
        assert not forces(k, w, FALSUM)


def test_forces_commutes_with_booleans():
    k = chain(2, [("w0", "p"), ("w1", "q")])
    for w in k.worlds:
        for a, b in itertools.product([p, q, box(p), box(q)], repeat=2):
            assert forces(k, w, imp(a, b)) == \
                ((not forces(k, w, a)) or forces(k, w, b))
            assert forces(k, w, land(a, b)) == \
                (forces(k, w, a) and forces(k, w, b))
            assert forces(k, w, lor(a, b)) == \
                (forces(k, w, a) or forces(k, w, b))
            assert forces(k, w, neg(a)) == (not forces(k, w, a))


def _entry_point(name):
    """(holds(world, f), a world, the language) for one forcing relation,
    on two worlds w0 -> w1 where p holds at both and every theory has p
    as its axiom."""
    worlds, edges = ["w0", "w1"], [("w0", "w1")]
    val = [("w0", "p"), ("w1", "p")]
    veltman = VeltmanModel(worlds, edges, {"w0": [("w1", "w1")]}, val)
    if name == "forces":
        k = KripkeModel(worlds, edges, val)
        return (lambda w, f: forces(k, w, f)), "w0", fm.BOX
    if name == "veltman_forces":
        return (lambda w, f: veltman_forces(veltman, w, f)), "w0", RHD
    if name == "veltman_forces_alt":
        return (lambda w, f: veltman_forces_alt(veltman, w, f)), "w0", RHD
    if name == "unravelled_forces":
        u = unravel(veltman)
        return (lambda w, f: unravelled_forces(u, w, f)), ("w0",), RHD
    if name == "pm_forces":
        pre = PreModel(worlds, edges, val, {"w1": finite_axioms_mp([p])})
        return (lambda w, f: pm_forces(pre, w, f)), "w0", fm.BOX
    if name == "pm_forces_rhd":
        pre = PreModel(worlds, edges, val,
                       {"w1": finite_axioms_mp([p], language=RHD)}, RHD, [p])
        return (lambda w, f: pm_forces_rhd(pre, w, f)), "w0", RHD
    poly = PolyModel(worlds, {0: edges},
                     {"w1": {0: finite_axioms_mp([p], language=fm.OMEGA)}},
                     val)
    return (lambda w, f: glp_forces(poly, w, f)), "w0", fm.OMEGA


ENTRY_POINTS = ("forces", "veltman_forces", "veltman_forces_alt",
                "unravelled_forces", "pm_forces", "pm_forces_rhd",
                "glp_forces")
UNARY_BOX = {fm.BOX: box, RHD: rbox, fm.OMEGA: lambda f: fm.boxn(0, f)}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_forces_rejects_unknown_world_and_language(name):
    holds, world, lang = _entry_point(name)
    other = rhd(p, q) if lang == fm.BOX else box(p)
    assert holds(world, UNARY_BOX[lang](p))
    with pytest.raises(ModelError):
        holds("nope", p)
    with pytest.raises(ModelError):
        holds(world, other)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_long_conjunctions_evaluate_without_recursion(name):
    holds, world, lang = _entry_point(name)
    for item in (p, UNARY_BOX[lang](p)):
        items = [item] * 7000
        assert holds(world, fm.conj(items))
        assert not holds(world, fm.conj(items + [FALSUM]))


# ---------------------------------------------------------------------------
# plus-forcing

def test_forces_plus_false_at_root():
    k = chain(3)
    assert not forces_plus(k, "w0", top())


def test_forces_plus_on_chain():
    k = chain(2, [("w1", "p")])
    assert forces_plus(k, "w1", p)
    assert forces_plus(k, "w1", box(FALSUM))


def test_forces_plus_covers_all_descendants():
    # w0 -> w1 -> w2, p only at w1: at w1, the predecessor w0 sees w1 and w2
    k = chain(3, [("w1", "p")])
    assert not forces_plus(k, "w1", p)


# ---------------------------------------------------------------------------
# frame report

def test_self_loop_not_converse_well_founded():
    k = KripkeModel(["w"], [("w", "w")], [])
    report = check_frame(k)
    assert not report.converse_well_founded
    assert report.converse_well_founded.witness == ("w", "w")
    assert not report.irreflexive
    assert report.reflexive


def test_two_chain_frame_report():
    report = check_frame(chain(2))
    assert report.tree
    assert report.forest
    assert report.transitive
    assert report.irreflexive
    assert report.converse_well_founded
    assert not report.reflexive


def test_diamond_is_not_a_tree():
    k = KripkeModel(
        "wuvz",
        [("w", "u"), ("w", "v"), ("u", "z"), ("v", "z")],
        [],
    )
    report = check_frame(k)
    assert not report.tree
    assert report.tree.witness == ("u", "v", "z")
    assert report.forest.witness == ("z", "u", "v")


def test_a_transitive_chain_is_a_tree_but_not_a_forest():
    k = KripkeModel("abcd", [("a", "b"), ("b", "c"), ("a", "c"),
                             ("a", "d"), ("b", "d"), ("c", "d")], [])
    report = check_frame(k)
    assert report.tree
    assert not report.forest
    # the first world with two predecessors, and the first two of them
    assert report.forest.witness == ("c", "a", "b")


def test_longer_cycle_detected():
    k = KripkeModel("abc", [("a", "b"), ("b", "c"), ("c", "a")], [])
    report = check_frame(k)
    assert not report.converse_well_founded
    w = report.converse_well_founded.witness
    assert w[0] == w[-1] and len(w) == 4


def test_long_chains_and_cycles_need_no_recursion():
    # longer than the recursion limit of 20000 that importing provmod sets
    worlds = [f"w{i}" for i in range(25000)]
    steps = list(zip(worlds, worlds[1:]))
    loop = steps + [(worlds[-1], "w0")]
    assert check_frame(KripkeModel(worlds, steps, [])).converse_well_founded
    report = check_frame(KripkeModel(worlds, loop, []))
    assert report.converse_well_founded.witness == tuple(worlds) + ("w0",)
    with pytest.raises(VeltmanFrameError) as info:
        VeltmanModel(worlds, loop, {w: [(u, u)] for (w, u) in loop}, [])
    assert info.value.witness == tuple(worlds) + ("w0",)


def test_cycle_search_matches_a_recursive_search():
    import support

    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        worlds = [f"w{i}" for i in range(n)]
        edges = [(a, b) for a in worlds for b in worlds
                 if rng.random() < 0.2]
        k = KripkeModel(worlds, edges, [])
        assert kripke._find_cycle(k.worlds, k._succ) == \
            support.recursive_find_cycle(k.worlds, k._succ)


# ---------------------------------------------------------------------------
# Veltman models

def simple_veltman():
    return VeltmanModel(
        ["w", "u"],
        [("w", "u")],
        {"w": [("u", "u")]},
        [("u", "p")],
    )


def test_veltman_validation_witnesses():
    with pytest.raises(VeltmanFrameError):
        VeltmanModel(["w", "u"], [("w", "u")], {"w": []}, [])  # not reflexive
    with pytest.raises(VeltmanFrameError):
        VeltmanModel(["w"], [("w", "w")], {"w": [("w", "w")]}, [])  # cycle
    # two steps must land preorder-above
    with pytest.raises(VeltmanFrameError):
        VeltmanModel(
            ["w", "u", "v"],
            [("w", "u"), ("u", "v"), ("w", "v")],
            {"w": [("u", "u"), ("v", "v")], "u": [("v", "v")]},
            [],
        )
    # preorder-below a world must reach its successors
    with pytest.raises(VeltmanFrameError):
        VeltmanModel(
            ["w", "u", "v"],
            [("w", "u"), ("w", "v"), ("v", "u")],
            {"w": [("u", "u"), ("v", "v"), ("u", "v")], "v": [("u", "u")]},
            [],
        )


def test_veltman_rhd_vacuous_at_leaf():
    v = simple_veltman()
    assert veltman_forces(v, "u", rhd(p, q))
    assert veltman_forces(v, "u", rhd(top(), FALSUM))


def test_veltman_rhd_examples():
    v = simple_veltman()
    assert veltman_forces(v, "w", rhd(p, p))
    assert not veltman_forces(v, "w", rhd(p, FALSUM))


def test_veltman_box_encoding():
    v = simple_veltman()
    for f in [p, q, land(p, q)]:
        encoded = rbox(f)
        direct = all(veltman_forces(v, u, f) for u in v.successors("w"))
        assert veltman_forces(v, "w", encoded) == direct


def test_alt_clause_agrees():
    models = [
        simple_veltman(),
        VeltmanModel(
            ["w", "u", "v"],
            [("w", "u"), ("w", "v")],
            {"w": [("u", "u"), ("v", "v"), ("u", "v")]},
            [("u", "p"), ("v", "q")],
        ),
    ]
    fam = [rhd(p, q), rhd(q, p), rhd(lor(p, q), land(p, q)), rbox(p),
           imp(rhd(p, q), rhd(p, lor(p, q)))]
    for m in models:
        for w in m.worlds:
            for f in fam:
                assert veltman_forces(m, w, f) == veltman_forces_alt(m, w, f)


# ---------------------------------------------------------------------------
# unravelling

def test_unravel_two_chain():
    v = VeltmanModel(["w0", "w1"], [("w0", "w1")], {"w0": [("w1", "w1")]}, [])
    u = unravel(v)
    assert u.worlds == {("w0",), ("w1",), ("w0", "w1")}
    assert (("w0",), ("w0", "w1")) in u.edges
    assert len(u.edges) == 1


def test_unravel_single_world():
    v = VeltmanModel(["w"], [], {}, [])
    u = unravel(v)
    assert u.worlds == {("w",)}
    assert not u.edges


def test_unravelled_tree_shape():
    v = VeltmanModel(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c"), ("a", "c")],
        {"a": [("b", "b"), ("c", "c"), ("b", "c")], "b": [("c", "c")]},
        [("b", "p")],
    )
    u = unravel(v)
    report = check_frame(u)
    assert report.tree
    assert report.irreflexive
    assert report.converse_well_founded
    # paths: a; b; c; ab; ac; bc; abc
    assert len(u.worlds) == 7


def test_unravelling_preserves_truth_at_path_ends():
    v = VeltmanModel(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c"), ("a", "c")],
        {"a": [("b", "b"), ("c", "c"), ("b", "c")], "b": [("c", "c")]},
        [("b", "p"), ("c", "q")],
    )
    u = unravel(v)
    fam = [p, q, rhd(p, q), rhd(q, p), rbox(p), rbox(q),
           rhd(lor(p, q), land(p, q)), imp(p, rhd(p, q)),
           rhd(rhd(p, q), q)]
    for sigma in u.worlds:
        for f in fam:
            assert unravelled_forces(u, sigma, f) == \
                veltman_forces(v, sigma[-1], f), (sigma, fm.to_text(f))


def test_alt_clause_agrees_on_enumerated_corpus():
    from provmod.decide import enumerate_veltman_models

    fam = [rhd(p, q), rhd(q, p), rbox(p), rhd(lor(p, q), land(p, q)),
           imp(rhd(p, q), rhd(p, lor(p, q))), rhd(rhd(p, q), q)]
    count = 0
    corpus = [m for n in (1, 2)
              for m in enumerate_veltman_models(n, ["p", "q"])]
    corpus.extend(enumerate_veltman_models(3, ["p"]))
    for m in corpus:
        for w in m.worlds:
            for f in fam:
                assert veltman_forces(m, w, f) == \
                    veltman_forces_alt(m, w, f)
        count += 1
    assert count > 50


# ---------------------------------------------------------------------------
# world masks agree with the per-world lazy walk they replaced

def _formulas(modal):
    return st.recursive(
        st.sampled_from([p, q, FALSUM, top()]),
        lambda c: st.one_of(st.tuples(c, c).map(lambda ab: imp(*ab)),
                            c.map(neg), modal(c)),
        max_leaves=10)


_BOX_FORMULAS = _formulas(lambda c: st.one_of(c.map(box), c.map(diamond)))
_RHD_FORMULAS = _formulas(lambda c: st.tuples(c, c).map(lambda ab: rhd(*ab)))
# names whose str order differs from the order they are drawn in
_WORLD_NAMES = ("w1", "w10", "w2", "a", "z", "m", "w0")


@st.composite
def _kripke_models(draw):
    worlds = draw(st.lists(st.sampled_from(_WORLD_NAMES), min_size=1,
                           max_size=6, unique=True))
    world = st.sampled_from(worlds)
    edges = draw(st.sets(st.tuples(world, world)))
    valuation = draw(st.sets(st.tuples(world, st.sampled_from(["p", "q"]))))
    return KripkeModel(worlds, edges, valuation)


def _enumerated_veltman_models():
    from provmod.decide import enumerate_veltman_models

    return [m for n in (1, 2, 3)
            for m in enumerate_veltman_models(n, ["p", "q"])]


@settings(max_examples=150, deadline=None)
@given(_kripke_models(), st.lists(_BOX_FORMULAS, min_size=1, max_size=4))
def test_world_masks_agree_with_the_reference_on_kripke_models(k, fam):
    for f in fam:
        for w in k.worlds:
            expected = support.reference_forces(k, w, f)
            assert forces(k, w, f) == expected
            assert forces_plus(k, w, f) == support.reference_plus(
                k, w, lambda v: support.reference_forces(k, v, f))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_enumerated_veltman_models()),
       st.lists(_RHD_FORMULAS, min_size=1, max_size=4))
def test_world_masks_agree_with_the_reference_on_veltman_models(m, fam):
    u = unravel(m)
    memo: dict = {}
    for f in fam:
        for w in m.worlds:
            expected = support.reference_veltman_forces(m, w, f)
            assert veltman_forces(m, w, f) == expected
            assert veltman_forces(m, w, f, _memo=memo) == expected
            assert veltman_forces_alt(m, w, f) == \
                support.reference_veltman_forces_alt(m, w, f)
        for sigma in u.worlds:
            assert unravelled_forces(u, sigma, f) == \
                support.reference_unravelled_forces(u, sigma, f)


def test_a_poisoned_veltman_memo_leaves_the_alt_clause_alone():
    fam = [rhd(p, q), rbox(p), imp(rhd(p, q), rhd(p, lor(p, q)))]
    for m in _enumerated_veltman_models()[::9]:
        for f in fam:
            expected = {w: support.reference_veltman_forces_alt(m, w, f)
                        for w in m.worlds}
            for lie in (0, -1):      # false everywhere, true everywhere
                poisoned = dict.fromkeys(fm.subformulas(f), lie)
                for w in m.worlds:
                    assert veltman_forces(m, w, f, _memo=poisoned) == \
                        bool(lie)
                    assert veltman_forces_alt(m, w, f) == expected[w]
                # nor does the model's own table for veltman_forces
                m._masks[kripke._rhd] = dict(poisoned)
                for w in m.worlds:
                    assert veltman_forces(m, w, f) == bool(lie)
                    assert veltman_forces_alt(m, w, f) == expected[w]


@functools.lru_cache(maxsize=None)
def _frames_up_to_three():
    """Every Veltman frame up to 3 worlds over p, q with its valuations, and
    its unravelling with the path valuations."""
    out = []
    for n in (1, 2, 3):
        for frame, valuations in _veltman_frames(n, ["p", "q"]):
            u = unravel(frame)
            out.append((frame, valuations, u,
                        support.path_valuations(u, valuations)))
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(_RHD_FORMULAS)
def test_lanes_agree_with_the_per_call_entry_points(f):
    # every lane bit against the per-call answer at its world and valuation,
    # on a model built with ``with_valuation``, and each path of the
    # unravelling against its last world in the frame
    for frame, valuations, u, u_valuations in _frames_up_to_three():
        width = len(valuations)
        masks = []
        for model, vals, entry_points in (
                (frame, valuations, (veltman_forces, veltman_forces_alt)),
                (u, u_valuations, (unravelled_forces,))):
            lanes = kripke._Lanes(model, vals)
            mask = kripke.evaluate_mask(lanes, f, kripke._lane_rhd, {})
            for v, val in enumerate(vals):
                m = model.with_valuation(val)
                for i, w in enumerate(m._order):
                    expected = bool(mask >> i * width + v & 1)
                    for entry in entry_points:
                        assert entry(m, w, f) == expected, \
                            (m, w, entry.__name__, fm.to_text(f))
            masks.append(mask)
        lane = (1 << width) - 1
        for k, sigma in enumerate(u._order):
            end = frame._order.index(sigma[-1])
            assert masks[1] >> k * width & lane == \
                masks[0] >> end * width & lane, (frame, sigma, fm.to_text(f))


# ---------------------------------------------------------------------------
# one frame class: every model kind checks its frame through KripkeModel

def _kripke_frames():
    import support

    return [support.decode_model(int(code), 3)
            for code in support.canonical_model_codes(3)[::7]]


def _veltman_models():
    from provmod.decide import enumerate_veltman_models

    return list(enumerate_veltman_models(3, ["p"]))


def _premodels():
    return [PreModel(k.worlds, k.edges, k.valuation,
                     {w: finite_axioms_mp([p]) for w in k.accessible_worlds()})
            for k in _kripke_frames()]


def _poly_levels():
    out = []
    for k in _kripke_frames():
        theory = finite_axioms_mp([], language=fm.OMEGA)
        level1 = [(w, u) for (w, u) in k.edges if w <= u]
        m = PolyModel(k.worlds, {0: k.edges, 1: level1},
                      {w: {0: theory, 1: theory}
                       for w in k.accessible_worlds()},
                      k.valuation)
        out.extend(m.levels)
    return out


@pytest.mark.parametrize("models", [
    _veltman_models,
    lambda: [unravel(v) for v in _veltman_models()],
    _premodels,
    _poly_levels,
], ids=["veltman", "unravelled", "premodel", "poly_level"])
def test_check_frame_reads_the_same_frame_for_every_model_kind(models):
    found = models()
    assert len(found) > 10
    witnessed = 0
    for m in found:
        report = check_frame(m)
        assert report == check_frame(KripkeModel(m.worlds, m.edges,
                                                 m.valuation))
        witnessed += sum(check.witness is not None for check in
                         (report.reflexive, report.transitive, report.tree))
    assert witnessed > 0


def test_premodels_on_one_frame_are_different_models():
    frame = chain(2)
    one = PreModel(frame.worlds, frame.edges, (),
                   {"w1": finite_axioms_mp([p])})
    other = PreModel(frame.worlds, frame.edges, (),
                     {"w1": finite_axioms_mp([q])})
    assert one != other
    assert one == one
    assert len({one, other}) == 2
    assert one.kripke_part() == frame
    assert type(one.kripke_part()) is KripkeModel


def test_models_of_different_kinds_are_never_equal():
    frame = chain(2)
    pre = PreModel(frame.worlds, frame.edges, (),
                   {"w1": finite_axioms_mp([p])})
    assert frame != pre and pre != frame
    assert len({frame, pre}) == 2
    # w sees u and v; the two preorders differ only in ranking u and v
    worlds, edges = ["w", "u", "v"], [("w", "u"), ("w", "v")]
    flat = VeltmanModel(worlds, edges,
                        {"w": [("u", "u"), ("v", "v"), ("u", "v")]}, [])
    level = VeltmanModel(worlds, edges,
                         {"w": [("u", "u"), ("v", "v"), ("u", "v"),
                                ("v", "u")]}, [])
    bare = KripkeModel(worlds, edges, [])
    assert flat != level and flat != bare and bare != flat
    one, other = unravel(flat), unravel(level)
    assert one != other and len({one, other}) == 2
    paths = KripkeModel(one.worlds, one.edges, one.valuation)
    assert one != paths and paths != one
    # structure alone decides equality within one kind, and hashes agree
    for model, rebuilt in ((bare, KripkeModel(worlds, edges, [])),
                           (flat, VeltmanModel(worlds, edges,
                                               flat.preorders, [])),
                           (one, unravel(flat))):
        assert model == rebuilt and hash(model) == hash(rebuilt)


def test_each_frame_kind_prints_its_own_class():
    *_, last = _veltman_frames(3, ["p"])
    frame, valuations = last
    veltman = frame.with_valuation(valuations[-1])
    bare = KripkeModel("ab", [("a", "b")], [])
    for model, shown in (
            (bare, "KripkeModel(2 worlds, 1 edges)"),
            (veltman, "VeltmanModel(3 worlds, 3 edges)"),
            (unravel(veltman), "UnravelledVeltman(7 worlds, 4 edges)")):
        assert repr(model) == shown


def test_veltman_preorder_at_an_unknown_world_is_rejected():
    with pytest.raises(VeltmanFrameError) as info:
        VeltmanModel(["q", "r"], [("q", "r")],
                     {"q": [("r", "r")], "zz": [("q", "r")]}, [])
    assert info.value.witness == ("zz",)


# ---------------------------------------------------------------------------
# models derived from a frame with another valuation

def _three_world_frame():
    # w sees u and v, which its preorder puts on one level
    worlds = ["w", "u", "v"]
    edges = [("w", "u"), ("w", "v")]
    preorders = {"w": [("u", "u"), ("v", "v"), ("u", "v"), ("v", "u")]}
    return worlds, edges, preorders


def test_with_valuation_equals_a_model_built_from_scratch():
    worlds, edges, preorders = _three_world_frame()
    frame = VeltmanModel(worlds, edges, preorders, [])
    fam = [rhd(p, q), rhd(q, p), rbox(p), rhd(lor(p, q), land(p, q)),
           imp(rhd(p, q), rhd(p, lor(p, q))), rhd(rhd(p, q), q), neg(p)]
    cells = [(w, a) for w in worlds for a in ("p", "q")]
    for bits in itertools.product((False, True), repeat=len(cells)):
        valuation = [cell for cell, b in zip(cells, bits) if b]
        derived = frame.with_valuation(valuation)
        built = VeltmanModel(worlds, edges, preorders, valuation)
        assert type(derived) is VeltmanModel
        assert derived == built and hash(derived) == hash(built)
        assert derived._atom_masks == built._atom_masks
        assert derived._rhd_table is frame._rhd_table
        for f in fam:
            assert kripke.evaluate_mask(derived, f, kripke._rhd) == \
                kripke.evaluate_mask(built, f, kripke._rhd)
            for w in worlds:
                assert veltman_forces_alt(derived, w, f) == \
                    veltman_forces_alt(built, w, f)


def test_with_valuation_on_a_kripke_model_shares_the_frame_report():
    k = chain(3)
    report = check_frame(k)
    assert check_frame(k) is report
    derived = k.with_valuation([("w1", "p")])
    assert type(derived) is KripkeModel
    assert derived == chain(3, [("w1", "p")])
    assert check_frame(derived) is report
    assert forces(derived, "w0", diamond(p)) and not forces(k, "w0", diamond(p))


def test_with_valuation_rejects_an_entry_outside_the_world_set():
    worlds, edges, preorders = _three_world_frame()
    frame = VeltmanModel(worlds, edges, preorders, [])
    with pytest.raises(ModelError):
        frame.with_valuation([("w", "p"), ("elsewhere", "p")])
    with pytest.raises(ModelError):
        chain(2).with_valuation([("w2", "p")])


def test_revaluing_an_unravelling_equals_unravelling_the_revalued_model():
    worlds, edges, preorders = _three_world_frame()
    frame = VeltmanModel(worlds, edges, preorders, [])
    u = unravel(frame)
    fam = [rhd(p, q), rhd(q, p), rbox(p), rhd(lor(p, q), land(p, q)),
           imp(rhd(p, q), rhd(p, lor(p, q))), rhd(rhd(p, q), q), neg(p)]
    cells = [(w, a) for w in worlds for a in ("p", "q")]
    for bits in itertools.product((False, True), repeat=len(cells)):
        valuation = [cell for cell, b in zip(cells, bits) if b]
        [paths] = support.path_valuations(u, [valuation])
        derived = u.with_valuation(paths)
        built = unravel(frame.with_valuation(valuation))
        assert type(derived) is UnravelledVeltman
        assert derived == built and hash(derived) == hash(built)
        assert derived._atom_masks == built._atom_masks
        assert derived._rhd_table is u._rhd_table
        assert derived._rhd_table == built._rhd_table
        for f in fam:
            for sigma in built.worlds:
                assert unravelled_forces(derived, sigma, f) == \
                    unravelled_forces(built, sigma, f)


_STATEFUL_KINDS = {
    "premodel": lambda: PreModel(["w0", "w1"], [("w0", "w1")], (),
                                 {"w1": finite_axioms_mp([p])}),
    "provability": lambda: lift_kripke(chain(2)),
    "poly": lambda: PolyModel(["w", "u"], {0: [("w", "u")]},
                              {"u": {0: finite_axioms_mp([p], language="omega")}},
                              []),
}


@pytest.mark.parametrize("kind", sorted(_STATEFUL_KINDS))
def test_with_valuation_refuses_kinds_with_valuation_dependent_state(kind):
    model = _STATEFUL_KINDS[kind]()
    with pytest.raises(ModelError, match="build it anew"):
        model.with_valuation(model.valuation)


def test_evaluating_a_derived_model_leaves_its_sibling_alone():
    worlds, edges, preorders = _three_world_frame()
    frame = VeltmanModel(worlds, edges, preorders, [])
    one = frame.with_valuation([("u", "p")])
    other = frame.with_valuation([("v", "q")])
    assert veltman_forces(one, "w", rhd(p, p))
    assert veltman_forces_alt(one, "w", rbox(neg(p))) is False
    assert one._masks
    assert other._masks == {} and frame._masks == {}
    assert veltman_forces(other, "w", rbox(neg(p)))
