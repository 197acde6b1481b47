"""End-to-end acceptance checks at desk scale.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check prints one
pass/fail line with its headline numbers and elapsed time.  All
comparisons are exact; none carries a tolerance.
"""

from __future__ import annotations

import functools
import itertools
import random
import time

import glp_fixtures
import support
from provmod import formulas as fm
from provmod.formulas import (
    BOX,
    FALSUM,
    RHD,
    atom,
    box,
    boxes,
    classical_entails,
    conj,
    imp,
    is_purely_modal,
    land,
    neg,
    parse,
    pre_interpolant,
    rbox,
    rhd,
    to_text,
    top,
)
from provmod.decide import (
    NON_THEOREM,
    decide_gl,
    enumerate_veltman_models,
    finfals_check,
    gl_consequence,
    gl_valid_brute,
)
from provmod.glp import check_glp_model, glp_soundness_suite
from provmod.interpret import (
    incompleteness_witness,
    soundness_gate,
    t_interpretation,
)
from provmod.kripke import (
    check_frame,
    forces,
    unravel,
    unravelled_forces,
    veltman_forces,
)
from provmod.provability import (
    countermodel_pipeline_gl,
    countermodel_pipeline_ilm,
    generate_gl,
    generate_ilm,
    ilm_axiom_instances,
    is_l_isomorphic,
    lift_kripke,
    pipeline_family_rhd,
    pm_forces,
    pm_forces_rhd,
    soundness_suite,
)
from provmod.theories import finite_axioms_mp, gl_n, gl_theorems

p, q, r = atom("p"), atom("q"), atom("r")


def criterion(k, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.time()
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException:
                print(f"[{k}/9] FAIL {title}")
                raise
            print(f"[{k}/9] PASS {title}{detail} ({time.time() - t0:.1f}s)")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. pre-interpolant laws

@criterion(1, "pre-interpolant laws")
def test_01_pre_interpolant_laws():
    pool = [p, q]
    checked = {BOX: 0, RHD: 0}
    rng = random.Random(101)
    for lang, count in ((BOX, 500), (RHD, 200)):
        for _ in range(count):
            f = support.random_formula(rng, lang, 3, pool)
            star = pre_interpolant(f)
            assert is_purely_modal(star), to_text(f)
            assert classical_entails([star], f), to_text(f)
            checked[lang] += 1

    rng = random.Random(202)
    pairs = 0
    random_hits = 0
    while pairs < 100:
        f = support.random_formula(rng, BOX, 3, pool)
        star = pre_interpolant(f)
        candidates = [support.random_purely_modal(rng, 2, pool)
                      for _ in range(3)]
        candidates.append(land(star, support.random_purely_modal(rng, 1, pool)))
        for b in candidates:
            if pairs >= 100:
                break
            if classical_entails([b], f):
                assert classical_entails([b], star), \
                    (to_text(b), to_text(f))
                pairs += 1
                if b is not candidates[-1]:
                    random_hits += 1
    return (f": {checked[BOX]} box + {checked[RHD]} rhd formulas, "
            f"{pairs} strongest-consequence pairs ({random_hits} random)")


# ---------------------------------------------------------------------------
# 2. lift equivalence on every small one-atom model

_FAMILY_40 = tuple(parse(s) for s in [
    "p", "~p", "bot", "top",
    "[]p", "[]~p", "~[]p", "[]bot", "[]top",
    "<>p", "<>~p", "<>top", "~<>p",
    "[][]p", "[][]bot", "[]<>p", "<>[]p", "<><>p",
    "[](p -> []p)", "[]([]p -> p)", "[](p & []p)", "[](p | []p)",
    "[]p -> p", "p -> []p", "[]p -> [][]p", "[](p | ~p)", "[](p & ~p)",
    "[]([]p -> p) -> []p", "~[]bot", "[]p & p", "[]p | ~[]p",
    "<>p -> []p", "p <-> []p", "[]~[]p", "~[]~p",
    "[]p -> []bot", "<>(p & []p)", "[](<>p -> p)", "<>p & <>~p",
    "([]p & p) -> [][]p",
])


@criterion(2, "lift equivalence")
def test_02_lift_equivalence():
    assert len(_FAMILY_40) == 40
    ops, _ = support.compile_closure(_FAMILY_40)
    total = 0
    per_n = {}
    for n in (1, 2, 3, 4):
        codes = support.canonical_model_codes(n)
        bad = support.vector_lift_sweep(codes, n, ops)
        assert not bad.any(), f"{int(bad.sum())} mismatching models at n={n}"
        per_n[n] = len(codes)
        total += len(codes)

    # drive the same comparison through the public objects on a sample
    rng = random.Random(7)
    object_checked = 0
    for n in (1, 2, 3, 4):
        codes = list(map(int, support.canonical_model_codes(n)))
        sample = codes if n <= 2 else rng.sample(codes, 120 if n == 3 else 160)
        for code in sample:
            k = support.decode_model(code, n)
            variants = [lift_kripke(k)]
            if check_frame(k).transitive:
                variants.append(lift_kripke(k, transitive=True))
            for lifted in variants:
                for f in _FAMILY_40:
                    for w in k.worlds:
                        assert forces(k, w, f) == pm_forces(lifted, w, f), \
                            (n, code, to_text(f), w)
            object_checked += 1
    return (f": {total} models ({per_n}), all 40 formulas at every world; "
            f"object path on {object_checked} models")


# ---------------------------------------------------------------------------
# 3. the converse well-founded decider against brute-force tree search

_CORPUS_THEOREMS = tuple(parse(s) for s in [
    # distribution instances and their boxes
    "[](p -> q) -> ([]p -> []q)",
    "[](q -> p) -> ([]q -> []p)",
    "[](p -> p & p) -> ([]p -> [](p & p))",
    "[]([](p -> q) -> ([]p -> []q))",
    "[][]([](p -> q) -> ([]p -> []q))",
    # boxed tautologies
    "[]top", "[][]top", "[](p -> p)", "[](p | ~p)",
    # transitivity axioms and their boxes
    "[]p -> [][]p", "[]q -> [][]q", "[](p & q) -> [][](p & q)",
    "[]([]p -> [][]p)", "[][]([]p -> [][]p)",
    # diagonalized-limit axioms and their boxes
    "[]([]p -> p) -> []p",
    "[]([]q -> q) -> []q",
    "[]([](p & q) -> (p & q)) -> [](p & q)",
    "[]([]([]p -> p) -> []p)",
    "[][]([]([]p -> p) -> []p)",
    # assorted theorems
    "[](p & q) <-> ([]p & []q)",
    "[]bot -> []p",
    "[]bot -> []q",
    "<>p -> <>top",
    "[](p -> q) -> (<>p -> <>q)",
    "<>p -> <>(p & ~<>p)",
    "[]<>p -> []bot",
    "<>top -> ~[]bot",
    "[]p -> [](q -> p)",
    "([]p & []q) -> [](p | q)",
    "[]~p -> [](p -> q)",
    "<>(p & q) -> (<>p & <>q)",
    "[]p -> ([]q -> [](p & q))",
    "[]([]p & []q -> p) -> ([]p -> ([]q -> []p))",
    "[]([]bot -> bot) -> []bot",
    "~<>bot",
    "[]p | <>~p",
    "[]([]p -> q) | top",
    "[](~p -> p) -> []p",
    "[]((p -> q) & (q -> p)) -> ([]p <-> []q)",
    "[]p -> [](p | q)",
    "(<>p | <>q) <-> <>(p | q)",
    "[][]bot -> [][][]bot",
    "[]q -> ([](q -> p) -> []p)",
    "<>(p & ~p) -> bot",
    "[](p <-> q) -> ([]p <-> []q)",
    "[]([]p -> p) -> ([][]p -> []p)",
    "[](p & []bot) | <>top | p | ~p",
    "[]((p | q) -> (q | p))",
    "[](p -> (q -> p))",
    "<><>p -> <>p",
])

_CORPUS_NON_THEOREMS = tuple(parse(s) for s in [
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
])


@criterion(3, "decision procedure against brute-force tree search")
def test_03_gl_decision_vs_brute_force():
    corpus = _CORPUS_THEOREMS + _CORPUS_NON_THEOREMS
    assert len(corpus) == 60
    for f in _CORPUS_THEOREMS:
        assert decide_gl(f).is_theorem, to_text(f)
    for f in _CORPUS_NON_THEOREMS:
        verdict = decide_gl(f)
        assert verdict.status == NON_THEOREM, to_text(f)
        assert not forces(verdict.countermodel, verdict.world, f)

    for f in corpus:
        brute = gl_valid_brute(f, max_nodes=4)
        if decide_gl(f).is_theorem:
            assert brute is None, to_text(f)
        else:
            assert brute is not None, to_text(f)
            model, world = brute
            assert not forces(model, world, f)

    least = {}
    for f in corpus:
        report = finfals_check(f, 4)
        assert report.ok, to_text(f)
        if not report.base.is_theorem:
            assert report.least_failing_k is not None
            least[to_text(f)] = report.least_failing_k
    return (f": 60-formula corpus, brute search over trees <= 4 nodes, "
            f"bounded-falsum agreement at k <= 4 "
            f"(least failing k up to {max(least.values())})")


# ---------------------------------------------------------------------------
# 4. generated models over every small seed

_AXIOM_CHOICES = [()]
for _k in (1, 2):
    for _combo in itertools.combinations([p, neg(p), box(FALSUM)], _k):
        _AXIOM_CHOICES.append(tuple(_combo))

_NEC_LOEB_FAMILY = tuple(parse(s) for s in [
    "p", "~p", "top", "bot", "[]p", "[]~p", "[]bot", "<>p", "<>top",
    "p -> []p", "[]p -> p", "[]([]p -> p) -> []p", "[][]p", "[]p & p",
    "p | ~p", "[](p -> p)", "<>p -> p", "[]p -> [][]p", "~[]bot",
    "[](p & []bot)", "p & ~p", "[]p | []~p", "<>[]p", "[]<>p",
    "([]p -> p) -> p", "[](p | ~p)", "~<>top", "p -> p", "[]bot -> []p",
    "<>(p & ~p)",
])

_PIPELINE_TEXTS = ("p", "[]p -> p", "~[]bot", "p -> []p", "<>top")
_PIPELINE_CACHE: dict = {}


def _pipeline(text):
    if text not in _PIPELINE_CACHE:
        _PIPELINE_CACHE[text] = countermodel_pipeline_gl(parse(text))
    return _PIPELINE_CACHE[text]


@criterion(4, "generated models: extension, closure, soundness, minimality")
def test_04_generated_models():
    assert len(_NEC_LOEB_FAMILY) == 30
    seeds = support.tree_seeds(4, _AXIOM_CHOICES)
    nec_checked = loeb_checked = 0
    for parents, labels in seeds:
        seed = support.seed_premodel(parents, labels, _AXIOM_CHOICES)
        model = generate_gl(seed)
        for w in sorted(model.theories, key=str):
            th = model.theory(w)
            for ax in th.axioms:
                assert th.derives(ax), (parents, labels, w, to_text(ax))
            for f in _NEC_LOEB_FAMILY:
                if th.derives(f):
                    assert th.derives(box(f)), (parents, labels, w, to_text(f))
                    nec_checked += 1
                if th.derives(imp(box(f), f)):
                    assert th.derives(f), (parents, labels, w, to_text(f))
                    loeb_checked += 1
        failures = soundness_suite(model, "gl", ["p"], depth=2)
        assert not failures, (parents, labels, failures[:2])

    iso_pairs = 0
    for text in _PIPELINE_TEXTS:
        result = _pipeline(text)
        assert is_l_isomorphic(result.model, result.lifted,
                               result.representatives.members), text
        iso_pairs += 1
    return (f": {len(seeds)} seeds; {nec_checked} necessitation and "
            f"{loeb_checked} diagonalized-rule closures; axiom suite on "
            f"every model; {iso_pairs} generated-vs-lifted matches over "
            f"the representative sets")


# ---------------------------------------------------------------------------
# 5. the finitary countermodel pipeline

@criterion(5, "finitary countermodel pipeline")
def test_05_gl_pipeline():
    levels = {}
    for text in _PIPELINE_TEXTS:
        f = parse(text)
        result = _pipeline(text)
        assert not pm_forces(result.model, result.designated, f), text
        report = check_frame(result.model.kripke_part())
        assert report.tree and report.converse_well_founded
        assert forces(result.kripke, result.designated,
                      boxes(FALSUM, result.n))
        assert not forces(result.kripke, result.designated, f)
        levels[text] = result.n
    return f": refuted {list(levels)} at levels {list(levels.values())}"


# ---------------------------------------------------------------------------
# 6. the interpretability logic end to end

_ILM_POOL = (p, q, r, neg(p), top())


@criterion(6, "interpretability logic: models, unravelling, pipelines")
def test_06_ilm_suite():
    instances = ilm_axiom_instances(["p", "q", "r"], pool=list(_ILM_POOL))
    models = []
    for n in (1, 2, 3):
        models.extend(enumerate_veltman_models(n, ["p", "q", "r"]))
    for m in models:
        memo: dict = {}
        for (_, f) in instances:
            for w in m.worlds:
                assert veltman_forces(m, w, f, _memo=memo), \
                    (m, to_text(f), w)

    family = [f for (_, f) in instances]
    for m in models:
        u = unravel(m)
        memo_u: dict = {}
        memo_v: dict = {}
        for sigma in u.worlds:
            for f in family:
                assert unravelled_forces(u, sigma, f, _memo=memo_u) == \
                    veltman_forces(m, sigma[-1], f, _memo=memo_v), \
                    (m, sigma, to_text(f))

    refuted = []
    for text in ("p |> q", "[]p -> p"):
        f = parse(text, RHD)
        result = countermodel_pipeline_ilm(f)
        assert not pm_forces_rhd(result.model, result.designated, f), text
        refuted.append(text)

    seeds = support.tree_seeds(4, _AXIOM_CHOICES)
    rhd_axioms = [()]
    for k in (1, 2):
        for combo in itertools.combinations([p, neg(p), rbox(FALSUM)], k):
            rhd_axioms.append(tuple(combo))
    e_family = pipeline_family_rhd(["p", "q"], 4)
    mont_pool = (p, q, neg(p), top())
    montagna = [imp(rhd(a, b), rhd(land(rbox(c), a), land(rbox(c), b)))
                for a in mont_pool for b in mont_pool for c in mont_pool]
    for parents, labels in seeds:
        seed = support.seed_premodel(parents, labels, rhd_axioms,
                                     language=RHD)
        model = generate_ilm(seed, e_family=e_family)
        for f in montagna:
            for w in sorted(model.worlds, key=str):
                assert pm_forces_rhd(model, w, f), \
                    (parents, labels, to_text(f), w)
    return (f": {len(instances)} axiom instances on {len(models)} Veltman "
            f"models; unravelling agreement on all; refuted {refuted}; "
            f"{len(montagna)} Montagna instances on {len(seeds)} generated "
            f"models")


# ---------------------------------------------------------------------------
# 7. poly-modal models

@criterion(7, "poly-modal model checker and axiom harness")
def test_07_glp():
    compliant = 0
    for make in glp_fixtures.COMPLIANT:
        m = make()
        report = check_glp_model(m, glp_fixtures.FAMILY)
        assert report.ok, (make.__name__, report.violations[:3])
        suite = glp_soundness_suite(m, ["p"], 1)
        assert suite.ok, (make.__name__, suite.violations[:3])
        compliant += 1

    violating = 0
    for make, clause, scheme in glp_fixtures.VIOLATING:
        m = make()
        report = check_glp_model(m, glp_fixtures.FAMILY)
        found = report.by_clause(clause)
        assert found, (make.__name__, clause)
        assert all(len(v) >= 2 for v in found)
        suite = glp_soundness_suite(m, ["p"], 1)
        assert any(name.startswith(scheme)
                   for (name, n, f, w) in suite.violations), \
            (make.__name__, scheme, suite.violations[:3])
        violating += 1
    assert compliant >= 3 and violating >= 3
    return (f": {compliant} compliant fixtures clean; {violating} broken "
            f"fixtures each reported with a witness and a matching axiom "
            f"failure")


# ---------------------------------------------------------------------------
# 8. the single-theory provability reading

_GATE_CORPUS = tuple(parse(s) for s in [
    "[]([]p -> p) -> []p",
    "[]([]q -> q) -> []q",
    "[](p -> q) -> ([]p -> []q)",
    "[](q -> p) -> ([]q -> []p)",
    "[]p -> [][]p",
    "[]q -> [][]q",
    "[]top",
    "[][]top",
    "[](p -> p)",
    "[]([]([]p -> p) -> []p)",
    "[](p & q) <-> ([]p & []q)",
    "[]bot -> []p",
    "[](p -> q) -> (<>p -> <>q)",
    "<>p -> <>(p & ~<>p)",
    "[]p -> [](q -> p)",
    "([]p & []q) -> [](p | q)",
    "[](p <-> q) -> ([]p <-> []q)",
    "[](p -> (q -> p))",
    "<><>p -> <>p",
    "[]q -> ([](q -> p) -> []p)",
])


@criterion(8, "single-theory provability reading")
def test_08_interpretation():
    assert len(_GATE_CORPUS) == 20
    passing = 0
    for theory in (gl_theorems(), gl_n(1), gl_n(2)):
        report = soundness_gate(theory, _GATE_CORPUS)
        assert report.gates_pass, theory.label
        assert report.corpus_true, theory.label
        passing += 1

    report = soundness_gate(finite_axioms_mp([p]), _GATE_CORPUS)
    assert not report.gate("nec").passed
    probe = next(pr for pr in report.probes if pr[0] == "nec")
    assert probe[1] == parse("[]p -> [][]p")
    assert probe[2] is False

    fixtures = [finite_axioms_mp([]), finite_axioms_mp([p]),
                finite_axioms_mp([FALSUM]), gl_theorems(), gl_n(2)]
    for theory in fixtures:
        w = incompleteness_witness(theory)
        assert t_interpretation(w, theory).truth
        assert not decide_gl(w).is_theorem
    inconsistent = finite_axioms_mp([FALSUM])
    assert incompleteness_witness(inconsistent) == box(FALSUM)
    return (f": gates and corpus pass for {passing} theories; the axiom "
            f"probe fails as required; incompleteness witness verified on "
            f"{len(fixtures)} oracles")


# ---------------------------------------------------------------------------
# 9. finite-premise consequence

@criterion(9, "finite-premise consequence")
def test_09_finite_consequence():
    rng = random.Random(909)
    pool = [p, q]
    checked = 0
    non_theorems = 0
    while checked < 50:
        gamma = [support.random_formula(rng, BOX, 2, pool)
                 for _ in range(rng.randint(0, 3))]
        a = support.random_formula(rng, BOX, 2, pool)
        holds = gl_consequence(gamma, a)
        direct = decide_gl(imp(conj(sorted(gamma, key=fm.sort_key)), a))
        assert holds == direct.is_theorem
        if not holds:
            model, world = direct.countermodel, direct.world
            for g in gamma:
                assert forces(model, world, g)
            assert not forces(model, world, a)
            non_theorems += 1
        checked += 1

    assert gl_consequence([box(p)], box(p))
    assert not gl_consequence([p], box(p))
    assert gl_consequence([box(imp(box(p), p))], box(p))
    return (f": 50 random premise sets (|premises| <= 3), "
            f"{non_theorems} refutations verified on their countermodels")
