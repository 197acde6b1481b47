"""The benchmark workloads: inputs, ops and the checks on each op.

A workload is built from its seed and hands out rounds.  A round is a list
of ``(kind, op)`` pairs in an order fixed by the seed; every round has the
same mix of kinds, so a run that stops after any whole round measures the
same mix.  An op returns None when its answer checks out, or a short text
saying what was wrong; an op that raises counts as failed too.  Every check
compares against an answer that does not come from the layer being timed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from functools import partial

import inputs
from provmod import docio
from provmod.decide import (
    NO_COUNTERMODEL_UP_TO_BOUND,
    NON_THEOREM,
    THEOREM,
    decide_gl,
    decide_ilm,
    decide_k,
    decide_k4,
    decide_s4,
    enumerate_veltman_models,
)
from provmod.formulas import BOX, RHD, box, imp, parse, to_text
from provmod.glp import check_glp_model, glp_soundness_suite
from provmod.interpret import soundness_gate
from provmod.kripke import (
    KripkeModel,
    forces,
    unravel,
    unravelled_forces,
    veltman_forces,
    veltman_forces_alt,
)
from provmod.provability import (
    countermodel_pipeline_ilm,
    generate_gl,
    generate_ilm,
    ilm_axiom_instances,
    pipeline_family_rhd,
    pm_forces_rhd,
    soundness_suite,
)
from provmod.theories import gl_n, gl_theorems

DECIDERS = {"k": decide_k, "k4": decide_k4, "s4": decide_s4, "gl": decide_gl}
# theoremhood is monotone along these inclusions of logics
INCLUSIONS = (("k", "k4"), ("k4", "gl"), ("k4", "s4"))


def _refuted_after_round_trip(verdict, f):
    """Save the countermodel, load it back and re-check it with ``forces``."""
    meta = {"designated_world": docio._world_id(verdict.world)}
    text = docio.dumps(docio.model_to_doc(verdict.countermodel, meta=meta))
    loaded = docio.loads(text)
    return not forces(loaded.model, loaded.meta["designated_world"], f)


def _monotonicity_error(group):
    for weak, strong in INCLUSIONS:
        if group[weak] and not group[strong]:
            return f"theorem of {weak} but not of {strong}"
    return None


# ---------------------------------------------------------------------------

class Decide:
    """One op decides one formula in one logic.  A round is the 60-formula
    corpus plus the next RANDOM_PER_ROUND of the first RANDOM_SET queries of
    the 3-CNF pool, taken cyclically, each in K, K4, S4 and GL, and the
    soundness gate of three GL theories.

    Formula hashes follow object addresses, so one S4 decision can take
    five times longer in one process than in another.  A query that recurs
    in the run's parts is timed under several heap layouts; with 40 rounds
    each query is decided ten times, so no single query's layout fills the
    ten samples beyond the tail percentile."""

    RANDOM_PER_ROUND = 12
    RANDOM_SET = 48

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.corpus = inputs.corpus()
        self.pool = itertools.cycle(list(itertools.islice(
            inputs.cnf_pool(), self.RANDOM_SET)))
        self.gate_corpus = [parse(t) for t in inputs.GATE_CORPUS_TEXTS]

    def round(self):
        queries = list(self.corpus)
        queries += [(next(self.pool), None)
                    for _ in range(self.RANDOM_PER_ROUND)]
        ops = []
        for f, known in queries:
            group: dict = {}
            for logic in DECIDERS:
                ops.append((f"decide.{logic}",
                            partial(self._decide, logic, f, known, group)))
        for make in (gl_theorems, partial(gl_n, 1), partial(gl_n, 2)):
            ops.append(("soundness_gate", partial(self._gate, make)))
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _decide(logic, f, known, group):
        verdict = DECIDERS[logic](f)
        if verdict.status not in (THEOREM, NON_THEOREM):
            return f"status {verdict.status}"
        if logic == "gl" and known is not None and verdict.is_theorem != known:
            return f"GL verdict on {to_text(f)} differs from the corpus"
        if not verdict.is_theorem and not _refuted_after_round_trip(verdict, f):
            return f"{logic} countermodel forces {to_text(f)}"
        group[logic] = verdict.is_theorem
        if len(group) == len(DECIDERS):
            return _monotonicity_error(group)
        return None

    def _gate(self, make):
        report = soundness_gate(make(), self.gate_corpus)
        if not (report.gates_pass and report.corpus_true):
            return "soundness gate failed"
        return None


# ---------------------------------------------------------------------------

class Generate:
    """One op generates the minimum model over one labelled tree seed and
    checks it.  A round is GL_PER_ROUND box-language seeds and RHD_PER_ROUND
    rhd ones.  Each stream visits the 1173 classes, listed by world count,
    from a seeded start in steps of STRIDE (near 1173 over the golden
    ratio, and prime to 1173), so that every run's sample spreads over all
    seed sizes: a plain random sample of 200 moves the median op by 15%."""

    GL_PER_ROUND = 5           # keeps the median op among the GL seeds
    RHD_PER_ROUND = 1
    STRIDE = 725

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.shapes = inputs.tree_seed_shapes()
        if len(self.shapes) != inputs.SEED_CLASSES:
            raise RuntimeError(f"{len(self.shapes)} seed classes, expected "
                               f"{inputs.SEED_CLASSES}")
        self.gl_order = self._cycle()
        self.rhd_order = self._cycle()
        self.box_sets = inputs.axiom_sets(BOX)
        self.rhd_sets = inputs.axiom_sets(RHD)
        self.family = [parse(t) for t in inputs.NEC_LOEB_TEXTS]
        self.e_family = pipeline_family_rhd(["p", "q"], 4)
        self.montagna = inputs.montagna_instances()

    def _cycle(self):
        n = len(self.shapes)
        start = self.rng.randrange(n)
        return ((start + i * self.STRIDE) % n for i in itertools.count())

    def round(self):
        ops = []
        for _ in range(self.GL_PER_ROUND):
            parents, labels = self.shapes[next(self.gl_order)]
            seed = inputs.seed_premodel(parents, labels, self.box_sets, BOX)
            ops.append(("generate.gl", partial(self._gl, seed)))
        for _ in range(self.RHD_PER_ROUND):
            parents, labels = self.shapes[next(self.rhd_order)]
            seed = inputs.seed_premodel(parents, labels, self.rhd_sets, RHD)
            ops.append(("generate.rhd", partial(self._rhd, seed)))
        self.rng.shuffle(ops)
        return ops

    def _gl(self, seed):
        model = generate_gl(seed)
        for w in sorted(model.pre.theories, key=str):
            th = model.theory(w)
            for ax in th.axioms:
                if not th.derives(ax):
                    return f"seed axiom {to_text(ax)} not derivable at {w}"
            for f in self.family:
                if th.derives(f) and not th.derives(box(f)):
                    return f"not closed under necessitation at {w}"
                if th.derives(imp(box(f), f)) and not th.derives(f):
                    return f"not closed under the diagonalized rule at {w}"
        failures = soundness_suite(model, "gl", ["p"], depth=2)
        return f"{len(failures)} GL axiom failures" if failures else None

    def _rhd(self, seed):
        model = generate_ilm(seed, e_family=self.e_family)
        for f in self.montagna:
            for w in sorted(model.worlds, key=str):
                if not pm_forces_rhd(model, w, f):
                    return f"Montagna instance {to_text(f)} fails at {w}"
        return None


# ---------------------------------------------------------------------------

p, q = parse("p"), parse("q")


class ModelCheck:
    """One op checks one enumerated Veltman model.  A round enumerates every
    world count up to 3 over one and two atoms, checks MODELS_PER_ROUND
    models, decides fixed ILM formulas at bound 3, runs the ILM pipeline on
    ``p |> q`` and checks the poly-modal models.  The models checked are
    visited from a seeded start in steps of STRIDE through all 417 (near
    417 over the golden ratio, and prime to 417), so every run checks
    nearly the same spread of model sizes."""

    MODELS_PER_ROUND = 24      # keeps the median op among the model checks
    STRIDE = 257
    ATOM_SETS = (("p",), ("p", "q"))
    POOLS = {("p",): (p, parse("~p"), parse("top")),
             ("p", "q"): (p, q, parse("~p"), parse("top"))}
    # models per (world count, atoms), as enumerated at the benchmark's
    # first commit; a change to the enumeration must keep them
    MODEL_COUNTS = {(1, ("p",)): 2, (2, ("p",)): 7, (3, ("p",)): 46,
                    (1, ("p", "q")): 4, (2, ("p", "q")): 26,
                    (3, ("p", "q")): 332}
    ILM_THEOREMS = ("[](p -> q) -> (p |> q)", "<>p |> p",
                    "(p |> q) -> (<>p -> <>q)", "p |> p")
    ILM_NON_THEOREMS = ("p |> q", "[]p -> p", "p -> []p")

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.instances = {
            names: [f for (_, f) in ilm_axiom_instances(
                list(names), pool=list(self.POOLS[names]))]
            for names in self.ATOM_SETS}
        self.theorems = [parse(t, RHD) for t in self.ILM_THEOREMS]
        self.non_theorems = [parse(t, RHD) for t in self.ILM_NON_THEOREMS]
        self.pipeline_target = parse("p |> q", RHD)
        self.glp_models = inputs.glp_models()
        self.total = sum(self.MODEL_COUNTS.values())
        start = self.rng.randrange(self.total)
        self.order = ((start + i * self.STRIDE) % self.total
                      for i in itertools.count())

    def round(self):
        enumerated: dict = {}
        combos = list(self.MODEL_COUNTS)
        self.rng.shuffle(combos)
        first = [("veltman_enum", partial(self._enumerate, key, enumerated))
                 for key in combos]
        ops = []
        for _ in range(self.MODELS_PER_ROUND):
            k = next(self.order)
            for key in self.MODEL_COUNTS:
                if k < self.MODEL_COUNTS[key]:
                    break
                k -= self.MODEL_COUNTS[key]
            ops.append(("veltman_model",
                        partial(self._check_model, key, k, enumerated)))
        ops += [("decide_ilm.theorem", partial(self._ilm_theorem, f))
                for f in self.theorems]
        ops += [("decide_ilm.non_theorem", partial(self._ilm_refuted, f))
                for f in self.non_theorems]
        ops.append(("pipeline_ilm", self._pipeline))
        ops += [("glp", partial(self._glp, m)) for m in self.glp_models]
        self.rng.shuffle(ops)
        return first + ops

    def _enumerate(self, key, enumerated):
        n, names = key
        models = list(enumerate_veltman_models(n, list(names)))
        enumerated[key] = models
        if len(models) != self.MODEL_COUNTS[key]:
            return f"{len(models)} models for {key}"
        return None

    def _check_model(self, key, index, enumerated):
        m = enumerated[key][index]
        family = self.instances[key[1]]
        worlds = sorted(m.worlds, key=str)
        memo: dict = {}
        for f in family:
            for w in worlds:
                if not veltman_forces(m, w, f, _memo=memo):
                    return f"instance {to_text(f)} fails at {w}"
                if not veltman_forces_alt(m, w, f):
                    return f"the alternative evaluator disagrees on {to_text(f)}"
        u = unravel(m)
        memo_u: dict = {}
        for sigma in u.worlds:
            for f in family:
                if unravelled_forces(u, sigma, f, _memo=memo_u) != \
                        veltman_forces(m, sigma[-1], f, _memo=memo):
                    return f"unravelling disagrees on {to_text(f)}"
        return None

    @staticmethod
    def _ilm_theorem(f):
        verdict = decide_ilm(f, 3)
        if verdict.status != NO_COUNTERMODEL_UP_TO_BOUND:
            return f"{to_text(f)} refuted"
        return None

    @staticmethod
    def _ilm_refuted(f):
        verdict = decide_ilm(f, 3)
        if verdict.status != NON_THEOREM:
            return f"{to_text(f)} not refuted"
        u = unravel(verdict.countermodel)
        for sigma in u.worlds:
            if sigma[-1] == verdict.world and unravelled_forces(u, sigma, f):
                return f"the unravelled countermodel forces {to_text(f)}"
        return None

    def _pipeline(self):
        f = self.pipeline_target
        result = countermodel_pipeline_ilm(f)
        if pm_forces_rhd(result.model, result.designated, f):
            return "the pipeline model forces p |> q"
        return None

    @staticmethod
    def _glp(model):
        if not check_glp_model(model, inputs.GLP_FAMILY).ok:
            return "GLP clause violated"
        if not glp_soundness_suite(model, ["p"], 1).ok:
            return "GLP axiom instance fails"
        return None


# ---------------------------------------------------------------------------

DEEP_CONJUNCTS = 7000


class CliCold:
    """One op is one ``provmod --json`` process; the whole script is one
    round.  Ops that read a file an earlier op writes run in that order;
    the seed orders the chains.  The decide slice is fixed (slice seed 0):
    a seeded slice of five formulas changes a run's work by more than the
    bounds allow.

    ``launch(argv)`` starts the process and returns it completed; the
    worker sets it, so traced runs go through the benchmark's own entry.
    """

    CORPUS_SLICE = 4
    SLICE_SEED = 0
    RANDOM_SLICE = 1
    POOL_PREFIX = 100          # the random slice comes from the pool's start
    LEVEL1 = ("[]p -> p", "~[]bot", "<>top", "p")
    LEVEL2 = "p -> []p"
    REPS_GL_1_P = 4            # members of representatives_gl(1, ["p"])
    UNRAVELLED_WORLDS = 7      # worlds of the unravelled veltman.json

    def __init__(self, seed, workdir):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.launch = None
        corpus = inputs.corpus()
        theorems = [c for c in corpus if c[1]]
        others = [c for c in corpus if not c[1]]
        half = self.CORPUS_SLICE // 2
        pick = random.Random(self.SLICE_SEED)
        picks = pick.sample(theorems, half) + pick.sample(
            others, self.CORPUS_SLICE - half)
        pool = list(itertools.islice(inputs.cnf_pool(), self.POOL_PREFIX))
        picks += [(f, None) for f in pick.sample(pool, self.RANDOM_SLICE)]
        self.decide_inputs = picks
        # the last three-world one-atom model, a three-world chain
        *_, veltman = enumerate_veltman_models(3, ["p"])
        self._write("veltman.json", docio.model_to_doc(veltman))
        shape = inputs.tree_seed_shapes(3)[-1]
        seed_model = inputs.seed_premodel(*shape, inputs.axiom_sets(BOX), BOX)
        self._write("seed.json", docio.model_to_doc(seed_model))
        self.seed_worlds = sorted(str(w) for w in seed_model.worlds)

    def _write(self, name, doc):
        docio.save_path(os.path.join(self.workdir, name), doc)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    # -- the script -------------------------------------------------------

    def round(self):
        chains = []
        for f, known in self.decide_inputs:
            group: dict = {}
            for logic in DECIDERS:
                chains.append([("cli.decide", partial(
                    self._decide, logic, f, known, group))])
        for text, bound, status in (("p |> p", 3, NO_COUNTERMODEL_UP_TO_BOUND),
                                    ("p |> p", 4, NO_COUNTERMODEL_UP_TO_BOUND),
                                    ("p |> q", 3, NON_THEOREM)):
            chains.append([("cli.decide",
                            partial(self._decide_ilm, text, bound, status))])
        chains.append([
            ("cli.decide", partial(self._decide_out, "[]p -> p", "c1.json")),
            ("cli.eval", partial(self._eval, "c1.json", "[]p -> p", False))])
        for text in self.LEVEL1[1:]:
            chains.append([("cli.countermodel",
                            partial(self._countermodel, "gl", text, 1, None))])
        chains.append([
            ("cli.countermodel",
             partial(self._countermodel, "gl", self.LEVEL1[0], 1, "l1.json")),
            ("cli.check", partial(self._check, "l1.json", "soundness", "gl")),
            ("cli.check", partial(self._check, "l1.json", "classical", "gl")),
            ("cli.eval", partial(self._eval, "l1.json", self.LEVEL1[0], False))])
        chains.append([("cli.countermodel",
                        partial(self._countermodel, "gl", self.LEVEL2, 2, None))])
        chains.append([
            ("cli.countermodel",
             partial(self._countermodel, "ilm", "p |> q", None, "i1.json")),
            ("cli.check", partial(self._check, "i1.json", "soundness", "ilm"))])
        chains.append([("cli.generate", self._generate)])
        chains.append([("cli.reps", self._reps)])
        chains.append([("cli.interpret", partial(
            self._interpret, {"kind": "gl_theorems"}, "[]([]p -> p) -> []p",
            True))])
        chains.append([("cli.interpret", partial(
            self._interpret, {"kind": "finite_axioms_mp", "axioms": ["p"]},
            "[]p -> [][]p", False))])
        chains.append([("cli.unravel", self._unravel)])
        self.rng.shuffle(chains)
        return [op for chain in chains for op in chain]

    def _run(self, *argv):
        proc = self.launch(["--json", *argv])
        try:
            return json.loads(proc.stdout)
        except json.JSONDecodeError:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError(f"exit {proc.returncode}: {tail[0]}") from None

    def _decide(self, logic, f, known, group):
        payload = self._run("decide", "--logic", logic, to_text(f))
        status = payload.get("status")
        if status not in (THEOREM, NON_THEOREM):
            return f"status {status}"
        if logic == "gl" and known is not None and (status == THEOREM) != known:
            return f"GL verdict on {to_text(f)} differs from the corpus"
        if status == NON_THEOREM:
            loaded = docio.doc_to_model(payload["countermodel"])
            if forces(loaded.model, loaded.meta["designated_world"], f):
                return f"{logic} countermodel forces {to_text(f)}"
        group[logic] = status == THEOREM
        if len(group) == len(DECIDERS):
            return _monotonicity_error(group)
        return None

    def _decide_ilm(self, text, bound, expected):
        payload = self._run("decide", "--logic", "ilm", "--bound", str(bound),
                            text)
        if payload.get("status") != expected:
            return f"ilm {text} at bound {bound}: {payload.get('status')}"
        if expected == NON_THEOREM:
            loaded = docio.doc_to_model(payload["countermodel"])
            if veltman_forces(loaded.model, loaded.meta["designated_world"],
                              parse(text, RHD)):
                return f"ilm countermodel forces {text}"
        return None

    def _decide_out(self, text, name):
        payload = self._run("decide", "--logic", "gl", "--out",
                            self._path(name), text)
        return None if payload.get("status") == NON_THEOREM else \
            f"status {payload.get('status')}"

    def _eval(self, name, text, expected):
        with open(self._path(name), encoding="utf-8") as fh:
            world = json.load(fh)["designated_world"]
        payload = self._run("eval", "--model", self._path(name), "--world",
                            world, text)
        return None if payload.get("value") is expected else \
            f"eval {text} gave {payload.get('value')}"

    def _countermodel(self, logic, text, level, name):
        argv = ["countermodel", "--logic", logic]
        if name:
            argv += ["--out", self._path(name)]
        payload = self._run(*argv, text)
        if level is not None and payload.get("level") != level:
            return f"{text} refuted at level {payload.get('level')}"
        if "designated_world" not in payload:
            return "no designated world"
        return None

    def _check(self, name, suite, logic):
        payload = self._run("check", "--model", self._path(name), "--suite",
                            suite, "--logic", logic)
        found = payload.get("failures", payload.get("violations"))
        return None if found == [] else f"check {suite}: {found!r:.80}"

    def _generate(self):
        payload = self._run("generate", "--seed-model", self._path("seed.json"))
        if payload.get("generate") is not True or \
                payload.get("worlds") != self.seed_worlds:
            return "generated document does not match its seed"
        return None

    def _reps(self):
        payload = self._run("reps", "--logic", "gl", "--n", "1", "--atoms", "p")
        members = payload.get("members", [])
        return None if len(members) == self.REPS_GL_1_P else \
            f"{len(members)} representatives"

    def _interpret(self, theory, text, expected):
        payload = self._run("interpret", "--theory", json.dumps(theory), text)
        return None if payload.get("value") is expected else \
            f"interpret {text} gave {payload.get('value')}"

    def _unravel(self):
        payload = self._run("unravel", "--model", self._path("veltman.json"))
        worlds = payload.get("worlds", [])
        return None if len(worlds) == self.UNRAVELLED_WORLDS else \
            f"{len(worlds)} unravelled worlds"

    # -- the known-defect probe -------------------------------------------

    def deep_probe(self):
        """``eval`` of a 7000-conjunct formula on a one-world document where
        p is false; the right answer is false.  Returns None or the error."""
        self._write("probe.json", docio.model_to_doc(KripkeModel(["w"], [], [])))
        text = " & ".join(["p"] * DEEP_CONJUNCTS)
        try:
            payload = self._run("eval", "--model", self._path("probe.json"),
                                "--world", "w", text)
        except RuntimeError as exc:
            return str(exc)
        return None if payload.get("value") is False else \
            f"value {payload.get('value')}"


WORKLOADS = {
    "decide": Decide,
    "generate": Generate,
    "model-check": ModelCheck,
    "cli-cold": CliCold,
}

