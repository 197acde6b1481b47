"""Provability models: frames whose accessible worlds carry theories.

A provability model is a Kripke model whose modal clause asks a theory: a
boxed formula holds at a world when every successor's theory derives the
argument, and the binary modal operator of the interpretability language is
evaluated through diamond-consequence over a finite witness family.  Both
clauses run on ``kripke.evaluate``, the lazy per-world evaluator that poly
models use too; plain Kripke and Veltman models and unravellings are
evaluated over all worlds at once instead.  A pre-model (``PreModel``) is
a ``KripkeModel`` with a theory at each accessible world, so frame checks
and plus-forcing take it as it is; a ``ProvabilityModel`` wraps one with
the certificate for its modal completeness.

On top of evaluation this module builds the two central constructions:
lifting a Kripke model into an equivalent provability model, and generating
the minimum necessitation-closed provability model over a bi-finite tree
pre-model, which is what makes the countermodel pipelines produce decidable
models.  A generated theory decides derivability by truth in the model it
belongs to: per top/bot assignment to the free atoms, the instantiated
query must hold wherever the instantiated seed axioms do, across the
world's plus-cone.  Every theory evaluates on the memo the model's own
forcing uses, and generated models stay lazy: evaluation reaches only the
worlds and formulas a query needs.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field

from provmod import formulas as fm
from provmod.formulas import (
    BOX,
    FALSUM,
    RHD,
    Formula,
    boxdot,
    boxes,
    conj,
    imp,
    rdiamond,
    to_text,
    top,
)
from provmod.kripke import (
    KripkeModel,
    ModelError,
    VeltmanModel,
    _check_query,
    _sibling_rhd,
    check_frame,
    evaluate,
    evaluate_mask,
    forces,
    plus,
    unravel,
)
from provmod.theories import (
    MP,
    NEC,
    TheoryOracle,
    classicality_violations,
    finite_axioms_mp,
    kripke_world_theory,
)
from provmod.decide import (
    NON_THEOREM,
    EnvelopeError,
    decide_gl,
    decide_ilm,
    representatives_gl,
    representatives_ilm,
)

# Evaluation and the formula walks are iterative, but parse and to_text
# still recurse over formula depth, one to three frames per conjunct of a
# right-folded conjunction; generated models build such conjunctions from
# whole axiom sets, and print them as sort keys.  (The tableau search in
# decide also recurses, once per successor world on a path; saturation
# does not.)
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class PreModelError(ModelError):
    pass


class GenerationError(ModelError):
    pass


class PipelineError(ModelError):
    pass


class ProjectionError(ModelError):
    def __init__(self, message, witness):
        super().__init__(f"{message}; witness {witness!r}")
        self.witness = witness


class PreModel(KripkeModel):
    """Frame, valuation and one theory per accessible world.

    Equality is identity: two pre-models on one frame with different
    theories are different models.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, worlds, edges, valuation, theories, language=BOX):
        super().__init__(worlds, edges, valuation)
        self.language = language
        accessible = self.accessible_worlds()
        if set(theories) != set(accessible):
            missing = accessible - set(theories)
            extra = set(theories) - accessible
            raise PreModelError(
                f"theories must cover exactly the accessible worlds "
                f"(missing {sorted(map(str, missing))}, "
                f"spurious {sorted(map(str, extra))})")
        for w, oracle in theories.items():
            if oracle.language != language:
                raise PreModelError(
                    f"theory at {w!r} speaks {oracle.language}, model "
                    f"speaks {language}")
        self.theories = dict(theories)
        self._memo: dict = {}
        # per witness family: its diamonds and its memo of truth values
        self._rhd_memos: dict = {}
        # per generated-theory query: its free atoms and its instances; and
        # the instances of their subformulas, per set of free atoms
        self._instances: dict = {}
        self._instance_parts: dict = {}

    def kripke_part(self) -> KripkeModel:
        """The bare frame and valuation, without the theories."""
        return KripkeModel(self.worlds, self.edges, self.valuation)

    def theory(self, w) -> TheoryOracle:
        try:
            return self.theories[w]
        except KeyError:
            raise PreModelError(f"no theory at world {w!r}") from None

    def __repr__(self):
        return (f"PreModel({len(self.worlds)} worlds, {self.language}, "
                f"{len(self.theories)} theories)")


@dataclass(frozen=True)
class Certificate:
    """Why the modal-completeness property is believed to hold: a structural
    guarantee from the construction, or a finite family it was checked on."""

    kind: str                      # "lifted" | "generated" | "family_checked"
    family: tuple = ()
    notes: str = ""


@dataclass
class ProvabilityModel:
    pre: PreModel
    certificate: Certificate
    e_family: tuple | None = None
    family_bounded: bool = False

    @property
    def worlds(self):
        return self.pre.worlds

    @property
    def edges(self):
        return self.pre.edges

    @property
    def valuation(self):
        return self.pre.valuation

    @property
    def language(self):
        return self.pre.language

    def theory(self, w) -> TheoryOracle:
        return self.pre.theory(w)


def _pre(model) -> PreModel:
    return model.pre if isinstance(model, ProvabilityModel) else model


# ---------------------------------------------------------------------------
# evaluation

def _box_clause(P: PreModel):
    """The box clause of a pre-model and the memo its answers go to: a box
    holds at w when every successor's theory derives its argument."""
    def box(w, g):
        return all(P.theories[u].derives(g.sub) for u in P._succ[w])

    return box, P._memo


def _rhd_clause(P: PreModel, e_family):
    """The rhd clause over one witness family and the memo its answers go
    to: A rhd B holds at w when, at every successor's theory and for every
    member E of the family, derivability of B -> <>E implies derivability
    of A -> <>E.  The diamonds are built once per family."""
    key = tuple(e_family)
    family = P._rhd_memos.get(key)
    if family is None:
        family = P._rhd_memos[key] = ([rdiamond(e) for e in key], {})
    dia, memo = family

    def rhd(w, g):
        return not any(th.derives(imp(g.right, de))
                       and not th.derives(imp(g.left, de))
                       for th in map(P.theories.__getitem__, P._succ[w])
                       for de in dia)

    return rhd, memo


def pm_forces(model, world, f: Formula) -> bool:
    """Truth in a box-language provability model."""
    P = _pre(model)
    _check_query(P, world, f, BOX, PreModelError)
    return evaluate(P, world, f, *_box_clause(P))


def pm_forces_plus(model, world, f: Formula) -> bool:
    """Truth at all strict descendants of some predecessor; false at
    worlds that are not accessible."""
    P = _pre(model)
    if world not in P.worlds:
        raise PreModelError(f"unknown world {world!r}")
    return plus(P, world, lambda v: pm_forces(P, v, f))


def pm_forces_rhd(model, world, f: Formula, e_family=None) -> bool:
    """Truth in an rhd-language provability model, by the rhd clause over
    the witness family.  Exactness beyond the family is only guaranteed
    when the family covers the bounded-height representatives; otherwise
    the model carries a family_bounded flag.
    """
    P = _pre(model)
    if e_family is None and isinstance(model, ProvabilityModel):
        e_family = model.e_family
    if not e_family:
        raise PreModelError("rhd evaluation needs a nonempty witness family")
    _check_query(P, world, f, RHD, PreModelError)
    return evaluate(P, world, f, *_rhd_clause(P, e_family))


def pm_forces_plus_rhd(model, world, f: Formula, e_family=None) -> bool:
    P = _pre(model)
    if e_family is None and isinstance(model, ProvabilityModel):
        e_family = model.e_family
    if world not in P.worlds:
        raise PreModelError(f"unknown world {world!r}")
    return plus(P, world, lambda v: pm_forces_rhd(P, v, f, e_family))


def is_purely_modal_family_complete(model, family, e_family=None) -> list:
    """Modal-completeness spot check: purely modal family members that are
    plus-forced at an accessible world must be derivable there.  Returns
    the violations as (world, formula) pairs."""
    P = _pre(model)
    out = []
    for w in sorted(P.theories, key=str):
        th = P.theory(w)
        for f in family:
            if not fm.is_purely_modal(f):
                continue
            if P.language == RHD:
                forced = pm_forces_plus_rhd(model, w, f, e_family)
            else:
                forced = pm_forces_plus(P, w, f)
            if forced and not th.derives(f):
                out.append((w, f))
    return out


def certify_modal_completeness(pre: PreModel, family,
                               e_family=None) -> ProvabilityModel:
    """Promote a pre-model to a provability model by checking the modal
    completeness property over a finite family (the constructions coming
    out of lifting and generation instead carry a provenance guarantee)."""
    family = tuple(family)
    violations = is_purely_modal_family_complete(pre, family,
                                                 e_family=e_family)
    if violations:
        w, f = violations[0]
        raise PreModelError(
            f"modal completeness fails at {w!r} on {to_text(f)}")
    return ProvabilityModel(pre, Certificate(kind="family_checked",
                                             family=family),
                            e_family=tuple(e_family) if e_family else None)


def check_oracles_classical(model, sample=None) -> list:
    """Classicality spot-check of every attached theory; returns witnesses."""
    P = _pre(model)
    out = []
    for w in sorted(P.theories, key=str):
        for violation in classicality_violations(P.theory(w), sample=sample):
            out.append((w,) + violation)
    return out


# ---------------------------------------------------------------------------
# lifting a Kripke model

def lift_kripke(model: KripkeModel, transitive: bool = False,
                certify_family=None) -> ProvabilityModel:
    """Equivalent provability model: each accessible world carries the
    theory of what is true there (boxed-dotted truth in the transitive
    variant, which is then closed under necessitation)."""
    if transitive and not check_frame(model).transitive:
        raise PreModelError("transitive lift over a non-transitive frame")
    shared: dict = {}
    theories = {w: kripke_world_theory(model, w, transitive=transitive,
                                       _memo=shared)
                for w in model.accessible_worlds()}
    pre = PreModel(model.worlds, model.edges, model.valuation, theories, BOX)
    lifted = ProvabilityModel(pre, Certificate(kind="lifted"))
    if certify_family is not None:
        for w in model.worlds:
            for f in certify_family:
                if forces(model, w, f) != pm_forces(lifted, w, f):
                    raise PreModelError(
                        f"lift equivalence failed at {w!r} on {to_text(f)}")
    return lifted


# ---------------------------------------------------------------------------
# projecting a provability model back onto its frame

@dataclass(frozen=True)
class ProjectionReport:
    family: tuple
    equivalent: bool
    mismatches: tuple


def project_and_check(model, family) -> tuple[KripkeModel, ProjectionReport]:
    """Strip the theories.  Requires transitivity, local soundness and
    local completeness (checked over the subformula closure of the given
    family); then verifies truth agrees with the bare Kripke model."""
    P = _pre(model)
    if P.language != BOX:
        raise PreModelError("projection is defined for box-language models")
    transitive = check_frame(P).transitive
    if not transitive:
        raise ProjectionError("frame is not transitive", transitive.witness)
    closed: dict[Formula, None] = {}
    for f in family:
        for g in fm.subformulas(f):
            closed.setdefault(g)
    closed_family = tuple(closed)
    for w in sorted(P.theories, key=str):
        th = P.theory(w)
        for f in closed_family:
            if th.derives(f) and not pm_forces(P, w, f):
                raise ProjectionError("local soundness fails", (w, to_text(f)))
            if pm_forces_plus(P, w, f) and not th.derives(f):
                raise ProjectionError("local completeness fails",
                                      (w, to_text(f)))
    kripke = P.kripke_part()
    mismatches = []
    for w in sorted(P.worlds, key=str):
        for f in closed_family:
            if pm_forces(P, w, f) != forces(kripke, w, f):
                mismatches.append((w, f))
    return kripke, ProjectionReport(family=closed_family,
                                    equivalent=not mismatches,
                                    mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# generated models

@dataclass
class GeneratedTheory:
    """Decision state for one world u of a generated model.

    The theory derives f when the pre-interpolant of (phi -> f) is
    plus-forced at u, phi being the boxed-dotted conjunction of the seed
    axioms.  That pre-interpolant is the conjunction, over each top/bot
    assignment a to the free atoms of phi -> f, of phi[a] -> f[a]; so f is
    derived when, at every strict descendant of u's predecessor, f[a] holds
    wherever phi[a] does.  phi's instances are built once per theory and
    f's once per model, and both are evaluated on the memo the model's own
    forcing uses.  f[a] is looked at only where phi[a] holds, and a world
    fails at its first failing assignment, so the derivability queries
    reached are those of plus-forcing the pre-interpolant; they recurse
    through theories strictly higher in the sibling order.
    """

    world: object
    phi: Formula
    seed_axioms: tuple
    language: str = BOX
    model: PreModel | None = None
    e_family: tuple | None = None
    # phi's free atoms and instances, and per set of the query's free atoms
    # the (phi[a], index of f[a]) pairs in assignment order
    _names: tuple = field(init=False, repr=False, compare=False)
    _phi_instances: tuple = field(init=False, repr=False, compare=False)
    _pairs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self._names = tuple(sorted(fm.free_atoms(self.phi)))
        self._phi_instances = fm.instances(self.phi)

    def _assignment_pairs(self, names: tuple) -> list:
        """(phi[a], position of f[a] among f's instances) for each
        assignment a, in pre-interpolant order, when f's free atoms are
        ``names``."""
        union = sorted(set(self._names) | set(names))

        def position(value, among):
            # top is 0 and the first name the highest bit, as in instances
            return sum(value[n] << i for i, n in enumerate(reversed(among)))

        pairs = []
        for bits in itertools.product((0, 1), repeat=len(union)):
            value = dict(zip(union, bits))
            pairs.append((self._phi_instances[position(value, self._names)],
                          position(value, names)))
        return pairs

    def decide(self, f: Formula) -> bool:
        P = self.model
        if P is None:
            raise GenerationError("generated theory queried before binding")
        known = P._instances.get(f)
        if known is None:
            known = P._instances[f] = (
                tuple(sorted(fm.free_atoms(f))),
                fm.instances(f, P._instance_parts))
        names, f_instances = known
        pairs = self._pairs.get(names)
        if pairs is None:
            pairs = self._pairs[names] = self._assignment_pairs(names)
        if self.language == BOX:
            modal, memo = _box_clause(P)
        else:
            modal, memo = _rhd_clause(P, self.e_family)

        def holds(v):
            return all(not evaluate(P, v, phi_a, modal, memo)
                       or evaluate(P, v, f_instances[j], modal, memo)
                       for phi_a, j in pairs)

        return plus(P, self.world, holds)


def _check_seed(seed: PreModel, language: str):
    if seed.language != language:
        raise GenerationError(f"seed model must speak {language}")
    report = check_frame(seed)
    if not report.converse_well_founded:
        raise GenerationError(
            f"seed frame has a cycle: {report.converse_well_founded.witness}")
    if not report.tree:
        raise GenerationError(
            f"seed frame is not a tree: {report.tree.witness}")
    for w, oracle in seed.theories.items():
        if oracle.provenance != "finite_axioms_mp":
            raise GenerationError(
                f"seed theory at {w!r} must be a finite axiom set "
                f"closed under modus ponens only")


def _phi(axioms, language) -> Formula:
    return boxdot(conj(sorted(axioms, key=fm.sort_key)), language)


def _generate(seed: PreModel, language: str, e_family, family_bounded):
    states = {}
    oracles = {}
    for w in seed.theories:
        st = GeneratedTheory(
            world=w,
            phi=_phi(seed.theory(w).axioms, language),
            seed_axioms=seed.theory(w).axioms,
            language=language,
            e_family=e_family,
        )
        states[w] = st
        oracles[w] = TheoryOracle(
            language=language,
            axioms=st.seed_axioms,
            rules=frozenset({MP, NEC}),
            provenance="generated",
            decide=st.decide,
            label=f"gen[{w}]",
        )
    generated = PreModel(seed.worlds, seed.edges, seed.valuation, oracles,
                         language)
    for st in states.values():
        st.model = generated
    for w in sorted(oracles, key=str):
        for ax in oracles[w].axioms:
            if not oracles[w].derives(ax):
                raise GenerationError(
                    f"internal error: seed axiom {to_text(ax)} not derivable "
                    f"at {w!r}")
    bad = check_oracles_classical(generated)
    if bad:
        raise GenerationError(f"internal error: generated oracle not "
                              f"classical: {bad[0]}")
    return ProvabilityModel(generated, Certificate(kind="generated"),
                            e_family=e_family, family_bounded=family_bounded)


def generate_gl(seed: PreModel) -> ProvabilityModel:
    """Minimum necessitation-closed provability model over a bi-finite
    converse well-founded tree pre-model (box language)."""
    _check_seed(seed, BOX)
    return _generate(seed, BOX, None, False)


def generate_ilm(seed: PreModel, e_family=None) -> ProvabilityModel:
    """The rhd-language counterpart of ``generate_gl``.

    With no family given, worlds and atoms must fit the representative-set
    envelope, which then makes rhd evaluation exact; a caller-supplied
    family works at any size but marks the model family-bounded.
    """
    _check_seed(seed, RHD)
    family_bounded = e_family is not None
    if e_family is None:
        n = len(seed.worlds)
        names = sorted({a for (_, a) in seed.valuation}
                       | {a for th in seed.theories.values()
                          for ax in th.axioms for a in fm.atoms(ax)})
        try:
            rep = representatives_ilm(n, names)
        except EnvelopeError as exc:
            raise GenerationError(
                f"{exc}; pass e_family explicitly for larger models") from exc
        e_family = rep.members
    e_family = tuple(sorted(set(e_family), key=fm.sort_key))
    if not e_family:
        raise GenerationError("e_family must be nonempty")
    return _generate(seed, RHD, e_family, family_bounded)


# ---------------------------------------------------------------------------
# l-isomorphism over a family

def is_l_isomorphic(m1, m2, family) -> bool:
    """Same frame and valuation, and derivability agrees at every
    accessible world across the family."""
    p1, p2 = _pre(m1), _pre(m2)
    if p1.worlds != p2.worlds or p1.edges != p2.edges \
            or p1.valuation != p2.valuation:
        raise PreModelError("l-isomorphism needs identical frame and valuation")
    for w in sorted(p1.theories, key=str):
        t1, t2 = p1.theory(w), p2.theory(w)
        for f in family:
            if t1.derives(f) != t2.derives(f):
                return False
    return True


def l_isomorphism_witness(m1, m2, family):
    p1, p2 = _pre(m1), _pre(m2)
    for w in sorted(p1.theories, key=str):
        for f in family:
            if p1.theory(w).derives(f) != p2.theory(w).derives(f):
                return (w, f)
    return None


# ---------------------------------------------------------------------------
# axiom soundness suites

def box_instance_pool(atom_names, depth: int) -> list[Formula]:
    pool = [FALSUM, top()]
    names = sorted(atom_names)
    for a in names:
        pool.append(fm.atom(a))
        pool.append(fm.neg(fm.atom(a)))
    if depth >= 1:
        for a in names:
            pool.append(fm.box(fm.atom(a)))
            pool.append(fm.diamond(fm.atom(a)))
        pool.append(fm.box(FALSUM))
    if depth >= 2:
        for a in names:
            pool.append(fm.box(fm.box(fm.atom(a))))
    return pool


def box_axiom_instances(logic: str, atom_names, depth: int = 2):
    """Scheme instances for the box logics, with the box of each instance
    (the rule-free axiomatizations carry those explicitly)."""
    pool = box_instance_pool(atom_names, depth)
    out = []
    for a in pool:
        for b in pool:
            out.append(("k", imp(fm.box(imp(a, b)),
                                 imp(fm.box(a), fm.box(b)))))
    if logic in ("k4", "s4", "gl"):
        for a in pool:
            out.append(("four", imp(fm.box(a), fm.box(fm.box(a)))))
    if logic == "s4":
        for a in pool:
            out.append(("t", imp(fm.box(a), a)))
    if logic == "gl":
        for a in pool:
            out.append(("loeb", imp(fm.box(imp(fm.box(a), a)), fm.box(a))))
    out.extend((name + "_boxed", fm.box(f)) for (name, f) in list(out))
    return out


def rhd_instance_pool(atom_names) -> list[Formula]:
    """Depth-bounded instantiation arguments for the rhd schemes."""
    pool = [top()]
    names = sorted(atom_names)
    for a in names:
        pool.append(fm.atom(a))
    if names:
        pool.append(fm.neg(fm.atom(names[0])))
    return pool


def ilm_axiom_instances(atom_names, pool=None):
    """The five rhd schemes and the box of each, instantiated over the
    pool (boolean arguments over the atoms)."""
    if pool is None:
        pool = rhd_instance_pool(atom_names)
    out = []
    for a in pool:
        for b in pool:
            out.append(("j1", imp(fm.rbox(imp(a, b)), fm.rhd(a, b))))
            for c in pool:
                out.append(("j2", imp(fm.land(fm.rhd(a, b), fm.rhd(b, c)),
                                      fm.rhd(a, c))))
                out.append(("j3", imp(fm.land(fm.rhd(a, c), fm.rhd(b, c)),
                                      fm.rhd(fm.lor(a, b), c))))
                out.append(("montagna",
                            imp(fm.rhd(a, b),
                                fm.rhd(fm.land(fm.rbox(c), a),
                                       fm.land(fm.rbox(c), b)))))
        out.append(("j4", fm.rhd(fm.rdiamond(a), a)))
    out.extend((name + "_boxed", fm.rbox(f)) for (name, f) in list(out))
    return out


def soundness_suite(model, logic: str, atom_names, depth: int = 2,
                    e_family=None):
    """Force every axiom instance of the logic at every world of the
    provability model; returns the failures as (scheme, formula, world)."""
    P = _pre(model)
    failures = []
    if logic == "ilm":
        instances = ilm_axiom_instances(atom_names)
        for (name, f) in instances:
            for w in sorted(P.worlds, key=str):
                if not pm_forces_rhd(model, w, f, e_family):
                    failures.append((name, f, w))
        return failures
    instances = box_axiom_instances(logic, atom_names, depth)
    for (name, f) in instances:
        for w in sorted(P.worlds, key=str):
            if not pm_forces(P, w, f):
                failures.append((name, f, w))
    return failures


@dataclass
class PipelineResult:
    formula: Formula
    n: int
    kripke: object                # refuting Kripke or Veltman model
    designated: object            # refuting world (or path) in the output
    seed: PreModel
    model: ProvabilityModel
    representatives: object = None
    lifted: ProvabilityModel | None = None
    family_bounded: bool = False


_PIPELINE_N_CAP = 6


def countermodel_pipeline_gl(f: Formula) -> PipelineResult:
    """Finitary refutation: find the least bounded-falsum level the formula
    escapes, refute it on a tree Kripke model, seed each world with the
    boxed-dotted true representatives, generate, and verify."""
    base = decide_gl(f)
    if base.is_theorem:
        raise PipelineError(f"{to_text(f)} is a theorem")
    n = None
    verdict = None
    for k in range(1, _PIPELINE_N_CAP + 1):
        verdict = decide_gl(imp(boxes(FALSUM, k), f))
        if verdict.status == NON_THEOREM:
            n = k
            break
    if n is None:
        raise PipelineError("no bounded-falsum refutation within the cap")
    kripke: KripkeModel = verdict.countermodel
    w0 = verdict.world
    rep = representatives_gl(n, sorted(fm.atoms(f)))
    memo: dict = {}
    theories = {}
    for w in kripke.accessible_worlds():
        axioms = tuple(b for b in rep.members
                       if forces(kripke, w, boxdot(b), _memo=memo))
        theories[w] = finite_axioms_mp(axioms)
    seed = PreModel(kripke.worlds, kripke.edges, kripke.valuation,
                    theories, BOX)
    generated = generate_gl(seed)
    if pm_forces(generated, w0, f):
        raise PipelineError("generated model failed to refute the formula")
    lifted = lift_kripke(kripke, transitive=True)
    return PipelineResult(formula=f, n=n, kripke=kripke, designated=w0,
                          seed=seed, model=generated, representatives=rep,
                          lifted=lifted)


def _literal_clause_family(atom_names) -> list[Formula]:
    """All disjunctions of literals over the atoms (each atom positive,
    negative or absent), plus the constants."""
    out = [FALSUM, top()]
    names = sorted(atom_names)
    choices = [(None, fm.atom(a), fm.neg(fm.atom(a))) for a in names]
    for combo in itertools.product(*((0, 1, 2) for _ in names)):
        lits = [choices[i][c] for i, c in enumerate(combo) if c]
        if lits:
            out.append(fm.disj(lits))
    return out


def pipeline_family_rhd(atom_names, n: int) -> tuple[Formula, ...]:
    """Fallback witness family for rhd pipelines outside the representative
    envelope: literal clauses and the bounded-falsum boxes."""
    members = _literal_clause_family(atom_names)
    members.extend(boxes(FALSUM, k, RHD) for k in range(1, n + 1))
    return tuple(sorted(set(members), key=fm.sort_key))


def countermodel_pipeline_ilm(f: Formula, size_bound: int = 3) -> PipelineResult:
    """Finitary rhd refutation: bounded countermodel search, unravelling,
    seeding from preorder-stable truths, generation, verification."""
    if f.lang not in (None, RHD):
        raise PipelineError("the rhd pipeline takes rhd-language formulas")
    n = None
    verdict = None
    for k in range(1, _PIPELINE_N_CAP + 1):
        verdict = decide_ilm(imp(boxes(FALSUM, k, RHD), f),
                             size_bound=size_bound, max_height=k)
        if verdict.status == NON_THEOREM:
            n = k
            break
    if n is None:
        raise PipelineError(
            f"no countermodel within {size_bound} worlds; cannot refute")
    veltman: VeltmanModel = verdict.countermodel
    w0 = verdict.world

    # restrict to the refuting world's cone so the height bound is global
    cone = {w0} | set(veltman.descendants(w0))
    veltman = VeltmanModel(
        cone,
        [(a, b) for (a, b) in veltman.edges if a in cone and b in cone],
        {w: [(x, y) for (x, y) in veltman.preorders[w]] for w in cone},
        [(w, a) for (w, a) in veltman.valuation if w in cone],
    )
    unravelled = unravel(veltman)
    sigma0 = (w0,)

    names = sorted(fm.atoms(f))
    family_bounded = True
    try:
        rep = representatives_ilm(n, names)
        family = rep.members
        family_bounded = False
    except EnvelopeError:
        rep = None
        family = pipeline_family_rhd(names, n)

    theories = {}
    for sigma in unravelled.accessible_worlds():
        # b holds at every path preorder-above sigma
        up = unravelled._above[sigma]
        stable = tuple(
            b for b in family
            if evaluate_mask(unravelled, b, _sibling_rhd) & up == up)
        theories[sigma] = finite_axioms_mp(stable, language=RHD)
    seed = PreModel(unravelled.worlds, unravelled.edges,
                    unravelled.valuation, theories, RHD)
    generated = generate_ilm(seed, e_family=family)
    generated.family_bounded = family_bounded
    if pm_forces_rhd(generated, sigma0, f):
        raise PipelineError("generated model failed to refute the formula")
    return PipelineResult(formula=f, n=n, kripke=veltman, designated=sigma0,
                          seed=seed, model=generated, representatives=rep,
                          family_bounded=family_bounded)
