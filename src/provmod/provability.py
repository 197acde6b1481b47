"""Provability models: frames whose accessible worlds carry theories.

A provability model is a Kripke model whose modal clause asks a theory: a
boxed formula holds at a world when every successor's theory derives the
argument, and the binary modal operator of the interpretability language is
evaluated through diamond-consequence over a finite witness family.  Both
clauses, the module functions ``_pm_box`` and ``_pm_rhd``, run on
``kripke.evaluate_region``, which poly models use too: it evaluates a
formula on a mask of worlds, keeping per formula the worlds where its
truth is known in the model's one table for the clause, and hands a modal
node the worlds it is asked at.  A pre-model keeps the clause its language
takes as ``_clause``, where the evaluator reads it, and an rhd-language
pre-model also keeps its witness family; the implications the rhd clause
asks about are kept on the rhd node, so every model shares them.
``pm_forces`` asks one-bit regions of the model, and the axiom suites and
completeness checks ask one region per formula.  A pre-model
(``PreModel``) is a ``KripkeModel`` with a theory at each accessible
world, so frame checks and plus-forcing take it as it is; a
``ProvabilityModel`` is a pre-model that also carries the certificate for
its modal completeness, so every function here takes either kind as it is.

On top of evaluation this module builds the two central constructions:
lifting a Kripke model into an equivalent provability model, and generating
the minimum necessitation-closed provability model over a forest pre-model,
which is what makes the countermodel pipelines produce decidable models;
ILM generation takes its witness family from the caller.
A generated theory decides derivability by truth in the model it belongs
to: per top/bot assignment to the free atoms, the instantiated query must
hold wherever the instantiated seed axioms do, across the world's
plus-cone.  A query's instances are kept on its formula node, and on
every node below it that their walk reaches, so each node's instances are
built once, from its children's, whichever model asks.  Every theory
evaluates its parent's cone as one region of ``evaluate_region``, on the
table the model's own forcing uses, so evaluating a query is
region-evaluating its pre-interpolant without building it.
Generated models stay lazy: evaluation reaches only the worlds and
formulas a query needs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

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
    _box,
    _check_language,
    _check_query,
    _sibling_rhd,
    check_frame,
    evaluate_mask,
    evaluate_region,
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
    NO_COUNTERMODEL_UP_TO_BOUND,
    NON_THEOREM,
    THEOREM,
    DecisionError,
    EnvelopeError,
    _height,
    _refute,
    _veltman_frames,
    decide_gl,
    representatives_gl,
    representatives_ilm,
)


class PreModelError(ModelError):
    pass


class GenerationError(ModelError):
    pass


class PipelineError(ModelError):
    pass


class NoCountermodel(PipelineError):
    """No countermodel to give; ``status`` is the decide status."""

    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


class ProjectionError(ModelError):
    def __init__(self, message, witness):
        super().__init__(f"{message}; witness {witness!r}")
        self.witness = witness


class PreModel(KripkeModel):
    """Frame, valuation and one theory per accessible world; in the rhd
    language also the witness family ``e_family`` that its rhd clause
    evaluates over (a seed for generation needs none), with the diamond
    <>E of each member E built once, in ``e_family`` order, as
    ``_diamonds``.  What the clause of its language asks theories is kept
    on the formula nodes.

    Equality is identity: two pre-models on one frame with different
    theories are different models.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, worlds, edges, valuation, theories, language=BOX,
                 e_family=None):
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
        self.e_family = tuple(e_family) if e_family else None
        if self.e_family and language != RHD:
            raise PreModelError(
                f"a {language}-language pre-model has no witness family")
        if any(e.lang not in (None, RHD) for e in self.e_family or ()):
            raise PreModelError("witness family members must be rhd-language")
        # <>E for each member E, aligned with ``e_family``
        self._diamonds = (tuple(map(rdiamond, self.e_family))
                          if self.e_family else None)
        # per world bit: the theories of the world's successors
        self._succ_theories = tuple([tuple([self.theories[u]
                                            for u in self._succ[w]])
                                     for w in self._order])
        self._clause = _pm_rhd if language == RHD else _pm_box

    def kripke_part(self) -> KripkeModel:
        """The bare frame and valuation, without the theories."""
        return KripkeModel(self.worlds, self.edges, self.valuation)

    def theory(self, w) -> TheoryOracle:
        try:
            return self.theories[w]
        except KeyError:
            raise PreModelError(f"no theory at world {w!r}") from None

    def __repr__(self):
        return (f"{type(self).__name__}({len(self.worlds)} worlds, "
                f"{self.language}, {len(self.theories)} theories)")


class Certificate(namedtuple("Certificate", "kind family", defaults=((),))):
    """Why the modal-completeness property is believed to hold: a structural
    guarantee from the construction, or a finite family it was checked on.
    ``kind`` is "lifted", "generated" or "family_checked"."""

    __slots__ = ()


class ProvabilityModel(PreModel):
    """A pre-model that is modally complete: purely modal formulas
    plus-forced at an accessible world are derived there.  The certificate
    says why that is believed; ``family_bounded`` marks a witness family
    not known to cover the bounded-height representatives."""

    def __init__(self, worlds, edges, valuation, theories, language,
                 certificate: Certificate, e_family=None,
                 family_bounded=False):
        super().__init__(worlds, edges, valuation, theories, language,
                         e_family)
        self.certificate = certificate
        self.family_bounded = family_bounded

    @property
    def pre(self) -> PreModel:
        """The model itself: the benchmark in ``perfbench/`` still reads
        ``model.pre.theories``."""
        return self


# ---------------------------------------------------------------------------
# evaluation

def _pm_box(P: PreModel, i: int, g) -> bool:
    """The box clause of a pre-model: a box holds at the world of bit i
    when every successor's theory derives its argument."""
    sub = g.sub
    for th in P._succ_theories[i]:
        if not th.derives(sub):
            return False
    return True


def _pm_rhd(P: PreModel, i: int, g) -> bool:
    """The rhd clause of a pre-model: A rhd B holds at the world of bit i
    when, at every successor's theory and for every member E of the model's
    witness family, derivability of B -> <>E implies derivability of
    A -> <>E.  The diamonds <>E are kept on the model (``P._diamonds``) and
    the pair of implications on the rhd node (``g._sides``), so a pair is
    built once per node and member, whichever model asks."""
    family = P.e_family
    if not family:
        raise PreModelError("rhd evaluation needs a nonempty witness family")
    sides = g._sides
    if sides is None:
        sides = g._sides = {}
    for th in P._succ_theories[i]:
        for e, d in zip(family, P._diamonds):
            pair = sides.get(e)
            if pair is None:
                pair = sides[e] = (imp(g.right, d), imp(g.left, d))
            if th.derives(pair[0]) and not th.derives(pair[1]):
                return False
    return True


def pm_forces(model, world, f: Formula) -> bool:
    """Truth in a provability model, by the clause of its language: for an
    rhd-language model, the rhd clause over the model's witness family,
    exact beyond the family only when the family covers the bounded-height
    representatives (otherwise a generated model is ``family_bounded``)."""
    bit = _check_query(model, world, f, model.language, PreModelError)
    return bool(evaluate_region(model, f, bit) & bit)


# the benchmark in ``perfbench/`` imports and traces this name
pm_forces_rhd = pm_forces


def pm_forces_plus(model, world, f: Formula) -> bool:
    """Truth, by the model's own clause, at all strict descendants of some
    predecessor, each predecessor's cone evaluated as one region; false at
    worlds that are not accessible."""
    _check_query(model, world, f, model.language, PreModelError)
    for u in model.predecessors(world):
        cone = model.descendant_mask(u)
        if not cone & ~evaluate_region(model, f, cone):
            return True
    return False


def is_purely_modal_family_complete(model, family) -> list:
    """Modal-completeness spot check: purely modal family members that are
    plus-forced at an accessible world must be derivable there.  Each
    member is evaluated once, on every accessible world.  Returns the
    violations as (world, formula) pairs."""
    members = [f for f in family if fm.is_purely_modal(f)]
    if not members or not model.theories:
        return []
    for f in members:
        _check_language(model, f, model.language, PreModelError)
    region = sum([model._bit[w] for w in model.theories])
    truth = [evaluate_region(model, f, region) for f in members]
    out = []
    for w in sorted(model.theories, key=str):
        th = model.theory(w)
        for f, mask in zip(members, truth):
            if plus(model, w, mask) and not th.derives(f):
                out.append((w, f))
    return out


def certify_modal_completeness(pre: PreModel, family) -> ProvabilityModel:
    """Promote a pre-model to a provability model by checking the modal
    completeness property over a finite family (the constructions coming
    out of lifting and generation instead carry a provenance guarantee).
    The provability model keeps the pre-model's witness family."""
    family = tuple(family)
    violations = is_purely_modal_family_complete(pre, family)
    if violations:
        w, f = violations[0]
        raise PreModelError(
            f"modal completeness fails at {w!r} on {to_text(f)}")
    return ProvabilityModel(pre.worlds, pre.edges, pre.valuation,
                            pre.theories, pre.language,
                            Certificate(kind="family_checked", family=family),
                            e_family=pre.e_family)


def check_oracles_classical(model) -> list:
    """Classicality spot-check of every attached theory; returns witnesses."""
    out = []
    for w in sorted(model.theories, key=str):
        for violation in classicality_violations(model.theory(w)):
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
    theories = {w: kripke_world_theory(model, w, transitive=transitive)
                for w in model.accessible_worlds()}
    lifted = ProvabilityModel(model.worlds, model.edges, model.valuation,
                              theories, BOX, Certificate(kind="lifted"))
    if certify_family is not None:
        for f in certify_family:
            _check_language(model, f, BOX)
            differ = evaluate_mask(model, f, _box) ^ \
                evaluate_region(lifted, f, lifted._full)
            if differ:
                w = lifted._order[(differ & -differ).bit_length() - 1]
                raise PreModelError(
                    f"lift equivalence failed at {w!r} on {to_text(f)}")
    return lifted


# ---------------------------------------------------------------------------
# projecting a provability model back onto its frame

class ProjectionReport(namedtuple("ProjectionReport",
                                   "family equivalent mismatches")):
    """The closed family checked, and the (world, formula) pairs on which
    the model and its bare frame disagree."""

    __slots__ = ()


def project_and_check(model, family) -> tuple[KripkeModel, ProjectionReport]:
    """Strip the theories.  Requires transitivity, local soundness and
    local completeness (checked over the subformula closure of the given
    family); then verifies truth agrees with the bare Kripke model."""
    if model.language != BOX:
        raise PreModelError("projection is defined for box-language models")
    transitive = check_frame(model).transitive
    if not transitive:
        raise ProjectionError("frame is not transitive", transitive.witness)
    closed: dict[Formula, None] = {}
    for f in family:
        for g in fm.subformulas(f):
            closed.setdefault(g)
    closed_family = tuple(closed)
    for f in closed_family:
        _check_language(model, f, BOX, PreModelError)
    truth = [evaluate_region(model, f, model._full) for f in closed_family]
    for w in sorted(model.theories, key=str):
        th = model.theory(w)
        bit = model._bit[w]
        for f, mask in zip(closed_family, truth):
            if th.derives(f) and not mask & bit:
                raise ProjectionError("local soundness fails", (w, to_text(f)))
            if plus(model, w, mask) and not th.derives(f):
                raise ProjectionError("local completeness fails",
                                      (w, to_text(f)))
    kripke = model.kripke_part()
    differ = [mask ^ evaluate_mask(kripke, f, _box)
              for f, mask in zip(closed_family, truth)]
    mismatches = [(w, f) for w in model._order
                  for f, d in zip(closed_family, differ)
                  if d & model._bit[w]]
    return kripke, ProjectionReport(family=closed_family,
                                    equivalent=not mismatches,
                                    mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# generated models

class GeneratedTheory:
    """Decision state for one world u of a generated model.

    The theory derives f when the pre-interpolant of (phi -> f) is
    plus-forced at u, phi being the boxed-dotted conjunction of the seed
    axioms.  That pre-interpolant is the conjunction, over each top/bot
    assignment a to the free atoms of phi -> f, of phi[a] -> f[a]; so f is
    derived when, at every strict descendant of u's parent, f[a] holds
    wherever phi[a] does.  The instances of phi and of f are kept on their
    formula nodes (``formulas.instance_table``), each built once from the
    tables kept on its children, so a query that extends a formula already
    asked about costs one implication per instance of that formula, and
    both are evaluated by the clause of the model the theory is bound to,
    on the table the model's own forcing uses, so the language and the
    witness family are the model's.

    What does not depend on the query is kept on the theory: the parent's
    cone, and on the first query the mask of every phi[a] on the whole
    cone, in the order of phi's instance table.  Per set of the query's
    free atoms the theory keeps the (mask of phi[a], position of f[a])
    pairs in assignment order, and ``decide`` evaluates f[a] only where
    phi[a] holds on the worlds where every earlier phi[b] -> f[b] held.
    Evaluating the pre-interpolant's own region walk would ask phi[a] only
    on those worlds, but the set of derivability queries reached is the
    same: generation first asks every theory for each of its seed axioms
    (and then for top), and for those queries f[a] holds wherever phi[a]
    does, so the walk never narrows and evaluates every phi[a] on the
    whole cone before ``generate_gl`` or ``generate_ilm`` returns.  Only
    the order in which generation asks its queries differs.

    The seed is a forest, so the queries end: if u has d ancestors, its
    parent's cone holds worlds with at least d, whose successors, the only
    theories a modal node there asks, have at least d + 1.  A theory asks
    only deeper theories, so a chain of queries is no longer than a branch.
    """

    def __init__(self, world, phi: Formula):
        self.world = world
        self.phi = phi
        self.model = None  # the generated ProvabilityModel, once bound
        self._cone = None  # the parent's descendants, on the first query
        self._phi_masks = None  # phi[a] -> its mask on the cone
        # per set of the query's free atoms, the (mask of phi[a], index of
        # f[a]) pairs in assignment order
        self._pairs = {}

    def _assignment_pairs(self, names: tuple) -> list:
        """(phi[a], position of f[a] among f's instances) for each
        assignment a, in pre-interpolant order, when f's free atoms are
        ``names``."""
        phi_names, phi_inst = fm.instance_table(self.phi)
        union = sorted(set(phi_names) | set(names))

        def position(value, among):
            # top is 0 and the first name the highest bit, as in instances
            return sum(value[n] << i for i, n in enumerate(reversed(among)))

        pairs = []
        for bits in itertools.product((0, 1), repeat=len(union)):
            value = dict(zip(union, bits))
            pairs.append((phi_inst[position(value, phi_names)],
                          position(value, names)))
        return pairs

    def _mask_pairs(self, names: tuple) -> list:
        """``_assignment_pairs(names)`` with each phi[a] replaced by its
        mask on the parent's cone; the first call evaluates every phi[a]."""
        masks = self._phi_masks
        if masks is None:
            P = self.model
            (parent,) = P._pred[self.world]
            cone = self._cone = P.descendant_mask(parent)
            masks = self._phi_masks = {
                phi_a: evaluate_region(P, phi_a, cone)
                for phi_a in fm.instance_table(self.phi)[1]}
        return [(masks[phi_a], j)
                for phi_a, j in self._assignment_pairs(names)]

    def decide(self, f: Formula) -> bool:
        P = self.model
        if P is None:
            raise GenerationError("generated theory queried before binding")
        names, f_inst = fm.instance_table(f)
        pairs = self._pairs.get(names)
        if pairs is None:
            pairs = self._pairs[names] = self._mask_pairs(names)
        cone = left = self._cone
        for mask, j in pairs:
            holds = mask & left
            if holds:
                left &= ~holds | evaluate_region(P, f_inst[j], holds)
        return left == cone


def _check_seed(seed: PreModel, language: str):
    if seed.language != language:
        raise GenerationError(f"seed model must speak {language}")
    report = check_frame(seed)
    if not report.converse_well_founded:
        raise GenerationError(
            f"seed frame has a cycle: {report.converse_well_founded.witness}")
    # one parent per world gives the depth order ``GeneratedTheory`` needs
    if not report.forest:
        w, *preds = report.forest.witness
        raise GenerationError(
            f"seed frame is not a forest: {w!r} has the predecessors "
            f"{', '.join(map(repr, preds))}")
    for w, oracle in seed.theories.items():
        if oracle.provenance != "finite_axioms_mp":
            raise GenerationError(
                f"seed theory at {w!r} must be a finite axiom set "
                f"closed under modus ponens only")


def _phi(axioms, language) -> Formula:
    return boxdot(conj(sorted(axioms, key=fm.sort_key)), language)


def _generate(seed: PreModel, language: str, e_family, family_bounded):
    _check_seed(seed, language)
    if language == RHD:
        if not e_family:
            raise GenerationError("e_family must be nonempty")
        # the family's order sets the order of derivability queries
        e_family = tuple(sorted(set(e_family), key=fm.sort_key))
    oracles = {w: TheoryOracle(
        language=language,
        axioms=th.axioms,
        rules=frozenset({MP, NEC}),
        provenance="generated",
        decide=GeneratedTheory(w, _phi(th.axioms, language)).decide,
        label=f"gen[{w}]",
    ) for w, th in seed.theories.items()}
    generated = ProvabilityModel(seed.worlds, seed.edges, seed.valuation,
                                 oracles, language,
                                 Certificate(kind="generated"),
                                 e_family=e_family,
                                 family_bounded=family_bounded)
    # each oracle decides by its theory's bound method
    for oracle in oracles.values():
        oracle.decide.__self__.model = generated
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
    return generated


def generate_gl(seed: PreModel) -> ProvabilityModel:
    """Minimum necessitation-closed provability model over a forest
    pre-model (box language): no cycle, and at most one parent per world."""
    return _generate(seed, BOX, None, False)


def generate_ilm(seed: PreModel, e_family) -> ProvabilityModel:
    """The rhd-language counterpart of ``generate_gl``, over the nonempty
    witness family ``e_family``.  The model is family-bounded, since a
    given family is not known to cover the bounded-height representatives;
    ``countermodel_pipeline_ilm`` picks its own family and knows."""
    return _generate(seed, RHD, e_family, True)


# ---------------------------------------------------------------------------
# l-isomorphism over a family

def is_l_isomorphic(m1, m2, family) -> bool:
    """Same frame and valuation, and derivability agrees at every
    accessible world across the family."""
    if m1.worlds != m2.worlds or m1.edges != m2.edges \
            or m1.valuation != m2.valuation:
        raise PreModelError("l-isomorphism needs identical frame and valuation")
    return l_isomorphism_witness(m1, m2, family) is None


def l_isomorphism_witness(m1, m2, family):
    for w in sorted(m1.theories, key=str):
        for f in family:
            if m1.theory(w).derives(f) != m2.theory(w).derives(f):
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
    pool (boolean arguments over the atoms).  The scheme labelled ``j4`` is
    <>A |> A, which is J5 in de Jongh and Veltman's numbering; their J4,
    (A |> B) -> (<>A -> <>B), and L1-L3 are not instantiated."""
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


# the scheme instances of each (logic, sorted atoms, depth) the suite ran
_SUITE_INSTANCES: dict = {}


def soundness_suite(model, logic: str, atom_names, depth: int = 2):
    """Force every axiom instance of the logic at every world of the
    provability model; returns the failures as (scheme, formula, world).
    The logic must speak the model's language: rhd for ilm, box for the
    others.  Each argument triple's instances are built once and kept
    in the process-wide ``_SUITE_INSTANCES``.  They depend only on that
    triple, never on the model, so every caller may share them, and a
    table held by the caller would only make each caller build them
    again.  Keeping them costs no memory of their own: they are interned
    formulas, which the intern table keeps for the life of the process
    anyway, and the triples a process asks are few."""
    language = RHD if logic == "ilm" else BOX
    if model.language != language:
        raise PreModelError(f"the {logic} suite takes {language}-language "
                            f"models; this model speaks {model.language}")
    key = (logic, tuple(sorted(atom_names)), depth)
    instances = _SUITE_INSTANCES.get(key)
    if instances is None:
        instances = _SUITE_INSTANCES[key] = tuple(
            ilm_axiom_instances(key[1]) if logic == "ilm"
            else box_axiom_instances(logic, key[1], depth))
    failures = []
    full = model._full
    for (name, f) in instances:
        holds = evaluate_region(model, f, full)
        if holds != full:
            failures.extend((name, f, w) for i, w in enumerate(model._order)
                            if not holds >> i & 1)
    return failures


class PipelineResult(namedtuple("PipelineResult", (
        "formula", "n", "kripke", "designated", "seed", "model",
        "representatives", "lifted", "family_bounded"),
        defaults=(None, None, False))):
    """A checked countermodel: the level ``n``, the refuting Kripke or
    Veltman model ``kripke``, the refuting world (or path) ``designated``,
    the seed pre-model and the provability ``model`` generated over it,
    with the representative set and lifted model when the representatives
    seeded it."""

    __slots__ = ()


_PIPELINE_N_CAP = 6


def _seed_generate_verify(f, refuting, w0, modal, stable, family,
                          language, family_bounded):
    """Seed each accessible world w of the refuting model with the family
    members that hold on all of the mask ``stable[w]``, each member's truth
    taken once on the whole model under ``modal``; generate over the seed,
    and check that the generated model still refutes f at w0.  Returns the
    seed and the generated model."""
    truth = [evaluate_mask(refuting, b, modal) for b in family]
    theories = {w: finite_axioms_mp([b for b, mask in zip(family, truth)
                                     if not stable[w] & ~mask], language)
                for w in refuting.accessible_worlds()}
    seed = PreModel(refuting.worlds, refuting.edges, refuting.valuation,
                    theories, language)
    generated = _generate(seed, language,
                          family if language == RHD else None,
                          family_bounded)
    if pm_forces(generated, w0, f):
        raise PipelineError("generated model failed to refute the formula")
    return seed, generated


def countermodel_pipeline_gl(f: Formula) -> PipelineResult:
    """Finitary refutation: find the least bounded-falsum level the formula
    escapes, refute it on a tree Kripke model, seed each world with the
    boxed-dotted true representatives, generate, and verify."""
    if decide_gl(f).is_theorem:
        raise NoCountermodel(f"{to_text(f)} is a theorem", THEOREM)
    for n in range(1, _PIPELINE_N_CAP + 1):
        verdict = decide_gl(imp(boxes(FALSUM, n), f))
        if verdict.status == NON_THEOREM:
            break
    else:
        raise PipelineError("no bounded-falsum refutation within the cap")
    kripke: KripkeModel = verdict.countermodel
    rep = representatives_gl(n, sorted(fm.atoms(f)))
    # boxdot(b) holds at w when b holds at w and at its successors
    stable = {w: bit | succ
              for w, (bit, succ) in zip(kripke._order, kripke._box_table)}
    seed, generated = _seed_generate_verify(
        f, kripke, verdict.world, _box, stable, rep.members, BOX, False)
    return PipelineResult(formula=f, n=n, kripke=kripke,
                          designated=verdict.world, seed=seed,
                          model=generated, representatives=rep,
                          lifted=lift_kripke(kripke, transitive=True))


def pipeline_family_rhd(atom_names, n: int) -> tuple[Formula, ...]:
    """Fallback witness family for rhd pipelines outside the representative
    envelope: the constants, the disjunctions of literals over the atoms
    (each atom positive, negative or absent) and the bounded-falsum boxes."""
    members = {FALSUM, top()}
    members.update(boxes(FALSUM, k, RHD) for k in range(1, n + 1))
    choices = [(None, fm.atom(a), fm.neg(fm.atom(a)))
               for a in sorted(atom_names)]
    for combo in itertools.product((0, 1, 2), repeat=len(choices)):
        lits = [choices[i][c] for i, c in enumerate(combo) if c]
        if lits:
            members.add(fm.disj(lits))
    return tuple(sorted(members, key=fm.sort_key))


def countermodel_pipeline_ilm(f: Formula, size_bound: int = 3) -> PipelineResult:
    """Finitary rhd refutation: bounded countermodel search, unravelling,
    seeding from preorder-stable truths, generation, verification.  One
    walk over the frames finds the first countermodel of least height h in
    ``decide_ilm``'s order; ``boxes(FALSUM, h + 1)`` holds on it, so it
    refutes the bounded-falsum target of the level, h + 1."""
    if f.lang not in (None, RHD):
        raise PipelineError("the rhd pipeline takes rhd-language formulas")
    if size_bound < 1:
        raise DecisionError("size bound must be at least 1")
    names = sorted(fm.atoms(f))
    found, cap = None, _PIPELINE_N_CAP
    # a generator reads ``cap`` as each world count's walk starts
    frames = (pair for n in range(1, size_bound + 1)
              for pair in _veltman_frames(n, names, cap))
    for frame, valuations in frames:
        height = _height([succ for _, succ in frame._box_table])
        refuted = height < cap and _refute(frame, valuations, f)
        if refuted:
            found, cap = refuted, height
            if not cap:
                break
    if found is None:
        message = f"no countermodel within {size_bound} worlds; cannot refute"
        if size_bound > _PIPELINE_N_CAP:  # frames that tall were skipped
            raise PipelineError(message)
        raise NoCountermodel(message, NO_COUNTERMODEL_UP_TO_BOUND)
    (veltman, w0), n = found, cap + 1

    # the whole model is below height n; restricting it to the refuting
    # world's cone drops only the worlds outside that cone
    cone = {w0} | set(veltman.descendants(w0))
    veltman = VeltmanModel(
        cone, [(a, b) for (a, b) in veltman.edges if a in cone],
        {w: veltman.preorders[w] for w in cone},
        [(w, a) for (w, a) in veltman.valuation if w in cone])
    unravelled = unravel(veltman)

    try:
        rep = representatives_ilm(n, names)
    except EnvelopeError:
        rep = None
    family_bounded = rep is None
    family = pipeline_family_rhd(names, n) if rep is None else rep.members
    # b is seeded at a path when it holds at every path preorder-above it
    seed, generated = _seed_generate_verify(
        f, unravelled, (w0,), _sibling_rhd, unravelled._above, family, RHD,
        family_bounded)
    return PipelineResult(formula=f, n=n, kripke=veltman, designated=(w0,),
                          seed=seed, model=generated, representatives=rep,
                          family_bounded=family_bounded)
