"""Poly-modal provability models: indexed accessibility relations with one
theory per accessible world and level, plus the property checker and the
axiom-soundness harness for the poly-modal provability logic.

A poly model is a ``kripke.KripkeModel`` on its level-0 edges, and each
higher index adds one more Kripke model on the same worlds and valuation.
It is evaluated on world masks by ``kripke.evaluate_region``, with one box
clause, the module function ``_box``, serving every index: the model keeps
it as ``_clause``, and so one table of masks.
"""

from __future__ import annotations

from collections import namedtuple

from provmod.formulas import (
    FALSUM,
    OMEGA,
    Formula,
    atom,
    boxn,
    imp,
    is_purely_modal,
    neg,
    top,
)
from provmod.kripke import (
    KripkeModel,
    ModelError,
    _check_language,
    _check_query,
    evaluate_region,
)
from provmod.theories import TheoryOracle, classicality_violations


class PolyModelError(ModelError):
    pass


def _integer(value, field: str) -> int:
    """``value`` if it is an int; ``int`` would read 1.9 and true as 1 and
    the string "0" as 0."""
    if type(value) is not int:
        raise PolyModelError(f"{field} must be an integer, not {value!r}")
    return value


class PolyModel(KripkeModel):
    """Finite frame with accessibility relations indexed 0..max_index.

    The model is its level-0 frame and the first of ``levels``;
    ``levels[n]`` for n >= 1 is the level-n ``KripkeModel`` on the same
    worlds and valuation.  Theories are attached to every level-0-accessible
    world at every level; a higher-level edge to any other world would have
    no theory to consult, so it is rejected.  Equality is identity, as for
    pre-models: the higher levels and the theories are part of the model.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, worlds, edges, theories, valuation, max_index=None):
        by_level = {_integer(n, "edge level"): es for n, es in edges.items()}
        max_index = (max(by_level, default=0) if max_index is None
                     else _integer(max_index, "max_index"))
        if max_index < 0 or not all(0 <= n <= max_index for n in by_level):
            raise PolyModelError(f"edge levels {sorted(by_level)} must lie "
                                 f"in 0..{max_index}")
        super().__init__(worlds, by_level.get(0, ()), valuation)
        self.max_index = max_index
        self.levels = (self,) + tuple(
            KripkeModel(self.worlds, by_level.get(n, ()), self.valuation)
            for n in range(1, max_index + 1))

        accessible = self.accessible_worlds()
        for n, level in enumerate(self.levels):
            for (w, u) in level.edges:
                if u not in accessible:
                    raise PolyModelError(
                        f"level-{n} edge reaches {u!r}, which is not "
                        f"level-0 accessible and so carries no theory")

        flat: dict[tuple, TheoryOracle] = {}
        for w, per_level in theories.items():
            for n, oracle in per_level.items():
                flat[(w, _integer(n, f"theory level of {w!r}"))] = oracle
        expected = {(w, n) for w in accessible
                    for n in range(max_index + 1)}
        if set(flat) != expected:
            raise PolyModelError(
                f"theories must cover exactly the level-0 accessible worlds "
                f"at every level up to {max_index}")
        for (w, n), oracle in flat.items():
            if oracle.language != OMEGA:
                raise PolyModelError(f"theory at {(w, n)!r} speaks "
                                     f"{oracle.language}")
        self._theories = flat
        # per level and world bit: the level's theories of the world's
        # successors on that level
        self._succ_theories = tuple(
            tuple([tuple([flat[(u, n)] for u in level._succ[w]])
                   for w in self._order])
            for n, level in enumerate(self.levels))
        self._clause = _box

    def successors(self, w, n=0):
        return self.levels[n]._succ[w]

    def theory(self, w, n) -> TheoryOracle:
        try:
            return self._theories[(w, n)]
        except KeyError:
            raise PolyModelError(f"no theory at {(w, n)!r}") from None

    def __repr__(self):
        return (f"PolyModel({len(self.worlds)} worlds, "
                f"levels 0..{self.max_index})")


def _box(model: PolyModel, i: int, g) -> bool:
    """The box clause of a poly model: an index-n box holds at the world of
    bit i when the level-n theory of every level-n successor derives its
    argument."""
    if g.index > model.max_index:
        raise PolyModelError(
            f"box index {g.index} above max index {model.max_index}")
    sub = g.sub
    for th in model._succ_theories[g.index][i]:
        if not th.derives(sub):
            return False
    return True


def _truth(model: PolyModel, f: Formula, region: int) -> int:
    """The worlds of the region where ``f`` holds, as a mask."""
    return evaluate_region(model, f, region) & region


def glp_forces(model: PolyModel, world, f: Formula) -> bool:
    """Truth at a world; an index-n box asks the level-n theories of the
    level-n successors."""
    _check_query(model, world, f, OMEGA, PolyModelError)
    return bool(_truth(model, f, model._bit[world]))


def glp_forces_plus_0(model: PolyModel, world, f: Formula) -> bool:
    """Truth at the world and all its level-0 strict descendants."""
    _check_query(model, world, f, OMEGA, PolyModelError)
    region = model._bit[world] | model.descendant_mask(world)
    return _truth(model, f, region) == region


class GlpReport(namedtuple("GlpReport", "violations")):
    """The clause violations found, each a tuple led by the clause name."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok

    def by_clause(self, clause: str):
        return [v for v in self.violations if v[0] == clause]


def check_glp_model(model: PolyModel, family) -> GlpReport:
    """Check the poly-model clauses over a finite formula family.

    Clauses: oracle classicality, level-0 modal completeness on the purely
    modal members, per-level necessitation and diagonalized-rule closure,
    the ascending conditions on edges and theories, and completeness of the
    next level for refuted boxes.  Violations carry witnesses.
    """
    family = tuple(family)
    for f in family:
        _check_language(model, f, OMEGA, PolyModelError)
    out = []
    levels = range(model.max_index + 1)

    for (w, n) in sorted(model._theories, key=str):
        for violation in classicality_violations(model.theory(w, n)):
            out.append(("classical", w, n) + violation)

    # one mask per purely modal member, over the accessible worlds
    accessible = sorted(model.accessible_worlds(), key=str)
    members = [f for f in family if is_purely_modal(f)]
    region = sum([model._bit[w] for w in accessible])
    truth = [_truth(model, f, region) for f in members]
    for w in accessible:
        plus_0 = model._bit[w] | model.descendant_mask(w)
        for f, mask in zip(members, truth):
            if not plus_0 & ~mask and not model.theory(w, 0).derives(f):
                out.append(("modal_completeness", w, f))

    for (w, n) in sorted(model._theories, key=str):
        th = model.theory(w, n)
        for f in family:
            if th.derives(f) and not th.derives(boxn(n, f)):
                out.append(("poly_nec", w, n, f))
            if th.derives(imp(boxn(n, f), f)) and not th.derives(f):
                out.append(("poly_loeb", w, n, f))

    for n in levels[:-1]:
        low_edges = model.levels[n].edges
        for e in sorted(model.levels[n + 1].edges, key=str):
            if e not in low_edges:
                out.append(("ascending_edges", n + 1, e))
        for w in accessible:
            low, high = model.theory(w, n), model.theory(w, n + 1)
            for f in family:
                if low.derives(f) and not high.derives(f):
                    out.append(("ascending_theories", w, n, f))

    for n in levels[:-1]:
        refuted = [neg(boxn(n, f)) for f in family]
        truth = [_truth(model, g, model._full) for g in refuted]
        for (u, w) in sorted(model.levels[n + 1].edges, key=str):
            bit = model._bit[u]
            for f, g, mask in zip(family, refuted, truth):
                if mask & bit and not model.theory(w, n + 1).derives(g):
                    out.append(("pi_completeness", u, w, n, f))

    return GlpReport(tuple(out))


def _instance_pool(atom_names, depth: int, max_index: int):
    pool = [FALSUM, top()]
    for a in sorted(atom_names):
        pool.append(atom(a))
        pool.append(neg(atom(a)))
    if depth >= 1:
        base = [atom(a) for a in sorted(atom_names)] + [FALSUM]
        for n in range(max_index + 1):
            pool.extend(boxn(n, b) for b in base)
    return pool


def glp_axiom_instances(atom_names, depth: int, max_index: int):
    """All axiom-scheme instances over the pool, each paired with its
    scheme name; the zero-level box of every instance is included."""
    pool = _instance_pool(atom_names, depth, max_index)
    schemes = []
    for n in range(max_index + 1):
        for a in pool:
            schemes.append(("loeb", n,
                            imp(boxn(n, imp(boxn(n, a), a)), boxn(n, a))))
            schemes.append(("four", n, imp(boxn(n, a), boxn(n, boxn(n, a)))))
            for b in pool:
                schemes.append(("k", n, imp(boxn(n, imp(a, b)),
                                            imp(boxn(n, a), boxn(n, b)))))
    for n in range(max_index):
        for a in pool:
            schemes.append(("ascending", n, imp(boxn(n, a), boxn(n + 1, a))))
            schemes.append(("pi_completeness", n,
                            imp(neg(boxn(n, a)),
                                boxn(n + 1, neg(boxn(n, a))))))
    out = list(schemes)
    out.extend((name + "_boxed", n, boxn(0, f)) for (name, n, f) in schemes)
    return out


def glp_soundness_suite(model: PolyModel, atom_names, depth: int) -> GlpReport:
    """Force every axiom instance at every world; failures are reported
    with the scheme name, level, instance and world."""
    out = []
    for (name, n, f) in glp_axiom_instances(atom_names, depth,
                                            model.max_index):
        holds = _truth(model, f, model._full)
        out.extend((name, n, f, w) for i, w in enumerate(model._order)
                   if not holds >> i & 1)
    return GlpReport(tuple(out))
