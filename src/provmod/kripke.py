"""Finite Kripke and Veltman models: forcing, frame analysis, unravelling.

``KripkeModel`` is the one frame class: it alone validates a frame and
indexes its successors, predecessors and descendants.  Veltman models,
their unravellings, provability pre-models and poly models are Kripke
models with more structure on top (a poly model is its level-0 frame, with
one more Kripke model per higher level), so ``check_frame`` and ``plus``
take any of them as it is.

Every semantics in the package shares the boolean clauses and differs only
in its modal clause, so there are two evaluators, both on world masks: bit
i stands for the i-th world in ``str`` order.  A clause takes the model
first, and both evaluators keep one table per clause on the model.

- ``evaluate_mask`` decides a formula at every world of a Kripke model,
  Veltman model or unravelling at once, children first: each subformula
  gets one integer mask of the worlds where it holds.  It takes the
  clause from its caller: ``veltman_forces`` and ``veltman_forces_alt``
  read one model under two.  ``forces``, ``forces_plus`` and
  ``unravelled_forces`` read it too.  Its third target is ``_Lanes``, a
  Veltman model or unravelling under many valuations at once (bit
  ``i*V + v`` is world i under valuation v), built from the model's rhd
  table and read by the one lane clause ``_lane_rhd``.
- ``evaluate_region`` decides a formula on a region, a mask of requested
  worlds, for the models whose modal clause asks theories (pre-models and
  poly models in ``provability`` and ``glp``), by the one clause such a
  model keeps as ``_clause``.  The theories may recurse into the model, so
  per formula it keeps a known mask beside the value mask and computes
  only the unknown bits of the region: an implication's right side only
  where its left side holds, and a modal node world by world on the bits
  it is handed.  A one-bit region is the lazy walk of a single world; a
  whole-model region answers an axiom suite with one call per formula.

Plus-forcing is likewise one function, ``plus``, a test of a truth mask
against the descendant masks of a world's predecessors.

Worlds are arbitrary hashable ids (strings in documents).  Models are
immutable after construction.  A model keeps one mask table per modal
clause, its descendant sets and masks, and its frame report once
``check_frame`` has run; all are filled on demand, and an answer once
written never changes (a region table only learns more bits), so
instances can be shared between threads: a lost update is only computed
again.  ``with_valuation`` derives a Kripke model, Veltman model or
unravelling on the same frame that shares the model's whole state.
"""

from __future__ import annotations

from collections import namedtuple

from provmod import formulas as fm
from provmod.formulas import Atom, Bot, Box, Formula, Imp


class ModelError(ValueError):
    """Structurally invalid model or query."""


class VeltmanFrameError(ModelError):
    """A frame clause failed; args carry the witness."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(f"{message}; witness {witness!r}")
        self.witness = witness


def _world_key(w) -> str:
    return str(w)


class KripkeModel:
    """Finite frame with a valuation.  ``edges`` is the accessibility
    relation; ``valuation`` is a set of (world, atom-name) pairs."""

    def __init__(self, worlds, edges, valuation):
        self.worlds = frozenset(worlds)
        if not self.worlds:
            raise ModelError("a model needs at least one world")
        self.edges = frozenset((w, u) for (w, u) in edges)
        succ = {w: [] for w in self.worlds}
        pred = {w: [] for w in self.worlds}
        for w, u in self.edges:
            if w not in succ or u not in succ:
                raise ModelError(f"edge {(w, u)!r} leaves the world set")
            succ[w].append(u)
            pred[u].append(w)
        self._succ = {w: tuple(sorted(us, key=_world_key))
                      for w, us in succ.items()}
        self._pred = {w: tuple(sorted(xs, key=_world_key))
                      for w, xs in pred.items()}
        self._descendants = None  # with their masks, once asked for
        self._desc_masks = None
        self._report = None  # the frame report, once ``check_frame`` ran
        # world masks: bit i stands for the i-th world in ``str`` order
        self._order = tuple(sorted(self.worlds, key=_world_key))
        bit = self._bit = {w: 1 << i for i, w in enumerate(self._order)}
        self._full = (1 << len(self._order)) - 1
        self._box_table = tuple([(bit[w], sum([bit[u] for u in self._succ[w]]))
                                 for w in self._order])
        self._set_valuation(valuation)

    def _set_valuation(self, valuation):
        """The valuation, its atom masks and an empty mask table: the only
        state that depends on more than the frame."""
        self.valuation = frozenset((w, a) for (w, a) in valuation)
        bit = self._bit
        atoms: dict = {}
        for w, a in self.valuation:
            b = bit.get(w)
            if b is None:
                raise ModelError(f"valuation entry {(w, a)!r} leaves the world set")
            atoms[a] = atoms.get(a, 0) | b
        self._atom_masks = atoms
        self._masks: dict = {}

    def with_valuation(self, valuation):
        """The model on this frame with another valuation.

        The new model shares the whole state of this one (frame tables,
        preorders, rhd table, and the descendants and frame report as far
        as they are computed); only its valuation, atom masks and mask
        tables are its own.  A valuation entry outside the world set raises
        ``ModelError``, and so do pre-models, provability models and poly
        models, whose theories depend on the valuation."""
        if type(self) not in (KripkeModel, VeltmanModel, UnravelledVeltman):
            raise ModelError(f"{type(self).__name__} keeps state that depends "
                             f"on its valuation; build it anew instead")
        new = object.__new__(type(self))
        # attribute by attribute, so the instance keeps its compact layout
        for name, value in self.__dict__.items():
            setattr(new, name, value)
        new._set_valuation(valuation)
        return new

    def successors(self, w):
        return self._succ[w]

    def predecessors(self, w):
        return self._pred[w]

    def true_atoms(self, w):
        return frozenset(a for (x, a) in self.valuation if x == w)

    def descendants(self, w):
        """Worlds reachable in one or more steps (strict)."""
        if self._descendants is None:
            self._index_descendants()
        return self._descendants[w]

    def descendant_mask(self, w) -> int:
        """The mask of ``descendants(w)``."""
        if self._desc_masks is None:
            self._index_descendants()
        return self._desc_masks[w]

    def _index_descendants(self):
        desc = {}
        for start in self.worlds:
            seen = set()
            stack = list(self._succ[start])
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(self._succ[u])
            desc[start] = frozenset(seen)
        bit = self._bit
        self._desc_masks = {w: sum([bit[u] for u in us])
                            for w, us in desc.items()}
        self._descendants = desc

    def accessible_worlds(self):
        """Worlds with at least one predecessor."""
        return frozenset(u for (_, u) in self.edges)

    def __eq__(self, other):
        # within one class only: another kind on the same frame carries
        # other structure, and equality must stay transitive
        return (type(other) is type(self)
                and self.worlds == other.worlds
                and self.edges == other.edges
                and self.valuation == other.valuation)

    def __hash__(self):
        return hash((self.worlds, self.edges, self.valuation))

    def __repr__(self):
        return (f"{type(self).__name__}({len(self.worlds)} worlds, "
                f"{len(self.edges)} edges)")


def evaluate_region(model, f: Formula, region: int) -> int:
    """Truth of ``f`` on a region of a model whose modal clause asks
    theories (pre-models and poly models), as a mask that is exact on the
    region's bits.

    The model's table for its own clause, ``model._clause``, maps each
    formula to its (known, value) masks, and every call on the model shares
    it; only the bits of the region that are not yet known are computed.
    Implication, atom and falsum nodes are walked with an explicit stack,
    so long boolean chains need no recursion; the right side of an
    implication is asked only for the bits where its left side holds.
    Atoms are read from ``model._atom_masks``.  A modal node gets its bits
    one world at a time, as ``modal(model, i, node)`` for the world of bit
    i, and each answer is written to the table at once: the clause may ask
    theories that evaluate the same node at other worlds, and no world is
    asked twice for one node.
    """
    modal = model._clause
    memo = model._masks.get(modal)
    if memo is None:
        memo = model._masks[modal] = {}
    get = memo.get
    entry = get(f)
    if entry is not None and not region & ~entry[0]:
        return entry[1]
    full = model._full
    atoms = model._atom_masks
    stack = [(f, region)]
    while stack:
        g, need = stack[-1]
        entry = get(g)
        if entry is not None:
            need &= ~entry[0]
        if not need:
            stack.pop()
            continue
        kind = type(g)
        if kind is Imp:
            left = get(g.left)
            if left is None or need & ~left[0]:
                stack.append((g.left, need))
                continue
            holds = need & left[1]
            val = need ^ holds
            if holds:
                right = get(g.right)
                if right is None or holds & ~right[0]:
                    stack.append((g.right, holds))
                    continue
                val |= holds & right[1]
            memo[g] = (need, val) if entry is None else \
                (entry[0] | need, entry[1] | val)
        elif kind is Atom:
            memo[g] = (full, atoms.get(g.name, 0))
        elif kind is Bot:
            memo[g] = (full, 0)
        else:
            while need:
                low = need & -need
                need ^= low
                entry = get(g)
                if entry is not None and entry[0] & low:
                    continue
                val = low if modal(model, low.bit_length() - 1, g) else 0
                entry = get(g)
                memo[g] = (low, val) if entry is None else \
                    (entry[0] | low, entry[1] | val)
        stack.pop()
    entry = get(f)
    return 0 if entry is None else entry[1]


def evaluate_mask(model, f: Formula, modal, memo: dict | None = None) -> int:
    """The worlds of a finite model where ``f`` holds, as a mask: bit i is
    set when ``f`` holds at ``model._order[i]``.

    The subformula DAG is walked children-first with an explicit stack, so
    long boolean chains need no recursion.  ``memo`` maps formulas to
    masks; without one, the model's own table for ``modal`` is used.  A box
    node goes to ``modal(model, sub)`` and an rhd node to
    ``modal(model, left, right)``, with the masks of its arguments.
    """
    if memo is None:
        memo = model._masks.get(modal)
        if memo is None:
            memo = model._masks[modal] = {}
    val = memo.get(f)
    if val is not None:
        return val
    get = memo.get
    full = model._full
    atoms = model._atom_masks
    stack = [f]
    while stack:
        g = stack[-1]
        kind = type(g)
        if kind is Atom:
            val = atoms.get(g.name, 0)
        elif kind is Bot:
            val = 0
        elif kind is Box:
            a = get(g.sub)
            if a is None:
                stack.append(g.sub)
                continue
            val = modal(model, a)
        else:
            a = get(g.left)
            if a is None:
                stack.append(g.left)
                continue
            b = get(g.right)
            if b is None:
                stack.append(g.right)
                continue
            val = (full ^ a) | b if kind is Imp else modal(model, a, b)
        memo[g] = val
        stack.pop()
    return val


def _box(model, sub: int) -> int:
    """Worlds all of whose successors lie in ``sub``."""
    out = 0
    miss = model._full ^ sub
    for bit, succ in model._box_table:
        if not succ & miss:
            out |= bit
    return out


def _rhd(model, left: int, right: int) -> int:
    """Worlds where every successor in ``left`` has a preorder-successor in
    ``right``."""
    out = 0
    for bit, edges in model._rhd_table:
        for v, up in edges:
            if v & left and not up & right:
                break
        else:
            out |= bit
    return out


def _sibling_rhd(model, left: int, right: int) -> int:
    """Worlds where every successor whose preorder-successors meet ``left``
    has a preorder-successor in ``right``."""
    out = 0
    for bit, edges in model._rhd_table:
        for _, up in edges:
            if up & left and not up & right:
                break
        else:
            out |= bit
    return out


def _indices(mask: int) -> list:
    """The indices of the bits set in ``mask``, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class _Lanes:
    """A Veltman model or unravelling under V valuations at once, for
    ``evaluate_mask``: bit ``i*V + v`` of a mask stands for the i-th world
    in ``str`` order under the v-th valuation, so lane v is the model of the
    v-th valuation and a world's truth under every valuation is one V-bit
    block.  The entries are read off the model's ``_rhd_table``: per
    successor, the worlds tested against ``left`` and the worlds
    preorder-above it.  A Veltman model tests the successor itself (as
    ``_rhd``), an unravelling its preorder-above set (as ``_sibling_rhd``),
    so ``_lane_rhd`` is both clauses."""

    def __init__(self, model, valuations):
        width = len(valuations)
        order = model._order
        index = {w: i for i, w in enumerate(order)}
        self.lane = (1 << width) - 1
        self._full = (1 << len(order) * width) - 1
        self.shifts = [i * width for i in range(len(order))]
        atoms: dict = {}
        for v, valuation in enumerate(valuations):
            for w, a in valuation:
                atoms[a] = atoms.get(a, 0) | 1 << index[w] * width + v
        self._atom_masks = atoms
        sibling = type(model) is UnravelledVeltman
        self.table = [
            (shift, [(_indices(up if sibling else v), _indices(up))
                     for v, up in edges])
            for shift, (_, edges) in zip(self.shifts, model._rhd_table)]

    def first(self, mask: int):
        """The lowest lane with a bit set in ``mask``, and the index of its
        lowest world there."""
        lane = self.lane
        lanes = 0
        for s in self.shifts:
            lanes |= mask >> s & lane
        v = (lanes & -lanes).bit_length() - 1
        i = next(i for i, s in enumerate(self.shifts) if mask >> s + v & 1)
        return v, i


def _lane_rhd(lanes: _Lanes, left: int, right: int) -> int:
    """The rhd clause of the lanes' model on every lane at once, one V-bit
    block per world."""
    lane = lanes.lane
    lb = [left >> s & lane for s in lanes.shifts]
    rb = [right >> s & lane for s in lanes.shifts]
    out = 0
    for shift, edges in lanes.table:
        block = lane
        for tested, above in edges:
            a = 0
            for j in tested:
                a |= lb[j]
            if a:
                up = 0
                for z in above:
                    up |= rb[z]
                block &= (lane ^ a) | up
        out |= block << shift
    return out


def plus(model, world, mask: int) -> bool:
    """Plus-forcing: ``mask`` covers every strict descendant of some
    predecessor of the world; false when the world has no predecessor."""
    return any(not model.descendant_mask(u) & ~mask
               for u in model.predecessors(world))


def _check_query(model, world, f: Formula, language: str,
                 error=ModelError) -> int:
    """The world's bit, once the world and the formula's language are
    checked."""
    bit = model._bit.get(world)
    if bit is None:
        raise error(f"unknown world {world!r}")
    if f.lang is not None and f.lang != language:
        _check_language(model, f, language, error)
    return bit


def _check_language(model, f: Formula, language: str, error=ModelError):
    if f.lang not in (None, language):
        raise error(f"{type(model).__name__} evaluation takes "
                    f"{language}-language formulas")


# the mask table of a clause that has not evaluated anything yet; never
# written
_NOTHING_KNOWN: dict = {}


def forces(model: KripkeModel, world, f: Formula) -> bool:
    """Truth at a world; boxes quantify over one-step successors."""
    bit = _check_query(model, world, f, fm.BOX)
    val = model._masks.get(_box, _NOTHING_KNOWN).get(f)
    if val is None:
        val = evaluate_mask(model, f, _box)
    return bool(val & bit)


def forces_plus(model: KripkeModel, world, f: Formula) -> bool:
    """Truth at all strict descendants of some predecessor of the world.
    False whenever the world has no predecessor."""
    _check_query(model, world, f, fm.BOX)
    return plus(model, world, evaluate_mask(model, f, _box))


# ---------------------------------------------------------------------------
# frame analysis

class PropertyCheck(namedtuple("PropertyCheck", "holds witness",
                                defaults=(None,))):
    """Whether a frame property holds; when it fails, a witness tuple."""

    __slots__ = ()

    def __bool__(self):
        return self.holds


class FrameReport(namedtuple("FrameReport", (
        "reflexive", "irreflexive", "transitive", "converse_well_founded",
        "tree", "forest"))):
    """One ``PropertyCheck`` per frame property."""

    __slots__ = ()


def _find_cycle(worlds, succ):
    """The first cycle ``(w, ..., w)`` met by a depth-first search from the
    worlds in order, or None.  The search keeps its path and one successor
    iterator per path world on explicit stacks, so a long chain needs no
    recursion."""
    color = {w: 0 for w in worlds}
    for start in sorted(worlds, key=_world_key):
        if color[start]:
            continue
        color[start] = 1
        path = [start]
        pending = [iter(succ[start])]
        while pending:
            for u in pending[-1]:
                if color[u] == 1:
                    return tuple(path[path.index(u):] + [u])
                if color[u] == 0:
                    color[u] = 1
                    path.append(u)
                    pending.append(iter(succ[u]))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return None


def check_frame(model) -> FrameReport:
    """Frame properties with witnesses, read off the model's own successor,
    predecessor and descendant tables.  In the finite case converse
    well-foundedness is exactly acyclicity.  Models are immutable, so the
    report is computed once per model and kept on it."""
    if model._report is not None:
        return model._report
    worlds = sorted(model.worlds, key=_world_key)
    edges, succ, desc = model.edges, model._succ, model.descendants

    refl_w = next((w for w in worlds if (w, w) not in edges), None)
    irr_w = next((w for w in worlds if (w, w) in edges), None)
    trans_w = next(((w, u, v) for w in worlds for u in succ[w]
                    for v in succ[u] if (w, v) not in edges), None)
    cycle = _find_cycle(worlds, succ)
    # two predecessors of one world must be comparable
    tree_w = next(((w, u, v) for v in worlds
                   for i, w in enumerate(model.predecessors(v))
                   for u in model.predecessors(v)[i + 1:]
                   if u not in desc(w) and w not in desc(u)), None)
    # a forest: no world has two predecessors
    forest_w = next(((v,) + model.predecessors(v)[:2] for v in worlds
                     if len(model.predecessors(v)) > 1), None)

    model._report = FrameReport(
        reflexive=PropertyCheck(refl_w is None,
                                None if refl_w is None else (refl_w,)),
        irreflexive=PropertyCheck(irr_w is None,
                                  None if irr_w is None else (irr_w,)),
        transitive=PropertyCheck(trans_w is None, trans_w),
        converse_well_founded=PropertyCheck(cycle is None, cycle),
        tree=PropertyCheck(tree_w is None, tree_w),
        forest=PropertyCheck(forest_w is None, forest_w),
    )
    return model._report


# ---------------------------------------------------------------------------
# Veltman models

class VeltmanModel(KripkeModel):
    """Frame with one preorder per world, over that world's successors.

    The frame clauses are checked eagerly and violations carry a witness.
    The accessibility relation must be converse well-founded (acyclic); the
    clauses themselves force it to be transitive.
    """

    def __init__(self, worlds, edges, preorders, valuation):
        super().__init__(worlds, edges, valuation)
        for w in preorders:
            if w not in self.worlds:
                raise VeltmanFrameError(f"preorder at unknown world {w!r}",
                                        (w,))
        pre = {}
        for w in self.worlds:
            pairs = frozenset(tuple(p) for p in preorders.get(w, ()))
            succ = set(self._succ[w])
            for (u, v) in pairs:
                if u not in succ or v not in succ:
                    raise VeltmanFrameError(
                        f"preorder at {w!r} leaves the successor set", (w, u, v))
            for u in succ:
                if (u, u) not in pairs:
                    raise VeltmanFrameError(
                        f"preorder at {w!r} is not reflexive", (w, u))
            for (a, b) in pairs:
                for (c, d) in pairs:
                    if b == c and (a, d) not in pairs:
                        raise VeltmanFrameError(
                            f"preorder at {w!r} is not transitive", (w, a, b, d))
            pre[w] = pairs
        self.preorders = pre

        cycle = _find_cycle(self.worlds, self._succ)
        if cycle is not None:
            raise VeltmanFrameError("accessibility is not converse well-founded",
                                    cycle)

        for w in self.worlds:
            for u in self._succ[w]:
                for v in self._succ[u]:
                    if (u, v) not in pre[w]:
                        raise VeltmanFrameError(
                            "two accessibility steps must land preorder-above",
                            (w, u, v))
        for w in self.worlds:
            for (u, v) in pre[w]:
                for z in self._succ[v]:
                    if (u, z) not in self.edges:
                        raise VeltmanFrameError(
                            "preorder-below a world must reach its successors",
                            (w, u, v, z))

        # per world: (its bit, ((successor bit, preorder-above mask), ...))
        bit = self._bit
        self._rhd_table = tuple([
            (bit[w], tuple([(bit[v], sum([bit[z] for (x, z) in pre[w]
                                          if x == v]))
                            for v in self._succ[w]]))
            for w in self._order])

    def __eq__(self, other):
        return super().__eq__(other) and self.preorders == other.preorders

    __hash__ = KripkeModel.__hash__


def veltman_forces(model: VeltmanModel, world, f: Formula, _memo=None) -> bool:
    """Truth at a world.  A rhd B holds when every successor satisfying A
    has a preorder-successor satisfying B."""
    bit = _check_query(model, world, f, fm.RHD)
    memo = model._masks.get(_rhd, _NOTHING_KNOWN) if _memo is None else _memo
    val = memo.get(f)
    if val is None:
        val = evaluate_mask(model, f, _rhd, _memo)
    return bool(val & bit)


def veltman_forces_alt(model: VeltmanModel, world, f: Formula) -> bool:
    """Symmetric variant of the rhd clause; agrees with ``veltman_forces``
    on valid Veltman models.  It keeps its own mask table on the model, so
    it re-checks ``veltman_forces`` independently."""
    bit = _check_query(model, world, f, fm.RHD)
    val = model._masks.get(_sibling_rhd, _NOTHING_KNOWN).get(f)
    if val is None:
        val = evaluate_mask(model, f, _sibling_rhd)
    return bool(val & bit)


# ---------------------------------------------------------------------------
# unravelling

class UnravelledVeltman(KripkeModel):
    """Tree of strictly ascending paths through a Veltman model.

    Worlds are tuples of original worlds; the per-world preorders collapse
    into a single sibling preorder.  A Kripke model, not a Veltman one: rhd
    evaluation is defined on it and matches the source model at path ends.
    """

    def __init__(self, source: VeltmanModel):
        worlds: list[tuple] = []
        stack = [(w,) for w in sorted(source.worlds, key=_world_key)]
        while stack:
            sigma = stack.pop()
            worlds.append(sigma)
            for u in source.successors(sigma[-1]):
                stack.append(sigma + (u,))
        super().__init__(
            worlds,
            ((sigma, sigma + (u,)) for sigma in worlds
             for u in source.successors(sigma[-1])),
            ((sigma, a) for sigma in worlds
             for a in source.true_atoms(sigma[-1])))
        pre = set()
        for eta in self.worlds:
            w = eta[-1]
            for (u, v) in source.preorders[w]:
                pre.add((eta + (u,), eta + (v,)))
        self.preorder = frozenset(pre)
        # per path: the mask of the paths preorder-above it as a sibling
        bit = self._bit
        above = dict.fromkeys(self._order, 0)
        for (s, t) in self.preorder:
            above[s] |= bit[t]
        self._above = above
        self._rhd_table = tuple(
            (bit[s], tuple((bit[t], above[t]) for t in self._succ[s]))
            for s in self._order)

    def __eq__(self, other):
        return super().__eq__(other) and self.preorder == other.preorder

    __hash__ = KripkeModel.__hash__


def unravel(model: VeltmanModel) -> UnravelledVeltman:
    """All ascending paths; finite because the source frame is converse
    well-founded (the constructor enforces that)."""
    return UnravelledVeltman(model)


def unravelled_forces(u_model: UnravelledVeltman, sigma, f: Formula,
                      _memo=None) -> bool:
    """rhd clause on the unravelling, with the preorder witness on both
    sides of the implication."""
    bit = _check_query(u_model, sigma, f, fm.RHD)
    memo = u_model._masks.get(_sibling_rhd, _NOTHING_KNOWN) if _memo is None \
        else _memo
    val = memo.get(f)
    if val is None:
        val = evaluate_mask(u_model, f, _sibling_rhd, _memo)
    return bool(val & bit)
