"""Decision procedures: exact tableaux for K, K4, S4 and GL, bounded
countermodel search for the interpretability logic, and representative
sets for the locally tabular fragments.

Every non-theorem verdict carries a countermodel that has been re-checked
by the matching evaluator before it is returned.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple

from provmod import formulas as fm
from provmod.formulas import (
    BOX,
    FALSUM,
    RHD,
    Atom,
    Bot,
    Box,
    Formula,
    Imp,
    atom,
    box,
    boxes,
    conj,
    diamond,
    disj,
    imp,
    liff,
    neg,
)
from provmod.kripke import (
    KripkeModel,
    VeltmanModel,
    _Lanes,
    _indices,
    _lane_rhd,
    check_frame,
    evaluate_mask,
    forces,
    veltman_forces,
    veltman_forces_alt,
)

THEOREM = "theorem"
NON_THEOREM = "non_theorem"
NO_COUNTERMODEL_UP_TO_BOUND = "non_theorem_up_to_bound_unknown"

K_LOGIC = "k"
K4_LOGIC = "k4"
S4_LOGIC = "s4"
GL_LOGIC = "gl"
ILM_LOGIC = "ilm"

# per logic: the language of its formulas, the frame properties of its
# tableau countermodels and its box schemes; None for ilm, whose countermodels
# are Veltman models and whose schemes are ``ilm_axiom_instances``
Logic = namedtuple("Logic", "language frame schemes")
LOGICS = {
    K_LOGIC: Logic(BOX, (), ("k",)),
    K4_LOGIC: Logic(BOX, ("transitive",), ("k", "four")),
    S4_LOGIC: Logic(BOX, ("transitive", "reflexive"), ("k", "four", "t")),
    GL_LOGIC: Logic(BOX, ("transitive", "irreflexive",
                          "converse_well_founded"), ("k", "four", "loeb")),
    ILM_LOGIC: Logic(RHD, None, None),
}


class DecisionError(ValueError):
    pass


class EnvelopeError(DecisionError):
    """Requested parameters fall outside the supported envelope."""


class DecisionVerdict(namedtuple("DecisionVerdict",
                                  "status countermodel world",
                                  defaults=(None, None))):
    """A status; a non-theorem carries its countermodel and refuting
    world."""

    __slots__ = ()

    @property
    def is_theorem(self) -> bool:
        return self.status == THEOREM


# ---------------------------------------------------------------------------
# tableau satisfiability for the box language
#
# Branches are saturated down to literals over atoms and boxes; each
# negative box then demands a successor world.  What the successor has to
# carry depends on the logic:
#   k   content of the positive boxes
#   k4  contents and the boxes themselves
#   s4  the boxes (contents reappear through reflexivity)
#   gl  contents, boxes, and the refuted box itself as a new positive box
# k terminates by modal depth, gl because positive boxes grow strictly,
# k4/s4 by an equal-demand loop check (a repeat is satisfiable by bending
# the edge back, which the transitive frame permits).
#
# Saturation is lazy: branches are yielded one at a time, in a fixed order,
# and the search stops at the first one whose successors all succeed, so
# the branches after it are never built.  It also backjumps (Horrocks and
# Patel-Schneider, J. Logic Comput. 9(3), 1999): each pending formula and
# literal carries a bit mask of the implication splits it rests on, a failed
# branch blames the masks of the literals its failure rests on, and the
# splits above the highest blamed one are skipped, because every branch
# under them keeps those literals and fails the same way.
#
# One decision keeps one cache from demand sets to search results.  It
# holds every demand set found unsatisfiable, in all four logics, and for k
# and gl, whose search keeps no history, every result.  Why an
# unsatisfiable entry is safe is argued at ``_search``.


class _Node:
    __slots__ = ("demand", "literals", "children")

    def __init__(self, demand: frozenset, literals: dict):
        self.demand = demand
        self.literals = literals
        self.children = []  # (_Node | frozenset loop demand)


def _saturate(demand, logic: str):
    """Open saturated branches of a signed-formula set, as literal maps.

    Pending formulas are linked (formula, sign, mask, rest) cells, and
    ``masks`` keeps each literal's mask.  Bit j stands for the split at
    depth j of the choice stack, while its left branch is active.  At a
    positive implication the left branch goes on in place, and the stack
    keeps the pending list, a copy of the literals, the right formula and
    the implication's mask.  A clash blames the masks of its two literals,
    a true falsum its own.  For a yielded branch the caller may send back
    the literals its failure rests on; sending None blames every split, so
    plain iteration yields every branch, depth first, left before right.
    On a failure the splits outside the blame are popped, and the first
    one in it takes its right branch, whose formula rests on the
    implication and on the rest of the blame."""
    pending = None
    for f, sign in demand:
        pending = (f, sign, 0, pending)
    literals = {}
    masks = {}
    choices = []
    while True:
        while pending is not None:
            f, sign, d, pending = pending
            if isinstance(f, Imp):
                if sign:
                    k = 1 << len(choices)
                    choices.append((pending, dict(literals), f.right, d))
                    pending = (f.left, False, d | k, pending)
                else:
                    pending = (f.right, False, d, (f.left, True, d, pending))
                continue
            if isinstance(f, Bot):
                if sign:
                    blame = d
                    break
                continue
            got = literals.get(f)
            if got is None:
                literals[f] = sign
                masks[f] = d
                if sign and logic == S4_LOGIC and isinstance(f, Box):
                    pending = (f.sub, True, d, pending)
            elif got != sign:
                blame = d | masks[f]
                break
        else:
            failed = yield literals
            if failed is None:
                blame = -1
            else:
                blame = 0
                for f in failed:
                    blame |= masks[f]
        while choices:
            pending, literals, right, d = choices.pop()
            k = 1 << len(choices)
            if blame & k:
                pending = (right, True, d | blame & ~k, pending)
                break
        else:
            return


def _successor_demand(logic: str, beta: Formula, pos_boxes: list) -> frozenset:
    demand = {(beta, False)}
    for b in pos_boxes:
        if logic == K_LOGIC:
            demand.add((b.sub, True))
        elif logic == S4_LOGIC:
            demand.add((b, True))
        else:  # k4, gl
            demand.add((b.sub, True))
            demand.add((b, True))
    if logic == GL_LOGIC:
        demand.add((box(beta), True))
    return frozenset(demand)


def _search(logic: str, demand: frozenset, history: tuple,
            cache: dict | None = None) -> _Node | None:
    """A tableau for ``demand``, or None when it is unsatisfiable.

    A branch fails when the search for one of its successors fails, and
    that failure rests on the branch's negative box and its positive boxes.
    The search sends those literals back to ``_saturate``, which skips the
    later branches that keep them.  Such a branch has the same negative box
    and at least the same positive boxes, so in all four logics its
    successor demand contains the failed one, and it is unsatisfiable too.

    ``cache`` maps demand sets to results within one decision.  It keeps
    every None, and for k and gl, where the result depends on the demand
    alone, every result.  A None is safe to reuse under any history in k4
    and s4 too:
    - A longer history only turns failures into successes, since a loop
      check answers success where a search could have failed.  The
      search from an empty history is complete, so a satisfiable set
      succeeds under every history.  A failure under one history therefore
      means the set is unsatisfiable.
    - The search is an OR over branches of ANDs over successors.  A
      satisfiable set succeeds through the branch a model picks, whose
      successor demands are all satisfiable, so never cached as failures;
      nor is that branch skipped, since every skipped branch is
      unsatisfiable.  Failing an unsatisfiable set early can turn no
      satisfiable root into a failure, and every success is still a
      tableau that ``_materialize`` turns into a model and the caller
      checks."""
    if cache is None:
        cache = {}
    if demand in cache:
        return cache[demand]
    found = None
    branches = _saturate(demand, logic)
    try:
        literals = next(branches)
        while True:
            negs, pos = [], []
            for f, s in literals.items():
                if isinstance(f, Box):
                    (pos if s else negs).append(f)
            negs.sort(key=fm.sort_key)
            pos.sort(key=fm.sort_key)
            node = _Node(demand=demand, literals=literals)
            for nb in negs:
                child_demand = _successor_demand(logic, nb.sub, pos)
                if logic in (K4_LOGIC, S4_LOGIC) and child_demand in history:
                    node.children.append(child_demand)
                    continue
                child = _search(logic, child_demand,
                                history + (child_demand,), cache)
                if child is None:
                    break
                node.children.append(child)
            else:
                found = node
                break
            literals = branches.send([nb, *pos])
    except StopIteration:
        pass
    if found is None or logic in (K_LOGIC, GL_LOGIC):
        cache[demand] = found
    return found


def _materialize(logic: str, root: _Node):
    """The countermodel a tableau describes, and its root world.

    World i is the i-th node in preorder, named ``wi``, with the atoms its
    branch makes true.  It sees its children, and a loop demand sees the
    nearest ancestor with that demand.  K4, S4 and GL close that frame
    transitively, and S4 reflexively too.  Every raw edge either goes down
    the tree or back to an ancestor, so the closure is two passes over the
    successor masks: children before parents gather each world's subtree
    and the ancestors it loops back to, then parents before children add
    what those ancestors reach."""
    kids: list[list[int]] = []
    valuation: list[tuple[str, str]] = []
    path: dict = {}  # demand -> its nearest node on the current branch

    def build(node: _Node) -> int:
        i = len(kids)
        out = []
        kids.append(out)
        for f, s in node.literals.items():
            if s and isinstance(f, Atom):
                valuation.append((f"w{i}", f.name))
        outer = path.get(node.demand)
        path[node.demand] = i
        for child in node.children:
            out.append(path[child] if isinstance(child, frozenset)
                       else build(child))
        path[node.demand] = outer
        return i

    build(root)
    n = len(kids)
    worlds = [f"w{i}" for i in range(n)]
    if logic == K_LOGIC:
        edges = [(worlds[i], worlds[j]) for i in range(n) for j in kids[i]]
        return KripkeModel(worlds, edges, valuation), worlds[0]
    reach = [0] * n
    for i in reversed(range(n)):
        for j in kids[i]:
            reach[i] |= 1 << j | (reach[j] if j > i else 0)
    for i in range(n):
        # the bits below i are ancestors, whose reach is already closed
        for a in _indices(reach[i] & ((1 << i) - 1)):
            reach[i] |= reach[a]
        if logic == S4_LOGIC:
            reach[i] |= 1 << i
    edges = [(worlds[i], worlds[j]) for i in range(n)
             for j in _indices(reach[i])]
    return KripkeModel(worlds, edges, valuation), worlds[0]


def _decide_box_logic(logic: str, f: Formula) -> DecisionVerdict:
    if f.lang not in (None, BOX):
        raise DecisionError(f"{logic} decides box-language formulas only")
    # the search and the model it builds recurse once per world on a
    # branch, so the interpreter's recursion limit bounds the modal depth
    try:
        root = _search(logic, frozenset({(f, False)}), (), {})
        if root is None:
            return DecisionVerdict(status=THEOREM)
        model, world = _materialize(logic, root)
    except RecursionError:
        raise EnvelopeError(
            f"the {logic} tableau nests deeper than the recursion limit of "
            f"{sys.getrecursionlimit()} allows") from None
    report = check_frame(model)
    for prop in LOGICS[logic].frame:
        if not getattr(report, prop):
            raise DecisionError(
                f"internal error: countermodel violates {prop} for {logic}")
    if forces(model, world, f):
        raise DecisionError("internal error: countermodel failed verification")
    return DecisionVerdict(status=NON_THEOREM, countermodel=model, world=world)


def decide_k(f: Formula) -> DecisionVerdict:
    return _decide_box_logic(K_LOGIC, f)


def decide_k4(f: Formula) -> DecisionVerdict:
    return _decide_box_logic(K4_LOGIC, f)


def decide_s4(f: Formula) -> DecisionVerdict:
    return _decide_box_logic(S4_LOGIC, f)


def decide_gl(f: Formula) -> DecisionVerdict:
    return _decide_box_logic(GL_LOGIC, f)


_DECIDERS = {
    K_LOGIC: decide_k,
    K4_LOGIC: decide_k4,
    S4_LOGIC: decide_s4,
    GL_LOGIC: decide_gl,
}


def decide(logic: str, f: Formula, bound: int = 3) -> DecisionVerdict:
    if logic in _DECIDERS:
        return _DECIDERS[logic](f)
    if logic == ILM_LOGIC:
        return decide_ilm(f, bound)
    raise DecisionError(f"unknown logic {logic!r}")


def gl_consequence(gamma, f: Formula) -> bool:
    """Consequence from a finite premise set, by classical deduction."""
    premises = conj(sorted(gamma, key=fm.sort_key))
    return decide_gl(imp(premises, f)).is_theorem


class FinfalsReport(namedtuple("FinfalsReport",
                                "base per_k agrees least_failing_k")):
    """How theoremhood interacts with the bounded-falsum prefixes: the
    verdict on f itself, and ``per_k[k-1]``, whether box^k bot -> f is a
    theorem."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        if self.base.is_theorem:
            return self.agrees
        return self.least_failing_k is not None

    def __bool__(self) -> bool:
        return self.ok


def finfals_check(f: Formula, kmax: int) -> FinfalsReport:
    if kmax < 1:
        raise DecisionError("kmax must be at least 1")
    base = decide_gl(f)
    per_k = []
    least = None
    for k in range(1, kmax + 1):
        verdict = decide_gl(imp(boxes(FALSUM, k), f))
        per_k.append(verdict.is_theorem)
        if not verdict.is_theorem and least is None:
            least = k
    agrees = all(per_k) if base.is_theorem else True
    return FinfalsReport(base=base, per_k=tuple(per_k), agrees=agrees,
                         least_failing_k=least)


# ---------------------------------------------------------------------------
# bounded countermodel search for the interpretability logic

def _strict_posets(n: int) -> list:
    """All strict partial orders on range(n), as sets of pairs, ordered by
    their indicator vectors over the pairs (i, j), i != j, in row-major
    order, absent before present.

    Each order on n elements is an order on the first n - 1 extended by
    element n - 1, with a down-closed set below it and an up-closed set
    above it, every element below lying below every element above."""
    if n <= 1:
        return [set()]
    last = n - 1
    subsets = [frozenset(c) for k in range(n)
               for c in itertools.combinations(range(last), k)]
    out = []
    for rel in _strict_posets(last):
        downs = [s for s in subsets if all(a in s for (a, b) in rel if b in s)]
        ups = [s for s in subsets if all(b in s for (a, b) in rel if a in s)]
        for below in downs:
            for above in ups:
                if all((a, b) in rel for a in below for b in above):
                    out.append(rel | {(a, last) for a in below}
                               | {(last, b) for b in above})
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out.sort(key=lambda rel: [p in rel for p in pairs])
    return out


def _preorder_options(rel: set, n: int, w: int):
    succ = sorted(j for j in range(n) if (w, j) in rel)
    base = {(u, u) for u in succ}
    base |= {(u, v) for u in succ for v in succ if (u, v) in rel}
    extras = [(u, v) for u in succ for v in succ
              if u != v and (u, v) not in base]
    for bits in itertools.product((False, True), repeat=len(extras)):
        cand = base | {e for e, b in zip(extras, bits) if b}
        if any((a, b) in cand and (b, c) in cand and (a, c) not in cand
               for (a, b) in cand for (b2, c) in cand if b == b2):
            continue
        # below a world, all of its successors must stay reachable
        if any((v, z) in rel and (u, z) not in rel
               for (u, v) in cand for z in range(n) if (v, z) in rel):
            continue
        yield frozenset(cand)


def _height(succ) -> int:
    """The height of a finite strict order, given as one successor mask per
    element: how often its maximal elements can be peeled off, less one."""
    left, height = (1 << len(succ)) - 1, -1
    while left:
        left &= ~sum([1 << i for i, s in enumerate(succ) if not s & left])
        height += 1
    return height


def _minimizers(perms, code):
    """The least ``code(pi)`` over ``perms``, and the permutations reaching it."""
    codes = [code(pi) for pi in perms]
    least = min(codes)
    return least, [pi for pi, c in zip(perms, codes) if c == least]


def _veltman_frames(n: int, atom_names, max_height: int | None = None):
    """The valid Veltman frames on n worlds, one per isomorphism class, each
    with its valuations over the given atoms, one per isomorphism class of
    models on it: pairs ``(frame, valuations)``, the frame a
    ``VeltmanModel`` with the empty valuation and each valuation a list of
    (world, atom) pairs.  ``max_height``, which only the ILM pipeline sets,
    skips the frames of that height or more.

    A model's canonical code is the lexicographic least, over all n!
    relabellings pi, of the triple (frame code, preorder code, valuation
    code), each the sorted image of that part under pi.  A lexicographic
    minimum is reached only by the relabellings that minimize the first
    part, and among those only by the ones that minimize the second.  So the
    frame code is minimized once per strict poset over all n! relabellings,
    and the preorder code once per preorder combination over the frame's
    minimizers.  A labelled frame whose codes were already seen is an
    isomorphic copy of an earlier one, so every valuation on it has the
    code of a model already given: a poset is skipped on its frame code,
    before its preorders are listed, and a combination on its preorder
    code.  On a new frame the remaining minimizers are one relabelling
    followed by the frame's automorphisms.  Without automorphisms every
    valuation is a model of its own; with them, a valuation is kept when
    its code, minimized over the remaining relabellings, is new for the
    frame.
    """
    atom_names = sorted(atom_names)
    worlds = [f"v{i}" for i in range(n)]
    perms = list(itertools.permutations(range(n)))
    cells = [(i, a) for i in range(n) for a in atom_names]
    chosen = [[cell for cell, b in zip(cells, bits) if b]
              for bits in itertools.product((False, True), repeat=len(cells))]
    every = [[(worlds[i], a) for (i, a) in val] for val in chosen]
    frames = set()
    for rel in _strict_posets(n):
        if max_height is not None and max_height <= _height(
                [sum([1 << j for (i, j) in rel if i == w]) for w in range(n)]):
            continue
        frame_code, frame_perms = _minimizers(
            perms, lambda pi: tuple(sorted((pi[a], pi[b]) for (a, b) in rel)))
        if frame_code in frames:
            continue
        frames.add(frame_code)
        seen = set()
        options = [list(_preorder_options(rel, n, w)) for w in range(n)]
        for combo in itertools.product(*options):
            preorder_code, preorder_perms = _minimizers(
                frame_perms,
                lambda pi: tuple(sorted(
                    (pi[w], tuple(sorted((pi[x], pi[y])
                                         for (x, y) in combo[w])))
                    for w in range(n))))
            if preorder_code in seen:
                continue
            seen.add(preorder_code)
            frame = VeltmanModel(
                worlds,
                [(worlds[a], worlds[b]) for (a, b) in rel],
                {worlds[w]: [(worlds[x], worlds[y]) for (x, y) in combo[w]]
                 for w in range(n)},
                ())
            if len(preorder_perms) == 1:
                yield frame, every
                continue
            codes = set()
            valuations = []
            for val, named in zip(chosen, every):
                code = min(tuple(sorted((pi[i], a) for (i, a) in val))
                           for pi in preorder_perms)
                if code not in codes:
                    codes.add(code)
                    valuations.append(named)
            yield frame, valuations


def enumerate_veltman_models(n: int, atom_names):
    """All valid Veltman models on n worlds over the given atoms, one per
    isomorphism class (the representative a minimum over all n! full
    triples gives), in the order of the labelled candidates they stand for:
    each frame of ``_veltman_frames`` under each of its valuations, sharing
    the frame's tables (``KripkeModel.with_valuation``)."""
    for frame, valuations in _veltman_frames(n, atom_names):
        for valuation in valuations:
            yield frame.with_valuation(valuation)


def _refute(frame, valuations, f: Formula):
    """The frame's first countermodel to f under the valuations and its
    first failing world, or None; only that lane is built, and re-checked."""
    lanes = _Lanes(frame, valuations)
    failing = lanes._full ^ evaluate_mask(lanes, f, _lane_rhd, {})
    if not failing:
        return None
    v, i = lanes.first(failing)
    model = frame.with_valuation(valuations[v])
    w = model._order[i]
    if veltman_forces_alt(model, w, f):
        raise DecisionError("internal error: countermodel failed verification")
    return model, w


def decide_ilm(f: Formula, size_bound: int = 3) -> DecisionVerdict:
    """Bounded countermodel search: the first countermodel of
    ``enumerate_veltman_models`` on 1 to ``size_bound`` worlds, found frame
    by frame.  A found countermodel is exact; absence of one up to the
    bound is reported as such, never promoted here."""
    if f.lang not in (None, RHD):
        raise DecisionError("ilm decides rhd-language formulas only")
    if size_bound < 1:
        raise DecisionError("size bound must be at least 1")
    names = fm.atoms(f)
    for n in range(1, size_bound + 1):
        for frame, valuations in _veltman_frames(n, names):
            refuted = _refute(frame, valuations, f)
            if refuted:
                return DecisionVerdict(NON_THEOREM, *refuted)
    return DecisionVerdict(status=NO_COUNTERMODEL_UP_TO_BOUND)


# ---------------------------------------------------------------------------
# representative sets for the bounded-height fragments

class TreeType(namedtuple("TreeType", "valuation succs")):
    """Bounded-height world type: a valuation plus the set of types of the
    strict successors (indices into the owning set's type list)."""

    __slots__ = ()


class RepresentativeSet(namedtuple("RepresentativeSet", (
        "logic", "n", "atoms", "members", "classes", "types",
        "characteristic", "models"))):
    """One member formula per class of types (a frozenset of indices into
    ``types``), with the characteristic formula and model of each type."""

    __slots__ = ()

    def equivalent_member(self, f: Formula) -> Formula:
        """The member whose class is the set of types satisfying f."""
        mask = frozenset(
            i for i, model in enumerate(self.models)
            if self._holds(i, f)
        )
        return self.members[self.classes.index(mask)]

    def _holds(self, i, f) -> bool:
        model = self.models[i]
        if self.logic == GL_LOGIC:
            return forces(model, f"t{i}", f)
        return veltman_forces(model, "v0", f)


def _gl_types(n: int, atom_names: tuple[str, ...]) -> list[TreeType]:
    vals = [frozenset(c) for k in range(len(atom_names) + 1)
            for c in itertools.combinations(atom_names, k)]
    types: list[TreeType] = [TreeType(v, frozenset()) for v in vals]
    heights = [0] * len(types)
    for h in range(1, n):
        prev = len(types)
        candidates = range(prev)
        for val in vals:
            for k in range(1, prev + 1):
                for combo in itertools.combinations(candidates, k):
                    s = frozenset(combo)
                    if max(heights[i] for i in combo) != h - 1:
                        continue
                    if any(not types[i].succs <= s for i in combo):
                        continue
                    types.append(TreeType(val, s))
                    heights.append(h)
    return types


def _gl_char_formulas(types, atom_names):
    chars: list[Formula] = []
    for t in types:
        lits = [atom(a) if a in t.valuation else neg(atom(a))
                for a in atom_names]
        succ = sorted(t.succs)
        parts = lits + [diamond(chars[i]) for i in succ]
        parts.append(box(disj([chars[i] for i in succ])))
        chars.append(conj(parts))
    return chars


def _gl_type_model(types, i) -> KripkeModel:
    member = sorted(types[i].succs | {i})
    worlds = [f"t{j}" for j in member]
    edges = [(f"t{j}", f"t{k}") for j in member for k in types[j].succs]
    valuation = [(f"t{j}", a) for j in member for a in types[j].valuation]
    return KripkeModel(worlds, edges, valuation)


def _representative_set(logic, n, atom_names, types, chars,
                        models) -> RepresentativeSet:
    """One class per set of types, represented by the disjunction of their
    characteristic formulas."""
    classes = tuple(frozenset(i for i in range(len(types)) if mask >> i & 1)
                    for mask in range(1 << len(types)))
    members = tuple(disj([chars[i] for i in sorted(cls)]) for cls in classes)
    return RepresentativeSet(logic, n, atom_names, members, classes,
                             tuple(types), tuple(chars), models)


def representatives_gl(n: int, atom_names) -> RepresentativeSet:
    """One member per equivalence class of the height-bounded fragment,
    built as disjunctions of tree-type characteristic formulas."""
    atom_names = tuple(sorted(set(atom_names)))
    # one class per set of types; n = 2 over 2 atoms has 64 types
    k = len(atom_names)
    if not (0 <= n <= 1 and k <= 2 or n == 2 and k <= 1):
        raise EnvelopeError("representatives are supported for 0 <= n <= 1 "
                            "with at most 2 atoms, or n = 2 with at most 1 "
                            "atom")
    # at n = 0 the one class is empty, and falsum represents it
    types = _gl_types(n, atom_names) if n else []
    chars = _gl_char_formulas(types, atom_names)
    models = tuple(_gl_type_model(types, i) for i in range(len(types)))
    return _representative_set(GL_LOGIC, n, atom_names, types, chars, models)


def representatives_ilm(n: int, atom_names) -> RepresentativeSet:
    atom_names = tuple(sorted(set(atom_names)))
    if not 0 <= n <= 1 or len(atom_names) > 1:
        raise EnvelopeError("ilm representatives are supported for 0 <= n "
                            "<= 1 and at most 1 atom")
    vals = [frozenset(c) for k in range(len(atom_names) + 1)
            for c in itertools.combinations(atom_names, k)]
    types = tuple(TreeType(v, frozenset()) for v in vals) if n else ()
    chars = [conj([atom(a) if a in t.valuation else neg(atom(a))
                   for a in atom_names]) for t in types]
    models = tuple(VeltmanModel(["v0"], [], {},
                                [("v0", a) for a in t.valuation])
                   for t in types)
    return _representative_set(ILM_LOGIC, n, atom_names, types, chars, models)


def certify_pairwise(rep: RepresentativeSet, pairs=None, bound: int = 2) -> bool:
    """Check that distinct members are non-equivalent in the target logic,
    through the decision procedure itself."""
    idx = range(len(rep.members))
    pairs = pairs if pairs is not None else itertools.combinations(idx, 2)
    for i, j in pairs:
        target = imp(boxes(FALSUM, rep.n, LOGICS[rep.logic].language),
                     liff(rep.members[i], rep.members[j]))
        if decide(rep.logic, target, max(bound, 1)).status != NON_THEOREM:
            return False
    return True
