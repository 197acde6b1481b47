"""Shared helpers for the acceptance suite: seeded formula generators,
exhaustive model enumerations with isomorphism pruning, the brute-force
GL oracle over rooted tree models, slow reference versions of optimized
library code, and a vectorized dual evaluator for the lift-equivalence
sweep."""

from __future__ import annotations

import itertools
import json
import signal
import types

import numpy as np

from provmod import formulas as fm
from provmod.formulas import (
    BOX,
    FALSUM,
    OMEGA,
    RHD,
    Atom,
    Bot,
    Box,
    BoxN,
    Imp,
    Rhd,
    atom,
    box,
    boxn,
    diamond,
    imp,
    land,
    liff,
    lor,
    neg,
    rbox,
    rdiamond,
    rhd,
    top,
)
from provmod.kripke import KripkeModel, _check_query, forces


def random_formula(rng, lang, depth, atom_pool):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atom_pool + [FALSUM, top()])
    kind = rng.choice(["imp", "imp", "neg", "and", "or", "modal", "modal"])
    sub = lambda: random_formula(rng, lang, depth - 1, atom_pool)
    if kind == "imp":
        return imp(sub(), sub())
    if kind == "neg":
        return neg(sub())
    if kind == "and":
        return land(sub(), sub())
    if kind == "or":
        return lor(sub(), sub())
    if lang == BOX:
        return rng.choice([box, diamond])(sub())
    return rhd(sub(), sub())


def random_purely_modal(rng, depth, atom_pool):
    """Boolean combination of boxed formulas."""
    if depth == 0 or rng.random() < 0.4:
        return box(random_formula(rng, BOX, 1, atom_pool))
    kind = rng.choice(["imp", "neg", "and", "or"])
    sub = lambda: random_purely_modal(rng, depth - 1, atom_pool)
    if kind == "imp":
        return imp(sub(), sub())
    if kind == "neg":
        return neg(sub())
    if kind == "and":
        return land(sub(), sub())
    return lor(sub(), sub())


# ---------------------------------------------------------------------------
# tree-walk references for the formula rewriting: each walks every
# occurrence, shared subterms again, so they suit small formulas only

def tree_substitute(f, mapping):
    if isinstance(f, Atom):
        return mapping.get(f.name, f)
    if isinstance(f, Bot):
        return f
    if isinstance(f, Imp):
        return imp(tree_substitute(f.left, mapping),
                   tree_substitute(f.right, mapping))
    if isinstance(f, Box):
        return box(tree_substitute(f.sub, mapping))
    if isinstance(f, Rhd):
        return rhd(tree_substitute(f.left, mapping),
                   tree_substitute(f.right, mapping))
    return boxn(f.index, tree_substitute(f.sub, mapping))


def tree_atoms(f, free_only=False):
    """Atom names, or with ``free_only`` those outside every modal operator."""
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Imp):
        return tree_atoms(f.left, free_only) | tree_atoms(f.right, free_only)
    if isinstance(f, Bot) or free_only:
        return set()
    if isinstance(f, Rhd):
        return tree_atoms(f.left) | tree_atoms(f.right)
    return tree_atoms(f.sub)


def tree_subformulas(f, out=None):
    """Distinct subformulas in left-first post-order."""
    out = {} if out is None else out
    if isinstance(f, (Imp, Rhd)):
        tree_subformulas(f.left, out)
        tree_subformulas(f.right, out)
    elif not isinstance(f, (Atom, Bot)):
        tree_subformulas(f.sub, out)
    out.setdefault(f)
    return list(out)


def tree_outer_modal_subformulas(f):
    """Outermost modal subformulas in left-first order of first occurrence."""
    if isinstance(f, Imp):
        out = tree_outer_modal_subformulas(f.left)
        out += [m for m in tree_outer_modal_subformulas(f.right)
                if m not in out]
        return out
    if isinstance(f, (Atom, Bot)):
        return []
    return [f]


def tree_skeleton(f):
    """(skeleton, p_atoms, q_atoms, bindings), as ``fm.skeleton`` returns."""
    mods = tree_outer_modal_subformulas(f)
    used = tree_atoms(f)
    names = [n for n in (f"q{i}" for i in range(len(mods) + len(used)))
             if n not in used][:len(mods)]
    replacement = dict(zip(mods, map(fm.atom, names)))

    def walk(g):
        if g in replacement:
            return replacement[g]
        if isinstance(g, Imp):
            return imp(walk(g.left), walk(g.right))
        return g

    return (walk(f), tuple(sorted(tree_atoms(f, free_only=True))),
            tuple(names), tuple(zip(names, mods)))


def tree_instances(f) -> list:
    """The skeleton instantiated with each assignment to the free atoms, top
    first, with the modal subformulas put back."""
    sk, p_atoms, _, bindings = tree_skeleton(f)
    instances = []
    for bits in itertools.product((top(), FALSUM), repeat=len(p_atoms)):
        mapping = dict(bindings)
        mapping.update(zip(p_atoms, bits))
        instances.append(tree_substitute(sk, mapping))
    return instances


def tree_pre_interpolant(f):
    """The conjunction of ``tree_instances(f)``."""
    return fm.conj(tree_instances(f))


def reference_instance_table(f):
    """The instance table computed afresh by one fold over ``f`` at the
    width of its own free atoms, as ``formulas.instance_table`` built it
    before it read its children's tables; verbatim but for the names and
    the kept-table lines, so it neither reads nor sets ``f._instances``."""
    names = tuple(sorted(fm.free_atoms(f)))
    if not names:
        return (names, (f,))
    width = 1 << len(names)
    rows = {name: tuple(FALSUM if a >> (len(names) - 1 - i) & 1 else top()
                        for a in range(width))
            for i, name in enumerate(names)}

    def combine(g, kids):
        if not kids:
            return rows.get(g.name, g) if isinstance(g, Atom) else g
        left, right = kids
        if type(left) is not tuple and type(right) is not tuple:
            return g
        if type(left) is not tuple:
            left = (left,) * width
        if type(right) is not tuple:
            right = (right,) * width
        return tuple(map(imp, left, right))

    return (names, fm._fold(f, fm._boolean_children, combine))


def assert_instance_table_is_the_reference(f):
    """``formulas.instance_table(f)`` has the reference's names and the very
    same instance objects."""
    names, got = fm.instance_table(f)
    ref_names, ref = reference_instance_table(f)
    assert names == ref_names, fm.to_text(f)
    assert len(got) == len(ref), fm.to_text(f)
    assert all(a is b for a, b in zip(got, ref)), fm.to_text(f)


# ---------------------------------------------------------------------------
# reference parser and printer: recursive descent, one to three frames per
# operator, verbatim but for the names, the imports and line breaks

class _ReferenceParser:
    def __init__(self, text: str, lang: str):
        self.text = text
        self.lang = lang
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = fm._TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise fm.ParseError(f"unexpected character {stripped[0]!r}",
                                    len(text) - len(stripped))
            self.tokens.append((m.lastgroup, m.group(m.lastgroup),
                                m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i >= len(self.tokens):
            raise fm.ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def pos(self):
        return (self.tokens[self.i][2] if self.i < len(self.tokens)
                else len(self.text))

    def illegal(self, op: str):
        raise fm.ParseError(
            f"operator {op} is not part of the {self.lang} language",
            self.pos())

    # precedence: unary/modal > & > | > |> > -> > <->
    def parse_iff(self):
        a = self.parse_imp()
        if self.peek() == "iff":
            self.next()
            return liff(a, self.parse_iff())
        return a

    def parse_imp(self):
        a = self.parse_rhd()
        if self.peek() == "imp":
            self.next()
            return imp(a, self.parse_imp())
        return a

    def parse_rhd(self):
        a = self.parse_or()
        if self.peek() == "rhdop":
            if self.lang != RHD:
                self.illegal("|>")
            self.next()
            b = self.parse_or()
            if self.peek() == "rhdop":
                raise fm.ParseError("chained |> needs parentheses", self.pos())
            return rhd(a, b)
        return a

    def parse_or(self):
        a = self.parse_and()
        if self.peek() == "orop":
            self.next()
            return lor(a, self.parse_or())
        return a

    def parse_and(self):
        a = self.parse_unary()
        if self.peek() == "andop":
            self.next()
            return land(a, self.parse_and())
        return a

    def parse_unary(self):
        kind, value, pos = self.next()
        if kind == "notop":
            return neg(self.parse_unary())
        if kind == "boxop":
            if self.lang == BOX:
                return box(self.parse_unary())
            if self.lang == RHD:
                return rbox(self.parse_unary())
            self.illegal("[]")
        if kind == "dia":
            if self.lang == BOX:
                return diamond(self.parse_unary())
            if self.lang == RHD:
                return rdiamond(self.parse_unary())
            self.illegal("<>")
        if kind == "boxnop":
            if self.lang != OMEGA:
                self.illegal(value)
            return boxn(int(value[1:-1]), self.parse_unary())
        if kind == "lp":
            a = self.parse_iff()
            k, _, p = self.next()
            if k != "rp":
                raise fm.ParseError("expected ')'", p)
            return a
        if kind == "name":
            if value == "bot":
                return FALSUM
            if value == "top":
                return top()
            return atom(value)
        raise fm.ParseError(f"unexpected token {value!r}", pos)


def reference_parse(text: str, lang: str = BOX):
    if lang not in fm.LANGUAGES:
        raise fm.LanguageError(f"unknown language {lang!r}")
    p = _ReferenceParser(text, lang)
    out = p.parse_iff()
    if p.i != len(p.tokens):
        raise fm.ParseError("trailing input", p.pos())
    return out


def _reference_render(f, minlvl: int) -> str:
    text, lvl = _reference_render_raw(f)
    if lvl < minlvl:
        return "(" + text + ")"
    return text


def _reference_render_raw(f):
    if isinstance(f, Atom):
        return f.name, fm._LVL_UNARY
    if isinstance(f, Bot):
        return "bot", fm._LVL_UNARY
    if isinstance(f, Box):
        return "[]" + _reference_render(f.sub, fm._LVL_UNARY), fm._LVL_UNARY
    if isinstance(f, BoxN):
        return (f"[{f.index}]" + _reference_render(f.sub, fm._LVL_UNARY),
                fm._LVL_UNARY)
    if isinstance(f, Rhd):
        left = _reference_render(f.left, fm._LVL_RHD + 1)
        right = _reference_render(f.right, fm._LVL_RHD + 1)
        return f"{left} |> {right}", fm._LVL_RHD
    # implication node
    if f.left is FALSUM and f.right is FALSUM:
        return "top", fm._LVL_UNARY
    if f.right is FALSUM:
        pair = fm._match_and(f)
        if pair is not None:
            a, b = pair
            return (f"{_reference_render(a, fm._LVL_AND + 1)} & "
                    f"{_reference_render(b, fm._LVL_AND)}", fm._LVL_AND)
        inner = f.left
        if isinstance(inner, Box) and isinstance(inner.sub, Imp) \
                and inner.sub.right is FALSUM:
            return ("<>" + _reference_render(inner.sub.left, fm._LVL_UNARY),
                    fm._LVL_UNARY)
        return "~" + _reference_render(inner, fm._LVL_UNARY), fm._LVL_UNARY
    if isinstance(f.left, Imp) and f.left.right is FALSUM:
        a = _reference_render(f.left.left, fm._LVL_OR + 1)
        b = _reference_render(f.right, fm._LVL_OR)
        return f"{a} | {b}", fm._LVL_OR
    a = _reference_render(f.left, fm._LVL_IMP + 1)
    b = _reference_render(f.right, fm._LVL_IMP)
    return f"{a} -> {b}", fm._LVL_IMP


def reference_to_text(f):
    return _reference_render(f, 0)


def within(seconds, fn):
    """fn(), failing with TimeoutError once it runs ``seconds``: a search
    that does the work it was meant to skip fails instead of running for
    days."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# reference depth-first cycle search, one recursion per path world

def recursive_find_cycle(worlds, succ):
    color = {w: 0 for w in worlds}
    stack_path: list = []

    def dfs(w):
        color[w] = 1
        stack_path.append(w)
        for u in succ[w]:
            if color[u] == 1:
                i = stack_path.index(u)
                return tuple(stack_path[i:] + [u])
            if color[u] == 0:
                got = dfs(u)
                if got:
                    return got
        color[w] = 2
        stack_path.pop()
        return None

    for w in sorted(worlds, key=str):
        if color[w] == 0:
            got = dfs(w)
            if got:
                return got
    return None


# ---------------------------------------------------------------------------
# reference forcing: the per-world lazy walk that finite models used before
# world masks, verbatim but for the names, the imports and the ``above``
# lookups, which the models no longer offer

def reference_above(model, w, v):
    """Worlds z with v preorder-below z at w."""
    return tuple(sorted((z for (x, z) in model.preorders[w] if x == v),
                        key=str))


def reference_unravelled_above(u_model, sigma):
    """Paths preorder-above sigma (as a sibling of its parent)."""
    return tuple(sorted((t for (s, t) in u_model.preorder if s == sigma),
                        key=str))


def path_valuations(u_model, valuations):
    """Valuations of a Veltman frame carried to its unravelling: each path
    takes the valuation of its last world."""
    paths_to: dict = {}
    for sigma in u_model._order:
        paths_to.setdefault(sigma[-1], []).append(sigma)
    return [[(sigma, a) for (w, a) in val for sigma in paths_to.get(w, ())]
            for val in valuations]


def reference_evaluate(model, world, f, modal, memo: dict) -> bool:
    table = memo.get(world)
    if table is None:
        table = memo[world] = {}
    val = table.get(f)
    if val is not None:
        return val
    get = table.get
    stack = [f]
    while stack:
        g = stack[-1]
        kind = type(g)
        if kind is Imp:
            val = get(g.left)
            if val is None:
                stack.append(g.left)
                continue
            if val:
                val = get(g.right)
                if val is None:
                    stack.append(g.right)
                    continue
            else:
                val = True
        elif kind is Atom:
            val = (world, g.name) in model.valuation
        elif kind is Bot:
            val = False
        else:
            val = modal(world, g)
        table[g] = val
        stack.pop()
    return val


def reference_plus(model, world, holds) -> bool:
    """Plus-forcing over a per-world truth test."""
    return any(all(holds(v) for v in model.descendants(u))
               for u in model.predecessors(world))


def reference_forces(model, world, f) -> bool:
    _check_query(model, world, f, fm.BOX)
    memo: dict = {}

    def box(w, g):
        return all(reference_evaluate(model, u, g.sub, box, memo)
                   for u in model._succ[w])

    return reference_evaluate(model, world, f, box, memo)


def reference_veltman_forces(model, world, f, _memo=None) -> bool:
    _check_query(model, world, f, fm.RHD)
    memo = {} if _memo is None else _memo

    def rhd(w, g):
        return all(not reference_evaluate(model, v, g.left, rhd, memo)
                   or any(reference_evaluate(model, z, g.right, rhd, memo)
                          for z in reference_above(model, w, v))
                   for v in model._succ[w])

    return reference_evaluate(model, world, f, rhd, memo)


def reference_veltman_forces_alt(model, world, f) -> bool:
    _check_query(model, world, f, fm.RHD)
    memo: dict = {}

    def rhd(w, g):
        for v in model._succ[w]:
            up = reference_above(model, w, v)
            if any(reference_evaluate(model, z, g.left, rhd, memo)
                   for z in up) and \
                    not any(reference_evaluate(model, z, g.right, rhd, memo)
                            for z in up):
                return False
        return True

    return reference_evaluate(model, world, f, rhd, memo)


def reference_unravelled_forces(u_model, sigma, f, _memo=None) -> bool:
    _check_query(u_model, sigma, f, fm.RHD)
    memo = {} if _memo is None else _memo

    def rhd(s, g):
        for tau in u_model.successors(s):
            up = reference_unravelled_above(u_model, tau)
            if any(reference_evaluate(u_model, eta, g.left, rhd, memo)
                   for eta in up) \
                    and not any(reference_evaluate(u_model, eta, g.right,
                                                   rhd, memo)
                                for eta in up):
                return False
        return True

    return reference_evaluate(u_model, sigma, f, rhd, memo)


def reference_premodel_clause(model):
    """The per-world modal clause of a pre-model, as pre-models were
    evaluated before world masks: the box clause, or in the rhd language
    the rhd clause over the model's witness family, whose implications are
    built on every call."""
    if model.language == BOX:
        def box(w, g):
            return all(model.theories[u].derives(g.sub)
                       for u in model._succ[w])

        return box
    dia = [fm.rdiamond(e) for e in model.e_family]

    def rhd_clause(w, g):
        return not any(th.derives(imp(g.right, de))
                       and not th.derives(imp(g.left, de))
                       for th in map(model.theories.__getitem__,
                                     model._succ[w])
                       for de in dia)

    return rhd_clause


def reference_soundness_suite(model, logic: str, atom_names, depth: int = 2):
    """``soundness_suite`` as one ``pm_forces``/``pm_forces_rhd`` call per
    (instance, world), as it was before whole-model regions."""
    from provmod.provability import (
        box_axiom_instances,
        ilm_axiom_instances,
        pm_forces,
        pm_forces_rhd,
    )

    failures = []
    if logic == "ilm":
        instances = ilm_axiom_instances(atom_names)
        for (name, f) in instances:
            for w in sorted(model.worlds, key=str):
                if not pm_forces_rhd(model, w, f):
                    failures.append((name, f, w))
        return failures
    instances = box_axiom_instances(logic, atom_names, depth)
    for (name, f) in instances:
        for w in sorted(model.worlds, key=str):
            if not pm_forces(model, w, f):
                failures.append((name, f, w))
    return failures


# ---------------------------------------------------------------------------
# reference closure for the tableau countermodels

def reference_materialize(logic: str, root):
    """The tableau countermodel built twice: the raw frame first, then the
    model on the descendants that frame indexes."""
    from provmod.decide import GL_LOGIC, K4_LOGIC, S4_LOGIC

    worlds: list[str] = []
    valuation: list[tuple[str, str]] = []
    raw_edges: list[tuple[str, str]] = []

    def build(node, ancestors: dict) -> str:
        wid = f"w{len(worlds)}"
        worlds.append(wid)
        anc = dict(ancestors)
        anc[node.demand] = wid
        for f, s in node.literals.items():
            if s and isinstance(f, Atom):
                valuation.append((wid, f.name))
        for child in node.children:
            if isinstance(child, frozenset):
                raw_edges.append((wid, anc[child]))
            else:
                raw_edges.append((wid, build(child, anc)))
        return wid

    root_id = build(root, {})
    edges = set(raw_edges)
    if logic in (K4_LOGIC, S4_LOGIC, GL_LOGIC):
        frame = KripkeModel(worlds, raw_edges, ())
        edges = {(w, u) for w in worlds for u in frame.descendants(w)}
    if logic == S4_LOGIC:
        edges |= {(w, w) for w in worlds}
    return KripkeModel(worlds, edges, valuation), root_id


def fixpoint_closure(edges) -> frozenset:
    """Transitive closure by adding composed pairs until nothing changes."""
    closed = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for (c, d) in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return frozenset(closed)


# ---------------------------------------------------------------------------
# reference tableau: eager saturation, which builds every open branch of a
# demand set before the search tries the first, and a search with no cache,
# verbatim but for the names and the imports

def reference_saturate(demand, logic: str):
    """Open saturated branches of a signed-formula set, as literal maps."""
    from provmod.decide import S4_LOGIC

    out: list[dict] = []

    def expand(pending: list, literals: dict):
        while pending:
            f, sign = pending.pop()
            if isinstance(f, Bot):
                if sign:
                    return
                continue
            if isinstance(f, Imp):
                if sign:
                    expand(pending + [(f.left, False)], dict(literals))
                    expand(pending + [(f.right, True)], dict(literals))
                    return
                pending.append((f.left, True))
                pending.append((f.right, False))
                continue
            got = literals.get(f)
            if got is None:
                literals[f] = sign
                if sign and logic == S4_LOGIC and isinstance(f, Box):
                    pending.append((f.sub, True))
            elif got != sign:
                return
        out.append(literals)

    expand(list(demand), {})
    return out


def reference_search(logic: str, demand: frozenset, history: tuple):
    from provmod.decide import K4_LOGIC, S4_LOGIC, _Node, _successor_demand

    for literals in reference_saturate(demand, logic):
        pos = sorted((f for f, s in literals.items()
                      if s and isinstance(f, Box)), key=fm.sort_key)
        negs = sorted((f for f, s in literals.items()
                       if not s and isinstance(f, Box)), key=fm.sort_key)
        node = _Node(demand=demand, literals=literals)
        ok = True
        for nb in negs:
            child_demand = _successor_demand(logic, nb.sub, pos)
            if logic in (K4_LOGIC, S4_LOGIC) and child_demand in history:
                node.children.append(child_demand)
                continue
            child = reference_search(logic, child_demand,
                                     history + (child_demand,))
            if child is None:
                ok = False
                break
            node.children.append(child)
        if ok:
            return node
    return None


# ---------------------------------------------------------------------------
# reference Veltman enumeration: every relation on n worlds filtered down to
# the strict partial orders, and the full triple minimized over all n!
# relabellings for every labelled candidate

def reference_strict_posets(n: int):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if any((a, b) in rel and (b, a) in rel for (a, b) in rel):
            continue
        if any((a, b) in rel and (b, c) in rel and (a, c) not in rel
               for (a, b) in rel for (b2, c) in rel if b == b2):
            continue
        yield rel


def _model_height(n: int, rel: set) -> int:
    depth = {}

    def d(i):
        if i not in depth:
            succ = [j for j in range(n) if (i, j) in rel]
            depth[i] = 0 if not succ else 1 + max(d(j) for j in succ)
        return depth[i]

    return max((d(i) for i in range(n)), default=0)


def reference_veltman_models(n: int, atom_names, max_height: int | None = None):
    """All valid Veltman models on n worlds over the given atoms, pruned to
    one representative per isomorphism class, of height below
    ``max_height`` when it is given."""
    from provmod.decide import _preorder_options, _strict_posets
    from provmod.kripke import VeltmanModel

    atom_names = sorted(atom_names)
    worlds = [f"v{i}" for i in range(n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for rel in _strict_posets(n):
        if max_height is not None and _model_height(n, rel) >= max_height:
            continue
        options = [list(_preorder_options(rel, n, w)) for w in range(n)]
        for combo in itertools.product(*options):
            cells = [(i, a) for i in range(n) for a in atom_names]
            for bits in itertools.product((False, True), repeat=len(cells)):
                val = {cell for cell, b in zip(cells, bits) if b}
                code = min(
                    (
                        tuple(sorted((pi[a], pi[b]) for (a, b) in rel)),
                        tuple(sorted(
                            (pi[w], tuple(sorted((pi[x], pi[y])
                                                 for (x, y) in combo[w])))
                            for w in range(n))),
                        tuple(sorted((pi[i], a) for (i, a) in val)),
                    )
                    for pi in perms
                )
                if code in seen:
                    continue
                seen.add(code)
                yield VeltmanModel(
                    worlds,
                    [(worlds[a], worlds[b]) for (a, b) in rel],
                    {worlds[w]: [(worlds[x], worlds[y]) for (x, y) in combo[w]]
                     for w in range(n)},
                    [(worlds[i], a) for (i, a) in val],
                )


def reference_least_level_ilm(f, size_bound: int):
    """The ILM pipeline's level search restated by brute force: for k = 1 to
    6, the first model on 1 to ``size_bound`` worlds, in
    ``enumerate_veltman_models`` order, whose frame is below height k and
    which refutes f, with its first failing world in ``str`` order; as
    ``(k, model, world)``, or None."""
    from provmod.decide import enumerate_veltman_models

    refutations = []  # (height, model, first failing world), in order
    for n in range(1, size_bound + 1):
        for m in enumerate_veltman_models(n, sorted(fm.atoms(f))):
            failing = [w for w in sorted(m.worlds, key=str)
                       if not reference_veltman_forces(m, w, f)]
            if failing:
                rel = {(int(a[1:]), int(b[1:])) for (a, b) in m.edges}
                refutations.append((_model_height(n, rel), m, failing[0]))
    for k in range(1, 7):
        for height, m, w in refutations:
            if height < k:
                return k, m, w
    return None


# ---------------------------------------------------------------------------
# exhaustive pointed-model enumeration for the lift sweep (one atom)

def canonical_model_codes(n: int) -> np.ndarray:
    """Codes of all (frame, valuation) pairs on n worlds over one atom,
    one representative per isomorphism class.  Bit layout: n*n edge bits
    (row-major), then n valuation bits."""
    nbits = n * n + n
    codes = np.arange(1 << nbits, dtype=np.uint64)
    best = codes.copy()
    for pi in itertools.permutations(range(n)):
        if pi == tuple(range(n)):
            continue
        out = np.zeros_like(codes)
        for s in range(nbits):
            if s < n * n:
                i, j = divmod(s, n)
                t = pi[i] * n + pi[j]
            else:
                t = n * n + pi[s - n * n]
            out |= ((codes >> np.uint64(s)) & np.uint64(1)) << np.uint64(t)
        np.minimum(best, out, out=best)
    return codes[best == codes]


def decode_model(code: int, n: int, atom_name: str = "p") -> KripkeModel:
    worlds = [f"w{i}" for i in range(n)]
    edges = [(worlds[i], worlds[j]) for i in range(n) for j in range(n)
             if (code >> (i * n + j)) & 1]
    valuation = [(worlds[i], atom_name) for i in range(n)
                 if (code >> (n * n + i)) & 1]
    return KripkeModel(worlds, edges, valuation)


def compile_closure(formulas):
    """Index the subformula closure children-first.  Returns (ops, index)
    where ops[k] is ('atom',), ('bot',), ('imp', i, j) or ('box', i)."""
    ops = []
    index: dict = {}

    def walk(f):
        if f in index:
            return index[f]
        if isinstance(f, Atom):
            op = ("atom",)
        elif isinstance(f, Bot):
            op = ("bot",)
        elif isinstance(f, Imp):
            op = ("imp", walk(f.left), walk(f.right))
        elif isinstance(f, Box):
            op = ("box", walk(f.sub))
        else:
            raise AssertionError(f)
        index[f] = len(ops)
        ops.append(op)
        return index[f]

    for f in formulas:
        walk(f)
    return ops, index


def vector_lift_sweep(codes: np.ndarray, n: int, ops) -> np.ndarray:
    """For every coded model, compare plain Kripke truth against the two
    provability readings of the lifted theories (plain everywhere, dotted
    on the transitive frames), on every closure formula at every world.

    Returns a boolean array marking models where some comparison failed.
    """
    codes = codes.astype(np.uint64)
    full = np.uint64((1 << n) - 1)
    succmask = [((codes >> np.uint64(w * n)) & full) for w in range(n)]
    val = (codes >> np.uint64(n * n)) & full

    def eval_tables(derive_for):
        """derive_for(tables, sub_idx, box_idx) -> per-world derivability."""
        tables: list = []
        for op in ops:
            if op[0] == "atom":
                tables.append(val)
            elif op[0] == "bot":
                tables.append(np.zeros_like(codes))
            elif op[0] == "imp":
                tables.append((~tables[op[1]] | tables[op[2]]) & full)
            else:
                derives = derive_for(tables, op[1], len(tables))
                bits = np.zeros_like(codes)
                for w in range(n):
                    ok = (derives & succmask[w]) == succmask[w]
                    bits |= ok.astype(np.uint64) << np.uint64(w)
                tables.append(bits)
        return tables

    # ordinary Kripke truth: a box reads its own model's table
    kr_tables = eval_tables(lambda tables, sub, _b: tables[sub])

    def plain_derive(_tables, sub_idx, _box_idx):
        return kr_tables[sub_idx]

    def dotted_derive(_tables, sub_idx, box_idx):
        return kr_tables[sub_idx] & kr_tables[box_idx]

    plain_tables = eval_tables(plain_derive)
    dotted_tables = eval_tables(dotted_derive)

    # transitivity mask for the dotted comparison
    transitive = np.ones(len(codes), dtype=bool)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e_ij = (codes >> np.uint64(i * n + j)) & np.uint64(1)
                e_jk = (codes >> np.uint64(j * n + k)) & np.uint64(1)
                e_ik = (codes >> np.uint64(i * n + k)) & np.uint64(1)
                transitive &= ((e_ij & e_jk) == 0) | (e_ik == 1)

    bad = np.zeros(len(codes), dtype=bool)
    for k_t, p_t, d_t in zip(kr_tables, plain_tables, dotted_tables):
        bad |= k_t != p_t
        bad |= transitive & (k_t != d_t)
    return bad


# ---------------------------------------------------------------------------
# forest seeds with axiom labels, one per isomorphism class

def _forest_parent_vectors(n: int):
    return itertools.product(*([(-1,)] + [tuple(range(-1, i))
                                          for i in range(1, n)]))


def _canonical_forest(parents, labels) -> str:
    children: dict[int, list] = {i: [] for i in range(len(parents))}
    roots = []
    for i, par in enumerate(parents):
        if par == -1:
            roots.append(i)
        else:
            children[par].append(i)

    def encode(v):
        inner = "".join(sorted(encode(c) for c in children[v]))
        return f"({labels[v]}:{inner})"

    return "|".join(sorted(encode(r) for r in roots))


def tree_seeds(max_nodes: int, axiom_sets):
    """All labeled forests up to isomorphism: (parents, labels) where
    labels index into axiom_sets and root labels are fixed to 0."""
    seen = set()
    out = []
    for n in range(1, max_nodes + 1):
        for parents in _forest_parent_vectors(n):
            free = [i for i, par in enumerate(parents) if par != -1]
            for combo in itertools.product(range(len(axiom_sets)),
                                           repeat=len(free)):
                labels = [0] * n
                for i, lab in zip(free, combo):
                    labels[i] = lab
                code = _canonical_forest(parents, labels)
                if code in seen:
                    continue
                seen.add(code)
                out.append((parents, tuple(labels)))
    return out


# ---------------------------------------------------------------------------
# brute-force GL oracle: exhaustive search over irreflexive transitive trees,
# whose shapes are the forests above with world 0 as the only root

def gl_tree_models(max_nodes: int, atom_names):
    """All irreflexive transitive tree models (transitively closed rooted
    trees) with every valuation over the given atoms, up to iso of shapes."""
    atom_names = sorted(atom_names)
    seen = set()
    for n in range(1, max_nodes + 1):
        for parents in _forest_parent_vectors(n):
            if -1 in parents[1:]:
                continue
            code = _canonical_forest(parents, [0] * n)
            if code in seen:
                continue
            seen.add(code)
            worlds = [f"t{i}" for i in range(n)]
            edges = set()
            ancestors = {0: []}
            for i in range(1, n):
                ancestors[i] = ancestors[parents[i]] + [parents[i]]
                edges.update((f"t{a}", f"t{i}") for a in ancestors[i])
            cells = [(w, a) for w in worlds for a in atom_names]
            for bits in itertools.product((False, True), repeat=len(cells)):
                valuation = [cell for cell, b in zip(cells, bits) if b]
                yield KripkeModel(worlds, edges, valuation)


def gl_valid_brute(f, max_nodes: int = 4):
    """Exhaustive root-evaluation over small tree models.  Returns None when
    no refutation exists within the bound, else (model, world)."""
    for model in gl_tree_models(max_nodes, fm.atoms(f)):
        if not forces(model, "t0", f):
            return model, "t0"
    return None


def seed_premodel(parents, labels, axiom_sets, language=BOX, e_family=None):
    from provmod.provability import PreModel
    from provmod.theories import finite_axioms_mp

    n = len(parents)
    worlds = [f"s{i}" for i in range(n)]
    edges = [(worlds[par], worlds[i]) for i, par in enumerate(parents)
             if par != -1]
    theories = {worlds[i]: finite_axioms_mp(axiom_sets[labels[i]],
                                            language=language)
                for i, par in enumerate(parents) if par != -1}
    return PreModel(worlds, edges, [], theories, language, e_family)


# ---------------------------------------------------------------------------
# reference generated derivability: plus-forcing of one pre-interpolant per
# query, as generated theories decided before per-assignment evaluation,
# verbatim but for the names and imports, and for the clause and witness
# family, which plus-forcing takes from the model

def reference_generated_decide(theory, f) -> bool:
    from provmod.provability import GenerationError, pm_forces_plus

    if theory.model is None:
        raise GenerationError("generated theory queried before binding")
    target = fm.pre_interpolant(imp(theory.phi, f))
    return pm_forces_plus(theory.model, theory.world, target)


def reference_decide_diamonds(theory, f, diamonds) -> int:
    """The witness bitset of a generated theory, one
    ``reference_generated_decide`` query f -> d per diamond d."""
    return sum(1 << k for k, d in enumerate(diamonds)
               if reference_generated_decide(theory, imp(f, d)))


def reference_generate(generate, seed, **kwargs):
    """``generate(seed, **kwargs)`` with every theory of the new model,
    its self-checks and its witness bitsets included, decided by
    ``reference_generated_decide``."""
    from provmod.provability import GeneratedTheory

    # the class answers the self-checks while the model is generated, and
    # each theory of the model keeps the reference methods afterwards
    saved = GeneratedTheory.decide, GeneratedTheory.decide_diamonds
    GeneratedTheory.decide = reference_generated_decide
    GeneratedTheory.decide_diamonds = reference_decide_diamonds
    try:
        model = generate(seed, **kwargs)
    finally:
        GeneratedTheory.decide, GeneratedTheory.decide_diamonds = saved
    for theory in model.theories.values():
        theory.decide = types.MethodType(reference_generated_decide, theory)
        theory.decide_diamonds = types.MethodType(reference_decide_diamonds,
                                                  theory)
    return model


# ---------------------------------------------------------------------------
# reference document text and clause form

def reference_dumps(doc: dict) -> str:
    """A document as the ``json`` module indents it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reference_phrase_cnf(f):
    """The clause form computed afresh on every call, by truth tables."""
    if f.lang not in (None, BOX):
        raise fm.LanguageError("phrase form is defined for the box language")
    ext = fm.extended_atoms([f])
    k = len(ext)
    if k > 10:
        raise fm.EntailmentTooLarge(
            f"{k} extended atoms exceed the clause-form limit")
    (ftab,), full = fm._tables([f])
    nvals = 1 << k
    patterns = [fm._var_pattern(i, nvals) for i in range(k)]

    def clause_table(members: tuple[int, ...]) -> int:
        t = 0
        for m in members:
            i = abs(m) - 1
            t |= patterns[i] if m > 0 else (~patterns[i] & full)
        return t

    implicates = []
    for signs in itertools.product((0, 1, -1), repeat=k):
        members = tuple(s * (i + 1) for i, s in enumerate(signs) if s)
        if ftab & ~clause_table(members) & full == 0:
            implicates.append(members)
    phrases = []
    implicate_set = set(implicates)
    for members in implicates:
        if any(tuple(m for m in members if m != drop) in implicate_set
               for drop in members):
            continue
        ante = tuple(ext[abs(m) - 1] for m in members if m < 0)
        cons = tuple(ext[m - 1] for m in members if m > 0)
        phrases.append(fm.Phrase(antecedent=ante, consequent=cons))
    return tuple(sorted(phrases, key=fm.Phrase.sort_key))
