"""Modal formula ASTs with parsing, printing and propositional analysis.

Three languages share one desugared core.  Implication and falsum are the
only primitive boolean connectives; each language adds its own modal
constructor (unary box, binary rhd, or indexed boxes).  Negation,
conjunction, disjunction, equivalence, top and diamond are rewritten away
at construction time, so structural equality is canonical and the printer
re-sugars a fixed set of abbreviations.

All formulas are interned: build them through the factory functions
(``atom``, ``imp``, ``box``, ``rhd``, ``boxn`` and the derived helpers),
never by calling the node classes directly.  Interning makes Python's
default identity equality and hash the structural ones, so formulas are
fast dictionary keys with no Python-level ``__hash__`` or ``__eq__``.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from functools import lru_cache, partial
from typing import Iterable, Mapping

BOX = "box"
RHD = "rhd"
OMEGA = "omega"

LANGUAGES = (BOX, RHD, OMEGA)


class FormulaError(ValueError):
    """Malformed formula or illegal operation on one."""


class LanguageError(FormulaError):
    """Operator used outside its language, or languages mixed in one tree."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EntailmentTooLarge(FormulaError):
    """Exact truth-table methods refuse unreasonably large atom sets."""


def _merge_lang(a: str | None, b: str | None, what: str) -> str | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise LanguageError(f"cannot mix {a!r} and {b!r} operators in {what}")


class Formula:
    """Base node.  Immutable; lang is None for purely boolean trees.
    ``_text``, ``_instances`` and ``_phrases`` keep the rendering, the
    instance table and the clause form once they are first asked for;
    ``_instances`` is kept on every node the walk of ``instance_table``
    reaches, not only on the formula asked about.  An rhd node A |> B also
    has ``_sides``, mapping a witness member E to the pair
    (B -> <>E, A -> <>E) that the pre-model rhd clause asks about."""

    __slots__ = ("lang", "_text", "_instances", "_phrases")

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {to_text(self)}>"


class Atom(Formula):
    __slots__ = ("name",)


class Bot(Formula):
    __slots__ = ()


class Imp(Formula):
    __slots__ = ("left", "right")


class Box(Formula):
    __slots__ = ("sub",)


class Rhd(Formula):
    __slots__ = ("left", "right", "_sides")


class BoxN(Formula):
    __slots__ = ("index", "sub")


_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

_intern: dict[tuple, Formula] = {}


def _make(cls, key: tuple, lang: str | None, **attrs) -> Formula:
    node = _intern.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in attrs.items():
            setattr(node, name, value)
        node.lang = lang
        node._text = None
        node._instances = None
        node._phrases = None
        _intern[key] = node
    return node


def atom(name: str) -> Formula:
    if not _ATOM_RE.match(name):
        raise FormulaError(f"bad atom name {name!r}")
    if name in ("bot", "top"):
        raise FormulaError(f"{name!r} is a reserved word, not an atom")
    return _make(Atom, ("a", name), None, name=name)


FALSUM: Formula = _make(Bot, ("f",), None)


def imp(left: Formula, right: Formula) -> Formula:
    lang = _merge_lang(left.lang, right.lang, "an implication")
    return _make(Imp, ("i", id(left), id(right)), lang, left=left, right=right)


def box(sub: Formula) -> Formula:
    if sub.lang not in (None, BOX):
        raise LanguageError("box takes a box-language argument")
    return _make(Box, ("b", id(sub)), BOX, sub=sub)


def rhd(left: Formula, right: Formula) -> Formula:
    if left.lang not in (None, RHD) or right.lang not in (None, RHD):
        raise LanguageError("rhd takes rhd-language arguments")
    return _make(Rhd, ("r", id(left), id(right)), RHD, left=left, right=right,
                 _sides=None)


def boxn(index: int, sub: Formula) -> Formula:
    if index < 0:
        raise FormulaError("box index must be a natural number")
    if sub.lang not in (None, OMEGA):
        raise LanguageError("indexed box takes an omega-language argument")
    return _make(BoxN, ("n", index, id(sub)), OMEGA, index=index, sub=sub)


# ---------------------------------------------------------------------------
# derived connectives (desugared immediately)

def neg(a: Formula) -> Formula:
    return imp(a, FALSUM)


def top() -> Formula:
    return imp(FALSUM, FALSUM)


def lor(a: Formula, b: Formula) -> Formula:
    return imp(neg(a), b)


def land(a: Formula, b: Formula) -> Formula:
    return neg(lor(neg(a), neg(b)))


def liff(a: Formula, b: Formula) -> Formula:
    return land(imp(a, b), imp(b, a))


def diamond(a: Formula) -> Formula:
    return neg(box(neg(a)))


def rbox(a: Formula) -> Formula:
    """Unary box inside the rhd language."""
    return rhd(neg(a), FALSUM)


def rdiamond(a: Formula) -> Formula:
    return neg(rbox(neg(a)))


def box_for(lang: str):
    if lang == BOX:
        return box
    if lang == RHD:
        return rbox
    raise LanguageError(f"no unary box for language {lang!r}")


def boxdot(a: Formula, lang: str = BOX) -> Formula:
    return land(a, box_for(lang)(a))


def conj(items: Iterable[Formula]) -> Formula:
    """Right-folded conjunction; empty conjunction is top."""
    items = list(items)
    if not items:
        return top()
    out = items[-1]
    for item in reversed(items[:-1]):
        out = land(item, out)
    return out


def disj(items: Iterable[Formula]) -> Formula:
    """Right-folded disjunction; empty disjunction is falsum."""
    items = list(items)
    if not items:
        return FALSUM
    out = items[-1]
    for item in reversed(items[:-1]):
        out = lor(item, out)
    return out


def boxes(a: Formula, n: int, lang: str = BOX) -> Formula:
    bx = box_for(lang)
    for _ in range(n):
        a = bx(a)
    return a


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<iff><->)
    | (?P<imp>->)
    | (?P<dia><>)
    | (?P<rhdop>\|>)
    | (?P<orop>\|)
    | (?P<andop>&)
    | (?P<notop>~)
    | (?P<boxnop>\[[0-9]+\])
    | (?P<boxop>\[\])
    | (?P<lp>\()
    | (?P<rp>\))
    | (?P<name>[a-z][a-z0-9_]*)
    )""",
    re.VERBOSE,
)


# precedence levels, loosest first, shared by the parser and the printer
_LVL_IFF, _LVL_IMP, _LVL_RHD, _LVL_OR, _LVL_AND, _LVL_UNARY = range(6)

# binary operators by token: (precedence level, constructor); each one
# associates to the right but |>, which does not associate
_BINARY = {
    "iff": (_LVL_IFF, liff),
    "imp": (_LVL_IMP, imp),
    "rhdop": (_LVL_RHD, rhd),
    "orop": (_LVL_OR, lor),
    "andop": (_LVL_AND, land),
}

# prefix operators by token and language (an indexed box takes its index
# from the token)
_PREFIX = {
    "notop": {BOX: neg, RHD: neg, OMEGA: neg},
    "boxop": {BOX: box, RHD: rbox},
    "dia": {BOX: diamond, RHD: rdiamond},
    "boxnop": {OMEGA: boxn},
}


def _tokens(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        tokens.append((m.lastgroup, m.group(m.lastgroup),
                       m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def parse(text: str, lang: str = BOX) -> Formula:
    """Parse ``text`` in the given language and return the desugared tree.

    Precedence, loosest first: ``<->``, ``->``, ``|>``, ``|``, ``&``, then
    the prefix operators.  One loop reads the tokens and climbs the
    precedence levels on explicit stacks, so no nesting depth reaches the
    interpreter's recursion limit.
    """
    if lang not in LANGUAGES:
        raise LanguageError(f"unknown language {lang!r}")
    tokens = _tokens(text)
    end = len(tokens)

    def position(i: int) -> int:
        return tokens[i][2] if i < end else len(text)

    # ``ops`` holds binary operators as (level, constructor), prefix
    # operators as one-argument constructors, and None for each open
    # parenthesis; ``vals`` holds the operands built so far
    ops: list = []
    vals: list[Formula] = []
    depth = 0

    def reduce(level: int):
        # build the pending binary operators, back to the innermost open
        # parenthesis, that bind tighter than ``level``
        while ops and type(ops[-1]) is tuple and ops[-1][0] > level:
            _, make = ops.pop()
            right = vals.pop()
            vals.append(make(vals.pop(), right))

    i = 0
    while True:
        # an operand: prefix operators and parentheses up to an atom
        if i == end:
            raise ParseError("unexpected end of input", len(text))
        kind, value, pos = tokens[i]
        i += 1
        if kind == "lp":
            ops.append(None)
            depth += 1
            continue
        if kind in _PREFIX:
            make = _PREFIX[kind].get(lang)
            if make is None:
                raise ParseError(f"operator {value} is not part of the "
                                 f"{lang} language", position(i))
            if make is boxn:
                make = partial(boxn, int(value[1:-1]))
            ops.append(make)
            continue
        if kind != "name":
            raise ParseError(f"unexpected token {value!r}", pos)
        vals.append(FALSUM if value == "bot" else
                    top() if value == "top" else atom(value))

        # after an operand: apply the prefixes it completes and close the
        # parentheses that follow it, then read a binary operator or stop
        while True:
            while ops and callable(ops[-1]):
                vals.append(ops.pop()(vals.pop()))
            kind = tokens[i][0] if i < end else None
            if kind != "rp" or not depth:
                break
            reduce(-1)
            ops.pop()
            depth -= 1
            i += 1
        if kind in _BINARY:
            op = _BINARY[kind]
            if kind == "rhdop" and lang != RHD:
                raise ParseError(f"operator |> is not part of the {lang} "
                                 f"language", position(i))
            reduce(op[0])
            if kind == "rhdop" and ops and ops[-1] is op:
                raise ParseError("chained |> needs parentheses", position(i))
            ops.append(op)
            i += 1
        elif depth:
            if i == end:
                raise ParseError("unexpected end of input", len(text))
            raise ParseError("expected ')'", position(i))
        elif i != end:
            raise ParseError("trailing input", position(i))
        else:
            reduce(-1)
            return vals.pop()


# ---------------------------------------------------------------------------
# printing (canonical; re-sugars ~, &, |, top and <> for readability)


def _match_and(f: Formula) -> tuple[Formula, Formula] | None:
    # a & b is stored as ((~~a -> ~b) -> bot)
    if not isinstance(f, Imp) or f.right is not FALSUM:
        return None
    g = f.left
    if not isinstance(g, Imp):
        return None
    gl, gr = g.left, g.right
    if not (isinstance(gl, Imp) and gl.right is FALSUM and
            isinstance(gl.left, Imp) and gl.left.right is FALSUM):
        return None
    if not (isinstance(gr, Imp) and gr.right is FALSUM):
        return None
    return gl.left.left, gr.left


def to_text(f: Formula) -> str:
    """Canonical rendering; ``parse(to_text(f), lang)`` returns ``f``.

    The text is cached on the node.  One loop writes it left to right from
    an explicit stack of pending subformulas, each with the least level it
    prints at without parentheses, and pending literal text, so deep
    formulas print in time and memory linear in their text.
    """
    if f._text is not None:
        return f._text
    out: list[str] = []
    todo: list = [(f, _LVL_IFF)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, least = item
        if isinstance(g, Atom):
            out.append(g.name)
            continue
        if isinstance(g, Bot):
            out.append("bot")
            continue
        if isinstance(g, Box):
            out.append("[]")
            todo.append((g.sub, _LVL_UNARY))
            continue
        if isinstance(g, BoxN):
            out.append(f"[{g.index}]")
            todo.append((g.sub, _LVL_UNARY))
            continue
        # binary nodes; an implication may print as a unary one
        if isinstance(g, Rhd):
            level, left, op, right = (_LVL_RHD, (g.left, _LVL_RHD + 1),
                                      " |> ", (g.right, _LVL_RHD + 1))
        elif g.left is FALSUM and g.right is FALSUM:
            out.append("top")
            continue
        elif g.right is FALSUM:
            pair = _match_and(g)
            if pair is None:
                inner = g.left
                if isinstance(inner, Box) and isinstance(inner.sub, Imp) \
                        and inner.sub.right is FALSUM:
                    out.append("<>")
                    todo.append((inner.sub.left, _LVL_UNARY))
                else:
                    out.append("~")
                    todo.append((inner, _LVL_UNARY))
                continue
            level, left, op, right = (_LVL_AND, (pair[0], _LVL_AND + 1),
                                      " & ", (pair[1], _LVL_AND))
        elif isinstance(g.left, Imp) and g.left.right is FALSUM:
            level, left, op, right = (_LVL_OR, (g.left.left, _LVL_OR + 1),
                                      " | ", (g.right, _LVL_OR))
        else:
            level, left, op, right = (_LVL_IMP, (g.left, _LVL_IMP + 1),
                                      " -> ", (g.right, _LVL_IMP))
        if level < least:
            out.append("(")
            todo.append(")")
        todo += (right, op, left)
    f._text = "".join(out)
    return f._text


def sort_key(f: Formula) -> str:
    return to_text(f)


# ---------------------------------------------------------------------------
# structural analysis

def _children(g: Formula) -> tuple[Formula, ...]:
    if isinstance(g, (Imp, Rhd)):
        return (g.left, g.right)
    if isinstance(g, (Box, BoxN)):
        return (g.sub,)
    return ()


def _boolean_children(g: Formula) -> tuple[Formula, ...]:
    return (g.left, g.right) if isinstance(g, Imp) else ()


def _fold(f: Formula, descend, combine, done: dict | None = None):
    """Value of ``f`` computed children-first (left-first post-order), each
    distinct node once: ``combine(g, values)`` gets the values of the
    children ``descend(g)`` lists.  ``done`` holds the values found so far,
    keyed by node, in the order they were found."""
    done = {} if done is None else done
    stack = [(f, None)]
    while stack:
        g, kids = stack.pop()
        if kids is not None:
            done[g] = combine(g, [done[k] for k in kids])
        elif g not in done:
            kids = descend(g)
            stack.append((g, kids))
            for k in reversed(kids):
                if k not in done:
                    stack.append((k, None))
    return done[f]


def _leaves(f: Formula, descend) -> list[Formula]:
    """Distinct nodes that ``descend`` lists no children of, reached from
    ``f`` in left-first order of first occurrence, each node visited once."""
    out: list[Formula] = []
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        kids = descend(g)
        if kids:
            stack.extend(reversed(kids))
        else:
            out.append(g)
    return out


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in _leaves(f, _children)
                     if isinstance(g, Atom))


@lru_cache(maxsize=None)
def free_atoms(f: Formula) -> frozenset[str]:
    """Atoms occurring outside the scope of every modal operator."""
    return frozenset(g.name for g in _leaves(f, _boolean_children)
                     if isinstance(g, Atom))


def is_purely_modal(f: Formula) -> bool:
    return not free_atoms(f)


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subformulas, children before parents (left-first
    post-order)."""
    seen: dict[Formula, None] = {}
    _fold(f, _children, lambda g, kids: None, seen)
    return list(seen)


def outer_modal_subformulas(f: Formula) -> list[Formula]:
    """Outermost modal subformulas, in first-occurrence (left-first
    pre-order) order."""
    return [g for g in _leaves(f, _boolean_children)
            if not isinstance(g, (Atom, Bot))]


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneous substitution of formulas for atoms."""
    if not mapping:
        return f

    def combine(g, kids):
        if isinstance(g, Atom):
            return mapping.get(g.name, g)
        if isinstance(g, Imp):
            return imp(*kids)
        if isinstance(g, Box):
            return box(*kids)
        if isinstance(g, Rhd):
            return rhd(*kids)
        if isinstance(g, BoxN):
            return boxn(g.index, *kids)
        return g

    return _fold(f, _children, combine)


# ---------------------------------------------------------------------------
# propositional skeleton and the purely modal uniform pre-interpolant

class Skeleton(namedtuple("Skeleton", "skeleton p_atoms q_atoms bindings")):
    """Modal-operator-free core of a formula.

    ``skeleton`` mentions the free atoms ``p_atoms`` plus fresh atoms
    ``q_atoms`` (tuples of names); substituting each formula of the
    ``bindings`` pairs (name, formula) for its fresh atom restores the
    original formula exactly.
    """

    __slots__ = ()

    @property
    def binding_map(self) -> dict[str, Formula]:
        return dict(self.bindings)

    def restore(self) -> Formula:
        return substitute(self.skeleton, self.binding_map)


def _fresh_names(count: int, used: frozenset[str]) -> list[str]:
    names = []
    i = 0
    while len(names) < count:
        name = f"q{i}"
        if name not in used:
            names.append(name)
        i += 1
    return names


def skeleton(f: Formula) -> Skeleton:
    mods = outer_modal_subformulas(f)
    names = _fresh_names(len(mods), atoms(f))
    replacement = {m: atom(n) for m, n in zip(mods, names)}
    sk = _fold(f, _boolean_children,
               lambda g, kids: imp(*kids) if kids else replacement.get(g, g))
    return Skeleton(
        skeleton=sk,
        p_atoms=tuple(sorted(free_atoms(f))),
        q_atoms=tuple(names),
        bindings=tuple(zip(names, mods)),
    )


def _projection(names: tuple[str, ...], sub: tuple[str, ...]) -> tuple:
    """For each assignment to ``names``, in ``instance_table`` order, the
    position of its restriction to ``sub``, a subset of ``names``, in the
    table of a formula whose free atoms are ``sub``."""
    out = [0]
    for name in names:
        if name in sub:
            out = [2 * x + b for x in out for b in (0, 1)]
        else:
            out = [x for x in out for _ in (0, 1)]
    return tuple(out)


def _imp_table(g: Formula, left: tuple, right: tuple) -> tuple:
    """The instance table of the implication ``g`` from its children's."""
    (lnames, linst), (rnames, rinst) = left, right
    names = (lnames if lnames == rnames
             else tuple(sorted(set(lnames).union(rnames))))
    if not names:
        return names, (g,)
    width = 1 << len(names)
    if lnames != names:
        linst = (tuple(map(linst.__getitem__, _projection(names, lnames)))
                 if lnames else linst * width)
    if rnames != names:
        rinst = (tuple(map(rinst.__getitem__, _projection(names, rnames)))
                 if rnames else rinst * width)
    return names, tuple(map(imp, linst, rinst))


def instance_table(f: Formula) -> tuple[tuple[str, ...],
                                         tuple[Formula, ...]]:
    """The free atoms of ``f`` in lexicographic order, and ``f`` with top or
    falsum put in for each of them, one instance per assignment.
    Assignments are enumerated with top first, in lexicographic atom order.

    A node's table is built from its children's tables: its names are the
    sorted union of theirs, and each instance is the implication of the
    children's instances for that assignment.  The walk runs children
    first on an explicit stack and keeps the pair on every node it
    reaches, so each node's table is built once per process, and the table
    of ``X -> d`` for a closed ``d`` costs one implication per instance of
    ``X``.
    """
    known = f._instances
    if known is not None:
        return known
    stack = [f]
    while stack:
        g = stack[-1]
        if g._instances is not None:
            stack.pop()
        elif type(g) is not Imp:
            stack.pop()
            g._instances = (((g.name,), (top(), FALSUM))
                            if type(g) is Atom else ((), (g,)))
        else:
            left, right = g.left._instances, g.right._instances
            if left is None or right is None:
                if right is None:
                    stack.append(g.right)
                if left is None:
                    stack.append(g.left)
            else:
                stack.pop()
                g._instances = _imp_table(g, left, right)
    return f._instances


def instances(f: Formula) -> tuple[Formula, ...]:
    """``f`` with top or falsum put in for each of its free atoms, one
    instance per assignment, as ``instance_table`` orders them."""
    return instance_table(f)[1]


@lru_cache(maxsize=None)
def pre_interpolant(f: Formula) -> Formula:
    """Purely modal uniform pre-interpolant.

    Conjunction of the ``instances`` of ``f``: the skeleton instantiated
    with each true/false assignment to the free atoms, with the abstracted
    modal subformulas put back.
    """
    return conj(instances(f))


# ---------------------------------------------------------------------------
# classical entailment with opaque modal atoms

def _var_pattern(i: int, nvals: int) -> int:
    # truth table of variable i over nvals = 2**k rows, as a bit mask
    full = (1 << nvals) - 1
    block = 1 << (1 << i)
    return (full // (block + 1)) << (1 << i)


def extended_atoms(fs: Iterable[Formula]) -> list:
    """Bare atoms plus outermost modal subformulas, in the fixed order:
    atoms lexicographically, then modal formulas by canonical text."""
    names: set[str] = set()
    mods: dict[Formula, None] = {}
    for f in fs:
        names |= free_atoms(f)
        for m in outer_modal_subformulas(f):
            mods.setdefault(m)
    ordered: list = sorted(names)
    ordered.extend(sorted(mods, key=sort_key))
    return ordered


def _tables(fs: list[Formula]) -> tuple[list[int], int]:
    ext = extended_atoms(fs)
    k = len(ext)
    if k > 22:
        raise EntailmentTooLarge(f"{k} extended atoms exceed the exact limit")
    nvals = 1 << k
    full = (1 << nvals) - 1
    assign: dict = {}
    for i, x in enumerate(ext):
        assign[x] = _var_pattern(i, nvals)
    memo: dict[Formula, int] = {}

    def table(g: Formula, kids: list) -> int:
        if kids:
            return (~kids[0] | kids[1]) & full
        if isinstance(g, Atom):
            return assign[g.name]
        if isinstance(g, Bot):
            return 0
        return assign[g]

    return [_fold(f, _boolean_children, table, memo) for f in fs], full


def classical_entails(gamma: Iterable[Formula], a: Formula) -> bool:
    """Classical propositional consequence, outermost modal subformulas
    treated as opaque atoms.  Exact (exhaustive valuation)."""
    gamma = list(gamma)
    lang = None
    for g in itertools.chain(gamma, (a,)):
        lang = _merge_lang(lang, g.lang, "an entailment query")
    tables, full = _tables(gamma + [a])
    lhs = full
    for t in tables[:-1]:
        lhs &= t
    return lhs & ~tables[-1] & full == 0


def tautology(a: Formula) -> bool:
    return classical_entails((), a)


# ---------------------------------------------------------------------------
# phrases and the canonical clause form

def _literal_key(x) -> tuple:
    if isinstance(x, str):
        return (0, x)
    return (1, to_text(x))


class Phrase(namedtuple("Phrase", "antecedent consequent")):
    """A clause: conjunction of ``antecedent`` implies disjunction of
    ``consequent``.  Members are atom names or boxed formulas, stored under
    the fixed order (atoms first, then boxes by canonical text)."""

    __slots__ = ()

    def __new__(cls, antecedent, consequent):
        ante = tuple(sorted(set(antecedent), key=_literal_key))
        cons = tuple(sorted(set(consequent), key=_literal_key))
        if set(ante) & set(cons):
            raise FormulaError("phrase sides must be disjoint")
        for x in ante + cons:
            if isinstance(x, str):
                continue
            if not isinstance(x, Box):
                raise FormulaError("phrase members are atoms or boxed formulas")
        return super().__new__(cls, ante, cons)

    def _as_formula(self, x) -> Formula:
        return atom(x) if isinstance(x, str) else x

    def formula(self) -> Formula:
        left = conj([self._as_formula(x) for x in self.antecedent])
        right = disj([self._as_formula(y) for y in self.consequent])
        return imp(left, right)

    def sort_key(self) -> tuple:
        return (tuple(map(_literal_key, self.antecedent)),
                tuple(map(_literal_key, self.consequent)))

    def __str__(self) -> str:
        return to_text(self.formula())


def phrase_cnf(f: Formula) -> tuple[Phrase, ...]:
    """The canonical clause form: all minimal non-tautologous clauses the
    formula entails, as phrases in canonical order.  Classically equivalent
    inputs produce identical phrase tuples.  The tuple is kept on the
    interned node, so it is computed once per formula."""
    if f._phrases is not None:
        return f._phrases
    if f.lang not in (None, BOX):
        raise LanguageError("phrase form is defined for the box language")
    ext = extended_atoms([f])
    k = len(ext)
    if k > 10:
        raise EntailmentTooLarge(f"{k} extended atoms exceed the clause-form limit")
    (ftab,), full = _tables([f])
    nvals = 1 << k
    patterns = [_var_pattern(i, nvals) for i in range(k)]

    def clause_table(members: tuple[int, ...]) -> int:
        # members: +i+1 for a positive literal on ext[i], -(i+1) for negative
        t = 0
        for m in members:
            i = abs(m) - 1
            t |= patterns[i] if m > 0 else (~patterns[i] & full)
        return t

    def is_implicate(members) -> bool:
        return ftab & ~clause_table(members) & full == 0

    implicates: list[tuple[int, ...]] = []
    for signs in itertools.product((0, 1, -1), repeat=k):
        members = tuple(s * (i + 1) for i, s in enumerate(signs) if s)
        if is_implicate(members):
            implicates.append(members)

    phrases = []
    implicate_set = set(implicates)
    for members in implicates:
        if any(tuple(m for m in members if m != drop) in implicate_set
               for drop in members):
            continue
        ante = tuple(ext[abs(m) - 1] for m in members if m < 0)
        cons = tuple(ext[m - 1] for m in members if m > 0)
        phrases.append(Phrase(antecedent=ante, consequent=cons))
    f._phrases = tuple(sorted(phrases, key=Phrase.sort_key))
    return f._phrases
