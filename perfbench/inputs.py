"""Seeded inputs for the benchmark workloads.

Everything here is built by the benchmark itself: the formula corpora with
their known answers, the random modal 3-CNF generator, the labelled tree
seeds, and the poly-modal fixture models.  Nothing is read from the tests.
"""

from __future__ import annotations

import itertools
import random

from provmod.formulas import (
    FALSUM,
    OMEGA,
    RHD,
    Atom,
    Bot,
    Imp,
    atom,
    box,
    boxn,
    conj,
    disj,
    imp,
    land,
    neg,
    parse,
    rbox,
    rhd,
    top,
)
from provmod.glp import PolyModel
from provmod.provability import PreModel
from provmod.theories import MP, TheoryOracle, finite_axioms_mp, poly_loeb, poly_nec

p, q = atom("p"), atom("q")

# ---------------------------------------------------------------------------
# the 60-formula decision corpus: 50 GL theorems and 10 GL non-theorems

CORPUS_THEOREM_TEXTS = (
    "[](p -> q) -> ([]p -> []q)", "[](q -> p) -> ([]q -> []p)",
    "[](p -> p & p) -> ([]p -> [](p & p))", "[]([](p -> q) -> ([]p -> []q))",
    "[][]([](p -> q) -> ([]p -> []q))", "[]top", "[][]top", "[](p -> p)",
    "[](p | ~p)", "[]p -> [][]p", "[]q -> [][]q", "[](p & q) -> [][](p & q)",
    "[]([]p -> [][]p)", "[][]([]p -> [][]p)", "[]([]p -> p) -> []p",
    "[]([]q -> q) -> []q", "[]([](p & q) -> (p & q)) -> [](p & q)",
    "[]([]([]p -> p) -> []p)", "[][]([]([]p -> p) -> []p)",
    "[](p & q) <-> ([]p & []q)", "[]bot -> []p", "[]bot -> []q",
    "<>p -> <>top", "[](p -> q) -> (<>p -> <>q)", "<>p -> <>(p & ~<>p)",
    "[]<>p -> []bot", "<>top -> ~[]bot", "[]p -> [](q -> p)",
    "([]p & []q) -> [](p | q)", "[]~p -> [](p -> q)",
    "<>(p & q) -> (<>p & <>q)", "[]p -> ([]q -> [](p & q))",
    "[]([]p & []q -> p) -> ([]p -> ([]q -> []p))", "[]([]bot -> bot) -> []bot",
    "~<>bot", "[]p | <>~p", "[]([]p -> q) | top", "[](~p -> p) -> []p",
    "[]((p -> q) & (q -> p)) -> ([]p <-> []q)", "[]p -> [](p | q)",
    "(<>p | <>q) <-> <>(p | q)", "[][]bot -> [][][]bot",
    "[]q -> ([](q -> p) -> []p)", "<>(p & ~p) -> bot",
    "[](p <-> q) -> ([]p <-> []q)", "[]([]p -> p) -> ([][]p -> []p)",
    "[](p & []bot) | <>top | p | ~p", "[]((p | q) -> (q | p))",
    "[](p -> (q -> p))", "<><>p -> <>p",
)

CORPUS_NON_THEOREM_TEXTS = (
    "p", "[]p -> p", "p -> []p", "<>top", "~[]bot", "[]p", "<>p -> p",
    "[]p -> q", "[](p | q) -> ([]p | []q)", "<>p | <>~p",
)

# formulas every theory accepted by the soundness gate must make true
GATE_CORPUS_TEXTS = (
    "[]([]p -> p) -> []p", "[]([]q -> q) -> []q", "[](p -> q) -> ([]p -> []q)",
    "[](q -> p) -> ([]q -> []p)", "[]p -> [][]p", "[]q -> [][]q", "[]top",
    "[][]top", "[](p -> p)", "[]([]([]p -> p) -> []p)",
    "[](p & q) <-> ([]p & []q)", "[]bot -> []p", "[](p -> q) -> (<>p -> <>q)",
    "<>p -> <>(p & ~<>p)", "[]p -> [](q -> p)", "([]p & []q) -> [](p | q)",
    "[](p <-> q) -> ([]p <-> []q)", "[](p -> (q -> p))", "<><>p -> <>p",
    "[]q -> ([](q -> p) -> []p)",
)

# the necessitation / diagonalized-rule closure family of the GL workload
NEC_LOEB_TEXTS = (
    "p", "~p", "top", "bot", "[]p", "[]~p", "[]bot", "<>p", "<>top",
    "p -> []p", "[]p -> p", "[]([]p -> p) -> []p", "[][]p", "[]p & p",
    "p | ~p", "[](p -> p)", "<>p -> p", "[]p -> [][]p", "~[]bot",
    "[](p & []bot)", "p & ~p", "[]p | []~p", "<>[]p", "[]<>p",
    "([]p -> p) -> p", "[](p | ~p)", "~<>top", "p -> p", "[]bot -> []p",
    "<>(p & ~p)",
)


def corpus():
    """(formula, is GL theorem) pairs of the 60-formula corpus."""
    return ([(parse(t), True) for t in CORPUS_THEOREM_TEXTS]
            + [(parse(t), False) for t in CORPUS_NON_THEOREM_TEXTS])


# ---------------------------------------------------------------------------
# random modal 3-CNF (Patel-Schneider & Sebastiani, JAIR 18, 2003)
#
# A formula is a conjunction of CNF_CLAUSES clauses of three literals.  A
# literal is negated with probability 1/2; below the depth limit it is a
# boxed random clause with probability CNF_MODAL_PROB, else an atom.  The
# benchmark decides the negation, so "theorem" means "CNF unsatisfiable".
# Depth 1 with 6 clauses keeps every decision under about 1.5 s; depth 2,
# or 8 clauses, sends some S4 and GL decisions past 5 s, and those inputs
# wait for search budgets in the deciders.
#
# S4 decision times on these formulas are heavy-tailed: resampling 300
# formulas moves the tail percentile by 20-40% from sample to sample, more
# than any bound the benchmark can set.  So the formulas come from one fixed
# pool, the same on every run, and the workload seed only orders the ops.
# A new pool seed is a change of the benchmark.

CNF_ATOMS = ("p", "q", "r")
CNF_DEPTH = 1
CNF_CLAUSES = 6
CNF_MODAL_PROB = 0.5
CNF_POOL_SEED = 0


def _cnf_literal(rng, depth):
    if depth > 0 and rng.random() < CNF_MODAL_PROB:
        base = box(_cnf_clause(rng, depth - 1))
    else:
        base = atom(rng.choice(CNF_ATOMS))
    return neg(base) if rng.random() < 0.5 else base


def _cnf_clause(rng, depth):
    return disj([_cnf_literal(rng, depth) for _ in range(3)])


def cnf_pool():
    """The fixed stream of random 3-CNF queries, each the negation of one
    random formula."""
    rng = random.Random(CNF_POOL_SEED)
    while True:
        yield neg(conj([_cnf_clause(rng, CNF_DEPTH)
                        for _ in range(CNF_CLAUSES)]))


# ---------------------------------------------------------------------------
# labelled tree seeds: forests of at most four worlds, each non-root world
# labelled with an axiom set of at most two of p, ~p and a boxed falsum, one
# seed per isomorphism class

SEED_MAX_WORLDS = 4
SEED_LABELS = 7            # the axiom sets of ``axiom_sets``
SEED_CLASSES = 1173


def axiom_sets(language):
    boxed_falsum = rbox(FALSUM) if language == RHD else box(FALSUM)
    choices = [p, neg(p), boxed_falsum]
    return [()] + [combo for k in (1, 2)
                   for combo in itertools.combinations(choices, k)]


def _canonical(parents, labels):
    children = {i: [] for i in range(len(parents))}
    for i, par in enumerate(parents):
        if par != -1:
            children[par].append(i)

    def encode(v):
        return f"({labels[v]}:{''.join(sorted(encode(c) for c in children[v]))})"

    return "|".join(sorted(encode(i) for i, par in enumerate(parents)
                           if par == -1))


def tree_seed_shapes(max_worlds=SEED_MAX_WORLDS):
    """(parents, labels) for every isomorphism class of labelled forest;
    parent -1 marks a root, and roots carry no theory (label 0)."""
    seen = set()
    out = []
    for n in range(1, max_worlds + 1):
        for tail in itertools.product(*(range(-1, i) for i in range(1, n))):
            parents = (-1,) + tail
            inner = [i for i, par in enumerate(parents) if par != -1]
            for combo in itertools.product(range(SEED_LABELS),
                                           repeat=len(inner)):
                labels = [0] * n
                for i, lab in zip(inner, combo):
                    labels[i] = lab
                code = _canonical(parents, labels)
                if code not in seen:
                    seen.add(code)
                    out.append((parents, tuple(labels)))
    return out


def seed_premodel(parents, labels, sets, language):
    worlds = [f"s{i}" for i in range(len(parents))]
    edges = [(worlds[par], worlds[i]) for i, par in enumerate(parents)
             if par != -1]
    theories = {worlds[i]: finite_axioms_mp(sets[labels[i]], language=language)
                for i, par in enumerate(parents) if par != -1}
    return PreModel(worlds, edges, [], theories, language)


def montagna_instances():
    """The 64 instances (A |> B) -> ((A & []C) |> (B & []C)) over p, q, ~p, top."""
    pool = (p, q, neg(p), top())
    return [imp(rhd(a, b), rhd(land(rbox(c), a), land(rbox(c), b)))
            for a in pool for b in pool for c in pool]


# ---------------------------------------------------------------------------
# poly-modal models built here, each known to satisfy the GLP clauses

GLP_FAMILY = (top(), FALSUM, p, boxn(0, p))
_POLY_RULES = frozenset({MP} | {poly_nec(n) for n in range(3)}
                        | {poly_loeb(n) for n in range(3)})


def _endpoint_oracle(true_atoms):
    """Truth at a world with no successors on any level."""
    def ev(f):
        if isinstance(f, Atom):
            return f.name in true_atoms
        if isinstance(f, Bot):
            return False
        if isinstance(f, Imp):
            return (not ev(f.left)) or ev(f.right)
        return True
    return TheoryOracle(language=OMEGA, axioms=(), rules=_POLY_RULES,
                        provenance="custom", decide=ev,
                        label=f"endpoint{sorted(true_atoms)}")


def _everything_oracle():
    return TheoryOracle(language=OMEGA, axioms=(), rules=_POLY_RULES,
                        provenance="custom", decide=lambda f: True,
                        label="inconsistent")


def glp_models():
    """Three compliant poly-modal models on up to three worlds."""
    leaf = _endpoint_oracle({"p"})
    bare = _endpoint_oracle(set())
    return [
        PolyModel(["a", "b"], {0: [], 1: [], 2: []}, {}, [("b", "p")],
                  max_index=2),
        PolyModel(["w", "u", "v"], {0: [("w", "u"), ("w", "v")], 1: [], 2: []},
                  {"u": {0: leaf, 1: leaf, 2: leaf},
                   "v": {0: bare, 1: bare, 2: bare}},
                  [("u", "p")], max_index=2),
        PolyModel(["w", "u"], {0: [("w", "u")], 1: [("w", "u")], 2: []},
                  {"u": {0: leaf, 1: _everything_oracle(),
                         2: _everything_oracle()}},
                  [("u", "p")], max_index=2),
    ]
