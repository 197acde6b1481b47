"""Decidable theories attached to worlds.

A theory oracle bundles declared axioms and rule tags with a total,
deterministic derivability test.  Derivability is never computed by proof
search over the declared rules; each construction brings its own complete
decision method (classical entailment, model truth, or a decision
procedure), and the rule tags are metadata for the property checkers.
"""

from __future__ import annotations

from typing import Callable

from provmod import formulas as fm
from provmod.formulas import (
    BOX,
    FALSUM,
    Formula,
    atom,
    boxdot,
    boxes,
    classical_entails,
    imp,
    lor,
    neg,
    to_text,
    top,
)
from provmod.decide import decide_gl
from provmod.kripke import KripkeModel, check_frame, forces

MP = "mp"
NEC = "nec"
LOEB = "loeb"


def poly_nec(n: int) -> str:
    return f"nec[{n}]"


def poly_loeb(n: int) -> str:
    return f"loeb[{n}]"


class TheoryError(ValueError):
    pass


class TheoryOracle:
    """A theory with a derivability decision method.

    ``derives`` is pure; results are memoized under the interned formula
    (one entry per call of the decision method), and the cache is
    idempotent, so concurrent use behaves as if the oracle were stateless.
    """

    def __init__(self, language: str, axioms: tuple[Formula, ...],
                 rules: frozenset[str], provenance: str,
                 decide: Callable[[Formula], bool], label: str = "",
                 descriptor: dict | None = None):
        self.language = language
        self.axioms = axioms
        self.rules = rules
        self.provenance = provenance
        self.decide = decide
        self.label = label
        self.descriptor = descriptor
        self._memo = {}

    def derives(self, f: Formula) -> bool:
        got = self._memo.get(f)
        if got is None:
            # only formulas of the theory's language are ever memoized
            if f.lang not in (None, self.language):
                raise TheoryError(f"formula {to_text(f)} is outside the "
                                  f"{self.language} language")
            got = bool(self.decide(f))
            self._memo[f] = got
        return got

    def __repr__(self):
        name = self.label or self.provenance
        return f"<TheoryOracle {name}>"


def finite_axioms_mp(axioms, language: str = BOX) -> TheoryOracle:
    """Classical closure of finitely many axioms under modus ponens alone.
    Complete for that system because boxed formulas act as opaque atoms."""
    axioms = tuple(sorted(axioms, key=fm.sort_key))
    for a in axioms:
        if a.lang not in (None, language):
            raise TheoryError(f"axiom {to_text(a)} is outside {language}")
    return TheoryOracle(
        language=language,
        axioms=axioms,
        rules=frozenset({MP}),
        provenance="finite_axioms_mp",
        decide=lambda f: classical_entails(axioms, f),
        label="mp[" + ", ".join(map(to_text, axioms)) + "]",
        descriptor={"kind": "finite_axioms_mp",
                    "axioms": [to_text(a) for a in axioms]},
    )


def kripke_world_theory(model: KripkeModel, world,
                        transitive: bool = False) -> TheoryOracle:
    """Everything true at the world; with the transitive flag, everything
    true there and at every successor (then closed under necessitation).
    Oracles over one model share its own mask table."""
    if world not in model.worlds:
        raise TheoryError(f"unknown world {world!r}")
    if transitive and not check_frame(model).transitive:
        raise TheoryError("transitive world theory over a non-transitive frame")
    if transitive:
        def decide(f: Formula) -> bool:
            return forces(model, world, boxdot(f))
        rules = frozenset({MP, NEC})
    else:
        def decide(f: Formula) -> bool:
            return forces(model, world, f)
        rules = frozenset({MP})
    return TheoryOracle(
        language=BOX,
        axioms=(),
        rules=rules,
        provenance="kripke_world",
        decide=decide,
        label=f"world[{world}{'+' if transitive else ''}]",
        descriptor={"kind": "kripke_world", "world": str(world),
                    "transitive": transitive},
    )


def gl_theorems() -> TheoryOracle:
    return TheoryOracle(
        language=BOX,
        axioms=(),
        rules=frozenset({MP, NEC, LOEB}),
        provenance="gl_theorems",
        decide=lambda f: decide_gl(f).is_theorem,
        label="gl",
        descriptor={"kind": "gl_theorems"},
    )


def gl_n(n: int) -> TheoryOracle:
    """Theorems of the bounded-height strengthening: the single extra axiom
    box^n bot under classical deduction."""
    if n < 0:
        raise TheoryError("n must be a natural number")
    extra = boxes(FALSUM, n)
    return TheoryOracle(
        language=BOX,
        axioms=(extra,),
        rules=frozenset({MP, NEC, LOEB}),
        provenance="gl_n",
        decide=lambda f: decide_gl(imp(extra, f)).is_theorem,
        label=f"gl_{n}",
        descriptor={"kind": "gl_n", "n": n},
    )


def classicality_violations(oracle: TheoryOracle) -> list:
    """Spot-check that the oracle behaves classically: derives a sample of
    tautologies and respects modus ponens on a sample of derivable pairs.
    Returns witnesses, empty when the checks pass."""
    p = atom("p")
    tautologies = [top(), imp(p, p), lor(p, neg(p))]
    out = []
    for t in tautologies:
        if not oracle.derives(t):
            out.append(("tautology", t))
    mp_pairs = [(t, lor(t, p)) for t in tautologies[:2]]
    for a, b in mp_pairs:
        if oracle.derives(a) and oracle.derives(imp(a, b)) \
                and not oracle.derives(b):
            out.append(("mp", a, b))
    return out
