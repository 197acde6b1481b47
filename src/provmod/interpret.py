"""The provability reading of box formulas relative to a single theory.

A box formula is read as derivability in the theory; a clause holds when
derivability of every boxed antecedent member yields derivability of some
boxed consequent member; a formula holds when every clause of its
canonical clause form does.  Bare atoms inside clauses carry no
derivability content: they are recorded in the trace and otherwise inert.
"""

from __future__ import annotations

from collections import namedtuple

from provmod import formulas as fm
from provmod.formulas import (
    BOX,
    FALSUM,
    Box,
    Formula,
    Phrase,
    atom,
    box,
    imp,
    lor,
    neg,
    parse,
    phrase_cnf,
    to_text,
    top,
)
from provmod.decide import decide_gl
from provmod.theories import TheoryOracle


class InterpretationError(ValueError):
    pass


def phrase_truth(ph: Phrase, theory: TheoryOracle) -> bool:
    """Derivability of all boxed antecedents implies derivability of some
    boxed consequent.  Bare atoms on either side are ignored."""
    for x in ph.antecedent:
        if isinstance(x, Box) and not theory.derives(x.sub):
            return True
    return any(theory.derives(y.sub)
               for y in ph.consequent if isinstance(y, Box))


class PhraseTrace(namedtuple("PhraseTrace", (
        "phrase", "antecedent_checks", "consequent_witness", "inert_atoms",
        "truth"))):
    """One phrase's reading: its (boxed content, derivable) antecedent
    checks, the consequent content found derivable if any, and the bare
    atoms of the clause, which the reading ignores."""

    __slots__ = ()


class InterpretationResult(namedtuple("InterpretationResult",
                                       "formula theory truth traces")):
    """The truth of a formula's reading in a theory (named by its repr),
    with one ``PhraseTrace`` per phrase."""

    __slots__ = ()

    def __bool__(self):
        return self.truth


def t_interpretation(f: Formula, theory: TheoryOracle) -> InterpretationResult:
    """Clause-by-clause provability reading; classically equivalent inputs
    share a clause form and therefore a truth value."""
    if f.lang not in (None, BOX):
        raise InterpretationError("the interpretation reads box formulas")
    traces = []
    truth = True
    for ph in phrase_cnf(f):
        ante = tuple((x.sub, theory.derives(x.sub))
                     for x in ph.antecedent if isinstance(x, Box))
        witness = None
        if all(ok for (_, ok) in ante):
            for y in ph.consequent:
                if isinstance(y, Box) and theory.derives(y.sub):
                    witness = y
                    break
            value = witness is not None
        else:
            value = True
        inert = tuple(x for x in ph.antecedent + ph.consequent
                      if isinstance(x, str))
        traces.append(PhraseTrace(phrase=ph, antecedent_checks=ante,
                                  consequent_witness=witness,
                                  inert_atoms=inert, truth=value))
        truth = truth and value
    return InterpretationResult(formula=f, theory=repr(theory), truth=truth,
                                traces=tuple(traces))


def incompleteness_witness(theory: TheoryOracle) -> Formula:
    """A formula whose interpretation holds but which the converse
    well-founded box logic does not prove: the boxed falsum when the theory
    is inconsistent, its negation otherwise."""
    witness = box(FALSUM) if theory.derives(FALSUM) else neg(box(FALSUM))
    if not t_interpretation(witness, theory).truth:
        raise InterpretationError("internal error: witness interpretation "
                                  "is false")
    if decide_gl(witness).is_theorem:
        raise InterpretationError("internal error: witness is a theorem")
    return witness


# ---------------------------------------------------------------------------
# the soundness gate

_p, _q = atom("p"), atom("q")

_GATE_THEOREM_SAMPLE = (
    parse("[]([]p -> p) -> []p"),
    parse("[]([]q -> q) -> []q"),
    parse("[](p -> q) -> ([]p -> []q)"),
    parse("[]p -> [][]p"),
    parse("[]top"),
    parse("[]([]([]p -> p) -> []p)"),
)


class GateCheck(namedtuple("GateCheck", "name passed witness",
                            defaults=((),))):
    __slots__ = ()


class SoundnessGateReport(namedtuple("SoundnessGateReport", (
        "gates", "corpus_results", "probes", "sample_size"))):
    """The ``GateCheck`` of each gate, the (formula, interpretation truth)
    of each corpus member, and the (gate name, probe formula,
    interpretation truth) of each probe."""

    __slots__ = ()

    @property
    def gates_pass(self) -> bool:
        return all(g.passed for g in self.gates)

    @property
    def corpus_true(self) -> bool:
        return all(ok for (_, ok) in self.corpus_results)

    @property
    def ok(self) -> bool:
        return self.gates_pass and self.corpus_true

    def gate(self, name: str) -> GateCheck:
        return next(g for g in self.gates if g.name == name)


def soundness_gate(theory: TheoryOracle, corpus) -> SoundnessGateReport:
    """Three oracle-level gates, each sampled: containment of the box
    logic's theorems, closure under modus ponens, closure under
    necessitation.  When all pass, every corpus member must interpret to
    true; each failing gate is matched with a counterexample formula whose
    interpretation fails the same way.
    """
    corpus = tuple(corpus)
    for f in corpus:
        if not decide_gl(f).is_theorem:
            raise InterpretationError(
                f"corpus member {to_text(f)} is not a theorem")

    derivable_sample = [t for t in _GATE_THEOREM_SAMPLE]
    derivable_sample.extend(theory.axioms)

    containment_witness = next(
        (t for t in _GATE_THEOREM_SAMPLE if not theory.derives(t)), None)

    mp_witness = None
    for a in derivable_sample:
        if not theory.derives(a):
            continue
        for b in (lor(a, _p), imp(_q, a), top()):
            if theory.derives(imp(a, b)) and not theory.derives(b):
                mp_witness = (a, b)
                break
        if mp_witness:
            break

    nec_witness = next(
        (a for a in derivable_sample
         if theory.derives(a) and not theory.derives(box(a))), None)

    gates = (
        GateCheck("containment", containment_witness is None,
                  () if containment_witness is None
                  else (containment_witness,)),
        GateCheck("mp", mp_witness is None,
                  () if mp_witness is None else mp_witness),
        GateCheck("nec", nec_witness is None,
                  () if nec_witness is None else (nec_witness,)),
    )

    corpus_results = tuple((f, t_interpretation(f, theory).truth)
                           for f in corpus)

    probes = []
    if containment_witness is not None:
        probe = box(containment_witness)
        probes.append(("containment", probe,
                       t_interpretation(probe, theory).truth))
    if mp_witness is not None:
        a, b = mp_witness
        probe = imp(box(imp(a, b)), imp(box(a), box(b)))
        probes.append(("mp", probe, t_interpretation(probe, theory).truth))
    if nec_witness is not None:
        probe = imp(box(nec_witness), box(box(nec_witness)))
        probes.append(("nec", probe, t_interpretation(probe, theory).truth))

    return SoundnessGateReport(gates=gates, corpus_results=corpus_results,
                               probes=tuple(probes),
                               sample_size=len(derivable_sample))
