"""Model documents: a JSON schema shared by the library and the CLI, plus
DOT rendering.

One schema covers all four model kinds; a document loads into exactly one
of them, inferred from its fields (``preorders`` marks a Veltman model,
per-level edge maps mark a poly model, ``theories`` marks a pre-model,
anything else is a bare Kripke model).  Canonical dumps are byte-stable:
worlds, edges and valuations are sorted, keys are ordered, and a trailing
newline is fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from provmod.formulas import BOX, OMEGA, RHD, parse
from provmod.glp import PolyModel
from provmod.kripke import KripkeModel, VeltmanModel
from provmod.provability import PreModel
from provmod.theories import (
    TheoryOracle,
    finite_axioms_mp,
    gl_n,
    gl_theorems,
    kripke_world_theory,
)

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    pass


def _world_id(w) -> str:
    if isinstance(w, tuple):
        return "/".join(str(x) for x in w)
    return str(w)


# ---------------------------------------------------------------------------
# theory descriptors

def theory_to_descriptor(oracle: TheoryOracle) -> dict:
    if oracle.descriptor is None:
        raise DocumentError(
            f"theory {oracle!r} has no serializable descriptor; generated "
            f"models are saved as their seeds with a generate flag")
    return oracle.descriptor


def theory_from_descriptor(desc: dict, language: str,
                           kripke_context: KripkeModel | None = None
                           ) -> TheoryOracle:
    kind = desc.get("kind")
    if kind == "finite_axioms_mp":
        axioms = [parse(text, language) for text in desc.get("axioms", [])]
        return finite_axioms_mp(axioms, language=language)
    if kind == "gl_theorems":
        return gl_theorems()
    if kind == "gl_n":
        return gl_n(int(desc["n"]))
    if kind == "kripke_world":
        if kripke_context is None:
            raise DocumentError("kripke_world theory needs the document's "
                                "own frame")
        return kripke_world_theory(kripke_context, desc["world"],
                                   transitive=bool(desc.get("transitive",
                                                            False)))
    raise DocumentError(f"unknown theory descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# saving

def _valuation_map(model) -> dict:
    out: dict[str, list] = {}
    for (w, a) in model.valuation:
        out.setdefault(_world_id(w), []).append(a)
    return {w: sorted(atoms) for w, atoms in sorted(out.items())}


def model_to_doc(model, meta: dict | None = None) -> dict:
    doc: dict = {"version": SCHEMA_VERSION}
    if isinstance(model, PolyModel):
        doc["language"] = OMEGA
        doc["worlds"] = sorted(_world_id(w) for w in model.worlds)
        doc["edges"] = {
            str(n): sorted([_world_id(a), _world_id(b)]
                           for (a, b) in model.edges[n])
            for n in range(model.max_index + 1)}
        doc["max_index"] = model.max_index
        doc["valuation"] = _valuation_map(model)
        theories: dict = {}
        for (w, n), oracle in sorted(model._theories.items(), key=str):
            theories.setdefault(_world_id(w), {})[str(n)] = \
                theory_to_descriptor(oracle)
        doc["theories"] = theories
        return _with_meta(doc, meta)

    doc["worlds"] = sorted(_world_id(w) for w in model.worlds)
    doc["edges"] = sorted([_world_id(a), _world_id(b)]
                          for (a, b) in model.edges)
    doc["valuation"] = _valuation_map(model)

    if isinstance(model, VeltmanModel):
        doc["language"] = RHD
        doc["preorders"] = {
            _world_id(w): sorted([_world_id(a), _world_id(b)]
                                 for (a, b) in pairs)
            for w, pairs in sorted(model.preorders.items(), key=str)
            if pairs}
    elif isinstance(model, PreModel):
        doc["language"] = model.language
        doc["theories"] = {
            _world_id(w): theory_to_descriptor(model.theory(w))
            for w in sorted(model.theories, key=str)}
    elif isinstance(model, KripkeModel):
        doc["language"] = BOX
    else:
        raise DocumentError(f"cannot serialize {type(model).__name__}")
    return _with_meta(doc, meta)


def _with_meta(doc: dict, meta: dict | None) -> dict:
    if meta:
        for key, value in meta.items():
            doc[key] = value
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# loading

@dataclass
class LoadedDocument:
    kind: str           # kripke | veltman | premodel | poly
    model: object
    language: str
    meta: dict


_META_KEYS = ("designated_world", "refutes", "generate", "e_family", "logic")


def doc_to_model(doc: dict) -> LoadedDocument:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    version = doc.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported document version {version!r}")
    try:
        worlds = list(doc["worlds"])
    except KeyError as exc:
        raise DocumentError("document lacks a worlds list") from exc
    language = doc.get("language", BOX)
    if language not in (BOX, RHD, OMEGA):
        raise DocumentError(f"unknown language {language!r}")
    valuation = [(w, a) for w, atoms in doc.get("valuation", {}).items()
                 for a in atoms]
    meta = {k: doc[k] for k in _META_KEYS if k in doc}

    edges = doc.get("edges", [])
    if isinstance(edges, dict) or language == OMEGA:
        if not isinstance(edges, dict):
            raise DocumentError("omega-language documents use per-level "
                                "edge maps")
        theories = {
            w: {int(n): theory_from_descriptor(desc, OMEGA)
                for n, desc in per_level.items()}
            for w, per_level in doc.get("theories", {}).items()}
        model = PolyModel(worlds,
                          {int(n): [tuple(e) for e in es]
                           for n, es in edges.items()},
                          theories, valuation,
                          max_index=doc.get("max_index"))
        return LoadedDocument("poly", model, OMEGA, meta)

    pairs = [tuple(e) for e in edges]
    if "preorders" in doc:
        model = VeltmanModel(
            worlds, pairs,
            {w: [tuple(e) for e in es]
             for w, es in doc["preorders"].items()},
            valuation)
        return LoadedDocument("veltman", model, RHD, meta)

    if "theories" in doc:
        kripke_context = KripkeModel(worlds, pairs, valuation)
        theories = {
            w: theory_from_descriptor(desc, language,
                                      kripke_context=kripke_context)
            for w, desc in doc["theories"].items()}
        model = PreModel(worlds, pairs, valuation, theories, language)
        return LoadedDocument("premodel", model, language, meta)

    model = KripkeModel(worlds, pairs, valuation)
    return LoadedDocument("kripke", model, language, meta)


def loads(text: str) -> LoadedDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return doc_to_model(doc)


def load_path(path) -> LoadedDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save_path(path, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


# ---------------------------------------------------------------------------
# DOT rendering

def to_dot(model, designated=None) -> str:
    lines = ["digraph model {"]
    atoms_at: dict[str, list] = {}
    for (w, a) in model.valuation:
        atoms_at.setdefault(_world_id(w), []).append(a)
    for w in sorted(_world_id(w) for w in model.worlds):
        label = w
        if atoms_at.get(w):
            label += r"\n" + ",".join(sorted(atoms_at[w]))
        shape = ', shape="doublecircle"' if w == _world_id(designated or "") \
            else ""
        lines.append(f'  "{w}" [label="{label}"{shape}];')
    if isinstance(model, PolyModel):
        for n in range(model.max_index + 1):
            for (a, b) in sorted(model.edges[n], key=str):
                lines.append(f'  "{_world_id(a)}" -> "{_world_id(b)}" '
                             f'[label="{n}"];')
    else:
        for (a, b) in sorted(model.edges, key=str):
            lines.append(f'  "{_world_id(a)}" -> "{_world_id(b)}";')
        if isinstance(model, VeltmanModel):
            for w in sorted(model.preorders, key=str):
                for (a, b) in sorted(model.preorders[w], key=str):
                    if a != b:
                        lines.append(
                            f'  "{_world_id(a)}" -> "{_world_id(b)}" '
                            f'[style="dashed", label="at {_world_id(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
