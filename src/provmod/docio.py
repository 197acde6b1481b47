"""Model documents: a JSON schema shared by the library and the CLI, plus
DOT rendering.

One schema covers all four model kinds; a document loads into exactly one
of them, inferred from its fields (``preorders`` marks a Veltman model,
per-level edge maps mark a poly model, ``theories`` marks a pre-model,
anything else in the box language is a bare Kripke model).  An rhd
pre-model keeps its witness family as ``e_family``.  Loading refuses a
field of the wrong shape with a ``DocumentError`` that names it, so a
string where a list of names belongs is not read character by character,
an edge that is not a pair is not unpacked, and a number is not truncated.
Unravellings are written, with their sibling ``preorder``, but not read.
Canonical dumps are byte-stable: worlds, edges and valuations are sorted,
keys are ordered, and a trailing newline is fixed.

Only the Kripke and Veltman kinds are imported up front: loading a poly
model or a pre-model imports its module, and saving one needs no import,
since a model of a kind whose module was never loaded cannot exist.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

from provmod.formulas import BOX, OMEGA, RHD, parse, to_text
from provmod.kripke import KripkeModel, UnravelledVeltman, VeltmanModel

if TYPE_CHECKING:
    from provmod.theories import TheoryOracle

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
    from provmod.theories import (
        finite_axioms_mp,
        gl_n,
        gl_theorems,
        kripke_world_theory,
    )

    if not isinstance(desc, dict):
        raise DocumentError(f"theory must be an object, not {desc!r}")
    kind = desc.get("kind")
    if kind == "finite_axioms_mp":
        axioms = [parse(text, language)
                  for text in _strings(desc.get("axioms", []), "axioms")]
        return finite_axioms_mp(axioms, language=language)
    if kind == "gl_theorems":
        return gl_theorems()
    if kind == "gl_n":
        n = desc.get("n")
        # int() would read 2.7 as 2 and true as 1
        if type(n) is not int:
            raise DocumentError(f"n must be an integer, not {n!r}")
        return gl_n(n)
    if kind == "kripke_world":
        if kripke_context is None:
            raise DocumentError("kripke_world theory needs the document's "
                                "own frame")
        world = desc.get("world")
        if not isinstance(world, str):
            raise DocumentError(f"world must be a world name, not {world!r}")
        return kripke_world_theory(
            kripke_context, world,
            transitive=_flag(desc.get("transitive", False), "transitive"))
    raise DocumentError(f"unknown theory descriptor kind {kind!r}")


# ---------------------------------------------------------------------------
# saving

def _valuation_map(model) -> dict:
    out: dict[str, list] = {}
    for (w, a) in model.valuation:
        out.setdefault(_world_id(w), []).append(a)
    return {w: sorted(atoms) for w, atoms in sorted(out.items())}


def _loaded_class(module: str, name: str):
    """``provmod.<module>.<name>`` if that module is loaded, else ``()``,
    which nothing is an instance of: no model of the class exists before
    its module is loaded, so a type check need not load it."""
    home = sys.modules.get(f"provmod.{module}")
    return () if home is None else getattr(home, name)


def model_to_doc(model, meta: dict | None = None) -> dict:
    doc: dict = {"version": SCHEMA_VERSION}
    if isinstance(model, _loaded_class("glp", "PolyModel")):
        doc["language"] = OMEGA
        doc["worlds"] = sorted(_world_id(w) for w in model.worlds)
        doc["edges"] = {
            str(n): sorted([_world_id(a), _world_id(b)]
                           for (a, b) in level.edges)
            for n, level in enumerate(model.levels)}
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
    elif isinstance(model, UnravelledVeltman):
        doc["language"] = RHD
        doc["preorder"] = sorted([_world_id(a), _world_id(b)]
                                 for (a, b) in model.preorder)
        doc["unravelled"] = True
    elif isinstance(model, _loaded_class("provability", "PreModel")):
        doc["language"] = model.language
        doc["theories"] = {
            _world_id(w): theory_to_descriptor(model.theory(w))
            for w in sorted(model.theories, key=str)}
        if model.e_family:
            doc["e_family"] = [to_text(e) for e in model.e_family]
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
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, byte for
    byte.  With an indent, CPython's ``json`` falls back to its pure-Python
    encoder, so the containers are walked here; strings go through the C
    string encoder, ints through ``repr`` and other scalars through
    ``json.dumps``.  Keys must be strings."""
    out: list[str] = []
    _write(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


def _write(value, newline: str, emit):
    """Emit ``value`` as indented JSON whose lines start with ``newline``;
    a string member is quoted in place rather than by a nested call."""
    if isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            emit(sep + _quote(key) + ": ")
            if isinstance(item, str):
                emit(_quote(item))
            else:
                _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            emit(sep)
            if isinstance(item, str):
                emit(_quote(item))
            else:
                _write(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(value, str):
        emit(_quote(value))
    elif type(value) is int:
        emit(repr(value))
    else:
        emit(json.dumps(value))


# ---------------------------------------------------------------------------
# loading

class LoadedDocument:
    def __init__(self, kind: str, model, language: str, meta: dict):
        self.kind = kind  # kripke | veltman | premodel | poly
        self.model = model
        self.language = language
        self.meta = meta


_META_KEYS = ("designated_world", "refutes", "generate", "e_family", "logic")


def _strings(value, field: str, key=None) -> list:
    """``value`` if it is a list of strings; a string would be read
    character by character, so it is refused like any other value.  The
    message names ``field``, or its entry ``key`` when one is given."""
    if isinstance(value, list):
        for x in value:
            if not isinstance(x, str):
                break
        else:
            return value
    if key is not None:
        field = f"{field} of {key!r}"
    raise DocumentError(f"{field} must be a list of strings")


def _flag(value, field: str) -> bool:
    """``value`` if it is true or false; ``bool`` would read the string
    "false" as true."""
    if not isinstance(value, bool):
        raise DocumentError(f"{field} must be true or false")
    return value


def _pairs(value, field: str) -> list:
    """The [a, b] pairs of the list ``value`` as tuples."""
    if isinstance(value, list):
        out = [tuple(e) for e in value if isinstance(e, list) and len(e) == 2]
        if len(out) == len(value):
            return out
    raise DocumentError(f"{field} must be a list of [a, b] pairs")


def _level(key, field: str) -> int:
    """A level key such as "1"; ``int`` would read "1_0" as 10 and refuse
    "0.5" without naming the field."""
    if isinstance(key, str) and key.isdecimal() and key == str(int(key)):
        return int(key)
    raise DocumentError(f"{field} key {key!r} is not a level number")


def _field_map(doc: dict, field: str) -> dict:
    value = doc.get(field, {})
    if not isinstance(value, dict):
        raise DocumentError(f"{field} must be an object")
    return value


def doc_to_model(doc: dict) -> LoadedDocument:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    version = doc.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported document version {version!r}")
    if "worlds" not in doc:
        raise DocumentError("document lacks a worlds list")
    worlds = list(_strings(doc["worlds"], "worlds"))
    language = doc.get("language", BOX)
    if language not in (BOX, RHD, OMEGA):
        raise DocumentError(f"unknown language {language!r}")
    valuation = [(w, a) for w, atoms in _field_map(doc, "valuation").items()
                 for a in _strings(atoms, "valuation", w)]
    meta = {k: doc[k] for k in _META_KEYS if k in doc}
    _flag(meta.get("generate", False), "generate")

    edges = doc.get("edges", [])
    if isinstance(edges, dict) or language == OMEGA:
        if not isinstance(edges, dict):
            raise DocumentError("omega-language documents use per-level "
                                "edge maps")
        from provmod.glp import PolyModel
        theories = {}
        for w, per_level in _field_map(doc, "theories").items():
            if not isinstance(per_level, dict):
                raise DocumentError(f"theories of {w!r} must map levels to "
                                    f"theories")
            theories[w] = {_level(n, f"theories of {w!r}"):
                           theory_from_descriptor(desc, OMEGA)
                           for n, desc in per_level.items()}
        by_level = {_level(n, "edges"): _pairs(es, f"edges of level {n}")
                    for n, es in edges.items()}
        max_index = doc.get("max_index")
        if max_index is not None and type(max_index) is not int:
            raise DocumentError(f"max_index must be an integer, not "
                                f"{max_index!r}")
        model = PolyModel(worlds, by_level, theories, valuation, max_index)
        return LoadedDocument("poly", model, OMEGA, meta)

    pairs = _pairs(edges, "edges")
    if "preorders" in doc:
        model = VeltmanModel(
            worlds, pairs,
            {w: _pairs(es, f"preorder of {w!r}")
             for w, es in _field_map(doc, "preorders").items()},
            valuation)
        return LoadedDocument("veltman", model, RHD, meta)

    if "theories" in doc:
        from provmod.provability import PreModel
        kripke_context = KripkeModel(worlds, pairs, valuation)
        theories = {
            w: theory_from_descriptor(desc, language,
                                      kripke_context=kripke_context)
            for w, desc in _field_map(doc, "theories").items()}
        # a family in a box-language document is refused, not dropped
        e_family = [parse(t, RHD)
                    for t in _strings(doc.get("e_family", []), "e_family")]
        model = PreModel(worlds, pairs, valuation, theories, language,
                         e_family)
        return LoadedDocument("premodel", model, language, meta)

    if language != BOX:
        raise DocumentError(
            f"a {language}-language document needs preorders or theories; "
            f"an unravelled model is written but not read back")
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
    if isinstance(model, _loaded_class("glp", "PolyModel")):
        for n, level in enumerate(model.levels):
            for (a, b) in sorted(level.edges, key=str):
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
