import json

import pytest

from provmod.formulas import RHD, atom, box, parse, to_text
from provmod.kripke import KripkeModel, VeltmanModel, unravel
from provmod.glp import PolyModel
from provmod.provability import PreModel, countermodel_pipeline_gl, generate_gl
from provmod.theories import finite_axioms_mp, gl_n
from provmod import docio

p = atom("p")


def test_kripke_roundtrip_is_byte_stable():
    k = KripkeModel(["w0", "w1"], [("w0", "w1")], [("w1", "p")])
    text = docio.dumps(docio.model_to_doc(k))
    loaded = docio.loads(text)
    assert loaded.kind == "kripke"
    assert loaded.model == k
    assert docio.dumps(docio.model_to_doc(loaded.model)) == text


def test_veltman_roundtrip():
    v = VeltmanModel(["w", "u"], [("w", "u")], {"w": [("u", "u")]},
                     [("u", "p")])
    text = docio.dumps(docio.model_to_doc(v))
    loaded = docio.loads(text)
    assert loaded.kind == "veltman"
    assert loaded.model == v
    assert docio.dumps(docio.model_to_doc(loaded.model)) == text


def test_premodel_roundtrip_with_descriptors():
    pre = PreModel(["w0", "w1"], [("w0", "w1")], [],
                   {"w1": finite_axioms_mp([p, box(p)])})
    doc = docio.model_to_doc(pre)
    assert doc["theories"]["w1"] == {"kind": "finite_axioms_mp",
                                     "axioms": ["[]p", "p"]}
    loaded = docio.loads(docio.dumps(doc))
    assert loaded.kind == "premodel"
    assert loaded.model.theory("w1").derives(p)
    assert docio.dumps(docio.model_to_doc(loaded.model)) == docio.dumps(doc)


def test_gl_n_descriptor_roundtrip():
    pre = PreModel(["a", "b"], [("a", "b")], [], {"b": gl_n(2)})
    loaded = docio.loads(docio.dumps(docio.model_to_doc(pre)))
    assert loaded.model.theory("b").derives(parse("[][]p"))
    assert not loaded.model.theory("b").derives(parse("[]p"))


def test_kripke_world_descriptor_resolves_against_document():
    k = KripkeModel(["a", "b"], [("a", "b"), ("a", "a"), ("b", "b")],
                    [("b", "p")])
    doc = docio.model_to_doc(k)
    doc["theories"] = {"a": {"kind": "kripke_world", "world": "a",
                             "transitive": True},
                       "b": {"kind": "kripke_world", "world": "b",
                             "transitive": True}}
    loaded = docio.loads(docio.dumps(doc))
    assert loaded.kind == "premodel"
    assert loaded.model.theory("b").derives(p)
    assert not loaded.model.theory("a").derives(p)


def test_poly_roundtrip():
    finite = finite_axioms_mp([p], language="omega")
    m = PolyModel(["w", "u"], {0: [("w", "u")], 1: []},
                  {"u": {0: finite, 1: finite}}, [("u", "p")], max_index=1)
    text = docio.dumps(docio.model_to_doc(m))
    loaded = docio.loads(text)
    assert loaded.kind == "poly"
    assert docio.dumps(docio.model_to_doc(loaded.model)) == text


def test_pipeline_seed_document_regenerates_and_refutes():
    result = countermodel_pipeline_gl(parse("[]p -> p"))
    meta = {"generate": True,
            "designated_world": docio._world_id(result.designated),
            "refutes": to_text(result.formula)}
    text = docio.dumps(docio.model_to_doc(result.seed, meta=meta))
    loaded = docio.loads(text)
    assert loaded.meta["generate"] is True
    regenerated = generate_gl(loaded.model)
    from provmod.provability import pm_forces
    target = parse(loaded.meta["refutes"])
    assert not pm_forces(regenerated, loaded.meta["designated_world"], target)


def test_unravelled_worlds_serialize_as_paths():
    v = VeltmanModel(["w", "u"], [("w", "u")], {"w": [("u", "u")]}, [])
    u = unravel(v)
    doc = docio.model_to_doc(u)
    assert "w/u" in doc["worlds"]
    assert doc == docio.model_to_doc(u.as_kripke())
    assert doc["language"] == "box"


def test_generated_theories_refuse_direct_serialization():
    seed = PreModel(["w0", "w1"], [("w0", "w1")], [],
                    {"w1": finite_axioms_mp([p])})
    model = generate_gl(seed)
    with pytest.raises(docio.DocumentError):
        docio.model_to_doc(model)


def test_schema_errors():
    with pytest.raises(docio.DocumentError):
        docio.loads("not json")
    with pytest.raises(docio.DocumentError):
        docio.loads(json.dumps({"version": 99, "worlds": ["w"]}))
    with pytest.raises(docio.DocumentError):
        docio.loads(json.dumps({"version": 1}))
    with pytest.raises(docio.DocumentError):
        docio.loads(json.dumps({"version": 1, "worlds": ["w"],
                                "theories": {"w": {"kind": "nope"}},
                                "edges": [["w", "w"]]}))


def test_dot_export_mentions_worlds_and_styles():
    v = VeltmanModel(["w", "u", "z"], [("w", "u"), ("w", "z")],
                     {"w": [("u", "u"), ("z", "z"), ("u", "z")]},
                     [("u", "p")])
    dot = docio.to_dot(v, designated="w")
    assert '"w" ->' in dot and "dashed" in dot and "doublecircle" in dot
