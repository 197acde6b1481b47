import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import glp_fixtures
from provmod.decide import enumerate_veltman_models
from provmod.formulas import (
    BOX,
    FALSUM,
    OMEGA,
    RHD,
    atom,
    box,
    parse,
    rbox,
    rdiamond,
    to_text,
    top,
)
from provmod.kripke import (
    KripkeModel,
    ModelError,
    VeltmanModel,
    check_frame,
    forces,
    plus,
    unravel,
    veltman_forces,
)
from provmod.glp import PolyModel, glp_forces
from provmod.provability import (
    PreModel,
    certify_modal_completeness,
    countermodel_pipeline_gl,
    generate_gl,
    generate_ilm,
    pm_forces,
    pm_forces_rhd,
)
from provmod.theories import finite_axioms_mp, gl_n
from provmod import cli, docio

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
    doc = docio.model_to_doc(unravel(v))
    assert doc == {"version": 1, "language": "rhd",
                   "worlds": ["u", "w", "w/u"], "edges": [["w", "w/u"]],
                   "preorder": [["w/u", "w/u"]], "valuation": {},
                   "unravelled": True}


def test_a_bare_document_loads_only_in_the_box_language():
    v = VeltmanModel(["w", "u"], [("w", "u")], {"w": [("u", "u")]},
                     [("u", "p")])
    unravelled = docio.dumps(docio.model_to_doc(unravel(v)))
    bare_rhd = json.dumps({"version": 1, "language": "rhd",
                           "worlds": ["w"], "edges": [], "valuation": {}})
    for text in (unravelled, bare_rhd):
        with pytest.raises(docio.DocumentError, match="rhd-language"):
            docio.loads(text)
    assert docio.loads(bare_rhd.replace('"rhd"', '"box"')).kind == "kripke"


def test_every_loaded_kind_is_a_kripke_model_taken_as_it_is():
    finite = finite_axioms_mp([p], language="omega")
    kinds = {
        "kripke": KripkeModel(["a", "b", "c"], [("a", "b"), ("b", "c")],
                              [("c", "p")]),
        "veltman": VeltmanModel(["a", "b", "c"], [("a", "b"), ("a", "c")],
                                {"a": [("b", "b"), ("c", "c"), ("b", "c")]},
                                [("b", "p")]),
        "premodel": PreModel(["a", "b", "c"], [("a", "b"), ("b", "c")], [],
                             {"b": finite_axioms_mp([p]),
                              "c": finite_axioms_mp([])}),
        # level 1 would make the union of the levels transitive
        "poly": PolyModel(["a", "b", "c"],
                          {0: [("a", "b"), ("b", "c")], 1: [("a", "c")]},
                          {"b": {0: finite, 1: finite},
                           "c": {0: finite, 1: finite}}, [("c", "p")]),
    }
    for kind, model in kinds.items():
        loaded = docio.loads(docio.dumps(docio.model_to_doc(model)))
        assert loaded.kind == kind
        m = loaded.model
        assert isinstance(m, KripkeModel), kind
        frame = KripkeModel(m.worlds, m.edges, m.valuation)
        assert check_frame(m) == check_frame(frame), kind
        for w in m.worlds:
            for mask in range(m._full + 1):
                assert plus(m, w, mask) == plus(frame, w, mask), (kind, w)
        if kind == "poly":
            # the level-0 frame, not the union of the levels
            assert check_frame(m).transitive.witness == ("a", "b", "c")


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


_RHD_SEED = {"language": "rhd", "worlds": ["a", "b"], "edges": [["a", "b"]],
             "theories": {"b": {"kind": "finite_axioms_mp", "axioms": []}}}
_POLY = {"language": "omega", "worlds": ["a", "b"],
         "edges": {"0": [["a", "b"]]},
         "theories": {"b": {"0": {"kind": "finite_axioms_mp", "axioms": []}}}}


@pytest.mark.parametrize("doc, field", [
    # a string where a list belongs would be read character by character
    ({"worlds": ["a"], "edges": [], "valuation": {"a": "pq"}},
     "valuation of 'a'"),
    ({"worlds": "ab", "edges": [], "valuation": {}}, "worlds"),
    ({"worlds": ["a", "b"], "edges": ["ab"]}, "edges"),
    ({**_RHD_SEED, "e_family": "top"}, "e_family"),
    ({**_RHD_SEED, "theories": {"b": {"kind": "finite_axioms_mp",
                                      "axioms": "pq"}}}, "axioms"),
    # a string where true or false belongs would be read as true
    ({**_RHD_SEED, "generate": "false"}, "generate"),
    ({**_RHD_SEED, "theories": {"b": {"kind": "kripke_world", "world": "b",
                                      "transitive": "false"}}},
     "transitive"),
    # a number that is no integer would be truncated, true read as 1
    ({**_RHD_SEED, "language": "box",
      "theories": {"b": {"kind": "gl_n", "n": 2.7}}}, "n"),
    ({**_RHD_SEED, "language": "box",
      "theories": {"b": {"kind": "gl_n", "n": True}}}, "n"),
    # a pair of the wrong length, a name that is no string, a list for a map
    ({"worlds": ["a", "b"], "edges": [["a"]]}, "edges"),
    ({"worlds": ["a", "b"], "edges": [["a", "b", "a"]]}, "edges"),
    ({"worlds": ["a", 1]}, "worlds"),
    ({"worlds": ["a"], "valuation": {"a": ["p", 2]}}, "valuation of 'a'"),
    ({"worlds": ["a"], "valuation": [["a", "p"]]}, "valuation"),
    ({"language": "rhd", "worlds": ["a", "b"], "edges": [["a", "b"]],
      "preorders": {"a": [["b"]]}}, "preorder of 'a'"),
    ({"language": "rhd", "worlds": ["a", "b"], "edges": [["a", "b"]],
      "preorders": [["b", "b"]]}, "preorders"),
    ({"language": "omega", "worlds": ["a", "b"], "edges": {"0": ["ab"]}},
     "edges of level 0"),
    ({**_RHD_SEED, "theories": [["b", "p"]]}, "theories"),
    ({"language": "omega", "worlds": ["a", "b"], "edges": {"0": [["a", "b"]]},
      "theories": {"b": [["0", "gl"]]}}, "theories of 'b'"),
    # a theory descriptor that is no object would be asked for its kind
    ({**_RHD_SEED, "theories": {"b": "finite_axioms_mp"}}, "theory"),
    ({**_POLY, "theories": {"b": {"0": "finite_axioms_mp"}}}, "theory"),
    # a max index that is no integer would be truncated, true read as 1
    ({**_POLY, "max_index": 1.9}, "max_index"),
    ({**_POLY, "max_index": 0.5}, "max_index"),
    ({**_POLY, "max_index": True}, "max_index"),
    # a level key that is no level number would reach int()
    ({**_POLY, "edges": {"0.5": [["a", "b"]]}}, "edges"),
    ({**_POLY, "edges": {"0": [["a", "b"]], "01": []}}, "edges"),
    ({**_POLY, "theories": {"b": {"0.5": {"kind": "finite_axioms_mp",
                                          "axioms": []}}}},
     "theories of 'b'"),
    # a missing world would raise KeyError, a list would reach a dict lookup
    ({**_RHD_SEED, "theories": {"b": {"kind": "kripke_world"}}}, "world"),
    ({**_RHD_SEED, "theories": {"b": {"kind": "kripke_world",
                                      "world": ["b"]}}}, "world"),
])
def test_a_malformed_field_is_refused_by_name(doc, field):
    with pytest.raises(docio.DocumentError, match=f"^{re.escape(field)} "):
        docio.doc_to_model(doc)


def test_the_seed_document_of_the_malformed_cases_loads():
    loaded = docio.doc_to_model({**_RHD_SEED, "e_family": ["top"]})
    assert loaded.kind == "premodel"
    assert loaded.model.e_family == (top(),)
    for doc in (_POLY, {**_POLY, "max_index": 0}):
        loaded = docio.doc_to_model(doc)
        assert (loaded.kind, loaded.model.max_index) == ("poly", 0)


def test_a_box_document_with_a_witness_family_is_refused(capsys, tmp_path):
    # a box-language pre-model has no witness family, so a document that
    # gives one is malformed: loading refuses it instead of dropping it
    doc = docio.model_to_doc(PreModel(["w0", "w1"], [("w0", "w1")], [],
                                      {"w1": finite_axioms_mp([p])}))
    doc["e_family"] = ["p"]
    with pytest.raises(ModelError, match="no witness family"):
        docio.doc_to_model(doc)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["eval", "--model", str(path), "--world", "w0", "[]p"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "no witness family" in err, err


def test_dot_export_mentions_worlds_and_styles():
    v = VeltmanModel(["w", "u", "z"], [("w", "u"), ("w", "z")],
                     {"w": [("u", "u"), ("z", "z"), ("u", "z")]},
                     [("u", "p")])
    dot = docio.to_dot(v, designated="w")
    assert '"w" ->' in dot and "dashed" in dot and "doublecircle" in dot


def _chain_premodel(language, axioms, e_family=None):
    # w0 -> w1 -> w2, p true at w2
    return PreModel(["w0", "w1", "w2"], [("w0", "w1"), ("w1", "w2")],
                    [("w2", "p")],
                    {w: finite_axioms_mp(axs, language=language)
                     for w, axs in zip(("w1", "w2"), axioms)},
                    language, e_family)


_SAMPLES = {
    BOX: ("p", "[]p", "<>p", "[]bot", "[]p -> p", "[](p -> []p)"),
    RHD: ("p", "[]p", "<>p", "[]bot", "top |> bot", "p |> bot", "top |> p",
          "(p |> p) -> (<>p -> <>p)"),
}


def test_a_saved_and_loaded_model_keeps_its_witness_family():
    family = [top(), FALSUM, atom("p")]
    box_axioms = ([box(atom("p"))], [box(FALSUM), atom("p")])
    rhd_axioms = ([rdiamond(atom("p"))], [rbox(FALSUM)])
    rhd_seed = _chain_premodel(RHD, rhd_axioms, family)
    generated_rhd = generate_ilm(_chain_premodel(RHD, rhd_axioms),
                                 e_family=family)
    cases = {
        "box seed": (_chain_premodel(BOX, box_axioms), None),
        "rhd seed": (rhd_seed, None),
        "certified rhd": (certify_modal_completeness(rhd_seed,
                                                     [rbox(FALSUM)]), None),
        # a generated model is saved as its seed with a generate flag
        "generated box": (generate_gl(_chain_premodel(BOX, box_axioms)),
                          _chain_premodel(BOX, box_axioms)),
        "generated rhd": (generated_rhd,
                          _chain_premodel(RHD, rhd_axioms,
                                          generated_rhd.e_family)),
    }
    for name, (model, seed) in cases.items():
        meta = {"generate": True} if seed is not None else None
        doc = docio.model_to_doc(model if seed is None else seed, meta=meta)
        loaded = docio.loads(docio.dumps(doc))
        again = cli._materialize(loaded, None)
        holds = pm_forces_rhd if model.language == RHD else pm_forces
        answers = set()
        for w in sorted(model.worlds):
            for text in _SAMPLES[model.language]:
                f = parse(text, model.language)
                expected = holds(model, w, f)
                assert holds(again, w, f) == expected, (name, w, text)
                answers.add(expected)
        assert answers == {True, False}, name
        assert again.e_family == model.e_family, name
        if model.language == RHD:
            assert doc["e_family"] == [to_text(e) for e in model.e_family]
        else:
            assert "e_family" not in doc


# ---------------------------------------------------------------------------
# every loadable kind survives a save and load

_POOLS = {
    BOX: ("p", "q", "~p", "[]p", "<>q", "[]bot", "[]p -> p",
          "[](p -> []q)", "p & <>~q"),
    RHD: ("p", "q", "~p", "[]p", "<>q", "[]bot", "top |> bot", "p |> q",
          "q |> p", "(p |> q) -> (<>p -> <>q)"),
    OMEGA: ("p", "q", "~p", "[0]p", "[1]p", "[0]bot", "[1]p -> [0]p",
            "[0][1]bot", "~[1]~p"),
}

_VELTMAN = [m for n in (1, 2, 3) for m in enumerate_veltman_models(n, ["p"])]

# the glp fixtures whose theories all have descriptors, so can be saved
_SAVED_POLY = [make for make in glp_fixtures.COMPLIANT
               + [make for (make, _, _) in glp_fixtures.VIOLATING]
               if all(o.descriptor for o in make()._theories.values())]

_HOLDS = {"kripke": forces, "veltman": veltman_forces,
          "premodel": pm_forces, "poly": glp_forces}


def _formulas(draw, language, most):
    return [parse(t, language) for t in draw(st.lists(
        st.sampled_from(_POOLS[language]), max_size=most, unique=True))]


@st.composite
def loadable_models(draw):
    """(kind, model): Kripke and Veltman models, box and rhd pre-models
    with and without a witness family, and poly models, generated and
    from the glp fixtures."""
    kind = draw(st.sampled_from(
        ["kripke", "veltman", "box", "rhd", "rhd family", "poly",
         "poly fixture"]))
    if kind == "veltman":
        return "veltman", draw(st.sampled_from(_VELTMAN))
    if kind == "poly fixture":
        return "poly", draw(st.sampled_from(_SAVED_POLY))()
    n = draw(st.integers(1, 3))
    worlds = [f"w{i}" for i in range(n)]
    forward = [(a, b) for i, a in enumerate(worlds) for b in worlds[i + 1:]]
    edges = draw(st.lists(st.sampled_from(forward), unique=True)
                 if forward else st.just([]))
    valuation = draw(st.lists(st.sampled_from(
        [(w, a) for w in worlds for a in ("p", "q")]), unique=True))
    accessible = sorted({b for (_, b) in edges})
    if kind == "kripke":
        return "kripke", KripkeModel(worlds, edges, valuation)
    if kind == "poly":
        upper = [(a, b) for (a, b) in forward if b in accessible]
        levels = {0: edges, 1: draw(st.lists(st.sampled_from(upper),
                                             unique=True)
                                    if upper else st.just([]))}
        theories = {w: {k: finite_axioms_mp(_formulas(draw, OMEGA, 2),
                                            language=OMEGA)
                        for k in levels} for w in accessible}
        return "poly", PolyModel(worlds, levels, theories, valuation,
                                 max_index=1)
    language = BOX if kind == "box" else RHD
    theories = {w: finite_axioms_mp(_formulas(draw, language, 2),
                                    language=language) for w in accessible}
    family = None
    if kind == "rhd family":
        family = _formulas(draw, RHD, 4) or [top()]
    return "premodel", PreModel(worlds, edges, valuation, theories,
                                language, family)


def _answer(holds, model, w, f):
    try:
        return holds(model, w, f)
    except ModelError as exc:
        # an rhd pre-model without a family evaluates no rhd node
        return str(exc)


def _descriptors(model):
    theories = getattr(model, "_theories", None) or \
        getattr(model, "theories", {})
    return {key: oracle.descriptor for key, oracle in theories.items()}


@settings(max_examples=150, deadline=None)
@given(loadable_models(), st.data())
def test_every_loadable_kind_round_trips_and_answers_alike(drawn, data):
    kind, model = drawn
    text = docio.dumps(docio.model_to_doc(model))
    loaded = docio.loads(text)
    m = loaded.model
    assert loaded.kind == kind
    assert type(m) is type(model)
    assert (m.worlds, m.edges, m.valuation) == \
        (model.worlds, model.edges, model.valuation)
    assert getattr(m, "preorders", None) == getattr(model, "preorders", None)
    assert [level.edges for level in getattr(m, "levels", ())] == \
        [level.edges for level in getattr(model, "levels", ())]
    assert _descriptors(m) == _descriptors(model)
    assert getattr(m, "e_family", None) == getattr(model, "e_family", None)
    assert docio.dumps(docio.model_to_doc(m)) == text
    f = parse(data.draw(st.sampled_from(_POOLS[loaded.language])),
              loaded.language)
    holds = _HOLDS[kind]
    for w in sorted(model.worlds):
        assert _answer(holds, m, w, f) == _answer(holds, model, w, f), w


# ---------------------------------------------------------------------------
# the document writer against the json module

_META = {"designated_world": "w0", "refutes": "[]p -> p", "logic": "gl",
         "generate": True}


def test_dumps_matches_the_json_module_on_every_document_kind():
    import support

    v = VeltmanModel(["w0", "u"], [("w0", "u")], {"w0": [("u", "u")]},
                     [("u", "p")])
    finite = finite_axioms_mp([p], language="omega")
    models = [
        KripkeModel(["w0", "w1"], [("w0", "w1")], [("w1", "p")]),
        v,
        unravel(v),
        _chain_premodel(BOX, ([box(p)], [box(FALSUM), p])),
        _chain_premodel(RHD, ([rdiamond(p)], [rbox(FALSUM)]),
                        [top(), FALSUM, p]),
        PolyModel(["w0", "u"], {0: [("w0", "u")], 1: []},
                  {"u": {0: finite, 1: finite}}, [("u", "p")], max_index=1),
    ]
    for model in models:
        for meta in (None, _META):
            doc = docio.model_to_doc(model, meta=meta)
            assert docio.dumps(doc) == support.reference_dumps(doc), model


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _JSON))
@example({"\u00e9\x00\n": ["\u2200\t\"\\", -0.0, float("nan"),
                             float("inf"), (), {}, [[]], 10 ** 20]})
def test_dumps_matches_the_json_module_on_drawn_documents(doc):
    import support

    assert docio.dumps(doc) == support.reference_dumps(doc)
