import json

import pytest

from provmod import docio
from provmod.cli import main
from provmod.decide import NO_COUNTERMODEL_UP_TO_BOUND, representatives_ilm
from provmod.formulas import atom, box, parse, to_text
from provmod.kripke import KripkeModel, VeltmanModel, unravel
from provmod.glp import PolyModel
from provmod.provability import PreModel
from provmod.theories import finite_axioms_mp

p = atom("p")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_theorem_exit_zero(capsys):
    code, out, _ = run(capsys, "decide", "--logic", "gl",
                       "[]([]p->p)->[]p")
    assert code == 0
    assert "theorem" in out


def test_decide_non_theorem_writes_countermodel(capsys, tmp_path):
    out_file = tmp_path / "counter.json"
    code, out, _ = run(capsys, "--json", "decide", "--logic", "gl",
                       "--out", str(out_file), "[]p->p")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "non_theorem"
    loaded = docio.load_path(out_file)
    from provmod.kripke import forces
    refuted = parse(loaded.meta["refutes"])
    assert not forces(loaded.model, loaded.meta["designated_world"], refuted)


def test_decide_ilm(capsys):
    code, out, _ = run(capsys, "decide", "--logic", "ilm", "--bound", "2",
                       "p |> q")
    assert code == 1


def test_decide_ilm_unknown_up_to_bound_exits_three(capsys):
    # no countermodel up to the bound is not a refutation, so not exit 1
    code, out, _ = run(capsys, "--json", "decide", "--logic", "ilm",
                       "--bound", "3", "p |> p")
    assert code == 3
    assert json.loads(out)["status"] == NO_COUNTERMODEL_UP_TO_BOUND


def test_interpret_exit_codes(capsys):
    code, out, _ = run(capsys, "interpret", "--theory",
                       '{"kind":"finite_axioms_mp","axioms":["p"]}',
                       "[]p -> [][]p")
    assert code == 1
    code, out, _ = run(capsys, "--json", "interpret", "--theory",
                       '{"kind":"gl_theorems"}', "[]([]p->p)->[]p")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] is True
    assert payload["phrases"]


def test_a_theory_descriptor_that_is_not_an_object_exits_two(capsys):
    code, out, err = run(capsys, "interpret", "--theory", '["x"]', "[]p")
    assert (code, out) == (2, "")
    assert err == "error: theory must be an object, not ['x']\n"


def test_eval_on_kripke_document(capsys, tmp_path):
    k = KripkeModel(["w0", "w1"], [("w0", "w1")], [("w1", "p")])
    path = tmp_path / "model.json"
    docio.save_path(path, docio.model_to_doc(k))
    code, out, _ = run(capsys, "eval", "--model", str(path),
                       "--world", "w0", "[]p")
    assert code == 0
    code, out, _ = run(capsys, "eval", "--model", str(path),
                       "--world", "w0", "p")
    assert code == 1


def test_eval_trace_holds_skeleton_inputs(capsys, tmp_path):
    k = KripkeModel(["w0", "w1"], [("w0", "w1")], [("w1", "p")])
    path = tmp_path / "model.json"
    docio.save_path(path, docio.model_to_doc(k))
    code, out, _ = run(capsys, "--json", "eval", "--model", str(path),
                       "--world", "w0", "(p -> []p) & [][]bot")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] is True
    assert payload["trace"] == {"p": False, "[]p": True, "[][]bot": True}


def test_eval_trace_skips_what_the_model_cannot_evaluate(capsys, tmp_path):
    finite = finite_axioms_mp([p], language="omega")
    m = PolyModel(["w", "u"], {0: [("w", "u")]}, {"u": {0: finite}},
                  [("u", "p")])
    path = tmp_path / "poly.json"
    docio.save_path(path, docio.model_to_doc(m))
    code, out, _ = run(capsys, "--json", "eval", "--model", str(path),
                       "--world", "w", "p -> [3]p")
    assert code == 0
    assert json.loads(out)["trace"] == {"p": False}


def test_eval_of_a_long_conjunction_answers(capsys, tmp_path):
    # evaluation and the trace's atom walk no longer recurse per conjunct
    path = tmp_path / "one.json"
    docio.save_path(path, docio.model_to_doc(KripkeModel(["w"], [], [])))
    code, out, _ = run(capsys, "--json", "eval", "--model", str(path),
                       "--world", "w", " & ".join(["p"] * 7000))
    assert code == 1
    assert json.loads(out) == {"value": False, "world": "w",
                               "trace": {"p": False}}


def test_eval_on_premodel_document(capsys, tmp_path):
    pre = PreModel(["w0", "w1"], [("w0", "w1")], [],
                   {"w1": finite_axioms_mp([p])})
    path = tmp_path / "pre.json"
    docio.save_path(path, docio.model_to_doc(pre))
    code, out, _ = run(capsys, "eval", "--model", str(path),
                       "--world", "w0", "[]p")
    assert code == 0


def test_generate_and_eval_generated(capsys, tmp_path):
    pre = PreModel(["w0", "w1"], [("w0", "w1")], [],
                   {"w1": finite_axioms_mp([p])})
    seed_path = tmp_path / "seed.json"
    gen_path = tmp_path / "gen.json"
    docio.save_path(seed_path, docio.model_to_doc(pre))
    code, out, _ = run(capsys, "generate", "--seed-model", str(seed_path),
                       "--out", str(gen_path))
    assert code == 0
    code, out, _ = run(capsys, "eval", "--model", str(gen_path),
                       "--world", "w0", "[]([]bot)")
    assert code == 0


def test_generate_refuses_a_seed_that_is_not_a_forest(capsys, tmp_path):
    chain = PreModel("abc", [("a", "b"), ("b", "c"), ("a", "c")], [],
                     {x: finite_axioms_mp([]) for x in "bc"})
    path = tmp_path / "chain.json"
    docio.save_path(path, docio.model_to_doc(chain))
    code, out, err = run(capsys, "generate", "--seed-model", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: seed frame is not a forest: 'c' has the predecessors 'a', "
        "'b'"]
    # the frame report names the same world and predecessors
    payload = _frame_payload(capsys, path)
    assert payload["tree"] == {"holds": True, "witness": None}
    assert payload["forest"] == {"holds": False, "witness": ["c", "a", "b"]}


def test_countermodel_roundtrip_verifies(capsys, tmp_path):
    out_file = tmp_path / "finitary.json"
    code, out, _ = run(capsys, "--json", "countermodel", "--logic", "gl",
                       "--out", str(out_file), "p -> []p")
    assert code == 1
    payload = json.loads(out)
    loaded = docio.load_path(out_file)
    assert loaded.meta["generate"] is True
    from provmod.provability import generate_gl, pm_forces
    model = generate_gl(loaded.model)
    assert not pm_forces(model, loaded.meta["designated_world"],
                         parse(loaded.meta["refutes"]))
    code, out, _ = run(capsys, "eval", "--model", str(out_file),
                       "--world", payload["designated_world"],
                       payload["formula"])
    assert code == 1


def test_countermodel_ilm(capsys, tmp_path):
    out_file = tmp_path / "ilm.json"
    code, out, _ = run(capsys, "--json", "countermodel", "--logic", "ilm",
                       "--out", str(out_file), "p |> q")
    assert code == 1
    loaded = docio.load_path(out_file)
    assert loaded.language == "rhd"
    assert loaded.meta["e_family"]
    # generating again keeps the document's family: the seed lies outside
    # the representative envelope
    code, out, err = run(capsys, "--json", "generate", "--seed-model",
                         str(out_file))
    assert (code, err) == (0, "")
    assert json.loads(out)["e_family"] == loaded.meta["e_family"]


@pytest.mark.parametrize("logic, text, code, status", [
    ("gl", "[]([]p->p)->[]p", 0, "theorem"),
    ("ilm", "p |> p", 3, NO_COUNTERMODEL_UP_TO_BOUND)])
def test_countermodel_without_a_countermodel_exits_as_decide(
        capsys, logic, text, code, status):
    # a theorem and "none up to the bound" are verdicts, not errors
    for argv in (["countermodel", "--logic", logic, text],
                 ["decide", "--logic", logic, text]):
        got, out, err = run(capsys, "--json", *argv)
        assert (got, err) == (code, "")
        assert json.loads(out) == {"logic": logic, "formula": to_text(
            parse(text, "rhd" if logic == "ilm" else "box")),
            "status": status}


def test_unravel_command(capsys, tmp_path):
    v = VeltmanModel(["w", "u", "z"], [("w", "u"), ("w", "z")],
                     {"w": [("u", "u"), ("z", "z"), ("u", "z")]},
                     [("u", "p"), ("z", "q")])
    path = tmp_path / "v.json"
    docio.save_path(path, docio.model_to_doc(v))
    doc = docio.model_to_doc(unravel(v))
    code, out, _ = run(capsys, "--json", "unravel", "--model", str(path))
    assert code == 0
    payload = json.loads(out)
    assert "w/u" in payload["worlds"]
    assert payload == doc
    code, out, _ = run(capsys, "unravel", "--model", str(path))
    assert code == 0 and out == docio.dumps(doc)


def test_generate_and_unravel_print_their_documents(capsys, tmp_path,
                                                  monkeypatch):
    import support

    seed = PreModel(["w0", "w1"], [("w0", "w1")], [],
                    {"w1": finite_axioms_mp([p])})
    v = VeltmanModel(["w", "u"], [("w", "u")], {"w": [("u", "u")]},
                     [("u", "p")])
    seed_path, v_path = tmp_path / "seed.json", tmp_path / "v.json"
    docio.save_path(seed_path, docio.model_to_doc(seed))
    docio.save_path(v_path, docio.model_to_doc(v))
    cases = [(["generate", "--seed-model", str(seed_path)],
              docio.model_to_doc(seed, meta={"generate": True})),
             (["unravel", "--model", str(v_path)],
              docio.model_to_doc(unravel(v)))]
    for argv, doc in cases:
        assert run(capsys, *argv) == (0, support.reference_dumps(doc), "")
    # under --json the indented text is never built
    def refuse(doc):
        raise AssertionError("dumps ran under --json")

    monkeypatch.setattr(docio, "dumps", refuse)
    for argv, doc in cases:
        assert run(capsys, "--json", *argv) == (
            0, json.dumps(doc, sort_keys=True) + "\n", "")


def test_an_unravelled_document_is_refused_as_input(capsys, tmp_path):
    v = VeltmanModel(["v0", "v1"], [("v0", "v1")], {"v0": [("v1", "v1")]},
                     [("v1", "p")])
    path, tree = tmp_path / "v.json", tmp_path / "u.json"
    docio.save_path(path, docio.model_to_doc(v))
    code, _, _ = run(capsys, "unravel", "--model", str(path),
                     "--out", str(tree))
    assert code == 0
    code, out, err = run(capsys, "eval", "--model", str(tree),
                         "--world", "v0", "p |> p")
    assert code == 2 and out == ""
    assert err.startswith("error: a rhd-language document"), err


def test_reps_command(capsys):
    code, out, _ = run(capsys, "--json", "reps", "--logic", "gl",
                       "--n", "1", "--atoms", "p")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["members"]) == 4
    code, out, err = run(capsys, "--json", "reps", "--logic", "ilm",
                         "--n", "1", "--atoms", "p")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "logic": "ilm", "n": 1, "atoms": ["p"],
        "members": [to_text(m)
                    for m in representatives_ilm(1, ["p"]).members]}
    # a repeated atom is one atom, in the payload as in the members
    code, again, _ = run(capsys, "--json", "reps", "--logic", "ilm",
                         "--n", "1", "--atoms", "p,p")
    assert (code, again) == (0, out)


def test_reps_with_a_negative_height_exits_two(capsys):
    code, out, err = run(capsys, "reps", "--logic", "gl", "--n", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: representatives are supported for 0 <= n")
    assert err.count("\n") == 1, err


def test_check_frame_and_soundness(capsys, tmp_path):
    pre = PreModel(["w0", "w1"], [("w0", "w1")], [],
                   {"w1": finite_axioms_mp([p])})
    seed_path = tmp_path / "seed.json"
    docio.save_path(seed_path, docio.model_to_doc(pre, meta={"generate": True}))
    code, out, _ = run(capsys, "check", "--model", str(seed_path),
                       "--suite", "frame")
    assert code == 0
    code, out, _ = run(capsys, "check", "--model", str(seed_path),
                       "--suite", "classical")
    assert code == 0
    code, out, _ = run(capsys, "check", "--model", str(seed_path),
                       "--suite", "soundness", "--logic", "gl",
                       "--atoms", "p", "--depth", "1")
    assert code == 0


def _rhd_seed():
    # w1's theory derives <>p, so whether top |> bot holds at w0 depends on
    # whether the witness family has p
    return PreModel(["w0", "w1"], [("w0", "w1")], [],
                    {"w1": finite_axioms_mp([parse("<>p", "rhd")],
                                            language="rhd")}, "rhd")


def test_soundness_suite_of_another_language_is_an_error(capsys, tmp_path):
    box_pre = PreModel(["w0", "w1"], [("w0", "w1")], [],
                       {"w1": finite_axioms_mp([p])})
    docs = {"box": (box_pre, "ilm", {"generate": True}),
            "rhd": (_rhd_seed(), "gl", {"generate": True,
                                        "e_family": ["top", "bot"]})}
    for name, (pre, logic, meta) in docs.items():
        path = tmp_path / f"{name}.json"
        docio.save_path(path, docio.model_to_doc(pre, meta=meta))
        code, out, err = run(capsys, "check", "--model", str(path),
                             "--suite", "soundness", "--logic", logic)
        assert (code, out) == (2, ""), name
        assert err.startswith(f"error: the {logic} suite takes "), err
        assert "box" in err and "rhd" in err, err


def test_eval_of_an_rhd_seed_takes_its_family_from_the_option(capsys,
                                                              tmp_path):
    from provmod.provability import pm_forces_rhd

    seed = _rhd_seed()
    path = tmp_path / "seed.json"
    docio.save_path(path, docio.model_to_doc(seed))
    f = parse("top |> bot", "rhd")
    answers = []
    for texts in (["p"], ["top", "bot"]):
        fam = tmp_path / "family.txt"
        fam.write_text("\n".join(texts) + "\n")
        family = [parse(t, "rhd") for t in texts]
        expected = pm_forces_rhd(
            PreModel(seed.worlds, seed.edges, seed.valuation, seed.theories,
                     "rhd", family), "w0", f)
        code, out, _ = run(capsys, "--json", "eval", "--model", str(path),
                           "--family", str(fam), "--world", "w0",
                           "top |> bot")
        assert json.loads(out)["value"] is expected
        assert code == (0 if expected else 1)
        answers.append(expected)
    assert answers == [True, False]
    # without a family there is nothing to evaluate the rhd clause over
    code, out, err = run(capsys, "eval", "--model", str(path), "--world",
                         "w0", "top |> bot")
    assert (code, out) == (2, "")
    assert err == "error: rhd evaluation needs a nonempty witness family\n"


@pytest.mark.parametrize("seed", [
    _rhd_seed(), PreModel(["w0"], [], [], {}, "rhd")])
@pytest.mark.parametrize("argv", [
    ("generate", "--seed-model"), ("eval", "--world", "w0", "p", "--model"),
    ("check", "--suite", "classical", "--model")])
def test_an_rhd_seed_without_a_family_does_not_generate(capsys, tmp_path,
                                                        seed, argv):
    # no family is guessed, whatever the seed's size
    path = tmp_path / "seed.json"
    docio.save_path(path, docio.model_to_doc(seed, meta={"generate": True}))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == ("error: generating an rhd seed needs its e_family or "
                   "--family\n")


def test_a_generated_rhd_document_keeps_its_own_family(capsys, tmp_path,
                                                       monkeypatch):
    from provmod import provability

    seed = _rhd_seed()
    path = tmp_path / "gen.json"
    docio.save_path(path, docio.model_to_doc(
        seed, meta={"generate": True, "e_family": ["p", "top"]}))
    fam = tmp_path / "family.txt"
    fam.write_text("bot\n")
    own = [parse(t, "rhd") for t in ("p", "top")]
    model = provability.generate_ilm(seed, e_family=own)
    f = parse("top |> bot", "rhd")
    expected = provability.pm_forces_rhd(model, "w0", f)
    families = []

    def recording(name):
        original = getattr(provability, name)

        def record(model, *args, **kwargs):
            families.append((name, kwargs.get("e_family", model.e_family)))
            return original(model, *args, **kwargs)

        monkeypatch.setattr(provability, name, record)

    recording("generate_ilm")
    recording("pm_forces")
    code, out, _ = run(capsys, "--json", "eval", "--model", str(path),
                       "--family", str(fam), "--world", "w0", "top |> bot")
    assert json.loads(out)["value"] is expected
    assert families[:2] == [("generate_ilm", own),
                            ("pm_forces", model.e_family)]
    families.clear()
    code, out, _ = run(capsys, "--json", "check", "--model", str(path),
                       "--suite", "soundness", "--logic", "ilm",
                       "--family", str(fam))
    expected = provability.soundness_suite(model, "ilm", ["p"])
    assert json.loads(out)["failures"] == [
        [name, to_text(g), w] for (name, g, w) in expected]
    assert families == [("generate_ilm", own)]


_SUITE_KINDS = {"classical": "a pre-model or poly-model document",
                "modal_completeness": "a pre-model document",
                "glp": "a poly-model document",
                "glp_soundness": "a poly-model document",
                "soundness": "a pre-model document"}


@pytest.mark.parametrize("suite, kind", [
    ("classical", "kripke"), ("classical", "veltman"),
    ("modal_completeness", "kripke"), ("modal_completeness", "veltman"),
    ("modal_completeness", "poly"), ("glp", "premodel"),
    ("glp_soundness", "premodel"), ("soundness", "poly")])
def test_a_theory_suite_on_a_document_without_theories_is_an_error(
        capsys, tmp_path, suite, kind):
    models = {
        "kripke": KripkeModel(["w0", "w1"], [("w0", "w1")], [("w1", "p")]),
        "veltman": VeltmanModel(["w", "u"], [("w", "u")], {"w": [("u", "u")]},
                                [("u", "p")]),
        "poly": PolyModel(["w"], {0: []}, {}, [("w", "p")]),
        "premodel": PreModel(["w0", "w1"], [("w0", "w1")], [],
                             {"w1": finite_axioms_mp([p])}),
    }
    path = tmp_path / "model.json"
    docio.save_path(path, docio.model_to_doc(models[kind]))
    assert docio.load_path(path).kind == kind
    fam = tmp_path / "family.txt"
    fam.write_text("p\n")
    code, out, err = run(capsys, "check", "--model", str(path), "--suite",
                         suite, "--family", str(fam))
    assert (code, out) == (2, "")
    assert err == f"error: the {suite} suite takes {_SUITE_KINDS[suite]}\n"


def _poly_document(tmp_path):
    finite = finite_axioms_mp([p], language="omega")
    m = PolyModel(["w", "u"], {0: [("w", "u")], 1: []},
                  {"u": {0: finite, 1: finite}}, [("u", "p")], max_index=1)
    path = tmp_path / "poly.json"
    docio.save_path(path, docio.model_to_doc(m))
    return path


def test_check_glp(capsys, tmp_path):
    path = _poly_document(tmp_path)
    fam = tmp_path / "family.txt"
    fam.write_text("top\np\n[0]p\n")
    code, out, _ = run(capsys, "check", "--model", str(path),
                       "--suite", "glp", "--family", str(fam))
    assert code == 1  # finite axiom theories are not nec-closed


def _frame_payload(capsys, path):
    code, out, err = run(capsys, "--json", "check", "--model", str(path),
                         "--suite", "frame")
    assert (code, err) == (0, "")
    return json.loads(out)


def test_check_frame_on_poly_document(capsys, tmp_path):
    finite = finite_axioms_mp([p], language="omega")
    m = PolyModel(["w", "u", "v"], {0: [("w", "u"), ("u", "v")], 1: []},
                  {"u": {0: finite, 1: finite}, "v": {0: finite, 1: finite}},
                  [], max_index=1)
    path = tmp_path / "poly.json"
    docio.save_path(path, docio.model_to_doc(m))
    payload = _frame_payload(capsys, path)
    assert payload["transitive"] == {"holds": False,
                                     "witness": ["w", "u", "v"]}
    assert payload["tree"]["holds"]
    assert payload["reflexive"]["witness"] == ["u"]


def test_check_frame_on_veltman_document(capsys, tmp_path):
    v = VeltmanModel(["a", "b", "c"], [("a", "b"), ("a", "c")],
                     {"a": [("b", "b"), ("c", "c"), ("b", "c")]}, [])
    path = tmp_path / "veltman.json"
    docio.save_path(path, docio.model_to_doc(v))
    payload = _frame_payload(capsys, path)
    assert payload["transitive"]["holds"]
    assert payload["irreflexive"]["holds"]
    assert payload["converse_well_founded"]["holds"]
    assert payload["reflexive"]["witness"] == ["a"]


def test_check_frame_on_a_seed_document_does_not_generate(capsys, tmp_path,
                                                        monkeypatch):
    pre = PreModel(["w0", "w1", "w2"], [("w0", "w1"), ("w0", "w2")], [],
                   {"w1": finite_axioms_mp([p]), "w2": finite_axioms_mp([])})
    seed_path = tmp_path / "seed.json"
    docio.save_path(seed_path, docio.model_to_doc(pre, meta={"generate": True}))
    expected = _frame_payload(capsys, seed_path)
    assert expected["reflexive"] == {"holds": False, "witness": ["w0"]}
    assert all(expected[name] == {"holds": True, "witness": None}
               for name in ("irreflexive", "transitive",
                            "converse_well_founded", "tree", "forest"))

    from provmod import provability

    def refuse(*args, **kwargs):
        raise AssertionError("the frame suite generated the model")

    # the cli imports generate_gl from its home module when it generates
    monkeypatch.setattr(provability, "generate_gl", refuse)
    assert _frame_payload(capsys, seed_path) == expected
    # the other suites still read the generated model
    code, _, err = run(capsys, "check", "--model", str(seed_path),
                       "--suite", "classical")
    assert code == 2 and "the frame suite generated the model" in err


def test_malformed_model_documents_are_rejected(capsys, tmp_path):
    docs = {
        "poly": {"language": "omega", "worlds": ["w"],
                 "edges": {"-1": [["w", "w"]]}, "theories": {}},
        "veltman": {"language": "rhd", "worlds": ["q", "r"],
                    "edges": [["q", "r"]],
                    "preorders": {"q": [["r", "r"]], "zz": [["q", "r"]]}},
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--model", str(path),
                             "--suite", "frame")
        assert code == 2, name
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err, err


def test_documents_that_would_be_misread_exit_two(capsys, tmp_path):
    # a string of atoms, a string of worlds and a one-world edge: read
    # as lists they would give the atoms p and q, the worlds a and b, and
    # an edge that does not unpack
    docs = [({"worlds": ["a"], "edges": [], "valuation": {"a": "pq"}},
             "valuation of 'a' must be a list of "),
            ({"worlds": "ab", "edges": [], "valuation": {}},
             "worlds must be a list of "),
            ({"worlds": ["a", "b"], "edges": [["a"]], "valuation": {}},
             "edges must be a list of ")]
    # a max index of 1.9 loaded as 1 and 0.5 as 0, a level key of "0.5"
    # died in int(), and a theory that is no object died with a traceback
    poly = {"language": "omega", "worlds": ["a", "b"],
            "edges": {"0": [["a", "b"]]},
            "theories": {"b": {"0": {"kind": "finite_axioms_mp",
                                     "axioms": ["p"]}}}}
    docs += [({**poly, "max_index": 1.9}, "max_index must be an integer, "),
             ({**poly, "max_index": 0.5}, "max_index must be an integer, "),
             ({**poly, "edges": {"0.5": [["a", "b"]]}},
              "edges key '0.5' is not a level number"),
             ({"worlds": ["a", "u"], "edges": [["a", "u"]],
               "theories": {"u": "finite_axioms_mp"}},
              "theory must be an object, ")]
    for doc, message in docs:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "--json", "eval", "--model", str(path),
                             "--world", "a", "p & q")
        assert (code, out) == (2, ""), message
        assert err.startswith(f"error: {message}"), err
        assert len(err.splitlines()) == 1, err


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "decide", "--logic", "gl", "p |> q")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "eval", "--model", "/nonexistent.json",
                       "--world", "w", "p")
    assert code == 2


def test_unexpected_exception_exits_two(capsys, monkeypatch):
    from provmod import cli

    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_reps", crash)
    code, out, err = run(capsys, "reps", "--logic", "gl", "--n", "1")
    assert code == 2
    assert out == ""
    assert err.rstrip().splitlines()[-1] == "error: RuntimeError: boom"


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "--json", "decide", "--logic", "gl", "[]p->p")
    _, out2, _ = run(capsys, "--json", "decide", "--logic", "gl", "[]p->p")
    assert out1 == out2


def test_check_glp_soundness_and_classical_on_a_poly_document(capsys,
                                                             tmp_path):
    from provmod.glp import glp_soundness_suite

    path = _poly_document(tmp_path)
    model = docio.load_path(path).model
    expected = glp_soundness_suite(model, ["p"], 1).violations
    assert expected  # finite axiom theories are not nec-closed
    code, out, err = run(capsys, "--json", "check", "--model", str(path),
                         "--suite", "glp_soundness", "--atoms", "p")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"failures": [
        [name, to_text(f), w] for (name, n, f, w) in expected]}
    code, out, err = run(capsys, "--json", "check", "--model", str(path),
                         "--suite", "classical")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"violations": []}


def test_check_modal_completeness_on_a_pre_model(capsys, tmp_path):
    pre = PreModel(["w0", "w1"], [("w0", "w1")], [],
                   {"w1": finite_axioms_mp([p])})
    fam = tmp_path / "family.txt"
    fam.write_text("[]bot\np\n[]p\n")
    plain, seed = tmp_path / "pre.json", tmp_path / "seed.json"
    docio.save_path(plain, docio.model_to_doc(pre))
    docio.save_path(seed, docio.model_to_doc(pre, meta={"generate": True}))
    # the leaf plus-forces every box, which a bare axiom set does not derive
    code, out, err = run(capsys, "--json", "check", "--model", str(plain),
                         "--suite", "modal_completeness", "--family",
                         str(fam))
    assert (code, err) == (1, "")
    assert json.loads(out) == {"violations": [["w1", "[]bot"],
                                              ["w1", "[]p"]]}
    # the generated model is modally complete
    code, out, err = run(capsys, "--json", "check", "--model", str(seed),
                         "--suite", "modal_completeness", "--family",
                         str(fam))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"violations": []}
    code, out, err = run(capsys, "check", "--model", str(plain),
                         "--suite", "modal_completeness")
    assert (code, out) == (2, "")
    assert err == "error: the modal_completeness suite needs --family\n"


def test_eval_on_a_veltman_document(capsys, tmp_path):
    v = VeltmanModel(["w", "u", "z"], [("w", "u"), ("w", "z")],
                     {"w": [("u", "u"), ("z", "z"), ("u", "z")]},
                     [("u", "p"), ("z", "q")])
    path = tmp_path / "v.json"
    docio.save_path(path, docio.model_to_doc(v))
    code, out, _ = run(capsys, "--json", "eval", "--model", str(path),
                       "--world", "w", "(p |> q) & ~(q |> p)")
    assert code == 0
    assert json.loads(out) == {"value": True, "world": "w",
                               "trace": {"p |> q": True, "q |> p": False}}
    code, out, _ = run(capsys, "--json", "eval", "--model", str(path),
                       "--world", "w", "q |> p")
    assert code == 1
    assert json.loads(out)["value"] is False


def test_decide_and_countermodel_write_dot_before_the_payload(capsys):
    for argv, code, keys in (
            (["decide", "--logic", "gl"], 1,
             {"logic", "formula", "status", "countermodel"}),
            (["countermodel", "--logic", "gl"], 1,
             {"logic", "formula", "level", "designated_world",
              "countermodel"})):
        got, out, err = run(capsys, "--json", *argv, "--dot", "p -> []p")
        assert (got, err) == (code, "")
        *dot, line = out.splitlines(keepends=True)
        payload = json.loads(line)
        assert set(payload) == keys
        loaded = docio.doc_to_model(payload["countermodel"])
        assert "".join(dot) == docio.to_dot(
            loaded.model, designated=loaded.meta["designated_world"])
