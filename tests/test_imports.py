"""What importing provmod loads and changes, checked in fresh interpreters.

Each check runs in a subprocess, so the modules this test session already
imported and its recursion limit do not leak into what is measured.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run(code: str):
    """The JSON value a fresh interpreter prints on its last line."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_provmod_leaves_the_recursion_limit_alone():
    limits = _run("""
import json, sys
before = sys.getrecursionlimit()
import provmod
after_package = sys.getrecursionlimit()
import provmod.provability
print(json.dumps([before, after_package, sys.getrecursionlimit()]))
""")
    assert limits[0] == limits[1] == limits[2]


def test_deep_formulas_need_no_raised_recursion_limit():
    results = _run("""
import json, sys
from provmod.decide import decide
from provmod.formulas import parse, to_text
from provmod.kripke import KripkeModel, forces

text = " & ".join(f"(p{i} -> p{i})" for i in range(7000))
f = parse(text)
one = KripkeModel(["w"], [], [])
deep = parse("[]" * 600 + "p -> " + "[]" * 600 + "q")
print(json.dumps([sys.getrecursionlimit(), to_text(f) == text,
                  forces(one, "w", f), decide("k", f).status,
                  decide("gl", f).status, decide("k", deep).status]))
""")
    limit, *answers = results
    assert limit < 7000
    assert answers == [True, True, "theorem", "theorem", "non_theorem"]


def test_instance_tables_of_deep_formulas_need_no_raised_recursion_limit():
    results = _run("""
import json, sys
from provmod.formulas import FALSUM, atom, box, conj, imp, instance_table, top

p, q = atom("p"), atom("q")
chain = p
for i in range(20000):
    chain = imp(q if i % 2 else p, chain)
wide = conj(([p, box(q), q] * 6667)[:20000])
tables = [instance_table(f) for f in (chain, wide)]
print(json.dumps([sys.getrecursionlimit(), [list(names) for names, _ in tables],
                  [len(inst) for _, inst in tables],
                  instance_table(wide)[1][1] is conj(
                      ([top(), box(q), FALSUM] * 6667)[:20000])]))
""")
    limit, names, widths, substituted = results
    assert limit < 20000
    assert names == [["p", "q"], ["p", "q"]]
    assert widths == [4, 4]
    assert substituted


def test_a_tableau_deeper_than_the_recursion_limit_is_an_envelope_error():
    results = _run("""
import contextlib, io, json, sys
from provmod import cli
from provmod.decide import EnvelopeError, decide
from provmod.formulas import parse

text = "[]" * 1000 + "p -> " + "[]" * 1000 + "q"
try:
    decide("k", parse(text))
    raised = None
except EnvelopeError as exc:
    raised = str(exc)
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(err):
    code = cli.main(["decide", "--logic", "k", text])
print(json.dumps([sys.getrecursionlimit(), raised, code, err.getvalue()]))
""")
    limit, raised, code, stderr = results
    assert raised == (f"the k tableau nests deeper than the recursion "
                      f"limit of {limit} allows")
    assert code == 2
    assert stderr == f"error: {raised}\n"


def test_decide_loads_no_provability_model_module():
    loaded = _run("""
import contextlib, io, json, sys
from provmod import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--json", "decide", "--logic", "gl", "[]p -> p"])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("provmod."))]))
""")
    code, modules = loaded
    assert code == 1
    assert not {"provmod.provability", "provmod.glp", "provmod.interpret",
                "provmod.theories"} & set(modules)


def test_no_module_or_command_loads_dataclasses_or_inspect():
    loaded = _run("""
import contextlib, importlib, io, json, os, sys
import provmod
from provmod import cli

# pkgutil imports inspect, so the package directory is listed by hand
modules = [f[:-3] for f in os.listdir(provmod.__path__[0])
           if f.endswith(".py") and f != "__init__.py"]
for name in modules:
    importlib.import_module(f"provmod.{name}")
codes = []
for command in ("decide", "countermodel"):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["--json", command, "--logic", "gl",
                               "[]p -> p"]))
print(json.dumps([sorted(modules), codes,
                  sorted({"dataclasses", "inspect"} & set(sys.modules))]))
""")
    modules, codes, heavy = loaded
    assert {"cli", "decide", "docio", "formulas", "glp", "interpret",
            "kripke", "provability", "theories"} <= set(modules)
    assert codes == [1, 1]
    assert heavy == []


def test_decide_names_the_function_in_either_import_order():
    for first, second in (("decide", "cli"), ("cli", "decide")):
        kinds = _run(f"""
import inspect, json
from provmod import {first}
from provmod import {second}
from provmod import decide
print(json.dumps([inspect.isfunction(decide), decide.__module__]))
""")
        assert kinds == [True, "provmod.decide"], (first, second)


def test_every_exported_name_is_its_home_modules_object():
    mismatched = _run("""
import importlib, inspect, json
import provmod

eager = [importlib.import_module(f"provmod.{m}")
         for m in ("formulas", "kripke", "decide")]
bad = []
for name in provmod.__all__:
    value = getattr(provmod, name)
    if inspect.ismodule(value):
        ok = value is importlib.import_module(f"provmod.{name}")
    elif name in provmod._LAZY:
        home = importlib.import_module(f"provmod.{provmod._LAZY[name]}")
        ok = value is getattr(home, name)
    else:
        ok = any(vars(m).get(name) is value for m in eager)
    if not ok or name not in dir(provmod):
        bad.append(name)
print(json.dumps([len(provmod.__all__), bad]))
""")
    assert mismatched == [90, []]
