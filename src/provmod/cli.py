"""Command-line interface.

Exit codes: 0 for success / true / theorem / clean reports, 1 for false /
non-theorem / reported violations, 2 for errors (bad input, schema
violations, exceeded envelopes) and for any unexpected exception, 3 for
"unknown up to the bound" (a bounded ILM search found no countermodel),
in ``countermodel`` as in ``decide``.
``--json`` switches stdout to a stable machine-readable form.

Each process runs one command, so start-up is most of its time.  This
module imports only ``formulas``, ``kripke``, ``decide`` and ``docio``;
a subcommand imports ``provability``, ``glp``, ``interpret`` or
``theories`` when it runs, and only the ones it uses.  Records are named
tuples and plain classes, which generate no methods at import, so no
command loads ``inspect``.
"""

from __future__ import annotations

import argparse
import json
import sys

from provmod import formulas as fm
from provmod.formulas import BOX, RHD, parse, to_text
from provmod import docio
from provmod.decide import (
    NO_COUNTERMODEL_UP_TO_BOUND,
    NON_THEOREM,
    THEOREM,
    decide,
    representatives_gl,
    representatives_ilm,
)
from provmod.kripke import (
    ModelError,
    check_frame,
    forces,
    unravel,
    veltman_forces,
)


class CliError(Exception):
    pass


_EXIT = {THEOREM: 0, NON_THEOREM: 1, NO_COUNTERMODEL_UP_TO_BOUND: 3}


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _emit_doc(args, doc: dict):
    """``_emit`` of a document as the payload and its indented dump as the
    text, which is built only when it is printed."""
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        sys.stdout.write(docio.dumps(doc))


def _read_family(path, language):
    family = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                family.append(parse(line, language))
    if not family:
        raise CliError(f"family file {path} holds no formulas")
    return family


def _generated(seed, family):
    """The model generated over a seed pre-model; an rhd seed takes its own
    witness family, else the ``--family`` given."""
    from provmod.provability import generate_gl, generate_ilm
    if seed.language == BOX:
        return generate_gl(seed)
    family = list(seed.e_family) if seed.e_family else family
    if not family:
        raise CliError("generating an rhd seed needs its e_family or --family")
    return generate_ilm(seed, e_family=family)


def _materialize(loaded, family):
    """The document's model, generated when it is saved as a seed; an rhd
    pre-model is built with its witness family."""
    model = loaded.model
    if loaded.kind != "premodel":
        return model
    if loaded.meta.get("generate"):
        return _generated(model, family)
    if loaded.language == BOX or model.e_family:
        return model
    from provmod.provability import PreModel
    return PreModel(model.worlds, model.edges, model.valuation,
                    model.theories, RHD, e_family=family)


def _seed_doc(seed, model, meta: dict) -> dict:
    """The document of a generated model: its seed, flagged to generate
    again, with the generated model's witness family."""
    if model.e_family != seed.e_family:
        from provmod.provability import PreModel
        seed = PreModel(seed.worlds, seed.edges, seed.valuation,
                        seed.theories, seed.language, model.e_family)
    return docio.model_to_doc(seed, meta={"generate": True, **meta})


def cmd_decide(args) -> int:
    language = RHD if args.logic == "ilm" else BOX
    f = parse(args.formula, language)
    verdict = decide(args.logic, f, bound=args.bound)
    payload = {"logic": args.logic, "formula": to_text(f),
               "status": verdict.status}
    if verdict.status == NON_THEOREM and verdict.countermodel is not None:
        doc = docio.model_to_doc(
            verdict.countermodel,
            meta={"designated_world": docio._world_id(verdict.world),
                  "refutes": to_text(f), "logic": args.logic})
        if args.out:
            docio.save_path(args.out, doc)
            payload["countermodel_file"] = args.out
        else:
            payload["countermodel"] = doc
        if args.dot:
            sys.stdout.write(docio.to_dot(verdict.countermodel,
                                          designated=verdict.world))
    _emit(args, payload, verdict.status)
    return _EXIT[verdict.status]


def _forcing(loaded, model, world):
    """Truth at the world, as a one-argument test, under the forcing
    relation of the document's model kind."""
    if loaded.kind == "kripke":
        return lambda g: forces(model, world, g)
    if loaded.kind == "veltman":
        return lambda g: veltman_forces(model, world, g)
    if loaded.kind == "poly":
        from provmod.glp import glp_forces
        return lambda g: glp_forces(model, world, g)
    from provmod.provability import pm_forces
    return lambda g: pm_forces(model, world, g)


def cmd_eval(args) -> int:
    loaded = docio.load_path(args.model)
    family = _read_family(args.family, loaded.language) if args.family else None
    model = _materialize(loaded, family)
    f = parse(args.formula, loaded.language)
    holds = _forcing(loaded, model, args.world)
    value = holds(f)
    # the inputs of the boolean skeleton: each atom and each outermost
    # modal subformula, at the world
    trace = {}
    for x in fm.extended_atoms([f]):
        g = fm.atom(x) if isinstance(x, str) else x
        try:
            trace[to_text(g)] = holds(g)
        except ModelError:
            # left unevaluated by the lazy walk, and undefined on this model
            continue
    _emit(args, {"value": value, "world": str(args.world), "trace": trace},
          f"{value}")
    return 0 if value else 1


def cmd_generate(args) -> int:
    loaded = docio.load_path(args.seed)
    if loaded.kind != "premodel":
        raise CliError("generation starts from a pre-model document")
    family = _read_family(args.family, RHD) if args.family else None
    model = _generated(loaded.model, family)
    doc = _seed_doc(loaded.model, model, {})
    if args.out:
        docio.save_path(args.out, doc)
        _emit(args, {"written": args.out, "worlds": len(model.worlds)},
              f"wrote {args.out}")
    else:
        _emit_doc(args, doc)
    return 0


def cmd_countermodel(args) -> int:
    from provmod.provability import (
        NoCountermodel,
        countermodel_pipeline_gl,
        countermodel_pipeline_ilm,
    )

    language = RHD if args.logic == "ilm" else BOX
    f = parse(args.formula, language)
    payload = {"logic": args.logic, "formula": to_text(f)}
    try:
        result = (countermodel_pipeline_gl(f) if args.logic == "gl" else
                  countermodel_pipeline_ilm(f, size_bound=args.bound))
    except NoCountermodel as exc:
        payload["status"] = exc.status
        _emit(args, payload, exc.status)
        return _EXIT[exc.status]
    meta = {"designated_world": docio._world_id(result.designated),
            "refutes": to_text(f), "logic": args.logic}
    doc = _seed_doc(result.seed, result.model, meta)
    payload.update(level=result.n, designated_world=meta["designated_world"])
    if args.out:
        docio.save_path(args.out, doc)
        payload["countermodel_file"] = args.out
    else:
        payload["countermodel"] = doc
    if args.dot:
        sys.stdout.write(docio.to_dot(result.seed,
                                      designated=result.designated))
    _emit(args, payload,
          f"refuted at {meta['designated_world']} (level {result.n})")
    return 1


def cmd_unravel(args) -> int:
    loaded = docio.load_path(args.model)
    if loaded.kind != "veltman":
        raise CliError("unravelling takes a Veltman model document")
    unravelled = unravel(loaded.model)
    doc = docio.model_to_doc(unravelled)
    if args.out:
        docio.save_path(args.out, doc)
        _emit(args, {"written": args.out, "worlds": len(unravelled.worlds)},
              f"wrote {args.out}")
    else:
        _emit_doc(args, doc)
    return 0


def cmd_interpret(args) -> int:
    from provmod.interpret import t_interpretation

    desc = json.loads(args.theory)
    theory = docio.theory_from_descriptor(desc, BOX)
    f = parse(args.formula, BOX)
    result = t_interpretation(f, theory)
    payload = {
        "formula": to_text(f),
        "theory": desc,
        "value": result.truth,
        "phrases": [
            {
                "phrase": to_text(tr.phrase.formula()),
                "antecedent_checks": [[to_text(e), ok]
                                      for (e, ok) in tr.antecedent_checks],
                "consequent_witness": (to_text(tr.consequent_witness)
                                       if tr.consequent_witness else None),
                "inert_atoms": list(tr.inert_atoms),
                "value": tr.truth,
            }
            for tr in result.traces
        ],
    }
    _emit(args, payload, f"{result.truth}")
    return 0 if result.truth else 1


def cmd_reps(args) -> int:
    names = [a for a in (args.atoms.split(",") if args.atoms else []) if a]
    rep = (representatives_gl(args.n, names) if args.logic == "gl"
           else representatives_ilm(args.n, names))
    payload = {"logic": args.logic, "n": args.n, "atoms": list(rep.atoms),
               "members": [to_text(m) for m in rep.members]}
    _emit(args, payload, "\n".join(payload["members"]))
    return 0


# per theory suite: the document kinds it takes, named as its error names
# them, and whether it needs --family
_SUITES = {
    "classical": (("premodel", "poly"), "a pre-model or poly-model", False),
    "modal_completeness": (("premodel",), "a pre-model", True),
    "glp": (("poly",), "a poly-model", True),
    "glp_soundness": (("poly",), "a poly-model", False),
    "soundness": (("premodel",), "a pre-model", False),
}


def _report(args, key: str, rows: list) -> int:
    """Emit the rows found under ``key``; exit 1 when there are any."""
    _emit(args, {key: rows}, f"{len(rows)} {key}")
    return 1 if rows else 0


def cmd_check(args) -> int:
    loaded = docio.load_path(args.model)
    family = _read_family(args.family, loaded.language) if args.family else None

    if args.suite == "frame":
        # generating a seed adds theories, never worlds or edges, so the
        # frame is read off the document as it was loaded
        report = check_frame(loaded.model)
        payload = {
            name: {"holds": bool(check),
                   "witness": list(map(str, check.witness))
                   if check.witness else None}
            for name, check in zip(report._fields, report)}
        _emit(args, payload,
              "\n".join(f"{k}: {v['holds']}" for k, v in payload.items()))
        return 0

    kinds, takes, needs_family = _SUITES[args.suite]
    if loaded.kind not in kinds:
        raise CliError(f"the {args.suite} suite takes {takes} document")
    if needs_family and family is None:
        raise CliError(f"the {args.suite} suite needs --family")
    model = _materialize(loaded, family)
    names = [a for a in (args.atoms.split(",") if args.atoms else ["p"]) if a]

    if args.suite == "classical":
        if loaded.kind == "poly":
            from provmod.theories import classicality_violations
            violations = []
            for (w, n), oracle in sorted(model._theories.items(), key=str):
                for v in classicality_violations(oracle):
                    violations.append([str(w), n] + list(map(str, v)))
        else:
            from provmod.provability import check_oracles_classical
            violations = [list(map(str, v))
                          for v in check_oracles_classical(model)]
        return _report(args, "violations", violations)

    if args.suite == "modal_completeness":
        from provmod.provability import is_purely_modal_family_complete
        violations = is_purely_modal_family_complete(model, family)
        return _report(args, "violations",
                       [[str(w), to_text(f)] for (w, f) in violations])

    if args.suite == "glp":
        from provmod.glp import check_glp_model
        report = check_glp_model(model, family)
        return _report(args, "violations",
                       [list(map(str, v)) for v in report.violations])

    if args.suite == "glp_soundness":
        from provmod.glp import glp_soundness_suite
        report = glp_soundness_suite(model, names, args.depth)
        return _report(args, "failures",
                       [[name, to_text(f), str(w)]
                        for (name, n, f, w) in report.violations])

    from provmod.provability import soundness_suite
    failures = soundness_suite(model, args.logic, names, args.depth)
    return _report(args, "failures",
                   [[name, to_text(f), str(w)] for (name, f, w) in failures])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provmod",
        description="provability-model semantics for modal logics")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="decide theoremhood")
    d.add_argument("--logic", required=True,
                   choices=["k", "k4", "s4", "gl", "ilm"])
    d.add_argument("--bound", type=int, default=3)
    d.add_argument("--out", help="write a countermodel document here")
    d.add_argument("--dot", action="store_true")
    d.add_argument("formula")
    d.set_defaults(func=cmd_decide)

    e = sub.add_parser("eval", help="evaluate a formula on a model document")
    e.add_argument("--model", required=True)
    e.add_argument("--world", required=True)
    e.add_argument("--family", help="witness family file (rhd models)")
    e.add_argument("formula")
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("generate", help="generate the minimum model over a seed")
    g.add_argument("--seed-model", dest="seed", required=True)
    g.add_argument("--family", help="witness family file (rhd seeds)")
    g.add_argument("--out")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("countermodel", help="finitary countermodel pipeline")
    c.add_argument("--logic", required=True, choices=["gl", "ilm"])
    c.add_argument("--bound", type=int, default=3)
    c.add_argument("--out")
    c.add_argument("--dot", action="store_true")
    c.add_argument("formula")
    c.set_defaults(func=cmd_countermodel)

    u = sub.add_parser("unravel", help="unravel a Veltman model")
    u.add_argument("--model", required=True)
    u.add_argument("--out")
    u.set_defaults(func=cmd_unravel)

    i = sub.add_parser("interpret", help="provability reading of a formula")
    i.add_argument("--theory", required=True,
                   help="theory descriptor as JSON")
    i.add_argument("formula")
    i.set_defaults(func=cmd_interpret)

    r = sub.add_parser("reps", help="representative formulas")
    r.add_argument("--logic", required=True, choices=["gl", "ilm"])
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--atoms", default="")
    r.set_defaults(func=cmd_reps)

    k = sub.add_parser("check", help="property reports")
    k.add_argument("--model", required=True)
    k.add_argument("--suite", required=True,
                   choices=["frame", "classical", "modal_completeness",
                            "glp", "glp_soundness", "soundness"])
    k.add_argument("--family")
    k.add_argument("--logic", default="gl",
                   choices=["k", "k4", "s4", "gl", "ilm"])
    k.add_argument("--atoms", default="")
    k.add_argument("--depth", type=int, default=1)
    k.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, fm.FormulaError, docio.DocumentError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must not exit 1, which reads as "false"; traceback is
        # imported here to keep it off every command's start-up path
        import traceback
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
