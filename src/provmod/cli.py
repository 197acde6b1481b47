"""Command-line interface.

Exit codes: 0 for success / true / theorem / clean reports, 1 for false /
non-theorem / reported violations, 2 for errors (bad input, schema
violations, exceeded envelopes) and for any unexpected exception, 3 for
"unknown up to the bound" (a bounded ILM search found no countermodel).
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


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


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


def _witness_family(loaded, family):
    """The witness family of an rhd pre-model document, as a list: the
    loaded model's, else the ``--family`` given."""
    own = loaded.model.e_family
    return list(own) if own else family


def _materialize(loaded, family):
    """The document's model, generated when it is saved as a seed; an rhd
    pre-model is built with its witness family."""
    model = loaded.model
    if loaded.kind != "premodel":
        return model
    from provmod.provability import PreModel, generate_gl, generate_ilm
    if loaded.language == BOX:
        return generate_gl(model) if loaded.meta.get("generate") else model
    family = _witness_family(loaded, family)
    if loaded.meta.get("generate"):
        return generate_ilm(model, e_family=family)
    if model.e_family:
        return model
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
    if verdict.status == NO_COUNTERMODEL_UP_TO_BOUND:
        return 3
    return 0 if verdict.is_theorem else 1


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
    from provmod.provability import generate_gl, generate_ilm

    loaded = docio.load_path(args.seed)
    if loaded.kind != "premodel":
        raise CliError("generation starts from a pre-model document")
    family = _read_family(args.family, RHD) if args.family else None
    if loaded.language == RHD:
        model = generate_ilm(loaded.model,
                             e_family=_witness_family(loaded, family))
    else:
        model = generate_gl(loaded.model)
    doc = _seed_doc(loaded.model, model, {})
    if args.out:
        docio.save_path(args.out, doc)
        _emit(args, {"written": args.out, "worlds": len(model.worlds)},
              f"wrote {args.out}")
    else:
        _emit(args, doc, docio.dumps(doc).rstrip("\n"))
    return 0


def cmd_countermodel(args) -> int:
    from provmod.provability import (
        countermodel_pipeline_gl,
        countermodel_pipeline_ilm,
    )

    language = RHD if args.logic == "ilm" else BOX
    f = parse(args.formula, language)
    if args.logic == "gl":
        result = countermodel_pipeline_gl(f)
    elif args.logic == "ilm":
        result = countermodel_pipeline_ilm(f, size_bound=args.bound)
    else:
        raise CliError("countermodel pipelines exist for gl and ilm")
    meta = {"designated_world": docio._world_id(result.designated),
            "refutes": to_text(f), "logic": args.logic}
    doc = _seed_doc(result.seed, result.model, meta)
    payload = {"logic": args.logic, "formula": to_text(f),
               "level": result.n,
               "designated_world": meta["designated_world"]}
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
    return 0


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
        _emit(args, doc, docio.dumps(doc).rstrip("\n"))
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
    payload = {"logic": args.logic, "n": args.n, "atoms": names,
               "members": [to_text(m) for m in rep.members]}
    _emit(args, payload, "\n".join(payload["members"]))
    return 0


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

    model = _materialize(loaded, family)
    if args.suite == "classical":
        if loaded.kind not in ("premodel", "poly"):
            raise CliError("the classical suite takes a pre-model or "
                           "poly-model document")
        if loaded.kind == "poly":
            from provmod.theories import classicality_violations
            violations = []
            for (w, n), oracle in sorted(model._theories.items(), key=str):
                for v in classicality_violations(oracle):
                    violations.append((str(w), n) + tuple(map(str, v)))
        else:
            from provmod.provability import check_oracles_classical
            violations = [tuple(map(str, v))
                          for v in check_oracles_classical(model)]
        _emit(args, {"violations": [list(v) for v in violations]},
              f"{len(violations)} violations")
        return 0 if not violations else 1

    if args.suite == "modal_completeness":
        if loaded.kind != "premodel":
            raise CliError("the modal_completeness suite takes a pre-model "
                           "document")
        if family is None:
            raise CliError("modal_completeness needs --family")
        from provmod.provability import is_purely_modal_family_complete
        violations = is_purely_modal_family_complete(model, family)
        _emit(args, {"violations": [[str(w), to_text(f)]
                                    for (w, f) in violations]},
              f"{len(violations)} violations")
        return 0 if not violations else 1

    if args.suite == "glp":
        if loaded.kind != "poly":
            raise CliError("the glp suite takes a poly-model document")
        if family is None:
            raise CliError("the glp suite needs --family")
        from provmod.glp import check_glp_model
        report = check_glp_model(model, family)
        _emit(args, {"violations": [list(map(str, v))
                                    for v in report.violations]},
              f"{len(report.violations)} violations")
        return 0 if report.ok else 1

    if args.suite == "glp_soundness":
        if loaded.kind != "poly":
            raise CliError("glp_soundness takes a poly-model document")
        from provmod.glp import glp_soundness_suite
        names = [a for a in (args.atoms.split(",") if args.atoms else ["p"])
                 if a]
        report = glp_soundness_suite(model, names, args.depth)
        _emit(args, {"failures": [[name, to_text(f), str(w)]
                                  for (name, n, f, w) in report.violations]},
              f"{len(report.violations)} failures")
        return 0 if report.ok else 1

    if args.suite == "soundness":
        if loaded.kind not in ("premodel",):
            raise CliError("the soundness suite takes a pre-model document")
        from provmod.provability import soundness_suite
        names = [a for a in (args.atoms.split(",") if args.atoms else ["p"])
                 if a]
        failures = soundness_suite(model, args.logic, names, args.depth)
        _emit(args, {"failures": [[name, to_text(f), str(w)]
                                  for (name, f, w) in failures]},
              f"{len(failures)} failures")
        return 0 if not failures else 1

    raise CliError(f"unknown suite {args.suite!r}")


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
