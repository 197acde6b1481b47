"""Command-line interface.

Exit codes: 0 for success / true / theorem / clean reports, 1 for false /
non-theorem / reported violations, 2 for errors (bad input, schema
violations, exceeded envelopes) and for any unexpected exception, 3 for
"unknown up to the bound" (a bounded ILM search found no countermodel).
``--json`` switches stdout to a stable machine-readable form.
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
from provmod.glp import check_glp_model, glp_forces, glp_soundness_suite
from provmod.interpret import t_interpretation
from provmod.kripke import (
    ModelError,
    check_frame,
    forces,
    unravel,
    veltman_forces,
)
from provmod.provability import (
    check_oracles_classical,
    countermodel_pipeline_gl,
    countermodel_pipeline_ilm,
    generate_gl,
    generate_ilm,
    is_purely_modal_family_complete,
    pm_forces,
    pm_forces_rhd,
    soundness_suite,
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


def _materialize(loaded, family):
    """Regenerate models saved as seeds, and pick the right evaluator."""
    if loaded.kind == "premodel" and loaded.meta.get("generate"):
        if loaded.language == RHD:
            e_family = loaded.meta.get("e_family")
            fam = [parse(t, RHD) for t in e_family] if e_family else family
            return generate_ilm(loaded.model, e_family=fam)
        return generate_gl(loaded.model)
    return loaded.model


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


def _forcing(loaded, model, world, family):
    """Truth at the world, as a one-argument test, under the forcing
    relation of the document's model kind."""
    if loaded.kind == "kripke":
        return lambda g: forces(model, world, g)
    if loaded.kind == "veltman":
        return lambda g: veltman_forces(model, world, g)
    if loaded.kind == "poly":
        return lambda g: glp_forces(model, world, g)
    if loaded.language == RHD:
        return lambda g: pm_forces_rhd(model, world, g, family)
    return lambda g: pm_forces(model, world, g)


def cmd_eval(args) -> int:
    loaded = docio.load_path(args.model)
    family = _read_family(args.family, loaded.language) if args.family else None
    model = _materialize(loaded, family)
    f = parse(args.formula, loaded.language)
    holds = _forcing(loaded, model, args.world, family)
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
    if loaded.language == RHD:
        model = generate_ilm(loaded.model, e_family=family)
    else:
        model = generate_gl(loaded.model)
    meta = {"generate": True}
    if model.e_family:
        meta["e_family"] = [to_text(e) for e in model.e_family]
    doc = docio.model_to_doc(loaded.model, meta=meta)
    if args.out:
        docio.save_path(args.out, doc)
        _emit(args, {"written": args.out, "worlds": len(model.worlds)},
              f"wrote {args.out}")
    else:
        _emit(args, doc, docio.dumps(doc).rstrip("\n"))
    return 0


def cmd_countermodel(args) -> int:
    language = RHD if args.logic == "ilm" else BOX
    f = parse(args.formula, language)
    if args.logic == "gl":
        result = countermodel_pipeline_gl(f)
    elif args.logic == "ilm":
        result = countermodel_pipeline_ilm(f, size_bound=args.bound)
    else:
        raise CliError("countermodel pipelines exist for gl and ilm")
    meta = {"generate": True,
            "designated_world": docio._world_id(result.designated),
            "refutes": to_text(f), "logic": args.logic}
    if result.model.e_family:
        meta["e_family"] = [to_text(e) for e in result.model.e_family]
    doc = docio.model_to_doc(result.seed, meta=meta)
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
    doc = {
        "version": docio.SCHEMA_VERSION,
        "language": RHD,
        "worlds": sorted(docio._world_id(s) for s in unravelled.worlds),
        "edges": sorted([docio._world_id(a), docio._world_id(b)]
                        for (a, b) in unravelled.edges),
        "preorder": sorted([docio._world_id(a), docio._world_id(b)]
                           for (a, b) in unravelled.preorder),
        "valuation": docio._valuation_map(unravelled),
        "unravelled": True,
    }
    if args.out:
        docio.save_path(args.out, doc)
        _emit(args, {"written": args.out, "worlds": len(unravelled.worlds)},
              f"wrote {args.out}")
    else:
        _emit(args, doc, docio.dumps(doc).rstrip("\n"))
    return 0


def cmd_interpret(args) -> int:
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
        model = loaded.model.levels[0] if loaded.kind == "poly" else loaded.model
        report = check_frame(model)
        payload = {
            name: {"holds": bool(getattr(report, name)),
                   "witness": list(map(str, getattr(report, name).witness))
                   if getattr(report, name).witness else None}
            for name in ("reflexive", "irreflexive", "transitive",
                         "converse_well_founded", "tree")}
        _emit(args, payload,
              "\n".join(f"{k}: {v['holds']}" for k, v in payload.items()))
        return 0

    model = _materialize(loaded, family)
    if args.suite == "classical":
        if loaded.kind == "poly":
            from provmod.theories import classicality_violations
            violations = []
            for (w, n), oracle in sorted(model._theories.items(), key=str):
                for v in classicality_violations(oracle):
                    violations.append((str(w), n) + tuple(map(str, v)))
        else:
            violations = [tuple(map(str, v))
                          for v in check_oracles_classical(model)]
        _emit(args, {"violations": [list(v) for v in violations]},
              f"{len(violations)} violations")
        return 0 if not violations else 1

    if args.suite == "modal_completeness":
        if family is None:
            raise CliError("modal_completeness needs --family")
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
        report = check_glp_model(model, family)
        _emit(args, {"violations": [list(map(str, v))
                                    for v in report.violations]},
              f"{len(report.violations)} violations")
        return 0 if report.ok else 1

    if args.suite == "glp_soundness":
        if loaded.kind != "poly":
            raise CliError("glp_soundness takes a poly-model document")
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
        names = [a for a in (args.atoms.split(",") if args.atoms else ["p"])
                 if a]
        failures = soundness_suite(model, args.logic, names, args.depth,
                                   e_family=family)
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
