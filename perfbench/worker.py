"""Run one workload in a fresh interpreter and print one JSON record.

``run.py`` starts this file once per measured run, so no cache warmed by an
earlier run is ever reused: in one process, a level-2 GL pipeline that
follows another pipeline runs hundreds of times faster, and reusing an
interpreter would measure a different program.  With ``--parts P`` the
rounds are split over P children forked one after another from this
interpreter before it builds any input; each shifts its heap by a seeded
amount, builds the inputs afresh and times its share.

Usage: python3 perfbench/worker.py --root ROOT --workdir DIR --workload W
       --seed N --rounds R [--parts P] [--trace-out FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
PAD_MAX = 4096      # a forked part shifts its heap by up to this many tuples


def _import_provmod(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import provmod
    if not os.path.abspath(provmod.__file__).startswith(src + os.sep):
        raise SystemExit(f"provmod imported from {provmod.__file__}, "
                         f"not from {src}")


def _commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]),
                      encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


class CliLauncher:
    """Starts one CLI process per op; with ``traced``, through the
    benchmark's own entry, which writes each process's layer totals."""

    def __init__(self, root, workdir, traced):
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.workdir = workdir
        self.traced = traced
        self.reports: list = []
        self.op = -1
        self.speed = None           # a calib.Speed sampled while ops run

    def __call__(self, argv):
        if self.traced:
            base = os.path.join(self.workdir, f"op{self.op}-{len(self.reports)}")
            prefix = [sys.executable, os.path.join(HERE, "cli_entry.py"),
                      "--report", base, "--op", str(self.op), "--"]
        else:
            prefix = [sys.executable, "-m", "provmod.cli"]
        proc = subprocess.Popen(prefix + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=self.env, cwd=self.workdir)
        out = err = None
        while out is None:
            try:
                out, err = proc.communicate(timeout=calib.EVERY_S)
            except subprocess.TimeoutExpired:
                if self.speed is not None:
                    # the machine's speed while the op runs; one chunk of
                    # the parent on the other core every EVERY_S
                    self.speed.add()
        proc = subprocess.CompletedProcess(proc.args, proc.returncode, out,
                                           err)
        if self.traced:
            try:
                with open(base + ".json", encoding="utf-8") as fh:
                    self.reports.append(json.load(fh))
            except OSError:
                pass  # the process died before writing; its op fails
        return proc


def run_ops(workload, rounds, skip=0, tracer=None, launcher=None):
    """Time ``rounds`` rounds of ``workload`` after building and dropping
    the first ``skip`` (so the parts of a run together do the op list of
    one unsplit run).  Latencies are unscaled; ``samples`` are the speed
    samples taken between ops."""
    for _ in range(skip):
        workload.round()
    speed = calib.Speed()
    if launcher is not None:
        launcher.speed = speed
    kinds, lat, ok, errors = [], [], [], []
    for _ in range(rounds):
        for kind, op in workload.round():
            speed.tick()
            if tracer is not None:
                tracer.op = len(lat)
            if launcher is not None:
                launcher.op = len(lat)
            t0 = time.perf_counter()
            try:
                err = op()
            except Exception as exc:  # an op that raises is a failed op
                err = f"{type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t0)
            kinds.append(kind)
            ok.append(err is None)
            if err is not None and len(errors) < 5:
                errors.append(f"{kind}: {err}"[:300])
    if launcher is not None:
        launcher.speed = None
    return {"kinds": kinds, "lat": lat, "ok": ok, "errors": errors,
            "samples": speed.samples}


def run_part(make, seed, part, rounds, skip):
    """One part of a split run, in a forked child: shift the heap by a
    seeded amount, build the workload's inputs, time its rounds, and return
    the ops and the cache sizes to the parent through a pipe."""
    import tracing
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(rfd)
            rng = random.Random(seed * 7919 + part)
            pad = [(i,) * (1 + i % 5) for i in range(rng.randrange(PAD_MAX))]
            part_record = run_ops(make(), rounds, skip)
            part_record["cache"] = tracing.cache_report()
            part_record["pad"] = len(pad)
            with os.fdopen(wfd, "w", encoding="utf-8") as out:
                json.dump(part_record, out)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise SystemExit(f"part {part} of the run failed (wait status {status})")
    return json.loads(text)


def merge_caches(reports):
    """Cache sizes over the parts of a run: hits and misses summed, sizes
    the largest of any part."""
    merged: dict = {}
    for rep in reports:
        for name, value in rep.items():
            if isinstance(value, dict):
                into = merged.setdefault(name, {})
                for key, n in value.items():
                    into[key] = (max(into.get(key, 0), n) if key == "currsize"
                                 else into.get(key, 0) + n)
            else:
                merged[name] = max(merged.get(name, 0), value)
    return merged


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    _import_provmod(root)
    cli_cold = args.workload == "cli-cold"
    import tracing
    tracer = None
    if args.trace_out and not cli_cold:
        # the wrappers go in before the workload code binds any name
        tracer = tracing.install()
    import workloads

    def make():
        return workloads.WORKLOADS[args.workload](args.seed, args.workdir)

    if args.setup_only:
        make().round()
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    launcher = None
    parts = max(1, min(args.parts, args.rounds))
    if parts > 1 and tracer is None and not cli_cold:
        # A collection in a forked child touches every object it inherited
        # and copies the page it sits on, which an unforked process never
        # pays; pre-forking servers freeze the inherited heap for that.
        # Each part's collections then scan only what the part built.
        gc.freeze()
        share = [args.rounds // parts + (i < args.rounds % parts)
                 for i in range(parts)]
        done = [run_part(make, args.seed, i, share[i], sum(share[:i]))
                for i in range(parts)]
        run = {key: [x for d in done for x in d[key]]
               for key in ("kinds", "lat", "ok", "errors", "samples")}
        run["errors"] = run["errors"][:5]
        cache = merge_caches([d["cache"] for d in done])
        cache["pads"] = [d["pad"] for d in done]
    else:
        workload = make()
        if cli_cold:
            launcher = CliLauncher(root, args.workdir, bool(args.trace_out))
            workload.launch = launcher
        run = run_ops(workload, args.rounds, tracer=tracer, launcher=launcher)
        cache = tracing.cache_report()

    factor = calib.REF_CHUNK_S / statistics.median(run["samples"])
    record = {
        "rounds": args.rounds, "parts": parts, "kinds": run["kinds"],
        "lat": [t * factor for t in run["lat"]], "wall_s": sum(run["lat"]),
        "speed": factor, "samples": len(run["samples"]),
        "ok": run["ok"], "errors": run["errors"], "cache": cache,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "commit": _commit(root)},
    }
    # forked parts and CLI processes are children; their peak counts
    record["rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    if cli_cold and not args.trace_out:
        launcher.op = -1
        record["probes"] = {"deep_eval_7000": workload.deep_probe()}
    if tracer is not None:
        tracer.dump(args.trace_out)
        record["layers"] = tracer.summary()
    elif launcher is not None and launcher.traced:
        record["layers"] = merge_cli_reports(launcher.reports, args.trace_out)
    print(json.dumps(record))
    return 0


def merge_cli_reports(reports, spans_out):
    """Sum the layer totals of every traced CLI process and concatenate
    their gzipped spans into one file."""
    totals: dict = {}
    counters = {"enum_models": 0, "derives_misses": 0, "tree_nodes": 0,
                "dag_nodes": 0,
                "cache_delta": {"pre_interpolant": [0, 0], "free_atoms": [0, 0]}}
    intern = 0
    with open(spans_out, "wb") as out:
        for rep in reports:
            for name, (calls, self_s) in rep["totals"].items():
                c, s = totals.get(name, (0, 0.0))
                totals[name] = [c + calls, s + self_s]
            for key in ("enum_models", "derives_misses", "tree_nodes",
                        "dag_nodes"):
                counters[key] += rep["counters"][key]
            for name, (hits, misses) in rep["counters"]["cache_delta"].items():
                counters["cache_delta"][name][0] += hits
                counters["cache_delta"][name][1] += misses
            intern = max(intern, rep["intern_nodes"])
            with open(rep["spans"], "rb") as fh:
                out.write(fh.read())
    return {"totals": totals, "counters": counters, "intern_nodes": intern}


if __name__ == "__main__":
    sys.exit(main())
