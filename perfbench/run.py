"""Benchmark of provmod: four workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--record FILE]
  python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes a separate traced run and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--all`` runs every
workload both ways and prints every metric by name and unit; ``--record``
appends each result to a JSON-lines file that ``compare.py`` reads.

All load comes from one closed-loop caller: one op at a time, no threads.
Each measured run starts a fresh interpreter (``worker.py``).  The harness
only measures; it never edits the program under test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("decide", "generate", "model-check", "cli-cold")

END_TO_END = (
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# layer metric -> (unit, better); the traced spans and counters they come
# from are named in ``layer_metrics``
PER_LAYER = {
    "formulas.parse.self_s": ("s", "lower"),
    "formulas.pre_interpolant.calls": ("count", "lower"),
    "formulas.pre_interpolant.self_s": ("s", "lower"),
    "formulas.pre_interpolant.hit_ratio": ("ratio", "higher"),
    "formulas.rewrite.self_s": ("s", "lower"),
    "formulas.rewrite.tree_to_dag": ("ratio", "lower"),
    "formulas.classical_entails.calls": ("count", "lower"),
    "formulas.classical_entails.self_s": ("s", "lower"),
    "formulas.intern_nodes": ("count", "lower"),
    "kripke.forces.calls": ("count", "lower"),
    "kripke.forces.self_s": ("s", "lower"),
    "kripke.veltman_forces.self_s": ("s", "lower"),
    "kripke.veltman_forces_alt.self_s": ("s", "lower"),
    "kripke.unravelled_forces.self_s": ("s", "lower"),
    "kripke.unravel.self_s": ("s", "lower"),
    "kripke.check_frame.self_s": ("s", "lower"),
    "theories.derives.calls": ("count", "lower"),
    "theories.derives.self_s": ("s", "lower"),
    "theories.derives.hit_ratio": ("ratio", "higher"),
    "decide.tableau.calls": ("count", "lower"),
    "decide.tableau.self_s": ("s", "lower"),
    "decide.veltman_enum.models": ("count", "lower"),
    "decide.veltman_enum.self_s": ("s", "lower"),
    "decide.decide_ilm.self_s": ("s", "lower"),
    "decide.representatives.self_s": ("s", "lower"),
    "provability.generate.calls": ("count", "lower"),
    "provability.generate.self_s": ("s", "lower"),
    "provability.generated_decide.calls": ("count", "lower"),
    "provability.generated_decide.self_s": ("s", "lower"),
    "provability.pm_forces.self_s": ("s", "lower"),
    "provability.pm_forces_plus.self_s": ("s", "lower"),
    "provability.pm_forces_rhd.self_s": ("s", "lower"),
    "provability.soundness_suite.self_s": ("s", "lower"),
    "provability.pipeline.self_s": ("s", "lower"),
    "provability.lift_kripke.self_s": ("s", "lower"),
    "glp.check_glp_model.self_s": ("s", "lower"),
    "glp.glp_soundness_suite.self_s": ("s", "lower"),
    "interpret.soundness_gate.self_s": ("s", "lower"),
    "docio.model_to_doc.self_s": ("s", "lower"),
    "docio.dumps.self_s": ("s", "lower"),
    "docio.loads.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.{cmd}.p50_ms": ("ms", "lower")
       for cmd in ("decide", "eval", "countermodel", "generate", "check",
                   "reps", "interpret", "unravel")},
    "trace.overhead": ("ratio", "lower"),
}

# Seconds one round takes at the benchmark's first commit on a 2-core
# machine.  A run does round(seconds / ROUND_S) rounds: the same work on
# every commit, so counts and memory compare across commits, and about the
# asked-for time at that commit.  A traced run does half as many rounds
# untraced and the same half traced.
ROUND_S = {"decide": 0.5, "generate": 0.3, "model-check": 1.6,
           "cli-cold": 20.0}
# An untraced in-process run is split into this many parts, each in a
# child forked from one fresh interpreter that shifts its heap by a seeded
# amount before it builds its inputs.  Formula hashes follow object
# addresses, and with them the order the tableaux search in, so one process
# is one draw of the program's speed; the parts average over several (as
# Stabilizer does; Curtsinger & Berger, ASPLOS 2013).  cli-cold starts a
# process per op and needs no split.
PARTS = {"decide": 40, "generate": 10, "model-check": 12, "cli-cold": 1}
SETUP_SAMPLES = 5      # set-ups timed per run; setup_s is their median
SETUP_SPEED_SAMPLES = 3  # speed samples after each set-up
IMPORT_SAMPLES = 3     # cold imports of provmod.cli per traced run
TAIL_BEYOND = 10       # samples beyond the reported tail percentile
RUN_BUDGET_S = 170     # a run stops its children after this long
HASH_SEED = "0"


class BenchError(Exception):
    pass


class Runner:
    """Starts the children of one benchmark run inside its time budget."""

    def __init__(self, root):
        self.root = root
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = os.path.join(root, ".perfbench_tmp", str(os.getpid()))
        # The tableaux iterate over sets of formulas, whose order follows
        # string hashing; with a fresh hash seed per process, one S4
        # decision can take several times longer or shorter.  A fixed hash
        # seed makes every run of one workload seed do the same work.
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)

    def child(self, argv, env=None):
        """Run one child in its own process group; kill the group if the
        run's budget runs out.  Returns (spawn time, stdout)."""
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=self.root,
                                env=env or self.env, start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} ran past the run's time budget")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            tail = "\n".join(err.strip().splitlines()[-5:])
            raise BenchError(f"child exited {proc.returncode}: {tail}")
        return spawned, out

    def worker(self, workload, seed, *extra):
        os.makedirs(self.workdir, exist_ok=True)
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--root", self.root, "--workdir", self.workdir,
                "--workload", workload, "--seed", str(seed), *extra]
        spawned, out = self.child(argv)
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{workload} worker printed nothing")
        record = json.loads(lines[-1])
        if "ready" in record:
            record["setup_s"] = record["ready"] - spawned
        return record

    def cold_import_s(self):
        env = dict(self.env, PYTHONPATH=os.path.join(self.root, "src"))
        code = ("import time; t = time.perf_counter(); import provmod.cli; "
                "print(time.perf_counter() - t)")
        samples = [float(self.child([sys.executable, "-c", code], env)[1])
                   for _ in range(IMPORT_SAMPLES)]
        return statistics.median(samples)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics

def op_stats(record):
    """Throughput, median and tail of one run.  A failed op counts as slower
    than any limit: it takes the whole run's op time in the percentiles."""
    lat, ok = record["lat"], record["ok"]
    wall = sum(lat)
    ranked = sorted(t if good else wall for t, good in zip(lat, ok))
    k = max(0, len(ranked) - TAIL_BEYOND - 1)
    return {
        "ops": len(lat),
        "failed": len(lat) - sum(ok),
        "ops_per_s": sum(ok) / wall,
        "op_p50_ms": statistics.median(ranked) * 1e3,
        "op_tail_ms": ranked[k] * 1e3,
        "tail_pct": 100.0 * (k + 1) / len(ranked),
    }


def rounds_for(workload, seconds):
    return str(max(1, round(seconds / ROUND_S[workload])))


def end_to_end(runner, workload, seed, seconds):
    speed = calib.Speed()
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(runner.worker(workload, seed, "--setup-only")["setup_s"])
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.add()
    record = runner.worker(workload, seed, "--rounds",
                           rounds_for(workload, seconds),
                           "--parts", str(PARTS[workload]))
    stats = op_stats(record)
    values = {"ops_per_s": stats["ops_per_s"], "op_p50_ms": stats["op_p50_ms"],
              "op_tail_ms": stats["op_tail_ms"],
              "peak_rss_mb": record["rss_mb"],
              "setup_s": statistics.median(setups) * speed.factor()}
    units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    lines = [
        f"workload {workload}  seed {seed}  rounds {record['rounds']}  "
        f"parts {record['parts']}  ops {stats['ops']}  "
        f"tail at p{stats['tail_pct']:.2f}",
        *(f"  {k:<12} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()),
        f"  machine speed {record['speed']:.3f} of the reference; unscaled "
        f"op time {record['wall_s']:.3f} s, {record['samples']} speed samples",
        f"  {'fail_ratio':<12} {stats['failed'] / stats['ops']:.6g} ratio "
        f"({stats['failed']} of {stats['ops']})",
        *(f"  error: {e}" for e in record["errors"]),
        f"  caches: {json.dumps(record['cache'], sort_keys=True)}",
        f"  env: {json.dumps(record['env'], sort_keys=True)}",
    ]
    for name, err in record.get("probes", {}).items():
        lines.append(f"  known-defect probe {name}: "
                     f"{'passed' if err is None else 'failed: ' + err}")
    return stats, metrics, lines, record


def layer_metrics(layers, untraced, traced_wall, import_s):
    totals = layers["totals"]
    counters = layers["counters"]

    hits, misses = counters["cache_delta"]["pre_interpolant"]
    derives = totals.get("theories.derives", (0, 0.0))[0]
    values = {
        "formulas.intern_nodes": layers["intern_nodes"],
        "formulas.pre_interpolant.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "formulas.rewrite.tree_to_dag":
            counters["tree_nodes"] / counters["dag_nodes"]
            if counters["dag_nodes"] else 0.0,
        "theories.derives.hit_ratio":
            1.0 - counters["derives_misses"] / derives if derives else 0.0,
        "decide.veltman_enum.models": counters["enum_models"],
        "cli.import_s": import_s,
        "trace.overhead": traced_wall / sum(untraced["lat"]),
    }
    for name in PER_LAYER:
        if name in values:
            continue
        span, _, what = name.rpartition(".")
        if what == "p50_ms":
            lat = [t for k, t in zip(untraced["kinds"], untraced["lat"])
                   if k == span]
            values[name] = statistics.median(lat) * 1e3 if lat else 0.0
        else:
            calls, self_s = totals.get(span, (0, 0.0))
            values[name] = calls if what == "calls" else self_s
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def traced(runner, workload, seed, seconds):
    rounds = rounds_for(workload, seconds / 2)
    untraced = runner.worker(workload, seed, "--rounds", rounds)
    spans_dir = os.path.join(runner.root, ".perfbench_out")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"spans-{workload}.txt.gz")
    record = runner.worker(workload, seed, "--rounds", rounds,
                           "--trace-out", spans)
    stats = op_stats(record)
    metrics = layer_metrics(record["layers"], untraced, sum(record["lat"]),
                            runner.cold_import_s())
    lines = [f"workload {workload}  seed {seed}  traced rounds {rounds}  "
             f"ops {stats['ops']}  spans in {os.path.relpath(spans)}",
             *(f"  {k:<40} {v['value']:.6g} {v['unit']}"
               for k, v in metrics.items())]
    return stats, metrics, lines, record


def run_one(root, workload, seed, seconds, trace):
    """One run: the result line, the report lines, and the run's cache
    sizes, environment and probe outcomes."""
    runner = Runner(root)
    try:
        measure = traced if trace else end_to_end
        stats, metrics, lines, record = measure(runner, workload, seed,
                                                seconds)
    finally:
        runner.close()
    result = {"correct": stats["failed"] == 0, "attempted": stats["ops"],
              "failed": stats["failed"], "metrics": metrics}
    info = {key: record[key] for key in ("cache", "env", "probes")
            if key in record}
    return result, lines, info


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--record", help="append results to this JSON-lines file")
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "provmod", "__init__.py")):
        print("run from the root of a provmod checkout: src/provmod is missing",
              file=sys.stderr)
        return 2

    plan = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    result = None
    for workload, trace in plan:
        try:
            result, lines, info = run_one(root, workload, args.seed,
                                          args.seconds, trace)
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": args.seed,
                                     "trace": trace, "result": result,
                                     **info}) + "\n")
    if not args.all:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
