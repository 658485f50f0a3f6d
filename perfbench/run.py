"""chowfan benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The parent process generates every input document from the
seed, then starts fresh child processes (``perfbench/child.py``) one at a
time, so nothing runs concurrently.  Each repetition of a workload runs
all of its inputs; repetitions are repeated while another one fits in
``--seconds`` (at least one).  Every output document is checked against
the digests in ``perfbench/reference.json``.

Times are reported at the reference host speed: each child samples the
host's speed with a fixed calibration loop during every timed call and
set-up (see ``child.py``), and each time is scaled by it.  The raw times
are printed beside the reported ones.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced repetition and at least two traced ones,
reports the per-layer metrics, and fails if any count differs between the
traced repetitions.  The last line of stdout is the JSON result.

``--record-reference`` runs each workload once and rewrites the reference
digests; use it only when an output format change is intended.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 10
BATCH_SEED = 20240811
BATCH_COUNT = 31


@dataclass
class Workload:
    name: str
    kind: str  # "cli": one child per input; "batch": one child for all
    argv: list[str]
    documents: list[tuple[str, str]]  # (input name, text), a fixed set
    slowest: str | None  # input whose time is slowest_input_s; None: the maximum


def build_workload(name: str) -> Workload:
    import inputs

    if name == "acceptance":
        return Workload(name, "cli", ["all", "-", "--bound", "4"],
                        inputs.acceptance_documents(ROOT), "corpus[8]")
    if name == "rank4":
        docs = inputs.rank4_documents()
        return Workload(name, "cli", ["family", "-"], docs, docs[0][0])
    if name == "batch":
        docs = [
            (f"batch[{i}]", inputs.document(fan, sub))
            for i, (fan, sub) in enumerate(inputs.batch_inputs(BATCH_SEED, BATCH_COUNT))
        ]
        return Workload(name, "batch", [], docs, None)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# children


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(kind, inputs, argv=(), trace=None) -> tuple[dict | None, dict | None]:
    """Start one child, wait for it; returns (its set-up time, its report)."""
    job = json.dumps({"kind": kind, "inputs": inputs, "argv": list(argv), "trace": trace})
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")],
            input=job, capture_output=True, text=True, cwd=ROOT,
            env=_child_env(), timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s: {inputs[0][0]}", file=sys.stderr)
        return None, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child exited with {proc.returncode}: {inputs[0][0]}", file=sys.stderr)
        return None, None
    report = json.loads(lines[-1])
    return {"seconds": report["ready"] - spawned, "speed": report["setup_speed"]}, report


def run_repetition(w: Workload, paths, order, trace_prefix=None) -> dict:
    """Run every input once; returns ops, set-up samples, peak RSS, trace."""
    jobs = [[(w.documents[i][0], paths[i])] for i in order]
    if w.kind == "batch":
        jobs = [[job[0] for job in jobs]]
    ops, setups, rss_kb, traces = [], [], 0, []
    for n, job in enumerate(jobs):
        trace = f"{trace_prefix}-{n}.jsonl" if trace_prefix else None
        setup, report = run_child(w.kind, job, w.argv, trace)
        if report is None:
            ops.extend(
                {"name": name, "seconds": 0.0, "speed": 1.0, "error": "child failed"}
                for name, _ in job
            )
            continue
        setups.append(setup)
        ops.extend(report["ops"])
        rss_kb = max(rss_kb, report["maxrss_kb"])
        if report["trace"] is not None:
            traces.append(report["trace"])
    return {"ops": ops, "setups": setups, "rss_kb": rss_kb, "traces": traces}


def probe_setups(w: Workload, paths, order) -> list[dict]:
    """Set-up times of children that set up exactly as the workload's do."""
    out = []
    for n in range(SETUP_PROBES):
        if w.kind == "batch":
            job = [(w.documents[i][0], paths[i]) for i in order]
        else:
            i = order[n % len(order)]
            job = [(w.documents[i][0], paths[i])]
        setup, _report = run_child("setup", job)
        if setup is not None:
            out.append(setup)
    return out


# ---------------------------------------------------------------------------
# checks and metrics


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def failures(w: Workload, ops, reference) -> list[str]:
    """Operations that exited non-zero, raised, failed a check or differ
    from the reference document."""
    expected = reference.get(w.name, {})
    inputs_sha = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in w.documents}
    bad = []
    for op in ops:
        name = op["name"]
        ref = expected.get(name)
        if op.get("error"):
            bad.append(f"{name}: {op['error']}")
        elif op["exit"] != 0:
            bad.append(f"{name}: exit code {op['exit']}")
        elif op["all_passed"] is False:
            bad.append(f"{name}: all_passed is false")
        elif ref is None or ref["input"] != inputs_sha[name]:
            bad.append(f"{name}: no reference digest for this input")
        elif op["sha256"] != ref["output"]:
            bad.append(f"{name}: output digest differs from the reference")
    return bad


def scaled(t) -> float:
    """A measured time at the reference host speed."""
    return t["seconds"] * t["speed"]


def raw(t) -> float:
    return t["seconds"]


def wall(rep, seconds=scaled) -> float:
    return sum(seconds(op) for op in rep["ops"])


def end_to_end(w: Workload, reps, probes, seconds=scaled) -> dict:
    def per_rep(f):
        return statistics.median(f(r) for r in reps)

    def slowest(r):
        times = {op["name"]: seconds(op) for op in r["ops"]}
        return times[w.slowest] if w.slowest else max(times.values())

    setups = probes + [s for r in reps for s in r["setups"]]
    return {
        "wall_s": per_rep(lambda r: wall(r, seconds)),
        "input_p50_s": per_rep(lambda r: statistics.median(seconds(op) for op in r["ops"])),
        "slowest_input_s": per_rep(slowest),
        "peak_rss_mb": per_rep(lambda r: r["rss_kb"] / 1024),
        "setup_s": statistics.median(seconds(t) for t in setups),
    }


def trace_totals(rep) -> dict:
    """Per-layer numbers of one traced repetition, summed over children;
    times at the reference host speed."""
    layers, functions, counters, distinct = {}, {}, {}, 0
    for t in rep["traces"]:
        for layer, (calls, seconds) in t["layers"].items():
            acc = layers.setdefault(layer, [0, 0.0])
            acc[0] += calls
            acc[1] += seconds * t["speed"]
        for name, (calls, seconds) in t["functions"].items():
            acc = functions.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += seconds * t["speed"]
        for name, value in t["counters"].items():
            counters[name] = counters.get(name, 0) + value
        distinct += t["distinct_cones"]
    counts, times = dict(counters), {}
    for layer, (calls, seconds) in layers.items():
        counts[f"{layer}.calls"] = calls
        times[f"{layer}.self_s"] = seconds
    for name, (calls, seconds) in functions.items():
        counts[f"{name}.calls"] = calls
        times[f"{name}.s"] = seconds
    counts["cones.distinct_cones"] = distinct
    return {"counts": counts, "times": times}


def per_layer(traced, untraced_wall) -> tuple[dict, list[str]]:
    """Median times and exact counts over the traced repetitions."""
    totals = [trace_totals(r) for r in traced]
    counts = totals[0]["counts"]
    mismatches = [
        f"{name}: {value} then {other['counts'].get(name)}"
        for other in totals[1:]
        for name, value in counts.items()
        if other["counts"].get(name) != value
    ]
    out = dict(counts)
    for name in totals[0]["times"]:
        out[name] = statistics.median(t["times"][name] for t in totals)
    distinct = counts["cones.distinct_cones"]
    out["cones.dd_per_new_cone"] = (
        counts["cones.double_description.calls"] / distinct if distinct else 0.0
    )
    out["trace.overhead"] = statistics.median(wall(r) for r in traced) / untraced_wall
    return out, mismatches


def print_layers(values) -> None:
    """Self time and calls of every layer, and the checkers' times.

    ``BENCHMARK.json`` leaves out the times that are 0 by construction on
    some workload (``verify`` on ``rank4``, integrality and basic-monoid
    checks on ``batch``): a time that reads the same on every run is not a
    measurement.  They are printed here and are in the span files."""
    from tracer import LAYERS

    for layer in LAYERS:
        print(f"  layer {layer:10s} {values[layer + '.self_s']:12.6g} s self"
              f" {values[layer + '.calls']:>10d} calls")
    for name in sorted(values):
        if name.startswith("verify.check") and name.endswith(".s"):
            print(f"  {name:40s} {values[name]:>14.6g} s")


# ---------------------------------------------------------------------------


def prepare(w: Workload, seed: int):
    """Write the documents where children read them.

    The seed shuffles the order of inputs that run in their own processes.
    A batch keeps its generation order: the order decides what its cone
    cache holds before each input, and a shuffled order moved the batch's
    median and slowest input times by 12% and 9% between seeds."""
    work = os.path.join(OUT, f"{w.name}-seed{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    paths = []
    for i, (_name, text) in enumerate(w.documents):
        path = os.path.join(work, f"input{i}.json")
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    order = list(range(len(w.documents)))
    if w.kind != "batch":
        random.Random(seed).shuffle(order)
    return work, paths, order


def repeat(w, paths, order, seconds, minimum, trace_prefix=None) -> list[dict]:
    reps = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        prefix = f"{trace_prefix}-rep{len(reps)}" if trace_prefix else None
        reps.append(run_repetition(w, paths, order, prefix))
        last = time.monotonic() - t0
        if len(reps) >= minimum and time.monotonic() - start + last > seconds:
            return reps


def record_reference() -> int:
    reference = {}
    for name in ("acceptance", "rank4", "batch"):
        w = build_workload(name)
        _work, paths, order = prepare(w, 0)
        rep = run_repetition(w, paths, order)
        shas = {n: hashlib.sha256(t.encode()).hexdigest() for n, t in w.documents}
        for op in rep["ops"]:
            if op.get("error") or op["exit"] != 0 or op["all_passed"] is False:
                print(f"{name}: {op['name']} failed; reference not written", file=sys.stderr)
                return 1
        reference[name] = {
            op["name"]: {"input": shas[op["name"]], "output": op["sha256"]}
            for op in sorted(rep["ops"], key=lambda op: op["name"])
        }
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["acceptance", "rank4", "batch"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "chowfan", "__init__.py")):
        print("run from the root of a chowfan checkout: src/chowfan is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import chowfan.cli  # noqa: F401  (compile the package once before children start)

    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reference = load_reference()

    w = build_workload(args.workload)
    work, paths, order = prepare(w, args.seed)
    if args.trace:
        untraced = repeat(w, paths, order, 0, 1)
        untraced_wall = wall(untraced[0])
        traced = repeat(w, paths, order, args.seconds, 2, os.path.join(work, "trace"))
        reps = untraced + traced
        values, mismatches = per_layer(traced, untraced_wall)
        wanted = spec["per_layer"]
    else:
        probes = probe_setups(w, paths, order)
        reps = repeat(w, paths, order, args.seconds, 1)
        values, mismatches = end_to_end(w, reps, probes), []
        unscaled = end_to_end(w, reps, probes, raw)
        wanted = spec["end_to_end"]

    ops = [op for r in reps for op in r["ops"]]
    if not ops:
        print("no operation was attempted", file=sys.stderr)
        return 3
    bad = failures(w, ops, reference)
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    for line in mismatches:
        print(f"EXACT-REPEAT CHECK FAILED {line}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {w.name}: seed {args.seed}, {len(reps)} repetitions, "
          f"{len(ops)} operations, failed_frac {len(bad) / len(ops)}")
    if args.trace:
        print(f"spans: {work}/trace-rep*.jsonl")
        print_layers(values)
    for name, m in metrics.items():
        note = "" if args.trace else f"   (raw {unscaled[name]:.6g})"
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": not bad and not mismatches,
        "attempted": len(ops),
        "failed": len(bad),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
