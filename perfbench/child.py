"""One benchmark child process: set up, run its operations, report.

Usage: ``python3 perfbench/child.py`` with a job document on stdin::

    {"kind": "cli" | "batch" | "setup",
     "inputs": [[name, path], ...],
     "argv": [...],            # cli jobs: the subcommand and its options
     "trace": path or null}    # write spans here and report layer totals

Set-up is importing ``chowfan`` and ``chowfan.cli`` and reading the input
documents; the parent times it from spawn to the ``ready`` timestamp
(``time.monotonic`` is one system-wide clock on Linux).  The result is one
JSON object on the last line of stdout.

Host speed.  Identical pure-Python work on a shared host can take 30% more
or less time from one second to the next, and averaging over a longer run
does not remove it.  So the child measures the host's speed with a fixed
calibration loop: before and after set-up, before and after each timed
call, and every ``TICK_S`` seconds during it (from a ``SIGALRM`` handler).
Each timed call reports its raw seconds, with the calibration time taken
out, and ``speed``: the mean, over the samples taken during the call, of
the reference loop time ``REFERENCE_LOOP_S`` over the sample's loop time.
The samples are evenly spaced in time, so ``seconds * speed`` is the work
done at the reference host speed: the call's time at that speed.
"""

import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

TICK_S = 0.1
REFERENCE_LOOP_S = 0.001


def _loop() -> float:
    """One fixed unit of integer, tuple and dict work; returns its seconds."""
    t0 = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(4000):
        v = (i, i * 7 % 13, -i)
        seen[v] = acc
        acc += v[1] * v[2] // 3
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples, and the seconds spent taking them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a tick that lands inside a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(min(_loop() for _ in range(3)))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def speed(self, first: int) -> float:
        window = self.samples[first:]
        return sum(REFERENCE_LOOP_S / s for s in window) / len(window)

    def timed(self, call):
        """Run ``call()``; returns (its result, raw seconds, speed)."""
        self.sample()
        first = len(self.samples) - 1
        spent = self.spent
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            seconds = time.perf_counter() - t0 - (self.spent - spent)
            self.sample()
        return result, seconds, self.speed(first)


def main() -> int:
    host = HostSpeed()
    host.sample()
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import chowfan
    import chowfan.cli

    texts = []
    for name, path in job["inputs"]:
        with open(path) as fh:
            texts.append((name, fh.read()))
    ready = time.monotonic() - host.spent
    host.sample()
    setup_speed = host.speed(0)

    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    signal.signal(signal.SIGALRM, host.sample)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    if job["kind"] == "cli":
        for name, text in texts:
            ops.append(_run_cli(host, chowfan.cli, name, text, job["argv"], tracer))
    elif job["kind"] == "batch":
        for name, text in texts:
            ops.append(_run_quick_tour(host, chowfan, name, text, tracer))
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    trace = None
    if tracer is not None:
        tracer.write(job["trace"])
        trace = tracer.summary()
        # the layer times at the reference host speed, like the calls they split
        raw = sum(op["seconds"] for op in ops)
        trace["speed"] = sum(op["seconds"] * op["speed"] for op in ops) / raw if raw else 1.0
    print(json.dumps({
        "ready": ready,
        "setup_speed": setup_speed,
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace,
    }))
    return 0


def _result(name, seconds=0.0, speed=1.0, text=None, exit_code=0, all_passed=None, error=None):
    return {
        "name": name,
        "seconds": seconds,
        "speed": speed,
        "exit": exit_code,
        "all_passed": all_passed,
        "sha256": hashlib.sha256(text.encode()).hexdigest() if text is not None else None,
        "bytes": len(text) if text is not None else 0,
        "error": error,
    }


def _run_cli(host, cli, name, text, argv, tracer):
    """One ``chowfan <argv> -`` invocation with the document on stdin."""
    if tracer is not None:
        tracer.request = name
    sys.stdin = io.StringIO(text)
    out = io.StringIO()
    try:
        code, seconds, speed = host.timed(lambda: cli.run(list(argv), stdout=out))
    except Exception:
        traceback.print_exc()
        return _result(name, exit_code=-1, error="exception")
    payload = out.getvalue()
    doc = json.loads(payload) if payload else {}
    return _result(name, seconds, speed, payload, code, doc.get("all_passed"))


def _quick_tour(chowfan, text):
    """The README quick-tour calls on one document, without integrality;
    returns the combined document and whether both checks passed."""
    from chowfan import cli, serialize

    fan, sub, _options = cli.parse_input(text)
    if not chowfan.validate_fan(fan).ok:
        raise ValueError("validate_fan rejected a generated fan")
    cq = chowfan.chow_quotient(fan, sub)
    fam = chowfan.universal_family(cq)
    fibers = []
    for k in range(len(cq.quotient_fan.cones)):
        fc = chowfan.fiber_complex(fam, k)
        pres = chowfan.basic_monoid(fam, k)
        trop = chowfan.tropical_moduli_cone(fam, k)
        fibers.append(serialize.encode_fiber_document(
            fam, fc, pres, trop, chowfan.adjacency_dot(fam, fc)))
    reports = [chowfan.check_reduced(fam), chowfan.check_equidimensional(fam)]
    payload = serialize.dumps({
        "chow_quotient": serialize.encode_chow_document(cq),
        "family": serialize.encode_family_document(fam),
        "fibers": fibers,
        "checks": [serialize.encode_check_report(r) for r in reports],
    })
    return payload, all(r.passed for r in reports)


def _run_quick_tour(host, chowfan, name, text, tracer):
    if tracer is not None:
        tracer.request = name
    try:
        (payload, passed), seconds, speed = host.timed(lambda: _quick_tour(chowfan, text))
    except Exception:
        traceback.print_exc()
        return _result(name, exit_code=-1, error="exception")
    return _result(name, seconds, speed, payload, 0, passed)


if __name__ == "__main__":
    sys.exit(main())
