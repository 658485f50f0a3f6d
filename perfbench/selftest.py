"""Self-test of the benchmark's own pieces; run from the checkout root:

    python3 perfbench/selftest.py

It checks that the seeded generator reproduces the test suite's corpus,
that generated documents parse back to the same fan and sublattice, that
the reference digests cover every workload input, and that the tracer
rebinds every public layer function in every ``chowfan`` namespace.  The
exact-repeat check of the counts runs in every ``--trace 1`` run.
"""

import hashlib
import io
import json
import os
import sys
import types

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def main() -> None:
    import chowfan.cli
    import conftest
    import inputs
    import run
    import tracer

    ours = inputs.corpus(inputs.CORPUS_SEED, 10)
    theirs = conftest.corpus(seed=20240811, count=10)
    check(ours == theirs, "corpus(seed=20240811, count=10) equals tests/conftest.corpus")

    for fan, sub in ours:
        parsed_fan, parsed_sub, _ = chowfan.cli.parse_input(inputs.document(fan, sub))
        if (parsed_fan, parsed_sub) != (fan, sub):
            check(False, "documents parse back to their fan and sublattice")
    check(True, "documents parse back to their fan and sublattice")

    check(inputs.batch_inputs(7, 4) == inputs.batch_inputs(7, 4), "batch inputs repeat for a seed")

    reference = run.load_reference()
    for name in ("acceptance", "rank4", "batch"):
        w = run.build_workload(name)
        shas = {n: hashlib.sha256(t.encode()).hexdigest() for n, t in w.documents}
        check(
            {n: r["input"] for n, r in reference[name].items()} == shas,
            f"reference digests cover the {len(shas)} {name} inputs",
        )

    t = tracer.Tracer()
    tracer.install(t)
    leftover = [
        f"{modname}.{attr}"
        for modname, module in sys.modules.items()
        if modname == "chowfan" or modname.startswith("chowfan.")
        for attr, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not attr.startswith("_")
        and attr not in tracer.UNWRAPPED
        and obj.__module__.startswith("chowfan.")
        and obj.__module__.split(".")[1] in tracer.LAYERS
        and not hasattr(obj, "__wrapped__")
    ]
    check(not leftover, "every public layer function is wrapped wherever it is bound")

    with open(os.path.join(ROOT, "fixtures", "p1p1_diagonal.json")) as fh:
        text = fh.read()
    sys.stdin = io.StringIO(text)
    out = io.StringIO()
    check(chowfan.cli.run(["all", "-"], stdout=out) == 0, "traced CLI run exits 0")
    summary = t.summary()
    check(summary["layers"]["cli"][0] == 1, "one cli span for one run")
    check(
        summary["counters"]["serialize.output_bytes"] == len(out.getvalue()),
        "serialize.output_bytes counts the emitted document",
    )
    check(all(s >= -1e-6 for _calls, s in summary["layers"].values()), "self times are not negative")
    json.dumps(summary)


if __name__ == "__main__":
    main()
