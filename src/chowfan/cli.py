"""Command line interface; ``USAGE`` lists its commands, options and exit codes."""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from ._record import replace
from .chow import ChowQuotient, chow_quotient, multiplicity, InfiniteIndex
from .cones import (
    Fan,
    NoTargetCone,
    NotComplete,
    cone_from_generators,
    fan_from_cones,
    is_complete,
    validate_fan,
)
from .family import (
    UniversalFamily,
    adjacency_dot,
    basic_monoid,
    fiber_complex,
    tropical_moduli_cone,
    universal_family,
)
from .intlinalg import NotASublattice, NotSaturated, Sublattice, saturate, sublattice
from .monoids import NotAFace, UnsupportedMonoid
from .serialize import (
    DocumentError,
    dumps,
    encode_check_report,
    encode_chow_document,
    encode_family_document,
    encode_fiber_document,
    encode_sublattice,
    FORMAT_VERSION,
    _with_header,
    int_literal,
    require,
    shown,
    strict_ints,
    strict_rank,
    unique_keys,
)
from .stacks import InternalConsistencyError, MonoidNotMapped, NotMaximalCone
from .verify import (
    check_basic_monoid,
    check_equidimensional,
    check_family_integral,
    check_reduced,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class ValidationError(Exception):
    pass


def _degree_bound(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


_COMMANDS = ("validate", "quotient", "multiplicities", "cycle", "family", "fiber", "check", "all")
_FLAGS = ("--saturate", "--integral", "--reduced", "--equidim", "--basic")
_VALUED = {"--cone": int, "--bound": _degree_bound, "--output": str, "--graph-out": str}
_OPTIONS = (*_FLAGS, *_VALUED, "--help")

USAGE = f"""usage: chowfan [-h | --help] COMMAND INPUT [options]; INPUT is a path, or - for stdin
COMMAND: {", ".join(_COMMANDS)}
Options go anywhere, as --opt VALUE or --opt=VALUE, or by a unique prefix:
  --saturate        replace the sublattice by its saturation instead of failing
  --cone K          quotient cone index for cycle and fiber (required there)
  --bound B         degree bound of the integrality check, at least 1 (default 8)
  --integral, --reduced, --equidim, --basic: run only these checks (default: all)
  --output PATH     write the document here instead of stdout
  --graph-out PATH  fiber only: also write the fiber graph in DOT format to this path
Exit codes: 0 success, 1 usage, 2 parse, 3 validation, 4 internal consistency (a bug).
"""


def _option_of(word: str) -> Optional[str]:
    """The option ``word`` names, ``""`` for none or ``None`` for a positional,
    by argparse's rules; an ambiguous prefix raises :class:`UsageError`."""
    if word[:1] != "-" or word == "-":
        return None
    name = word.partition("=")[0]
    found = [o for o in _OPTIONS if o.startswith(name)] if name[:2] == "--" else ["--help"] * (name[:2] == "-h")
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {name} could match {', '.join(found)}")
    negative_number = word[1:].replace(".", "", 1).isdecimal() and word[-1] != "."
    return found[0] if found else None if negative_number or " " in word else ""


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The attributes ``run`` reads, or ``None`` for ``--help``, from ``argv`` read
    as argparse read it, errors and their order included (``docs/format.md``)."""
    ends = argv.index("--") if "--" in argv else len(argv)
    # the "--" kind ends the options, and argv, for a value lookahead
    kinds = [_option_of(w) for w in argv[:ends]] + ["--"] + [None] * (len(argv) - ends - 1)
    args = dict(dict.fromkeys([f[2:] for f in _FLAGS], False), cone=None, bound=8, output=None, graph_out=None)
    positionals, i = [], 0
    while i < len(argv):
        word, option, i = argv[i], kinds[i], i + 1
        if option is None:
            if not positionals and word not in _COMMANDS:
                raise UsageError(f"invalid command {word!r} (choose from {', '.join(_COMMANDS)})")
            positionals.append(word)
        elif option in _VALUED:
            if "=" not in word and kinds[i] is not None:
                raise UsageError(f"argument {option}: expected one value")
            value, i = (word.partition("=")[2], i) if "=" in word else (argv[i], i + 1)
            try:
                args[option[2:].replace("-", "_")] = _VALUED[option](value)
            except ValueError as exc:
                raise UsageError(f"argument {option}: {exc}") from None
        elif option in _OPTIONS:  # a flag or --help; "" (unknown) and "--" raise or end below
            if "=" in word or word[1] != "-" and word != "-h":
                raise UsageError(f"argument {option} takes no value: {word!r}")
            if option == "--help":
                return None
            args[option[2:]] = True
    if len(positionals) != 2 or "" in kinds:
        raise UsageError(f"got {positionals} for COMMAND INPUT, unknown {[w for w, k in zip(argv, kinds) if k == '']}")
    return SimpleNamespace(command=positionals[0], input=positionals[1], **args)


# ---------------------------------------------------------------------------
# input parsing


def parse_input(text: str, allow_saturate: bool = False):
    """Parse an input document into (fan, sublattice, options).

    The fan is completed with faces and validated; the sublattice is
    canonicalized and must be saturated unless ``allow_saturate``.  A key
    given twice in one object, an integer literal too long to convert, or
    an ``options`` key other than ``saturate`` raises
    :class:`DocumentError`, the last two at their JSON path.
    """
    try:
        doc = json.loads(text, parse_int=int_literal, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise DocumentError("input document must be a JSON object")
    version = strict_ints(doc.get("format_version", FORMAT_VERSION), "format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version}")
    rank = strict_rank(doc, "lattice_rank")
    cones = []
    for pos, gens in enumerate(strict_ints(require(doc, "maximal_cones"), "maximal_cones", 3)):
        try:
            cones.append(cone_from_generators(gens, ambient_rank=rank))
        except ValueError as exc:
            raise DocumentError(f"maximal_cones[{pos}]: {exc}") from exc
    fan = fan_from_cones(cones, ambient_rank=rank)
    rep = validate_fan(fan)
    if not rep.ok:
        raise ValidationError("invalid fan: " + "; ".join(rep.violations))
    gens = strict_ints(require(doc, "sublattice"), "sublattice", 2)
    try:
        sub = sublattice(rank, gens)
    except ValueError as exc:
        raise DocumentError(f"sublattice: {exc}") from exc
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise DocumentError(f"options: expected an object, got {shown(options)}")
    unknown = sorted(options.keys() - {"saturate"})
    if unknown:
        raise DocumentError(f'options.{unknown[0]}: unknown option; the only option is "saturate"')
    flag = options.get("saturate", False)
    if type(flag) is not bool:
        raise DocumentError(f"options.saturate: expected true or false, got {shown(flag)}")
    saturate_flag = allow_saturate or flag
    saturated = saturate(sub)
    if saturated != sub:
        if not saturate_flag:
            raise NotSaturated(
                "the sublattice is not saturated; pass --saturate to replace it "
                "by its saturation"
            )
        sub = saturated
    return fan, sub, options


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(fan: Fan, sub: Sublattice) -> dict:
    rep = validate_fan(fan)
    return _with_header("validation", {
        "fan_ok": rep.ok,
        "violations": list(rep.violations),
        "complete": is_complete(fan),
        "sublattice": encode_sublattice(sub),
        "cones": len(fan.cones),
        "maximal_cones": len(fan.maximal_indices()),
    })


def _cmd_multiplicities(fan: Fan, sub: Sublattice) -> dict:
    finite = []
    infinite = []
    for i in range(len(fan.cones)):
        try:
            finite.append([i, multiplicity(fan, sub, i)])
        except InfiniteIndex:
            infinite.append(i)
    return _with_header("multiplicities", {"finite": finite, "infinite": infinite})


def _cmd_cycle(cq: ChowQuotient, cone_index: int) -> dict:
    if not 0 <= cone_index < len(cq.quotient_fan.cones):
        raise ValidationError(f"unknown quotient cone index {cone_index}")
    return _with_header("cycle", {
        "cone": cone_index,
        "terms": [[s, m] for s, m in cq.cone_data[cone_index].cycle],
    })


def _cmd_fiber(fam: UniversalFamily, cone_index: int, graph_out: Optional[str]) -> dict:
    if not 0 <= cone_index < len(fam.base.fan.cones):
        raise ValidationError(f"unknown quotient cone index {cone_index}")
    fc = fiber_complex(fam, cone_index)
    pres = basic_monoid(fam, cone_index)
    tropical = tropical_moduli_cone(fam, cone_index)
    dot = adjacency_dot(fam, fc)
    if graph_out:
        _write_file(graph_out, dot)
    return encode_fiber_document(fam, fc, pres, tropical, dot)


def _require_writable(path: Optional[str]) -> None:
    """Refuse, before any work, a path that :func:`_write_file` could not write."""
    folder = os.path.dirname(path) or os.curdir if path else None
    if path and (os.path.isdir(path) or not os.path.isdir(folder)):
        raise UsageError(f"cannot write {path!r}: {'it is a' if os.path.isdir(path) else 'no such'} directory")
    if path and not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise UsageError(f"cannot write {path!r}: permission denied")


def _write_file(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is a usage error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(str(exc)) from exc


def _checks(fam: UniversalFamily, args) -> list:
    selected = [args.integral, args.reduced, args.equidim, args.basic]
    run_all = not any(selected)
    reports = []
    if run_all or args.reduced:
        reports.append(check_reduced(fam))
    if run_all or args.equidim:
        reports.append(check_equidimensional(fam))
    if run_all or args.integral:
        reports.extend(check_family_integral(fam, args.bound))
    if run_all or args.basic:
        for k in range(len(fam.base.fan.cones)):
            reports.append(replace(check_basic_monoid(fam, k), name=f"basic_monoid[cone {k}]"))
    return reports


def _cmd_check(fam: UniversalFamily, args) -> dict:
    reports = _checks(fam, args)
    return _with_header("report", {
        "checks": [encode_check_report(r) for r in reports],
        "all_passed": all(r.passed for r in reports),
    })


def _cmd_all(fan: Fan, sub: Sublattice, cq: ChowQuotient, fam: UniversalFamily, args) -> dict:
    fibers = [_cmd_fiber(fam, k, None) for k in range(len(fam.base.fan.cones))]
    reports = _checks(fam, args)
    return _with_header("full_report", {
        "validation": _cmd_validate(fan, sub),
        "chow_quotient": encode_chow_document(cq),
        "multiplicities": _cmd_multiplicities(fan, sub),
        "family": encode_family_document(fam),
        "fibers": fibers,
        "checks": [encode_check_report(r) for r in reports],
        "all_passed": all(r.passed for r in reports),
    })


def run(argv: Optional[Sequence[str]] = None, stdout=None):
    """Dispatch a CLI invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            out.write(USAGE)
            return EXIT_OK
        if args.command in ("cycle", "fiber") and args.cone is None:
            raise UsageError(f"{args.command} requires --cone")
        if args.graph_out is not None and args.command != "fiber":
            raise UsageError(f"--graph-out is written only by fiber, not by {args.command}")
        _require_writable(args.output)
        _require_writable(args.graph_out)
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input) as fh:
                    text = fh.read()
            except OSError as exc:
                raise UsageError(str(exc)) from exc
        fan, sub, _options = parse_input(text, allow_saturate=args.saturate)
        command = args.command
        if command == "validate":
            doc = _cmd_validate(fan, sub)
        elif command == "multiplicities":
            doc = _cmd_multiplicities(fan, sub)
        else:
            cq = chow_quotient(fan, sub)
            if command == "quotient":
                doc = encode_chow_document(cq)
            elif command == "cycle":
                doc = _cmd_cycle(cq, args.cone)
            else:
                fam = universal_family(cq)
                if command == "family":
                    doc = encode_family_document(fam)
                elif command == "fiber":
                    doc = _cmd_fiber(fam, args.cone, args.graph_out)
                elif command == "check":
                    doc = _cmd_check(fam, args)
                else:
                    doc = _cmd_all(fan, sub, cq, fam, args)
        payload = dumps(doc)
        if args.output:
            _write_file(args.output, payload)
        else:
            out.write(payload)
        if doc.get("kind") in ("report", "full_report") and not doc.get("all_passed", True):
            return EXIT_INTERNAL
        if doc.get("kind") == "validation" and not (doc["fan_ok"] and doc["complete"]):
            return EXIT_VALIDATION
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        ValidationError,
        NotSaturated,
        NotASublattice,
        NotComplete,
        NoTargetCone,
        MonoidNotMapped,
        NotMaximalCone,
        NotAFace,
        UnsupportedMonoid,
        InfiniteIndex,
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
