import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chowfan.cli import USAGE, UsageError, _cmd_validate, _read_argv, parse_input, run
from chowfan.serialize import (
    DocumentError,
    _decimal,
    decode_cone,
    decode_datum,
    decode_fan,
    decode_monoid,
    decode_sublattice,
    dumps,
    encode_cone,
    encode_datum,
    encode_fan,
    encode_monoid,
    encode_sublattice,
)
from chowfan.intlinalg import NotSaturated, sublattice
from chowfan.cones import Fan, cone_from_generators
from chowfan.monoids import dual_monoid, monoid_from_cone, saturated_monoid
from chowfan.stacks import variety_datum

from conftest import corpus_documents, p2_fan, p1p1_fan, random_complete_fan_rank3
import oracles

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
P2 = os.path.join(FIXTURES, "p2_horizontal.json")
P1P1 = os.path.join(FIXTURES, "p1p1_diagonal.json")
WEIGHTED = os.path.join(FIXTURES, "p2_weighted.json")


def _run(args):
    buf = io.StringIO()
    code = run(args, stdout=buf)
    return code, buf.getvalue()


class TestParseInput:
    def test_fixture_round_trip(self):
        fan, sub, _ = parse_input(open(P2).read())
        assert fan == p2_fan()
        assert sub == sublattice(2, [[1, 0]])

    def test_overlapping_cones_rejected(self):
        doc = {
            "lattice_rank": 2,
            "maximal_cones": [[[1, 0], [0, 1]], [[1, 1], [1, -1]]],
            "sublattice": [[1, 0]],
        }
        from chowfan.cli import ValidationError

        with pytest.raises(ValidationError):
            parse_input(json.dumps(doc))

    def test_saturation_flag(self):
        doc = {
            "lattice_rank": 2,
            "maximal_cones": [[[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]]],
            "sublattice": [[2, 0]],
        }
        with pytest.raises(NotSaturated):
            parse_input(json.dumps(doc))
        _, sub, _ = parse_input(json.dumps(doc), allow_saturate=True)
        assert sub == sublattice(2, [[1, 0]])

    def test_syntax_error_located(self):
        with pytest.raises(DocumentError) as err:
            parse_input('{"lattice_rank": 2\n')
        assert "line" in str(err.value)

    def test_missing_field_named(self):
        with pytest.raises(DocumentError) as err:
            parse_input('{"lattice_rank": 2}')
        assert "maximal_cones" in str(err.value)

    @pytest.mark.parametrize(
        "rank, maximal_cones, violations",
        [
            (
                2,
                [[[1, 0], [-1, 0]], [[0, 1], [0, -1]]],
                "cone 0 contains a line; cone 1 contains a line; "
                "intersection of cones 0 and 1 is not a common face",
            ),
            (
                3,
                [[[1, 0, 0], [0, 1, 0], [0, -1, 0]], [[0, 1, 0], [1, 0, 0], [-1, 0, 0]], [[1, 1, 1]]],
                "cone 1 contains a line; cone 2 contains a line; cone 4 contains a line; "
                "cone 5 contains a line; intersection of cones 3 and 4 is not a common face; "
                "intersection of cones 3 and 5 is not a common face; "
                "intersection of cones 4 and 5 is not a common face",
            ),
        ],
        ids=["two-lines", "two-half-planes-and-a-ray"],
    )
    def test_fans_of_lines_report_their_violations(self, tmp_path, capsys, rank, maximal_cones, violations):
        # validate_fan intersects maximal cones that contain lines
        path = tmp_path / "lines.json"
        sub = [[1] + [0] * (rank - 1)]
        path.write_text(json.dumps({"lattice_rank": rank, "maximal_cones": maximal_cones, "sublattice": sub}))
        assert _run(["validate", str(path)]) == (3, "")
        assert capsys.readouterr().err == f"validation error: invalid fan: {violations}\n"


P2_CONES = [[[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]]]


class TestStrictIntegers:
    @pytest.mark.parametrize(
        "change, location",
        [
            ({"maximal_cones": [[[1.7, 0], [0, 1]]] + P2_CONES[1:]}, "maximal_cones[0][0][0]"),
            ({"maximal_cones": [[[1, 0], [0, True]]] + P2_CONES[1:]}, "maximal_cones[0][1][1]"),
            ({"maximal_cones": [P2_CONES[0], "cone"] + P2_CONES[2:]}, "maximal_cones[1]"),
            ({"maximal_cones": 5}, "maximal_cones"),
            ({"lattice_rank": "x"}, "lattice_rank"),
            ({"lattice_rank": 2.0}, "lattice_rank"),
            ({"lattice_rank": True}, "lattice_rank"),
            ({"lattice_rank": -1}, "lattice_rank"),
            ({"sublattice": [[1, 0.0]]}, "sublattice[0][1]"),
            ({"sublattice": [["1", 0]]}, "sublattice[0][0]"),
            ({"sublattice": [1, 0]}, "sublattice[0]"),
            ({"sublattice": {"basis": [[1, 0]]}}, "sublattice"),
            ({"options": {"saturate": "no"}}, "options.saturate"),
            ({"format_version": True}, "format_version"),
            ({"options": {"saturte": True}}, "options.saturte"),
            ({"options": 5}, "options"),
        ],
    )
    def test_rejected_with_location(self, tmp_path, change, location):
        doc = {"lattice_rank": 2, "maximal_cones": P2_CONES, "sublattice": [[1, 0]]}
        doc.update(change)
        with pytest.raises(DocumentError) as err:
            parse_input(json.dumps(doc))
        assert str(err.value).startswith(location + ":")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert _run(["validate", str(path)])[0] == 2

    @pytest.mark.parametrize(
        "decode, doc, location",
        [
            (decode_sublattice, {"ambient_rank": 2, "basis": [[1, 0.5]]}, "basis[0][1]"),
            (decode_sublattice, {"ambient_rank": "2", "basis": []}, "ambient_rank"),
            (decode_cone, {"ambient_rank": 2, "rays": [[True, 0]]}, "rays[0][0]"),
            (decode_cone, {"ambient_rank": 2, "rays": [], "lineality": 3}, "lineality"),
            (decode_fan, {"lattice_rank": 1, "cones": [{"rays": [[1.5]]}]}, "cones[0].rays[0][0]"),
            (decode_monoid, {"ambient_rank": 1, "hilbert_basis": [["2"]]}, "hilbert_basis[0][0]"),
            (decode_monoid, {"ambient_rank": 1, "hilbert_basis": [], "units": [[0.5]]}, "units[0][0]"),
            (decode_fan, {"lattice_rank": 1, "cones": [5]}, "cones[0]"),
            (decode_fan, {"lattice_rank": 1, "cones": 5}, "cones"),
            (decode_datum, {"fan": 5, "monoids": [], "lattice_rank": 1}, "fan"),
            (
                decode_datum,
                {"fan": {"lattice_rank": 1, "cones": []}, "monoids": [5], "lattice_rank": 1},
                "monoids[0]",
            ),
            (
                decode_datum,
                {"fan": {"lattice_rank": 1, "cones": [{"rays": [[1.5]]}]}, "monoids": [], "lattice_rank": 1},
                "fan.cones[0].rays[0][0]",
            ),
            # shapes: a negative rank, vectors of the wrong length
            (decode_monoid, {"ambient_rank": 2, "hilbert_basis": [[1]]}, "hilbert_basis[0]"),
            (decode_monoid, {"ambient_rank": -1, "hilbert_basis": []}, "ambient_rank"),
            (decode_monoid, {"ambient_rank": 1, "hilbert_basis": [[1]], "units": [[0, 1]]}, "units[0]"),
            (
                decode_datum,
                {
                    "fan": {"lattice_rank": 1, "cones": []},
                    "monoids": [{"ambient_rank": 1, "hilbert_basis": [[1], [1, 0]]}],
                    "lattice_rank": 1,
                },
                "monoids[0].hilbert_basis[1]",
            ),
            (
                decode_datum,
                {
                    "fan": {"lattice_rank": 1, "cones": []},
                    "monoids": [{"ambient_rank": -2, "hilbert_basis": []}],
                    "lattice_rank": 1,
                },
                "monoids[0].ambient_rank",
            ),
            (decode_sublattice, {"ambient_rank": 2, "basis": [[1]]}, "basis[0]"),
            (decode_sublattice, {"ambient_rank": -1, "basis": []}, "ambient_rank"),
            (decode_cone, {"ambient_rank": 2, "rays": [[1, 0, 0]]}, "rays[0]"),
            (decode_cone, {"ambient_rank": 2, "rays": [], "lineality": [[1]]}, "lineality[0]"),
            (decode_cone, {"ambient_rank": -1, "rays": []}, "ambient_rank"),
            (decode_fan, {"lattice_rank": 2, "cones": [{"rays": [[1]]}]}, "cones[0].rays[0]"),
            (decode_fan, {"lattice_rank": -1, "cones": []}, "lattice_rank"),
            (
                decode_datum,
                {"fan": {"lattice_rank": 2, "cones": [{"rays": [[1]]}]}, "monoids": [], "lattice_rank": 2},
                "fan.cones[0].rays[0]",
            ),
            (
                decode_datum,
                {"fan": {"lattice_rank": 1, "cones": [{"rays": [], "lineality": [[1, 1]]}]}, "monoids": [], "lattice_rank": 1},
                "fan.cones[0].lineality[0]",
            ),
            # a datum whose parts disagree: ranks, cone order, monoid count
            (
                decode_datum,
                {"fan": {"lattice_rank": 1, "cones": [{"rays": []}]}, "monoids": [{"ambient_rank": 1, "hilbert_basis": []}], "lattice_rank": 2},
                "lattice_rank",
            ),
            (
                decode_datum,
                {"fan": {"lattice_rank": 1, "cones": [{"rays": []}]}, "monoids": [{"ambient_rank": 2, "hilbert_basis": []}], "lattice_rank": 1},
                "monoids[0].ambient_rank",
            ),
            (
                decode_datum,
                {
                    "fan": {"lattice_rank": 1, "cones": [{"rays": [[1]]}, {"rays": []}]},
                    "monoids": [{"ambient_rank": 1, "hilbert_basis": [[1]]}, {"ambient_rank": 1, "hilbert_basis": []}],
                    "lattice_rank": 1,
                },
                "fan.cones",
            ),
            (decode_datum, {"fan": {"lattice_rank": 1, "cones": []}, "monoids": [], "lattice_rank": 1}, "fan.cones"),
            (decode_datum, {"fan": {"lattice_rank": 1, "cones": [{"rays": []}]}, "monoids": [], "lattice_rank": 1}, "monoids"),
        ],
    )
    def test_decoders_reject_non_integers(self, decode, doc, location):
        with pytest.raises(DocumentError) as err:
            decode(doc)
        assert str(err.value).startswith(location + ":")


class TestCommands:
    def test_validate(self):
        code, out = _run(["validate", P2])
        assert code == 0
        doc = json.loads(out)
        assert doc["fan_ok"] and doc["complete"] and doc["cones"] == 7

    def test_quotient_is_line_fan(self):
        code, out = _run(["quotient", P2])
        assert code == 0
        doc = json.loads(out)
        rays = [c["rays"] for c in doc["quotient_fan"]["cones"]]
        assert rays == [[], [[-1]], [[1]]]

    def test_multiplicities(self):
        code, out = _run(["multiplicities", WEIGHTED])
        assert code == 0
        doc = json.loads(out)
        finite = dict(map(tuple, doc["finite"]))
        assert 2 in finite.values()

    def test_cycle_requires_cone(self):
        code, _ = _run(["cycle", P2])
        assert code == 1

    def test_cycle(self):
        code, out = _run(["cycle", P2, "--cone", "2"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["terms"]) == 1 and doc["terms"][0][1] == 1

    def test_unknown_cone_index(self):
        code, _ = _run(["cycle", P2, "--cone", "99"])
        assert code == 3

    def test_family(self):
        code, out = _run(["family", P2])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["datum"]["fan"]["maximal"]) == 4

    def test_fiber_document(self):
        code, out = _run(["fiber", P1P1, "--cone", "1"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["components"]) == 2
        assert len(doc["internal_walls"]) == 1
        assert doc["tropical_cone"]["rays"] == [[1]]
        assert doc["graph_dot"].startswith("graph fiber {")

    def test_fiber_graph_out(self, tmp_path):
        target = tmp_path / "graph.dot"
        code, _ = _run(["fiber", P1P1, "--cone", "1", "--graph-out", str(target)])
        assert code == 0
        assert target.read_text().startswith("graph fiber {")

    def test_check_passes(self):
        code, out = _run(["check", P2, "--bound", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"]
        names = {c["name"].split("[")[0] for c in doc["checks"]}
        assert names == {"reduced", "equidimensional", "integral", "basic_monoid"}

    def test_check_subset_flags(self):
        code, out = _run(["check", P2, "--reduced", "--equidim"])
        assert code == 0
        doc = json.loads(out)
        assert {c["name"] for c in doc["checks"]} == {"reduced", "equidimensional"}

    def test_all_document(self):
        code, out = _run(["all", P1P1, "--bound", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "full_report"
        assert doc["all_passed"]
        assert len(doc["fibers"]) == 3

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        code, out = _run(["validate", P2, "--output", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["fan_ok"]


class TestExitCodes:
    def test_usage(self):
        code, _ = _run(["frobnicate", P2])
        assert code == 1

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_is_usage(self, bound):
        code, out = _run(["check", P2, "--integral", "--bound", bound])
        assert code == 1 and out == ""

    def test_missing_file_is_usage(self):
        code, _ = _run(["validate", "/nonexistent/input.json"])
        assert code == 1

    @pytest.mark.parametrize(
        "args, flag",
        [(["validate", P2], "--output"), (["fiber", P1P1, "--cone", "1"], "--graph-out")],
        ids=["output", "graph-out"],
    )
    def test_unwritable_output_is_usage(self, tmp_path, capsys, args, flag):
        target = tmp_path / "missing" / "out"
        code, out = _run(args + [flag, str(target)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not target.exists()

    @pytest.mark.parametrize("command", ["validate", "quotient", "multiplicities", "cycle", "family", "check", "all"])
    def test_graph_out_on_another_command_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # only fiber writes a graph: elsewhere --graph-out is a usage error,
        # raised before the input is read, and no graph file is created
        import chowfan.cli

        def refused(*_args):
            raise AssertionError("the input was read")

        monkeypatch.setattr(chowfan.cli, "parse_input", refused)
        target = tmp_path / "g.dot"
        capsys.readouterr()
        code, out = _run([command, "-", "--cone", "1", "--graph-out", str(target)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"usage error: --graph-out is written only by fiber, not by {command}\n"
        assert not target.exists()

    @pytest.mark.parametrize(
        "args, flag, where",
        [
            (["family", P2], "--output", "missing/out.json"),
            (["family", P2], "--output", "."),
            (["fiber", P1P1, "--cone", "1"], "--graph-out", "missing/g.dot"),
        ],
        ids=["output-in-missing-directory", "output-is-a-directory", "graph-out-in-missing-directory"],
    )
    def test_unwritable_output_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch, args, flag, where):
        import chowfan.cli

        def refused(*_args):
            raise AssertionError("the input was computed on")

        monkeypatch.setattr(chowfan.cli, "parse_input", refused)
        monkeypatch.setattr(chowfan.cli, "chow_quotient", refused)
        target = tmp_path / where
        capsys.readouterr()
        code, out = _run(args + [flag, str(target)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith(f"usage error: cannot write {str(target)!r}: ")
        assert target.is_dir() == (where == ".")

    def test_a_later_error_leaves_the_output_file_alone(self, tmp_path):
        bad, target = tmp_path / "bad.json", tmp_path / "out.json"
        bad.write_text('{"lattice_rank": 2')
        assert _run(["quotient", str(bad), "--output", str(target)]) == (2, "")
        assert not target.exists()
        target.write_text("kept")
        assert _run(["quotient", str(bad), "--output", str(target)]) == (2, "")
        assert target.read_text() == "kept"

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lattice_rank": 2')
        code, _ = _run(["validate", str(bad)])
        assert code == 2

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sublattice", "[[1, {long}]]", "sublattice[0][1]: {limit_message}"),
            ("lattice_rank", "-{long}", "lattice_rank: {limit_message}"),
            ("lattice_rank", "[{long}]", 'lattice_rank: expected an integer, got ["{limit_message}"]'),
        ],
        ids=["entry", "rank", "inside-a-list"],
    )
    def test_integer_literal_beyond_the_limit_is_parse_error(self, tmp_path, capsys, field, value, message):
        long = "7" * 5001
        limit_message = (
            f"integer literal of 5001 digits exceeds the limit of {sys.get_int_max_str_digits()} digits"
        )
        doc = {"lattice_rank": 2, "maximal_cones": P2_CONES, "sublattice": [[1, 0]]}
        doc[field] = "@"
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc).replace('"@"', value.format(long=long)))
        capsys.readouterr()
        code, out = _run(["quotient", str(path)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "parse error: " + message.format(limit_message=limit_message) + "\n"

    def test_repeated_key_is_parse_error(self, tmp_path, capsys):
        text = json.dumps({"lattice_rank": 2, "maximal_cones": P2_CONES, "sublattice": [[1, 0]]})
        path = tmp_path / "twice.json"
        path.write_text(text[:-1] + ', "sublattice": [[0, 1]]}')
        capsys.readouterr()
        code, out = _run(["quotient", str(path)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == 'parse error: repeated key "sublattice"\n'

    def test_validation_error(self, tmp_path):
        doc = {
            "lattice_rank": 2,
            "maximal_cones": [[[1, 0], [0, 1]], [[0, 1], [-1, -1]], [[-1, -1], [1, 0]]],
            "sublattice": [[2, 0]],
        }
        path = tmp_path / "ns.json"
        path.write_text(json.dumps(doc))
        code, _ = _run(["quotient", str(path)])
        assert code == 3
        code, _ = _run(["quotient", str(path), "--saturate"])
        assert code == 0

    def test_incomplete_fan_is_validation_error(self, tmp_path):
        doc = {
            "lattice_rank": 2,
            "maximal_cones": [[[1, 0], [0, 1]]],
            "sublattice": [[1, 0]],
        }
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        code, _ = _run(["quotient", str(path)])
        assert code == 3


def _reading(read, argv):
    """What ``read`` makes of ``argv``: ``"help"``, ``"usage"`` for a usage
    error, or the attributes it read."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = read(argv)
    except UsageError:
        return "usage"
    except SystemExit as exc:  # argparse's --help
        assert exc.code == 0
        return "help"
    return "help" if args is None else vars(args)


def _by_argparse(argv):
    return oracles._build_parser().parse_args(argv)


def _argparse_words():
    """Every command and option string the argparse parser knows."""
    actions = oracles._build_parser()._actions
    commands = next(a for a in actions if a.dest == "command").choices
    return set(commands) | {o for a in actions for o in a.option_strings}


# every command and option, the = form, options before and between the
# positionals, repeats, prefixes, "-" as the input, and each kind of usage error
ARGVS = [
    *[[command, P2] for command in ("validate", "quotient", "multiplicities", "cycle", "family", "fiber", "check", "all")],
    ["check", P2, "--saturate", "--integral", "--reduced", "--equidim", "--basic"],
    ["fiber", P1P1, "--cone", "1", "--graph-out", "g.dot", "--output", "o.json", "--bound", "3"],
    ["fiber", P1P1, "--cone=1", "--graph-out=g.dot", "--output=o.json", "--bound=3"],
    ["check", P2, "--output=", "--output=a b", "--bound", " 4 "],
    ["--saturate", "--bound", "2", "check", P2],
    ["--cone", "1", "fiber", "--graph-out", "g.dot", P1P1, "--integral"],
    ["check", P2, "--bound", "2", "--bound", "5", "--cone=1", "--cone", "3", "--basic", "--basic"],
    ["validate", P2, "--sat"],
    ["fiber", P1P1, "--c", "1", "--graph", "g.dot", "--o=o.json", "--bo", "2", "--i", "--r", "--e", "--ba", "--s"],
    ["check", P2, "--b", "4"],
    ["check", P2, "--b=4"],
    ["check", P2, "--bound"],
    ["check", P2, "--cone", "--saturate"],
    ["check", P2, "--output", "-x"],
    ["check", P2, "--bound", "0"],
    ["check", P2, "--bound", "-3"],
    ["check", P2, "--bound=0"],
    ["check", P2, "--bound", "x"],
    ["cycle", P2, "--cone", "x"],
    ["cycle", P2, "--cone", "-1"],
    ["cycle", P2, "--cone", "1.5"],
    ["validate", P2, "extra"],
    ["validate", P2, "--frobnicate"],
    ["validate", P2, "--frobnicate=1"],
    ["validate", P2, "-x"],
    ["validate", P2, "--saturate=1"],
    ["frobnicate", P2],
    ["validate"],
    [],
    ["validate", "-"],
    ["-", "validate"],
    ["validate", "-", "--saturate"],
    ["validate", "-5"],
    ["validate", "-a b"],
    ["validate", "--", "-x.json"],
    ["--help"],
    ["-h"],
    ["--he"],
    ["validate", P2, "--help"],
    ["--help", "--bound", "0"],
    ["check", P2, "--bound", "0", "--help"],
    ["validate", P2, "--frobnicate", "--help"],
    ["validate", P2, "extra", "-h"],
    ["frobnicate", "--help"],
    ["--help", "--b"],
    ["validate", P2, "-hx"],
    ["validate", P2, "--help=1"],
]


class TestArgv:
    """The argv reader against the argparse parser it replaced."""

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a).replace(FIXTURES, "") or "empty")
    def test_reads_as_argparse(self, argv):
        assert _reading(_read_argv, argv) == _reading(_by_argparse, argv)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([
        "validate", "cycle", "fiber", "check", "frobnicate", P2, "-", "x", "0", "3", "-3",
        "--saturate", "--sat", "--s", "--integral", "--i", "--basic", "--ba", "--b", "--b=2",
        "--bound", "--bo", "--bound=2", "--bound=0", "--cone", "--c", "--cone=x", "--cone=-1",
        "--output", "--graph-out", "--g=o.dot", "--saturate=1", "--frob", "-x", "--help", "-h",
    ]), max_size=7))
    def test_word_sequences_read_as_argparse(self, argv):
        assert _reading(_read_argv, argv) == _reading(_by_argparse, argv)

    def test_table_covers_every_command_and_option(self):
        assert _argparse_words() <= {w.partition("=")[0] for argv in ARGVS for w in argv}

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["validate", P2, "--help"], ["--he", "--frobnicate"]])
    def test_help_is_returned(self, argv, capsys):
        buf = io.StringIO()
        assert run(argv, stdout=buf) == 0
        assert buf.getvalue() == USAGE
        assert capsys.readouterr() == ("", "")

    def test_help_names_every_command_and_option(self):
        assert all(word in USAGE for word in _argparse_words())

    @pytest.mark.parametrize("argv", [a for a in ARGVS if _reading(_by_argparse, a) == "usage"])
    def test_usage_error_writes_only_stderr(self, argv, capsys):
        buf = io.StringIO()
        assert run(argv, stdout=buf) == 1 and buf.getvalue() == ""
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ")

    def test_cold_run_loads_no_argparse_gettext_or_locale(self):
        code = (
            "import io, sys; import chowfan.cli as cli; "
            "assert cli.run(['validate', sys.argv[1]], stdout=io.StringIO()) == 0; "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        out = subprocess.run([sys.executable, "-S", "-c", code, P2], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestDeterminism:
    def test_identical_bytes(self):
        _, a = _run(["all", P2, "--bound", "4"])
        _, b = _run(["all", P2, "--bound", "4"])
        assert a == b

    def test_json_round_trip(self):
        _, out = _run(["quotient", P1P1])
        doc = json.loads(out)
        assert json.loads(dumps(doc)) == doc


class TestValidateOnce:
    def test_all_validates_the_input_fan_once(self, monkeypatch):
        """One ``all`` run builds two fan reports: one for the input fan,
        shared by parsing, the quotient and the validation section, and one
        for the quotient fan, checked inside ``chow_quotient``."""
        import chowfan.cones as cones

        built = []
        real = cones.FanValidationReport

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(cones, "FanValidationReport", counting)
        code, _ = _run(["all", P1P1, "--bound", "1"])
        assert code == 0
        assert len(built) == 2

    def test_all_computes_each_multiplicity_once(self, monkeypatch):
        """The quotient's point cones and the multiplicities section share
        the multiplicities kept on the input fan: one Smith form per finite
        multiplicity, where computing them again for the section took 8."""
        import chowfan.chow as chow

        forms = []
        real = chow.elementary_divisors

        def counting(basis):
            forms.append(basis)
            return real(basis)

        monkeypatch.setattr(chow, "elementary_divisors", counting)
        code, out = _run(["all", WEIGHTED, "--bound", "2"])
        assert code == 0
        assert len(forms) == len(json.loads(out)["multiplicities"]["finite"]) == 4


class TestGoldenDigests:
    """sha256 of ``chowfan all --bound 4`` on each fixture.

    A refactor must not change a single output byte; an intended change to
    the documents updates these digests together with
    ``perfbench/reference.json``.
    """

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("p1p1_diagonal.json", "66c4036e904aac2c33ab7a055bf0c9feea47ffd6d1a67ac293f2b94d51c3e270"),
            ("p2_horizontal.json", "5ef4cf43a007e315f70284c264916e0bb7f25cb938dbdb89d99c2437e4cd8233"),
            ("p2_weighted.json", "e51c27e53489ffdb7fe4037f3bc91894bfefb7c86013b144739071b67411f87d"),
        ],
    )
    def test_all_document_digest(self, name, digest):
        code, out = _run(["all", os.path.join(FIXTURES, name), "--bound", "4"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestMetamorphic:
    """``chowfan all --bound 4`` does not depend on input order or hash seed."""

    @pytest.mark.parametrize(
        "name", ["p1p1_diagonal.json", "p2_horizontal.json", "p2_weighted.json"]
    )
    def test_all_document_is_invariant(self, tmp_path, name):
        path = os.path.join(FIXTURES, name)
        code, expected = _run(["all", path, "--bound", "4"])
        assert code == 0
        with open(path) as f:
            doc = json.load(f)
        for order in _reorderings(doc["maximal_cones"]):
            moved = tmp_path / "moved.json"
            moved.write_text(json.dumps(dict(doc, maximal_cones=order)))
            assert _run(["all", str(moved), "--bound", "4"]) == (0, expected)
        for seed in ("1", "2"):
            proc = _run_with_hash_seed(["all", path, "--bound", "4"], seed)
            assert (proc.returncode, proc.stdout) == (0, expected)


def _reorderings(cones):
    """The cones reversed, and cones and their rays shuffled by ``Random(1)``."""
    rng = random.Random(1)
    shuffled = rng.sample(cones, len(cones))
    shuffled = [rng.sample(rays, len(rays)) for rays in shuffled]
    assert shuffled not in (cones, cones[::-1])
    return cones[::-1], shuffled


class TestCorpusMetamorphic:
    """``chowfan family`` on the corpus does not depend on input order or hash seed."""

    @pytest.mark.parametrize("index", range(10))
    def test_family_document_is_invariant_under_reordering(self, tmp_path, index):
        text = corpus_documents()[index]
        path = tmp_path / "input.json"
        path.write_text(text)
        doc = json.loads(text)
        code, expected = _run(["family", str(path)])
        assert code == 0
        for order in _reorderings(doc["maximal_cones"]):
            moved = tmp_path / "moved.json"
            moved.write_text(json.dumps(dict(doc, maximal_cones=order)))
            assert _run(["family", str(moved)]) == (0, expected)

    @pytest.mark.parametrize("index", [0, 8])
    def test_family_document_is_invariant_under_hash_seed(self, tmp_path, index):
        path = tmp_path / "input.json"
        path.write_text(corpus_documents()[index])
        code, expected = _run(["family", str(path)])
        assert code == 0
        for seed in ("1", "2"):
            proc = _run_with_hash_seed(["family", str(path)], seed)
            assert (proc.returncode, proc.stdout) == (0, expected)


def _run_with_hash_seed(args, seed):
    """``python -m chowfan.cli`` in a fresh interpreter with a fixed hash seed."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, "-m", "chowfan.cli"] + args,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _perturb_entry(draw, doc):
    """Add -3..3 to one entry of a ray or of a sublattice generator."""
    rows = [ray for cone in doc["maximal_cones"] for ray in cone] + doc["sublattice"]
    rows = [r for r in rows if r]
    if rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] += draw(st.integers(-3, 3))


def _reshape_sublattice(draw, doc):
    """Add or drop a sublattice generator, or an entry of one."""
    sub = doc["sublattice"]
    change = draw(st.sampled_from(["drop_row", "add_row", "drop_entry", "add_entry"]))
    if change == "add_row":
        width = draw(st.integers(0, 3))
        sub.insert(
            draw(st.integers(0, len(sub))),
            draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width)),
        )
    elif not sub:
        return
    elif change == "drop_row":
        del sub[draw(st.integers(0, len(sub) - 1))]
    else:
        row = draw(st.sampled_from(sub))
        if change == "add_entry":
            row.insert(draw(st.integers(0, len(row))), draw(st.integers(-3, 3)))
        elif row:
            del row[draw(st.integers(0, len(row) - 1))]


@st.composite
def mutated_fixtures(draw):
    """A fixture document after one to three random edits."""
    name = draw(st.sampled_from(["p1p1_diagonal.json", "p2_horizontal.json", "p2_weighted.json"]))
    with open(os.path.join(FIXTURES, name)) as f:
        doc = json.load(f)
    for _ in range(draw(st.integers(1, 3))):
        cones = doc["maximal_cones"]
        edit = draw(st.sampled_from(["drop", "duplicate", "perturb", "reshape"]))
        if edit == "drop" and cones:
            del cones[draw(st.integers(0, len(cones) - 1))]
        elif edit == "duplicate" and cones:
            copy = json.loads(json.dumps(draw(st.sampled_from(cones))))
            cones.insert(draw(st.integers(0, len(cones))), copy)
        elif edit == "perturb":
            _perturb_entry(draw, doc)
        elif edit == "reshape":
            _reshape_sublattice(draw, doc)
    return doc


class TestFuzzedInputs:
    """Mutated fixture documents end in a documented exit code, never a traceback."""

    @settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=mutated_fixtures())
    def test_family_exit_code_is_documented(self, tmp_path, capsys, doc):
        path = tmp_path / "fuzzed.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, _ = _run(["family", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err


_SPECIAL = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", "\u2028", "😀"])
_TEXT = st.text(st.one_of(_SPECIAL, st.characters()), max_size=8)
_LEAF = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.booleans(),
    st.none(),
    st.floats(),
    _TEXT,
)
_INT_LIST = st.lists(st.one_of(st.integers(min_value=-(2**80), max_value=2**80), st.booleans(), st.none()))
_DOCUMENT = st.recursive(
    st.one_of(_LEAF, _INT_LIST),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=30,
)


class TestWriter:
    """``dumps`` writes the bytes of the indented ``json`` encoder."""

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENT)
    def test_matches_json(self, doc):
        assert dumps(doc) == oracles.dumps_by_json(doc)

    def test_matches_json_on_cli_documents(self, monkeypatch, tmp_path):
        import chowfan.cli

        kinds = []

        def checked(doc):
            text = dumps(doc)
            assert text == oracles.dumps_by_json(doc)
            kinds.append(doc["kind"])
            return text

        monkeypatch.setattr(chowfan.cli, "dumps", checked)
        commands = [
            ["validate"], ["multiplicities"], ["quotient"], ["cycle", "--cone", "0"], ["family"],
            ["fiber", "--cone", "0"], ["check", "--bound", "2"], ["all", "--bound", "2"],
        ]
        paths = [os.path.join(FIXTURES, name) for name in sorted(os.listdir(FIXTURES))]
        for i, text in enumerate(corpus_documents()):
            paths.append(tmp_path / f"corpus{i}.json")
            paths[-1].write_text(text)
        for path in paths:
            for command in commands:
                assert _run([command[0], str(path)] + command[1:])[0] == 0
        assert len(kinds) == len(paths) * len(commands)

    def test_set_is_refused(self):
        doc = {"a": [1, {2, 3}]}
        with pytest.raises(TypeError) as expected:
            oracles.dumps_by_json(doc)
        with pytest.raises(TypeError) as raised:
            dumps(doc)
        assert str(raised.value) == str(expected.value)

    def test_integers_past_the_digit_limit_are_written_exactly(self):
        # json refuses an int longer than sys.get_int_max_str_digits() (4300
        # by default); the digits here are built without converting one
        rng = random.Random(5)
        digits = "7" + "".join(rng.choice("0123456789") for _ in range(8999))
        n = int(digits[:3000]) * 10**6000 + int(digits[3000:6000]) * 10**3000 + int(digits[6000:])
        assert dumps({"a": 10**5000}) == '{\n  "a": 1' + "0" * 5000 + "\n}\n"
        assert dumps({"s": -n, "v": [n, -n, 1]}) == (
            '{\n  "s": -' + digits + ',\n  "v": [\n    ' + digits + ",\n    -" + digits + ",\n    1\n  ]\n}\n"
        )
        for m in (0, -1, 10**600 - 1, 10**600, -(10**600), 10**1800 + 7, 3**3000):
            assert _decimal(m) == int.__repr__(m)

    def test_integer_rows(self):
        # equal-length rows of plain ints take one %d template per row; bool
        # entries, int subclasses, ragged or empty rows and nested rows do not
        class Int(int):
            pass

        docs = [
            {"m": [(1, -2, 3), (40, 5, 0)], "t": ((7,),), "l": [[1, 2], [3, 4]]},
            {"m": [(True, 1), (0, False)], "n": [[1, 0], [False, 2]]},
            {"m": [(1, 2), (3,)], "e": [[], []], "x": [[], [1]]},
            {"m": [(Int(5), 1), (2, 3)], "d": [[[1]], [[2]]], "s": [[1, "a"], [2, "b"]]},
        ]
        for doc in docs:
            assert dumps(doc) == oracles.dumps_by_json(doc)

    def test_integer_rows_past_the_digit_limit(self):
        # %d refuses an int past the limit, as json does; such rows are
        # written as any other list, each long int by _decimal
        big = 3**9000  # 4295 digits, within the default limit of 4300; its square is past it
        doc = {"m": [(1, big * big), (-(big * big), 2)], "r": [[big, 1]]}
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            expected = oracles.dumps_by_json(doc)
        finally:
            sys.set_int_max_str_digits(limit)
        assert dumps(doc) == expected

    def test_non_string_keys(self):
        for doc in ({3: 1, 10: [2], -1: {}}, {None: 1}, {True: 1, False: 2}, {1.5: 1, 2.5: 2}):
            assert dumps(doc) == oracles.dumps_by_json(doc)
        with pytest.raises(TypeError):
            dumps({(1,): 2})


def _as_read(doc):
    """``doc`` as a reader gets it: written by ``dumps`` and parsed back."""
    return json.loads(dumps(doc))


class TestSerializeRoundTrips:
    def test_sublattice(self):
        s = sublattice(3, [[2, 0, 1], [0, 1, 1]])
        assert decode_sublattice(_as_read(encode_sublattice(s))) == s

    def test_cone(self):
        c = cone_from_generators([(1, 0), (1, 2)])
        assert decode_cone(_as_read(encode_cone(c))) == c

    def test_fan(self):
        f = p1p1_fan()
        assert decode_fan(_as_read(encode_fan(f))) == f

    def test_monoid_pointed(self):
        m = monoid_from_cone(cone_from_generators([(1, 0), (1, 2)]))
        assert decode_monoid(_as_read(encode_monoid(m))) == m
        # the semigroup <2, 3> is not saturated: its saturation adds 1
        with pytest.raises(DocumentError, match=r"^hilbert_basis: .* \[\[1\]\]$"):
            decode_monoid({"ambient_rank": 1, "hilbert_basis": [[2], [3]]})

    def test_monoid_with_units(self):
        d = dual_monoid(monoid_from_cone(cone_from_generators([(1, 0)], ambient_rank=2)))
        assert d.units.rank == 1
        assert decode_monoid(_as_read(encode_monoid(d))) == d

    def test_monoid_with_units_cut_from_a_skew_lattice(self):
        # the element of the coset of (2, 0, 0) is fixed by the cone and the
        # group, not by the basis of the lattice the monoid was cut from
        c = cone_from_generators([(1, 0, 0)], [(0, 1, 1)])
        m = saturated_monoid(c, sublattice(3, [(1, 1, 2), (0, 2, 4), (0, 0, 8)]))
        assert m.hilbert_basis == ((2, 0, 0),)
        assert decode_monoid(_as_read(encode_monoid(m))) == m

    def test_datum(self):
        d = variety_datum(p2_fan())
        assert decode_datum(_as_read(encode_datum(d))) == d

    def test_datum_with_two_rays_and_their_monoids_swapped_refused(self):
        # monoids are aligned with the fan's canonical order, not the
        # document's: read in another order, they would sit on other cones
        doc = _as_read(encode_datum(variety_datum(p1p1_fan())))
        i, j = [k for k, c in enumerate(doc["fan"]["cones"]) if len(c["rays"]) == 1][:2]
        for part in (doc["fan"]["cones"], doc["monoids"]):
            part[i], part[j] = part[j], part[i]
        with pytest.raises(DocumentError, match=r"^fan\.cones: "):
            decode_datum(doc)

    def test_datum_names_the_refused_monoid(self):
        # a ray's monoid <v> replaced by the semigroup <2v, 3v>
        doc = _as_read(encode_datum(variety_datum(p2_fan())))
        i = next(k for k, m in enumerate(doc["monoids"]) if len(m["hilbert_basis"]) == 1)
        (v,) = doc["monoids"][i]["hilbert_basis"]
        doc["monoids"][i]["hilbert_basis"] = [[2 * x for x in v], [3 * x for x in v]]
        with pytest.raises(DocumentError) as err:
            decode_datum(doc)
        assert str(err.value).startswith(f"monoids[{i}].hilbert_basis: ")


class TestValidateDocumentOnMissingFacets:
    """The ``validate`` document of a collection missing one, two or three
    codimension-one cones of a complete fan: the facet table records each
    missing facet as None, and the completeness test, which counts such a
    facet by its key, keeps the verdicts the per-cone facet scan gave."""

    @staticmethod
    def _doctored(fan):
        n = fan.ambient_rank
        ridges = [k for k, c in enumerate(fan.cones) if c.dim == n - 1]
        drops = [(k,) for k in ridges] + [tuple(ridges[:2]), tuple(ridges[-3:])]
        return [Fan(n, tuple(c for k, c in enumerate(fan.cones) if k not in drop)) for drop in drops]

    def test_two_missing_rays_of_p2(self):
        # each missing ray is a facet of two maximal cones, so the
        # collection still covers the plane: complete, but not a fan
        doc = _cmd_validate(self._doctored(p2_fan())[-2], sublattice(2, [[1, 0]]))
        assert (doc["fan_ok"], doc["complete"], doc["maximal_cones"], doc["cones"]) == (False, True, 3, 5)

    @pytest.mark.parametrize(
        "fan, rows, count, digest",
        [
            (p2_fan(), [[1, 0]], 5, "d45eb4d9f5da0f657dd482c003c162a70f14b609bb08970583d26a317da339fe"),
            (p1p1_fan(), [[1, 1]], 6, "e653c01c114b3cb365b7852500377335917ccb719869ddb92623ba6c25cf447f"),
            (
                random_complete_fan_rank3(random.Random(0)), [[1, 2, 3]], 17,
                "7b5ad3118b31419e661f84976c3edd657eac4787479d6176831c48dc45488315",
            ),
        ],
        ids=["p2", "p1p1", "rank3"],
    )
    def test_documents_match_the_facet_scan(self, fan, rows, count, digest):
        # the digests are of the documents the facet scan gave, before the
        # facet table existed
        docs = [dumps(_cmd_validate(f, sublattice(fan.ambient_rank, rows))) for f in self._doctored(fan)]
        assert len(docs) == count and all(not json.loads(d)["fan_ok"] for d in docs)
        assert hashlib.sha256("".join(docs).encode()).hexdigest() == digest
