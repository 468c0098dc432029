"""End to end runs of the command line front end.

Every case runs twice and must print identical bytes, since reports carry
no timestamps and all randomness is seeded.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from freeze_golden import COMMANDS, GOLDEN_DIR

from coarsekit import actions, cli, groups, structures
from coarsekit.errors import GroupParseError, MalformedElementError, PreconditionError


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# (argv, expected exit code)
CASES = [
    (["ball", "--group", "Z", "--radius", "6"], 0),
    (["ball", "--group", "DihInf", "--radius", "5", "--list"], 0),
    (["ball", "--group", "Zmod(6)", "--radius", "8"], 0),
    (["fc", "--group", "Z"], 0),
    (["fc", "--group", "DihInf", "--radius", "8"], 1),
    (["fc", "--group", "F(2)", "--radius", "6"], 1),
    (["compare-lr", "--group", "Z"], 0),
    (["compare-lr", "--group", "DihInf"], 1),
    (["mult-born", "--group", "Zmod(6)"], 0),
    (["mult-born", "--group", "DihInf"], 1),
    (["witness", "--group", "DihInf", "--family", "edge-left:t",
      "--structure", "left"], 1),
    (["witness", "--group", "DihInf", "--family", "edge-left:t",
      "--structure", "right"], 0),
    (["witness", "--group", "DihInf", "--family", "shape-left:1;t;x",
      "--structure", "left", "--radius", "6"], 0),
    (["map-check", "--group", "Z", "--map", "identity", "--equivalence"], 0),
    (["map-check", "--group", "Z", "--map", "floor-div:2", "--radius", "12",
      "--equivalence"], 0),
    (["map-check", "--group", "Z", "--map", "square"], 1),
    (["map-check", "--group", "Z", "--map", "identity",
      "--close-to", "translate-left:5"], 0),
    (["map-check", "--group", "Z", "--target", "Zmod(6)", "--map", "mod:6",
      "--equivalence"], 1),
    (["map-check", "--group", "Z", "--target", "DihInf", "--map", "inclusion",
      "--equivalence", "--cover-distance", "1", "--radius", "10"], 0),
    (["action-check", "--action", "left(Z)", "--set", "0"], 0),
    (["action-check", "--action", "left(Z->DihInf via x^n)",
      "--set", "1,t", "--radius", "8"], 0),
    (["action-check", "--action", "trivial(Z on Z)", "--radius", "6"], 1),
    # a space with no group structure: Z fixes the one point
    (["action-check", "--action", "trivial(Z on point)"], 0),
    (["action-check", "--action", "trivial(Z on point)", "--set", "pt"], 1),
    (["svarc-milnor", "--action", "left(Z)", "--radius", "8"], 0),
    (["svarc-milnor", "--action", "left(Z->DihInf via x^n)", "--radius", "10"], 0),
    (["commuting", "--radius", "8"], 0),
    (["gromov", "--radius", "8", "--enum-radius", "2"], 0),
    (["demo-dihedral", "--radius", "8"], 0),
]


class TestBattery:
    @pytest.mark.parametrize(
        "argv,expected", CASES, ids=[" ".join(c[0]) for c in CASES]
    )
    def test_exit_code_and_reproducibility(self, argv, expected):
        code, out = run_cli(argv)
        assert code == expected
        report = json.loads(out)
        assert report["tool"]["name"] == "coarsekit"
        assert set(report) == {"tool", "command", "config", "checks", "notes"}
        assert report["command"] == argv[0]

        code2, out2 = run_cli(argv)
        assert code2 == code
        assert out2 == out

    def test_verdicts_drive_exit_code(self):
        code, out = run_cli(["fc", "--group", "DihInf"])
        verdicts = [c["verdict"] for c in json.loads(out)["checks"]]
        assert code == 1 and "FAIL" in verdicts

        code, out = run_cli(["compare-lr", "--group", "DihInf"])
        verdicts = [c["verdict"] for c in json.loads(out)["checks"]]
        assert code == 1 and "DIFFER" in verdicts


class TestActionCheck:
    def test_stabilizer_verdict_reads_the_whole_tail(self):
        # the last two radii agree, but the trace grows until radius 5
        code, out = run_cli(
            ["action-check", "--action", "left(Z)", "--set", "0,1,2,3,4,5", "--radius", "6"]
        )
        stab = next(c for c in json.loads(out)["checks"] if c["check"] == "stabilizer")
        assert stab["data"]["trace"] == {"0": 1, "1": 3, "2": 5, "3": 7, "4": 9, "5": 11, "6": 11}
        assert stab["verdict"] == "FAIL"
        assert set(stab) == {"check", "verdict", "radius", "data"}
        assert code == 1

    def test_set_names_tuple_elements(self):
        # commas inside an element's parentheses do not split the set
        code, out = run_cli(
            ["action-check", "--action", "left(Z^2)", "--set", "(0,0),(1,0)", "--radius", "4"]
        )
        checks = json.loads(out)["checks"]
        assert code == 0
        assert [c["verdict"] for c in checks] == ["PASS"] * 4
        for c in checks[2:]:
            assert c["data"]["U"] == ["(0,0)", "(1,0)"]

    def test_space_without_group_structure_skips_the_translate_check(self):
        _, out = run_cli(["action-check", "--action", "trivial(Z on point)"])
        report = json.loads(out)
        assert [(c["check"], c["verdict"]) for c in report["checks"]] == [("cobounded", "PASS")]
        assert report["checks"][0]["data"]["U"] == ["pt"]
        assert report["notes"] == ["translate check skipped: the space carries no group structure"]
        # all of Z fixes the point
        _, out = run_cli(["action-check", "--action", "trivial(Z on point)", "--set", "pt"])
        verdicts = {c["check"]: c["verdict"] for c in json.loads(out)["checks"]}
        assert verdicts == {"cobounded": "PASS", "stabilizer": "FAIL", "point-finite": "FAIL"}

    def test_commuting_names_a_tuple_set(self):
        code, out = run_cli(
            ["commuting", "--action1", "left(Z^2)", "--action2", "right(Z^2)",
             "--set", "(0,0)", "--radius", "4"]
        )
        assert code == 0
        assert json.loads(out)["checks"][0]["data"]["U"] == ["(0,0)"]


def _error_report(code, message):
    report = {"command": "commuting", "error": {"code": code, "message": message},
              "tool": {"name": "coarsekit", "version": cli.__version__}}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


class TestInducedRefusals:
    """The induced structure of ``commuting`` refuses a U in this order:
    not covered, mesh above radius/2, then a growing stabilizer."""

    def test_u_that_does_not_cover(self):
        code, out = run_cli(["commuting", "--action1", "left(Z)", "--action2", "right(Z)",
                             "--set", "5", "--radius", "8"])
        assert code == 2
        assert out == _error_report(
            "precondition-violation",
            "left(Z via identity): not cobounded with the given U: {'action': 'left(Z via "
            "identity)', 'U': ['5'], 'note': 'window not covered with constant <= 4'}",
        )

    def test_u_that_fills_the_window(self):
        code, out = run_cli(["commuting", "--action1", "left(Z)", "--action2", "right(Z)",
                             "--set", "0,4", "--radius", "6"])
        assert code == 2
        assert out == _error_report(
            "window-too-small",
            "left(Z via identity): the covering U has mesh 4, above radius/2 at radius 6, so "
            "it fills the window and its cobounded PASS shows nothing",
        )

    def test_u_whose_stabilizer_keeps_growing(self):
        code, out = run_cli(["commuting", "--action1", "trivial(Z on point)",
                             "--action2", "trivial(Z on point)", "--set", "pt", "--radius", "6"])
        assert code == 2
        assert out == _error_report(
            "precondition-violation",
            "trivial(Z on point): stabilizer of U keeps growing, trace [(0, 1), (1, 3), (2, 5), "
            "(3, 7), (4, 9), (5, 11), (6, 13)]",
        )


def test_translate_check_stops_at_the_first_unbounded_family(monkeypatch):
    # right translations of DihInf against its left structure: the third
    # battery family, the t pair, is the first whose translates are
    # unbounded, and no family after it is read, by the guard or the check
    tags = []

    def recording(read):
        def wrapped(structure, pf, radius):
            tags.append(pf.tag)
            return read(structure, pf, radius)
        return wrapped

    monkeypatch.setattr(structures, "membership_window", recording(structures.membership_window))
    monkeypatch.setattr(actions, "membership_window", recording(actions.membership_window))
    code, out = run_cli(["svarc-milnor", "--action", "right(DihInf)", "--radius", "8"])
    assert code == 1
    assert out == (GOLDEN_DIR / "svarc-milnor-right-dihinf-8.json").read_text()
    pairs = ["{{g, g*x}}", "{{g, g*x^-1}}", "{{g, g*t}}"]
    assert tags == [t for p in pairs for t in (p, f"translates({p})")]


class TestWindowTooSmall:
    # every subcommand but ball reads a verdict off a stabilization tail
    VERDICT_COMMANDS = [
        ["fc", "--group", "DihInf"],
        ["compare-lr", "--group", "F(2)"],
        ["mult-born", "--group", "Z"],
        ["witness", "--group", "DihInf", "--family", "edge-left:t"],
        ["map-check", "--group", "Z", "--map", "identity"],
        ["action-check", "--action", "left(Z)"],
        ["svarc-milnor", "--action", "left(Z)"],
        ["commuting"],
        ["gromov"],
        ["demo-dihedral"],
    ]

    @pytest.mark.parametrize("radius", ["1", "2"])
    @pytest.mark.parametrize("argv", VERDICT_COMMANDS, ids=[c[0] for c in VERDICT_COMMANDS])
    def test_radius_below_three_is_refused(self, argv, radius):
        code, out = run_cli(argv + ["--radius", radius])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "window-too-small"

    @pytest.mark.parametrize(
        "argv,verdict",
        [(["fc", "--group", "DihInf"], "FAIL"), (["compare-lr", "--group", "F(2)"], "DIFFER")],
    )
    def test_radius_three_keeps_the_verdict(self, argv, verdict):
        code, out = run_cli(argv + ["--radius", "3"])
        assert code == 1
        assert [c["verdict"] for c in json.loads(out)["checks"]] == [verdict]

    def test_ball_needs_no_tail(self):
        code, _ = run_cli(["ball", "--group", "Z", "--radius", "2"])
        assert code == 0

    @pytest.mark.parametrize("radius", ["3", "4"])
    def test_cobounded_u_filling_the_window_is_refused(self, radius):
        # the trivial action is covered only by a U of mesh = radius, the whole window
        code, out = run_cli(["action-check", "--action", "left(Z via 0n)", "--radius", radius])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "window-too-small"

    @pytest.mark.parametrize("action,mesh", [("left(Z)", 0), ("left(Z->DihInf via x^n)", 1)])
    def test_cobounded_u_within_half_the_radius_passes(self, action, mesh):
        code, out = run_cli(["action-check", "--action", action, "--radius", "3"])
        cobounded = next(c for c in json.loads(out)["checks"] if c["check"] == "cobounded")
        assert (cobounded["verdict"], cobounded["data"]["mesh"]) == ("PASS", mesh)
        assert code == 0


class TestSelfMapTargets:
    """identity, negate, square and translate-* map a group to itself, onto
    the structure that --target-side names."""

    def test_identity_into_the_right_structure_fails(self):
        # {g, g*t} is bounded on the left of DihInf but grows on the right
        code, out = run_cli(
            ["map-check", "--group", "DihInf", "--target-side", "right",
             "--map", "identity", "--radius", "8"]
        )
        born = json.loads(out)["checks"][0]
        assert (born["check"], born["verdict"]) == ("bornologous", "FAIL")
        assert born["data"]["counterexample"]["structure"] == "C_r(DihInf)"
        assert code == 1

    @pytest.mark.parametrize("map_text", ["identity", "translate-left:t"])
    def test_named_target_equal_to_the_source_is_the_default(self, map_text):
        base = ["map-check", "--group", "DihInf", "--map", map_text, "--radius", "6"]
        code, out = run_cli(base)
        code_t, out_t = run_cli(base + ["--target", "DihInf", "--target-side", "left"])
        assert code == code_t == 0
        assert json.loads(out)["checks"] == json.loads(out_t)["checks"]


def test_equivalence_runs_each_map_check_once(monkeypatch):
    from coarsekit import maps

    calls = []
    for name in ("check_bornologous", "check_coarsely_proper"):
        check = getattr(maps, name)

        def counted(*args, _check=check, _name=name, **kwargs):
            calls.append(_name)
            return _check(*args, **kwargs)

        monkeypatch.setattr(maps, name, counted)
        monkeypatch.setattr(cli, name, counted)
    _, out = run_cli(["map-check", "--group", "Z", "--map", "floor-div:2", "--radius", "8",
                      "--equivalence"])
    assert sorted(calls) == ["check_bornologous", "check_coarsely_proper"]
    checks = json.loads(out)["checks"]
    assert checks[:2] == [checks[2]["data"]["bornologous"], checks[2]["data"]["coarsely_proper"]]


class TestGromov:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("k", [1, -1, 2, -2, 3, -3])
    def test_translations_pass_at_every_radius(self, side, k):
        # an isometry's own table covers the target ball about its value at 1
        for radius in (4, 6, 8):
            code, out = run_cli(["gromov", "--map", f"translate-{side}:{k}", "--radius", str(radius)])
            assert code == 0, (radius, json.loads(out)["checks"][1]["data"]["failures"])


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["fc", "--group", "Sym(3)"],
        ["map-check", "--group", "Z", "--map", "bogus"],
        ["witness", "--group", "Z", "--family", "bogus"],
    ] + [["svarc-milnor", "--action", text] for text in (
        "up(Z)", "trivial(Z)", "left(Z->DihInf)", "left(Z->Z via x^n)", "left(Z via n^2)",
    )], ids=" ".join)
    def test_unknown_name_exits_2(self, argv):
        code, out = run_cli(argv)
        assert code == 2
        report = json.loads(out)
        assert report["error"]["code"] == "parse-error"
        assert "checks" not in report

    def test_uncovered_equivalence_exits_2(self):
        code, out = run_cli(
            ["map-check", "--group", "Z", "--target", "DihInf",
             "--map", "inclusion", "--equivalence"]
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "surjectivity-violation"

    @pytest.mark.parametrize("target,map_text", [("Zmod(3)", "mod:5"), ("Z", "mod:3")])
    def test_mod_k_needs_target_zmod_k(self, target, map_text):
        code, out = run_cli(
            ["map-check", "--group", "Z", "--target", target, "--map", map_text, "--radius", "4"]
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "precondition-violation"

    @pytest.mark.parametrize("argv", [
        ["--group", "DihInf", "--map", "square"],
        ["--group", "Z", "--target", "DihInf", "--map", "power:2"],
        ["--group", "Z", "--map", "floor-div:0"],
        ["--group", "DihInf", "--map", "floor-div:2"],
        ["--group", "Z", "--map", "inclusion"],
    ], ids=" ".join)
    def test_map_outside_its_domain_exits_2(self, argv):
        code, out = run_cli(["map-check"] + argv)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "precondition-violation"

    @pytest.mark.parametrize("map_text", [
        "identity", "negate", "square", "translate-left:1", "translate-right:1",
    ])
    def test_self_map_refuses_another_target_group(self, map_text):
        code, out = run_cli(
            ["map-check", "--group", "Z", "--target", "DihInf", "--map", map_text, "--radius", "4"]
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "precondition-violation"

    def test_close_to_self_map_refuses_another_target_group(self):
        code, out = run_cli(
            ["map-check", "--group", "Z", "--target", "DihInf", "--map", "inclusion",
             "--close-to", "identity", "--radius", "4"]
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "precondition-violation"

    def test_empty_exponent_exits_2(self):
        code, out = run_cli(
            ["action-check", "--action", "left(DihInf)", "--set", "x^", "--radius", "4"]
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "malformed-element"

    @pytest.mark.parametrize("argv", [
        ["action-check", "--action", "left(Z)", "--set", ",", "--radius", "4"],
        ["action-check", "--action", "left(Z)", "--set", "", "--radius", "4"],
        ["commuting", "--set", ","],
        ["action-check", "--action", "trivial(Z on point)", "--set", "q"],
    ])
    def test_set_naming_no_element_exits_2(self, argv):
        code, out = run_cli(argv)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "malformed-element"

    @pytest.mark.parametrize("text", [",", "(0,0"])
    def test_malformed_tuple_set_exits_2(self, text):
        code, out = run_cli(["action-check", "--action", "left(Z^2)", "--set", text, "--radius", "4"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "malformed-element"

    @pytest.mark.parametrize("action1,at", [
        ("left(DihInf)", "g=(0, 1), h=(1, 0), x=(0, 0)"),
        ("left(Z->DihInf via x^n)", "g=1, h=(0, 1), x=(0, 0)"),
    ])
    def test_actions_that_do_not_commute_name_the_first_failure(self, action1, at):
        code, out = run_cli(["commuting", "--action1", action1, "--action2", "left(DihInf)",
                             "--set", "1", "--radius", "6"])
        assert code == 2
        error = json.loads(out)["error"]
        assert error == {"code": "commutativity-violation",
                         "message": f"actions do not commute at {at}"}

    def test_negative_cover_distance_exits_2(self):
        code, out = run_cli(
            ["map-check", "--group", "Z", "--map", "identity", "--equivalence",
             "--cover-distance", "-3", "--radius", "4"]
        )
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid-radius"

    def test_reader_closing_the_pipe_early_is_not_an_error(self):
        # 436 KB of output: far more than a pipe buffer holds, so the write
        # fails once the reader has gone
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "coarsekit.cli", "ball", "--group", "F(2)",
             "--radius", "8", "--list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.read(10) == b'{\n  "check'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == 0

    def test_malformed_element_exits_2(self):
        code, out = run_cli(
            ["witness", "--group", "Z", "--family", "edge-left:banana"]
        )
        assert code == 2

    def test_negative_ball_radius_exits_2(self):
        code, out = run_cli(["ball", "--group", "Z", "--radius", "-1"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "invalid-radius"

    def test_svarc_milnor_on_finite_space_exits_2(self):
        code, out = run_cli(["svarc-milnor", "--action", "trivial(Z on point)"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "space-mismatch"

    def test_unknown_flag_is_usage_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                cli.main(["ball", "--group", "Z", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                cli.main([])
        assert exc.value.code == 2


class TestFormats:
    def test_table_format(self):
        code, out = run_cli(["fc", "--group", "Z", "--format", "table"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("coarsekit ") and "command=fc" in lines[0]
        assert any("PASS" in line for line in lines[1:])

    def test_table_format_of_nested_data(self):
        code, out = run_cli(["commuting", "--radius", "8", "--format", "table"])
        assert code == 0
        lines = out.splitlines()
        assert '  U: ["1", "t"]' in lines
        cut = [line for line in lines if line.endswith("...")]
        assert cut and all(len(line.split(": ", 1)[1]) == 100 for line in cut)
        assert lines[-1] == (
            "note: right(DihInf via identity): right translations enter as the left action g.x = x.g^-1"
        )

    def test_table_format_error(self):
        code, out = run_cli(["fc", "--group", "Sym(3)", "--format", "table"])
        assert code == 2
        assert "error [parse-error]:" in out

    def test_version(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--version"])
        assert exc.value.code == 0
        assert buf.getvalue().startswith("coarsekit ")

    def test_ball_window_listing(self):
        code, out = run_cli(["ball", "--group", "Z", "--radius", "2"])
        data = json.loads(out)["checks"][0]["data"]
        assert data["sizes"] == {"0": 1, "1": 3, "2": 5}
        assert sorted(data["window"]) == ["-1", "-2", "0", "1", "2"]


# argv whose parse ends the process: usage errors, help and version; an
# unrecognized flag after a complete command is reported with the top-level
# usage line, which names every subcommand
PARSE_EXITS = [
    [], ["nope"], ["--help"], ["--version"], ["--format", "json", "ball"], ["ball", "--bogus"],
    ["ball", "--version"], ["fc", "--group", "Z", "--radius", "x"],
    ["fc", "--group", "Z", "--bogus"],
] + [[name, "--help"] for name in cli.SUBCOMMANDS]


def _exit_and_streams(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            call(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


class TestParser:
    @pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
    def test_main_parses_as_the_full_parser(self, argv):
        full = _exit_and_streams(cli.build_parser().parse_args, argv)
        assert _exit_and_streams(cli.main, argv) == full

    def test_argparse_builds_the_full_parser_only_when_the_reader_declines(self, monkeypatch):
        inits = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            inits.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, _ = run_cli(["fc", "--group", "Z", "--radius", "3"])
        assert code == 0
        assert inits == []  # read off SUBCOMMANDS
        # an abbreviated flag is left to argparse, which builds every subparser
        code, out = run_cli(["commuting", "--rad", "8"])
        assert code == 0
        assert inits == ["coarsekit"] + [f"coarsekit {name}" for name in cli.SUBCOMMANDS]
        assert out == (GOLDEN_DIR / "commuting-8.json").read_text()

    def test_handler_is_read_when_the_parser_is_built(self, monkeypatch):
        calls = []

        def fake_fc(args):
            calls.append(args.group)
            return [], ["patched"]

        monkeypatch.setattr(cli, "cmd_fc", fake_fc)
        code, out = run_cli(["fc", "--group", "Z", "--radius", "3"])
        assert code == 0 and calls == ["Z"]
        assert json.loads(out)["notes"] == ["patched"]


def _split(argv):
    """The flags of argv past its subcommand name, each with its value."""
    flags = dict(cli._COMMON + cli.SUBCOMMANDS[argv[0]][1])
    pairs, i = [], 1
    while i < len(argv):
        n = 2 if argv[i] in flags and flags[argv[i]].get("action") != "store_true" else 1
        pairs.append(argv[i:i + n])
        i += n
    return pairs


def _mutants(argv):
    """argv with flags abbreviated, written --flag=value, repeated,
    reordered, cut short, dropped or given odd values, and with bad flags
    or values appended."""
    if not argv or argv[0] not in cli.SUBCOMMANDS:
        return []
    head, pairs = argv[:1], _split(argv)
    join = lambda ps: head + [t for p in ps for t in p]  # noqa: E731
    out = [join([[p[0][:-1]] + p[1:] for p in pairs]), join(pairs[::-1]), join(pairs + pairs)]
    for k, p in enumerate(pairs):
        out.append(join(pairs[:k] + pairs[k + 1:]))
        out.append(join(pairs[:k] + [[p[0][:-1]] + p[1:]] + pairs[k + 1:]))
        if len(p) == 2:
            out.append(join(pairs[:k] + [["=".join(p)]] + pairs[k + 1:]))
            out.append(join(pairs + [[p[0], "3"]]))
            out.append(join(pairs[:k] + [p[:1]]))
            out += [join(pairs[:k] + [[p[0], v]] + pairs[k + 1:]) for v in ("-1", "-x", "")]
    extras = [["--seed"], ["--seed", "99"], ["--seed", "x"], ["--format", "xml"],
              ["--format", "table"], ["--bogus", "1"], ["-h"], ["--"], ["stray"]]
    return out + [argv + e for e in extras] + [head + ["--"] + argv[1:]]


def _argparse_reads(parser, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


# the README commands are among the golden ones (test_readme.py)
CORPUS = list({tuple(a): a for a in [*COMMANDS.values(), *PARSE_EXITS, *(a for a, _ in CASES)]}.values())


class TestReadArgv:
    @pytest.fixture(scope="class")
    def parser(self):
        return cli.build_parser()

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_reader_agrees_with_argparse(self, argv, parser):
        for mutant in [argv, *_mutants(argv)]:
            expected = _argparse_reads(parser, mutant)
            args = cli.read_argv(mutant)
            if expected is None or args is not None:
                assert (args if args is None else vars(args)) == expected, mutant

    @pytest.mark.parametrize("stem", sorted(COMMANDS))
    def test_golden_commands_take_the_reader(self, stem):
        assert cli.read_argv(COMMANDS[stem]) is not None

    def test_every_flag_is_one_the_reader_models(self):
        keys = {"required", "type", "default", "choices", "help", "action"}
        for name, (_, flags) in cli.SUBCOMMANDS.items():
            for flag, kwargs in cli._COMMON + flags:
                assert flag.startswith("--") and set(kwargs) <= keys, (name, flag)
                assert kwargs.get("action", "store_true") == "store_true", (name, flag)
                assert kwargs.get("type", int) is int, (name, flag)

    def test_a_well_formed_call_imports_no_argparse(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "coarsekit.cli",
             "fc", "--group", "Z", "--radius", "3"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["checks"][0]["verdict"] == "PASS"
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert not {"argparse", "gettext", "locale"} & imported


def test_import_generates_no_code():
    # dataclasses pulls in inspect, dis, ast and tokenize; -S keeps site from
    # preloading typing, as it would not be in a plain install
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (
        "import sys, coarsekit.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_a_json_report_imports_neither_json_nor_re():
    # the report writer and the DSL readers need neither module; -S keeps
    # site from preloading re
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (
        "import io, sys, contextlib, coarsekit.cli as c\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    c.main(['witness', '--group', 'Z^2', '--family', 'shape-left:(0,1);(1,0)'])\n"
        "    c.main(['map-check', '--group', 'Z', '--map', 'power:-2'])\n"
        "    c.main(['action-check', '--action', 'left(Z via 2n)', '--set', '0'])\n"
        "print(*sorted({'json', 're'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _indented(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


class TestReportWriter:
    """``cli._dumps`` writes what ``json.dumps(value, indent=2,
    sort_keys=True)`` writes, for every value a report holds."""

    @pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_every_golden(self, path):
        report = json.loads(path.read_text())
        assert cli._dumps(report) == _indented(report)

    def test_an_error_report(self):
        code, out = run_cli(["fc", "--group", "Q(2)"])
        assert code == 2
        report = json.loads(out)
        assert report["error"]["code"] == "parse-error"
        assert out == cli._dumps(report) + "\n" == _indented(report) + "\n"

    @pytest.mark.parametrize("value", [
        {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[[]], {}, {"b": [{}]}],
        {"": "", "B": 1, "a": 2, "é": 3, "\x01": 4},
        "é ü ☃ \U0001F600 ­",
        "\x00\x1f\t\n\r\b\f\"\\/\x7f",
        0, -1, 2**64, -(10**40), True, False, None,
        {"n": [True, None, -2, "x"], "m": {"z": [], "y": {"x": [[1]]}}},
    ], ids=repr)
    def test_edge_cases(self, value):
        assert cli._dumps(value) == _indented(value)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": {2}}, b"x", [object()]],
                             ids=repr)
    def test_refuses_what_no_report_holds(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)


# The DSL languages, as patterns: translate-(left|right):(.+), power:(-?\d+),
# floor-div:(\d+), mod:(\d+), constant:(.+), (left|right|trivial)\((.*)\),
# (-?\d+)n and (edge|shape)-(left|right):(.+).  Here ``.`` takes no newline,
# and ``\d`` takes any decimal digit but no sign, space or underscore, which
# int() alone would take.
MAP_NAMES = {
    "power:2": "power:2", "power:-3": "power:-3", "power:٢": "power:2",
    "floor-div:3": "floor-div:3", "constant:5": "constant:5", "constant: 5": "constant:5",
    "translate-left:2": "translate-left:2", "translate-right:-1": "translate-right:-1",
    " negate ": "negate",
}
UNKNOWN_MAPS = [
    "power:+2", "power: 2", "power:--2", "power:-", "power:", "power:2\n3", "power",
    "Power:2", "power:2:3", "floor-div:1_0", "floor-div:-3", "floor-div:", "mod:",
    "mod: 4", "mod:\n4", "mod:4n", "constant:", "constant:1\n2", "translate-left:",
    "translate-up:1", "translate-left :1", "translate-left:1\n2", "squares",
]
ACTION_NAMES = {
    "left(Z)": "left(Z via identity)", " right(DihInf) ": "right(DihInf via identity)",
    "trivial(Z on point)": "trivial(Z on point)", "trivial(Z on DihInf)": "trivial(Z on DihInf)",
    "left(Z->DihInf via x^n)": "left(Z->DihInf via x^n)", "left(Z via 2n)": "left(Z via 2n)",
    "right(Z via -3n)": "right(Z via -3n)", "left(Z via ٢n)": "left(Z via 2n)",
}
MALFORMED_ACTIONS = [
    "left(", "left)", "left", "up(Z)", "left (Z)", "left(Z\n)", "left(\nZ)", "left(Z)x",
    "LEFT(Z)", "trivial(Z on point\n)",
]
UNKNOWN_HOMS = ["+2n", "--2n", "-n", "n", "2 n", "1_0n", "2"]
FAMILY_TAGS = {
    "edge-left:t": "{{g, t*g}}", " edge-left:t ": "{{g, t*g}}", "edge-left: t": "{{g, t*g}}",
    "edge-right:x": "{{g, g*x}}", "shape-left:1;t": "{g*[1,t]}",
    "shape-right: x ; t": "{[x,t]*g}", "shape-left:t;": "{g*[t,1]}",
}
UNKNOWN_FAMILIES = [
    "edge-left-x:1", "shape-left:", "edge-left :t", "edge-left:\nt", "edge-left:t\nx",
    "edge-up:t", "edge:t", "edge-left", "loop-left:t", "Edge-left:t", " edge-up:t ",
]


class TestDsl:
    z, dih = structures.LeftGroupStructure(groups.Z), structures.LeftGroupStructure(groups.DIH)

    @pytest.mark.parametrize("text,name", MAP_NAMES.items(), ids=repr)
    def test_map_names(self, text, name):
        assert cli.parse_map_dsl(text, self.z, self.z).name == name

    @pytest.mark.parametrize("text", UNKNOWN_MAPS, ids=repr)
    def test_unknown_maps(self, text):
        with pytest.raises(GroupParseError) as exc:
            cli.parse_map_dsl(text, self.z, self.z)
        assert str(exc.value) == f"unknown map {text!r} at position 0 in {text!r}"

    def test_map_bodies_reach_their_constructors(self):
        assert cli.parse_map_dsl("constant:t", self.z, self.dih).name == "constant:t"
        with pytest.raises(PreconditionError):
            cli.parse_map_dsl("mod:4", self.z, self.z)

    @pytest.mark.parametrize("text,name", ACTION_NAMES.items(), ids=repr)
    def test_action_names(self, text, name):
        assert cli.parse_action_dsl(text).name == name

    @pytest.mark.parametrize("text", MALFORMED_ACTIONS, ids=repr)
    def test_malformed_actions(self, text):
        with pytest.raises(GroupParseError) as exc:
            cli.parse_action_dsl(text)
        assert str(exc.value).startswith("action must be left(...), right(...) or trivial(...)")

    @pytest.mark.parametrize("hom", UNKNOWN_HOMS, ids=repr)
    def test_unknown_homomorphisms(self, hom):
        with pytest.raises(GroupParseError) as exc:
            cli.parse_action_dsl(f"left(Z via {hom})")
        assert str(exc.value).startswith(f"unknown homomorphism {hom!r}")

    @pytest.mark.parametrize("text,message", [
        ("left()", "expected one of Z"), ("left(Z))", "unexpected trailing input"),
        ("trivial(Z)", "trivial action needs 'GROUP on SPACE'"),
        ("right(Z^2 via 2n)", "unknown homomorphism '2n'"),
    ])
    def test_action_bodies_reach_their_readers(self, text, message):
        with pytest.raises(GroupParseError) as exc:
            cli.parse_action_dsl(text)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("text,tag", FAMILY_TAGS.items(), ids=repr)
    def test_family_tags(self, text, tag):
        assert cli.parse_family_dsl(text, groups.DIH).tag == tag

    @pytest.mark.parametrize("text", UNKNOWN_FAMILIES, ids=repr)
    def test_unknown_families(self, text):
        with pytest.raises(GroupParseError) as exc:
            cli.parse_family_dsl(text, groups.DIH)
        assert str(exc.value) == f"unknown family {text!r} at position 0 in {text!r}"

    @pytest.mark.parametrize("text", ["shape-left:1:t", "edge-left:t:x"])
    def test_family_bodies_reach_the_element_reader(self, text):
        with pytest.raises(MalformedElementError):
            cli.parse_family_dsl(text, groups.DIH)
