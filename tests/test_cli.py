"""End to end runs of the command line front end.

Every case runs twice and must print identical bytes, since reports carry
no timestamps and all randomness is seeded.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from coarsekit import cli


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

    def test_commuting_names_a_tuple_set(self):
        code, out = run_cli(
            ["commuting", "--action1", "left(Z^2)", "--action2", "right(Z^2)",
             "--set", "(0,0)", "--radius", "4"]
        )
        assert code == 0
        assert json.loads(out)["checks"][0]["data"]["U"] == ["(0,0)"]


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
    def test_unknown_group_exits_2(self):
        code, out = run_cli(["fc", "--group", "Sym(3)"])
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
