"""Command line behaviour: reports, exports, exit codes, byte identity."""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from buchirl import ProductMdp, dump_mdp, load_mdp, solvers, validate_mdp
from buchirl.cli import main
from buchirl.verify import VerifyReport

from conftest import CORPUS, ROOT
from generators import edge_rows, large_instance, serialize_hoa

I2 = str(CORPUS / "mdp" / "i2.json")
I2_TEXT = (CORPUS / "mdp" / "i2.json").read_text()
SELF_LOOP = str(CORPUS / "mdp" / "self_loop.json")
ACCEPT_G = str(CORPUS / "hoa" / "accept_g.hoa")
ACCEPT_G_TEXT = (CORPUS / "hoa" / "accept_g.hoa").read_text()
INCOMPLETE_G = str(CORPUS / "hoa" / "incomplete_g.hoa")
NONDET_G = str(CORPUS / "hoa" / "nondet_g.hoa")
CHILD_AS_LIMIT = 512 << 20  # bytes of address space for a child run under a memory cap

MISMATCHED_HOA = """HOA: v1
States: 1
Start: 0
AP: 2 "x" "y"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 0 {0}
[1] 0
--END--
"""


def run(argv, capsys):
    """Invoke the CLI in process; returns (exit code, parsed report or None)."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def corrupted_mdp(tmp_path):
    data = json.loads((CORPUS / "mdp" / "i2.json").read_text())
    data["transitions"][0]["prob"] = 0.499  # mass at (s0, a) is now 0.999
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_ok(capsys):
    code, rep = run(["validate", "--mdp", I2], capsys)
    assert code == 0
    assert rep["command"] == "validate"
    assert set(rep) == {"command", "inputs", "config", "result", "timing"}
    assert rep["inputs"] == {"mdp": I2, "hoa": None}
    assert rep["timing"] is None
    assert rep["result"]["errors"] == 0
    assert rep["result"]["alphabet_match"] is None


def test_validate_with_automaton(capsys):
    code, rep = run(["validate", "--mdp", I2, "--hoa", ACCEPT_G], capsys)
    assert code == 0
    auto = rep["result"]["automaton"]
    assert auto == {
        "states": 1,
        "transitions": 2,
        "accepting": 1,
        "deterministic": True,
        "complete": True,
        "gfm": True,
    }
    assert rep["result"]["alphabet_match"] is True


def test_validate_alphabet_mismatch(tmp_path, capsys):
    hoa = tmp_path / "xy.hoa"
    hoa.write_text(MISMATCHED_HOA)
    code, rep = run(["validate", "--mdp", I2, "--hoa", str(hoa)], capsys)
    assert code == 4
    assert rep["result"]["alphabet_match"] is False


def test_validate_reports_bad_mass(tmp_path, capsys):
    code, rep = run(["validate", "--mdp", corrupted_mdp(tmp_path)], capsys)
    assert code == 4
    assert rep["result"]["errors"] >= 1
    codes = {d["code"] for d in rep["result"]["diagnostics"]}
    assert "prob-sum" in codes


def test_numeric_commands_refuse_invalid_mdp(tmp_path, capsys):
    bad = corrupted_mdp(tmp_path)
    for argv in (
        ["verify", "--mdp", bad, "--hoa", ACCEPT_G],
        ["solve", "--mdp", bad, "--hoa", ACCEPT_G, "--zeta", "0.9"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""  # refused before producing a report
        assert "error:" in captured.err


def test_missing_file_is_a_parse_error(capsys):
    assert main(["validate", "--mdp", "/no/such/file.json"]) == 3
    assert "error:" in capsys.readouterr().err


def test_unparsable_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ this is not json")
    assert main(["validate", "--mdp", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100_000, "nested too deeply"),
        ('{"states": ["s0"], "states": ["s1"]}', "duplicate key 'states'"),
        (
            '{"states": ["s0"], "actions": ["a"], "alphabet": ["g"], "initial": "s0",'
            ' "transitions": [{"from": "s0", "action": "a", "to": "s0",'
            ' "prob": 0.5, "prob": 1, "label": "g"}]}',
            "duplicate key 'prob'",
        ),
        (b'\xff{"states": ["s0"]}', "can't decode byte 0xff"),
        # past the float range, and past Python's limit on the digits of an int
        (I2_TEXT.replace('"prob": 1.0', '"prob": 1' + "0" * 400, 1), "prob must be a finite number"),
        (I2_TEXT.replace('"prob": 1.0', '"prob": 1' + "0" * 5000, 1), "integer of 5001 digits"),
    ],
    ids=["deep", "duplicate-top", "duplicate-edge", "not-utf-8", "prob-401-digits", "int-5001-digits"],
)
def test_malformed_json_is_a_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    for argv in (
        ["validate", "--mdp", str(path)],
        ["verify", "--mdp", str(path), "--hoa", ACCEPT_G],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()  # one line, no traceback
        assert line.startswith("error: ") and message in line
        if isinstance(text, bytes):  # not UTF-8: the line names the file
            assert str(path) in line


def test_non_utf8_automaton_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.hoa"
    path.write_bytes(b"\xff" + (CORPUS / "hoa" / "accept_g.hoa").read_bytes())
    for argv in (
        ["validate", "--mdp", I2, "--hoa", str(path)],
        ["solve", "--mdp", I2, "--hoa", str(path), "--zeta", "0.9"],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "can't decode byte 0xff" in line
        assert str(path) in line


@pytest.mark.parametrize(
    "old, new",
    [("States: 1", "States: 1" + "0" * 5000), ("[0] 0 {0}", "[0] 1" + "0" * 5000 + " {0}")],
    ids=["states-5001-digits", "destination-5001-digits"],
)
def test_overlong_automaton_number_is_a_parse_error(tmp_path, capsys, old, new):
    # a number past Python's limit on the digits of an int, in a header or
    # on an edge, is unparsable input like any other
    path = tmp_path / "long.hoa"
    path.write_text((CORPUS / "hoa" / "accept_g.hoa").read_text().replace(old, new, 1))
    for argv in (
        ["validate", "--mdp", I2, "--hoa", str(path)],
        ["solve", "--mdp", I2, "--hoa", str(path), "--zeta", "0.9"],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: line ") and "5001 digits is too long" in line


@pytest.mark.parametrize(
    "which, old, new, message",
    [
        ("hoa", "--BODY--", "--END--", "line 8: --END-- before --BODY--"),
        ("hoa", "GFM: true", "GFM true", "line 7, col 1: expected a 'name: value' header"),
        ("hoa", "States: 1", "States: one", "line 2: States expects a nonnegative integer"),
        # 2^63: the product's int64 columns could not hold such a state
        ("hoa", "States: 1", "States: 9223372036854775808", "line 2: number of 19 digits is too long"),
        ("hoa", "Start: 0", "Start: -1", "line 3: Start expects a nonnegative integer"),
        ("hoa", 'AP: 2 "g" "n"', "AP: 2 g n", "line 4: AP expects a count then quoted names"),
        ("hoa", "State: 0", "State: zero", "line 9: State line must be 'State: <index>'"),
        ("hoa", "[1] 0", "[1] zero", "line 11: malformed edge"),
        ("hoa", "--END--\n", "", "line 11: missing --END--"),
        ("mdp", '"states": ["s0", "sA", "sR"]', '"states": ["s0", 1, 2]', "states must be a list of strings"),
        ("mdp", '"states": ["s0", "sA", "sR"]', '"states": []', "states must be nonempty"),
    ],
    ids=[
        "end-before-body", "header", "states-count", "states-19-digits", "start", "ap", "state-line", "edge",
        "no-end",
        "state-names", "no-states",
    ],
)
def test_input_errors_exit_3_with_one_line(tmp_path, capsys, which, old, new, message):
    # a HOA message names its line
    text = ACCEPT_G_TEXT if which == "hoa" else I2_TEXT
    assert old in text
    path = tmp_path / f"bad.{which}"
    path.write_text(text.replace(old, new, 1))
    inputs = {"mdp": I2, "hoa": ACCEPT_G, which: str(path)}
    assert main(["oracle", "--mdp", inputs["mdp"], "--hoa", inputs["hoa"]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {message}")


def run_capped(args, timeout):
    """`python args` in a child process whose address space is capped at
    `CHILD_AS_LIMIT`, so that a runaway allocation fails the test rather
    than the machine; `buchirl` imports from this checkout."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_LIMIT, CHILD_AS_LIMIT))

    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=cap,
    )


# runs the CLI on its arguments, then prints its own peak RSS (KB) on stderr
PEAK_RSS_CHILD = """
import resource, sys
from buchirl.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def test_memory_follows_the_reachable_automaton(tmp_path):
    # incomplete_g declaring 10^6 states, of which a run reaches one
    declared = tmp_path / "declared.hoa"
    text = (CORPUS / "hoa" / "incomplete_g.hoa").read_text()
    declared.write_text(text.replace("States: 1", "States: 1000000"))
    peak, reports = {}, {}
    for command in ("oracle", "validate"):
        for hoa in (INCOMPLETE_G, str(declared)):
            argv = [command, "--mdp", I2, "--hoa", hoa, "--trap-complete"]
            proc = run_capped(["-c", PEAK_RSS_CHILD, *argv], timeout=30)
            assert proc.returncode == 0, proc.stderr[-2000:]
            peak[command, hoa] = int(proc.stderr.split()[-1])
            reports[command, hoa] = json.loads(proc.stdout)["result"]
        assert peak[command, str(declared)] <= 1.1 * peak[command, INCOMPLETE_G]
    # the same product, but for the trap's name
    small, large = (reports["oracle", hoa] for hoa in (INCOMPLETE_G, str(declared)))
    assert json.dumps(large).replace("q1000000", "q1") == json.dumps(small)
    # completion adds the initial state's missing move and the trap's loops
    auto = reports["validate", str(declared)]["automaton"]
    assert auto["states"] == 1_000_001 and auto["transitions"] == 4 and auto["complete"]


FUZZ_SEEDS = (1, 2, 3)


def test_fuzzed_inputs_keep_the_error_contract():
    # see tests/fuzz_cli.py; all cases run in one capped child
    proc = run_capped([str(ROOT / "tests" / "fuzz_cli.py"), *map(str, FUZZ_SEEDS)], timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout[-4000:] + proc.stderr[-2000:]


def test_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["solve", "--mdp", I2]) == 2  # --hoa and --zeta missing
    capsys.readouterr()
    assert main(["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "1.5"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--mdp", I2, "--hoa", ACCEPT_G, "--grid", "0.5,oops"]) == 2
    capsys.readouterr()
    product = ["product", "--mdp", I2, "--hoa", ACCEPT_G]
    sweep = ["sweep", "--mdp", I2, "--hoa", ACCEPT_G]
    learn = ["learn", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.9"]
    verify = ["verify", "--mdp", I2, "--hoa", ACCEPT_G]
    solve = ["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.9"]
    for argv in (
        learn + ["--episodes", "0"],
        learn + ["--max-steps", "0"],
        learn + ["--episodes", "2.5"],
        verify + ["--policies", "-3"],
        verify + ["--tail-episodes", "-1"],
        verify + ["--seed", "-1"],
        learn + ["--alpha0", "inf"],
        learn + ["--alpha0", "-1"],
        learn + ["--alpha0", "0"],
        learn + ["--alpha0", "nan"],
        learn + ["--epsilon0", "2"],
        learn + ["--epsilon0", "-0.1"],
        learn + ["--epsilon-final", "nan"],
        learn + ["--epsilon-final", "1.5"],
        solve + ["--zeta", "nan"],
        sweep + ["--grid", "0.6,0.5"],
        sweep + ["--grid", "0.6,0.6,0.5,0.9"],
        sweep + ["--grid", "0.5,0.5"],
        product + ["--zeta", "0.9"],  # ζ only shapes the export
    ):
        assert main(argv) == 2, argv
        assert f"argument {argv[-2]}:" in capsys.readouterr().err


def test_solve_total(capsys):
    code, rep = run(
        ["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.9"], capsys
    )
    assert code == 0
    res = rep["result"]
    assert res["mode"] == "total"
    assert abs(res["value_at_initial"] - 5.0) <= 1e-8
    assert res["policy"]["s0|q0"] == "a@q0"
    assert abs(res["values"]["sA|q0"] - 10.0) <= 1e-8
    assert rep["config"]["zeta"] == 0.9
    assert set(rep["config"]) == {
        "assert_gfm",
        "mode",
        "trap_complete",
        "zeta",
    }


def test_solve_reach(capsys):
    code, rep = run(
        ["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.9", "--mode", "reach"],
        capsys,
    )
    assert code == 0
    assert abs(rep["result"]["value_at_initial"] - 0.5) <= 1e-8


def test_solve_biased_equals_total(capsys):
    _, total = run(
        ["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.5"], capsys
    )
    _, biased = run(
        ["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.5", "--mode", "biased"],
        capsys,
    )
    assert total["result"]["values"] == biased["result"]["values"]


def test_solve_nonconvergence(capsys, monkeypatch):
    # a policy iteration still switching at its round cap is a solver
    # failure; on I2 at zeta 0.9 the myopic start needs a second round
    monkeypatch.setattr(solvers, "MAX_ROUNDS", 1)
    code = main(["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.9"])
    assert code == 5
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: policy iteration did not stabilize")


def test_solve_near_one(capsys):
    # policy iteration is exact however close zeta is to 1, where value
    # iteration, contracting at rate zeta, ran out of sweeps (exit 5)
    for zeta in ("0.99999", "0.999999999"):
        code, rep = run(["solve", "--mdp", SELF_LOOP, "--hoa", ACCEPT_G, "--zeta", zeta], capsys)
        assert code == 0
        assert rep["result"]["value_at_initial"] == 1.0 / (1.0 - float(zeta))
    code, rep = run(["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.999999"], capsys)
    assert code == 0
    res = rep["result"]
    assert res["policy"]["s0|q0"] == "a@q0"
    assert res["values"]["sA|q0"] == 2.0 * res["value_at_initial"] == 1.0 / (1.0 - 0.999999)


def test_verify_near_one(capsys):
    for mdp in (SELF_LOOP, I2):
        code, rep = run(
            ["verify", "--mdp", mdp, "--hoa", ACCEPT_G, "--zeta", "0.999999999"], capsys
        )
        assert code == 0 and rep["result"]["passed"]


def test_incomplete_automaton_needs_trap(capsys):
    base = ["solve", "--mdp", I2, "--hoa", INCOMPLETE_G, "--zeta", "0.9"]
    assert main(base) == 4
    capsys.readouterr()
    code, rep = run(base + ["--trap-complete"], capsys)
    assert code == 0
    assert len(rep["result"]["values"]) == 4  # trap state joined the product


def test_incomplete_automaton_builds_where_no_gap_is_read(capsys):
    # the self loop emits g alone, so its product never reads the missing n move
    code, rep = run(["oracle", "--mdp", SELF_LOOP, "--hoa", INCOMPLETE_G], capsys)
    assert code == 0 and rep["result"]["psat_at_initial"] == 1.0
    # I2 emits n from its initial state: the move is read, found missing, and refused
    assert main(["oracle", "--mdp", I2, "--hoa", INCOMPLETE_G]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "error: automaton is missing moves; complete it first "
        "(complete_with_trap adds a rejecting trap)"
    )


def test_mismatched_alphabet_fails_solve(tmp_path, capsys):
    hoa = tmp_path / "xy.hoa"
    hoa.write_text(MISMATCHED_HOA)
    code = main(["solve", "--mdp", I2, "--hoa", str(hoa), "--zeta", "0.5"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_product_report(capsys):
    code, rep = run(["product", "--mdp", I2, "--hoa", ACCEPT_G], capsys)
    assert code == 0
    res = rep["result"]
    assert res["states"] == 3
    assert res["pairs"] == 4
    assert res["accepting_branches"] == 2
    assert res["gfm_caveat"] is False
    assert res["state_names"] == ["s0|q0", "sA|q0", "sR|q0"]


def test_product_export_raw(tmp_path, capsys):
    out = tmp_path / "raw.json"
    code, rep = run(
        ["product", "--mdp", I2, "--hoa", ACCEPT_G, "--export", str(out)], capsys
    )
    assert code == 0
    assert rep["result"]["export_states"] == 3
    m = load_mdp(out)
    assert not [d for d in validate_mdp(m) if d.severity == "error"]
    assert m.states == ("s0|q0", "sA|q0", "sR|q0")
    assert m.initial == 0


def test_product_export_leaked(tmp_path, capsys):
    out = tmp_path / "leaked.json"
    code, rep = run(
        [
            "product",
            "--mdp",
            I2,
            "--hoa",
            ACCEPT_G,
            "--zeta",
            "0.9",
            "--export",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    assert rep["result"]["export_states"] == 4
    m = load_mdp(out)
    assert not [d for d in validate_mdp(m) if d.severity == "error"]
    assert "t" in m.states
    by_key = {
        (m.states[s], m.actions[a], m.states[t]): pr for s, a, t, pr, _ in edge_rows(m)
    }
    assert abs(by_key[("s0|q0", "b@q0", "sR|q0")] - 0.9) <= 1e-12
    assert abs(by_key[("s0|q0", "b@q0", "t")] - 0.1) <= 1e-12
    assert by_key[("t", "stop", "t")] == 1.0


MIXED_LEAK_MDP = {
    "states": ["s0", "s1", "s2"],
    "actions": ["a", "b"],
    "alphabet": ["g", "h", "n"],
    "initial": "s0",
    "transitions": [
        {"from": "s0", "action": "a", "to": "s2", "prob": 0.2, "label": "n"},
        {"from": "s0", "action": "a", "to": "s0", "prob": 0.3, "label": "h"},
        {"from": "s0", "action": "a", "to": "s1", "prob": 0.5, "label": "g"},
        {"from": "s1", "action": "b", "to": "s0", "prob": 1.0, "label": "n"},
        {"from": "s2", "action": "b", "to": "s2", "prob": 1.0, "label": "n"},
    ],
}

ACCEPT_G_OR_H = """HOA: v1
States: 1
Start: 0
AP: 3 "g" "h" "n"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0|1] 0 {0}
[2] 0
--END--
"""


def test_product_export_leak_takes_first_accepting_label(tmp_path, capsys):
    # a@q0 at s0 has two accepting branches, h then g, after a rejecting n;
    # the one merged leak edge into t carries h and (1-ζ) of their mass
    mdp = tmp_path / "mixed.json"
    mdp.write_text(json.dumps(MIXED_LEAK_MDP))
    hoa = tmp_path / "g_or_h.hoa"
    hoa.write_text(ACCEPT_G_OR_H)
    out = tmp_path / "leaked.json"
    argv = ["product", "--mdp", str(mdp), "--hoa", str(hoa), "--zeta", "0.9", "--export", str(out)]
    code, _ = run(argv, capsys)
    assert code == 0
    m = load_mdp(out)
    assert not [d for d in validate_mdp(m) if d.severity == "error"]
    leaks = [e for e in edge_rows(m) if m.states[e[2]] == "t" and m.states[e[0]] != "t"]
    assert len(leaks) == 1
    ((s, a, _, pr, x),) = leaks
    assert (m.states[s], m.actions[a]) == ("s0|q0", "a@q0")
    assert m.symbols[x] == "h"
    assert abs(pr - (1 - 0.9) * (0.3 + 0.5)) <= 1e-15


def test_oracle_report(capsys):
    code, rep = run(["oracle", "--mdp", I2, "--hoa", ACCEPT_G], capsys)
    assert code == 0
    res = rep["result"]
    assert abs(res["psat_at_initial"] - 0.5) <= 1e-12
    assert res["mecs"] == [
        {"states": ["sA|q0"], "accepting": True},
        {"states": ["sR|q0"], "accepting": False},
    ]
    assert res["accepting_mecs"] == [0]
    assert res["policy"]["s0|q0"] == "a@q0"
    assert res["lower_bound_only"] is False


def test_assert_gfm_makes_the_value_exact(capsys):
    # nondet_g is neither deterministic nor flagged GFM, so its optimum is
    # only a lower bound until the flag vouches for it
    base = ["oracle", "--mdp", I2, "--hoa", NONDET_G]
    for flags, lower_bound_only in (([], True), (["--assert-gfm"], False)):
        code, rep = run(base + flags, capsys)
        assert code == 0 and rep["config"]["assert_gfm"] == bool(flags)
        assert rep["result"]["lower_bound_only"] is lower_bound_only
        assert rep["result"]["psat_at_initial"] == 0.5


def test_learn_cli(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, rep = run(
        [
            "learn",
            "--mdp",
            SELF_LOOP,
            "--hoa",
            ACCEPT_G,
            "--zeta",
            "0.9",
            "--episodes",
            "500",
            "--max-steps",
            "100",
            "--curve",
            str(curve),
        ],
        capsys,
    )
    assert code == 0
    res = rep["result"]
    assert res["policy"] == {"s|q0": "a@q0"}
    assert set(res["q_at_initial"]) == {"a@q0"}
    assert res["visits_at_initial"]["a@q0"] > 0
    assert 5.0 <= res["mean_return_last_1000"] <= 15.0
    lines = curve.read_text().strip().splitlines()
    assert lines[0] == "episode,total_reward,epsilon"
    assert len(lines) == 501
    assert lines[1].startswith("0,")


def test_verify_cli(capsys):
    code, rep = run(
        ["verify", "--mdp", I2, "--hoa", ACCEPT_G, "--policies", "3"], capsys
    )
    assert code == 0
    res = rep["result"]
    assert res["passed"] is True
    assert res["zetas"] == [0.5, 0.9]
    assert res["checked"] == 10


def test_verify_cli_custom_zetas(capsys):
    code, rep = run(
        [
            "verify",
            "--mdp",
            I2,
            "--hoa",
            ACCEPT_G,
            "--zeta",
            "0.7",
            "--zeta",
            "0.8",
            "--policies",
            "2",
        ],
        capsys,
    )
    assert code == 0
    assert rep["result"]["zetas"] == [0.7, 0.8]


def test_verify_failure_exit_code(monkeypatch, capsys):
    fake = VerifyReport(
        zetas=(0.5,),
        policies_per_zeta=2,
        checked=2,
        identity_max_error=1.0,
        bound_max_excess=0.0,
        equality_max_error=0.0,
        prob1_mismatches=0,
        identity_ok=False,
        bounds_ok=True,
        equality_ok=True,
        prob1_ok=True,
        tails=(),
        lower_bound_only=False,
        passed=False,
    )
    monkeypatch.setattr("buchirl.cli.verify_instance", lambda *a, **k: fake)
    code, rep = run(["verify", "--mdp", I2, "--hoa", ACCEPT_G], capsys)
    assert code == 6
    assert rep["result"]["passed"] is False


def test_singular_solve_exit_code(monkeypatch, capsys):
    # a singular system raises LinAlgError, a ValueError subclass; it is a
    # solver failure, not a validation failure
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert main(["verify", "--mdp", I2, "--hoa", ACCEPT_G]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Singular matrix")


def test_sparse_solve_exit_code(tmp_path, monkeypatch, capsys):
    # above DENSE_LIMIT live states policy evaluation is iterative; passes that
    # never reach the residual target are a solver failure too
    m, a, _ = large_instance(np.random.default_rng(40))
    mdp, hoa = tmp_path / "large.json", tmp_path / "gf_g.hoa"
    dump_mdp(m, mdp)
    hoa.write_text(serialize_hoa(a))
    monkeypatch.setattr(solvers, "_bicgstab", lambda matvec, b: np.zeros_like(b))
    assert main(["verify", "--mdp", str(mdp), "--hoa", str(hoa), "--policies", "0"]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: policy evaluation missed its residual target")


def test_oracle_policy_iteration_exit_code(monkeypatch, capsys):
    # evaluations that always favour the other pair at s0 (product state 0;
    # a leads to sA = 1 or sR = 2, b to sR) keep policy iteration switching
    def flipping(p, choice, ones, zeros):
        v = np.zeros(p.n_states)
        v[2 if choice[0] == 0 else 1] = 1.0
        return v

    monkeypatch.setattr("buchirl.oracle._chain_reach", flipping)
    assert main(["oracle", "--mdp", I2, "--hoa", ACCEPT_G]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: max-reach policy iteration")


def test_commands_never_read_the_tuple_view(monkeypatch, tmp_path, capsys):
    # every layer reads the product's columns; `pairs` is for tests only
    m, a, _ = large_instance(np.random.default_rng(1))
    mdp, hoa = tmp_path / "large.json", tmp_path / "gf_g.hoa"
    dump_mdp(m, mdp)
    hoa.write_text(serialize_hoa(a))

    def no_tuples(self):
        raise AssertionError("ProductMdp.pairs was read")

    monkeypatch.setattr(ProductMdp, "pairs", property(no_tuples))
    export = str(tmp_path / "export.json")
    commands = (
        ["verify"],
        ["sweep"],
        ["oracle"],
        ["product", "--export", export],
        ["product", "--export", export, "--zeta", "0.9"],
        ["solve", "--zeta", "0.9"],
        ["learn", "--zeta", "0.9", "--episodes", "50", "--max-steps", "50"],
    )
    for files in (["--mdp", I2, "--hoa", ACCEPT_G], ["--mdp", str(mdp), "--hoa", str(hoa)]):
        for command in commands:
            assert main([command[0], *files, *command[1:]]) == 0, command
    capsys.readouterr()


def test_sweep_cli(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    code, rep = run(
        ["sweep", "--mdp", I2, "--hoa", ACCEPT_G, "--csv", str(rows)], capsys
    )
    assert code == 0
    res = rep["result"]
    assert res["empirical_zeta0"] == 0.6
    assert len(res["rows"]) == 9
    lines = rows.read_text().strip().splitlines()
    assert lines[0] == "zeta,policy,psat_policy,psat_opt,is_optimal"
    assert len(lines) == 10
    assert lines[-1].startswith("0.9,a@q0;a@q0;a@q0,0.5,0.5,True")


def test_sweep_custom_grid(capsys):
    code, rep = run(
        ["sweep", "--mdp", I2, "--hoa", ACCEPT_G, "--grid", "0.5,0.9"], capsys
    )
    assert code == 0
    assert rep["config"]["grid"] == [0.5, 0.9]
    assert [row["zeta"] for row in rep["result"]["rows"]] == [0.5, 0.9]


def test_out_file_and_byte_identity(tmp_path, capsys):
    f1 = tmp_path / "r1.json"
    f2 = tmp_path / "r2.json"
    argv = ["solve", "--mdp", I2, "--hoa", ACCEPT_G, "--zeta", "0.9"]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert capsys.readouterr().out == ""  # --out suppresses stdout
    assert f1.read_bytes() == f2.read_bytes()
    assert json.loads(f1.read_text())["timing"] is None
    # a report that cannot be written is an input/output error, like a CSV
    unwritable = str(tmp_path / "no" / "such" / "dir.json")
    for extra in (["--out", unwritable], ["--out", str(f1), "--csv", unwritable]):
        cmd = ["sweep", *argv[1:5], *extra] if "--csv" in extra else argv + extra
        assert main(cmd) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()  # one line, no traceback
        assert line.startswith("error: ") and "No such file or directory" in line


def test_timing_field(capsys):
    code, rep = run(
        ["oracle", "--mdp", I2, "--hoa", ACCEPT_G, "--timing"], capsys
    )
    assert code == 0
    assert isinstance(rep["timing"], float)
    assert rep["timing"] >= 0.0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "buchirl", "validate", "--mdp", I2],
        capture_output=True,
        text=True,
        cwd=ROOT / "src",  # `-m` imports from the working directory first
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["result"]["errors"] == 0


@pytest.mark.parametrize(
    "args, code", [([], 2), (["validate", "--mdp", I2, "--hoa", ACCEPT_G], 0)], ids=["no-args", "validate"]
)
def test_module_entry_point_exit_codes(args, code):
    proc = subprocess.run(
        [sys.executable, "-m", "buchirl", *args], capture_output=True, text=True, cwd=ROOT / "src"
    )
    assert proc.returncode == code
    if code == 0:
        assert json.loads(proc.stdout)["result"]["alphabet_match"] is True
    else:
        assert "error:" in proc.stderr
