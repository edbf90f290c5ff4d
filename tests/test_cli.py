"""Command line behaviour: reports, exports, exit codes, byte identity."""

import json
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
INCOMPLETE_G = str(CORPUS / "hoa" / "incomplete_g.hoa")

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
