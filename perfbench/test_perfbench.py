"""Tests of the benchmark's own code: reference, generators, checks, tracer,
speed probes.

    python3 -m pytest perfbench -q

They run against the checkout's ``src/`` and ``corpus/``.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import buchirl  # noqa: E402
import checks  # noqa: E402
import instances  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

CORPUS = ROOT / "corpus"
ACCEPT_G = (CORPUS / "hoa" / "accept_g.hoa").read_text()
GF_G_TWO_STATES = """HOA: v1
States: 2
Start: 0
AP: 2 "g" "n"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 1 {0}
[1] 0
State: 1
[0] 1 {0}
[1] 0
--END--
"""


def corpus_mdp(name: str) -> dict:
    return json.loads((CORPUS / "mdp" / f"{name}.json").read_text())


@pytest.mark.parametrize("name, value", [("i2", 0.5), ("self_loop", 1.0), ("never", 0.0)])
def test_reference_hand_values(name, value):
    assert reference.solve(corpus_mdp(name), ACCEPT_G)["psat_initial"] == pytest.approx(value, abs=1e-12)


def test_reference_i2_action_values():
    ref = reference.solve(corpus_mdp("i2"), ACCEPT_G)
    assert ref["q"]["s0|q0"] == pytest.approx({"a@q0": 0.5, "b@q0": 0.0}, abs=1e-12)


def test_reference_resolves_successor_per_symbol():
    # one state; action a emits g or n with probability 1/2 each, action b
    # always n.  Playing a forever reads g infinitely often almost surely.
    mdp = {
        "states": ["s"], "actions": ["a", "b"], "alphabet": ["g", "n"], "initial": "s",
        "transitions": [
            {"from": "s", "action": "a", "to": "s", "prob": 0.5, "label": "g"},
            {"from": "s", "action": "a", "to": "s", "prob": 0.5, "label": "n"},
            {"from": "s", "action": "b", "to": "s", "prob": 1.0, "label": "n"},
        ],
    }
    assert reference.solve(mdp, GF_G_TWO_STATES)["psat_initial"] == pytest.approx(1.0, abs=1e-12)
    mdp["transitions"].pop()  # without b the value is still 1
    assert reference.solve(mdp, GF_G_TWO_STATES)["psat_initial"] == pytest.approx(1.0, abs=1e-12)


def test_reference_refuses_nondeterminism():
    with pytest.raises(reference.ReferenceError):
        reference.read_hoa((CORPUS / "hoa" / "nondet_g.hoa").read_text())


def test_reference_matches_program_on_desk_instances():
    rng = np.random.default_rng([0, 1])
    for _ in range(30):
        mdp, aut = instances.desk_mdp(rng), instances.desk_automaton(rng)
        hoa = instances.hoa_text(aut)
        ref = reference.solve(mdp, hoa)
        p = buchirl.build_product(buchirl.mdp_from_json(mdp), buchirl.parse_hoa(hoa))
        got = buchirl.buchi_value(p).values
        assert p.n_states == ref["states"]
        for i in range(p.n_states):
            assert got[i] == pytest.approx(ref["psat"][p.state_name(i)], abs=1e-9)


def test_generators_repeat_and_label_per_action(tmp_path):
    a = instances.generate("desk_sweep", 5, tmp_path / "a", CORPUS)
    b = instances.generate("desk_sweep", 5, tmp_path / "b", CORPUS)
    c = instances.generate("desk_sweep", 6, tmp_path / "c", CORPUS)
    texts = [[Path(r[k]).read_text() for r in recs for k in ("mdp", "hoa")] for recs in (a, b, c)]
    assert texts[0] == texts[1] and texts[0] != texts[2]
    for rec in a:
        labels = {}
        for t in json.loads(Path(rec["mdp"]).read_text())["transitions"]:
            labels.setdefault((t["from"], t["action"]), set()).add(t["label"])
        assert all(len(v) == 1 for v in labels.values())
        nba = buchirl.parse_hoa(Path(rec["hoa"]).read_text())
        assert buchirl.is_deterministic(nba) and buchirl.is_complete(nba)


def test_large_instance_is_risky_and_valid(tmp_path):
    (rec,) = instances.generate("large_product", 3, tmp_path, CORPUS)
    m = buchirl.load_mdp(rec["mdp"])
    assert buchirl.validate_mdp(m) == []  # no errors, nothing unreachable
    ref = reference.solve_files(rec["mdp"], rec["hoa"])
    assert 0.0 < ref["psat_initial"] < 1.0


@pytest.fixture(scope="module")
def i2_outputs():
    m = buchirl.load_mdp(CORPUS / "mdp" / "i2.json")
    a = buchirl.parse_hoa(ACCEPT_G)
    sweep = asdict(buchirl.threshold_sweep(m, a, tuple(round(0.1 * k, 1) for k in range(1, 10))))
    verify = asdict(buchirl.verify_instance(m, a, zetas=(0.9,), n_random=2, tail_episodes=1000))
    learn = {
        "policy": {"s0|q0": "a@q0", "sA|q0": "a@q0", "sR|q0": "a@q0"},
        "q_at_initial": {"a@q0": 4.9, "b@q0": 1.0},
    }
    reports = {"sweep": {"result": sweep}, "verify": {"result": verify}, "learn": {"result": learn}}
    return reports, reference.solve(corpus_mdp("i2"), ACCEPT_G)


def test_checks_accept_program_outputs(i2_outputs):
    reports, ref = i2_outputs
    assert checks.check_learn_i2(reports, ref) == ([], [])


@pytest.mark.parametrize(
    "path, value",
    [
        (("sweep", "result", "rows", 0, "psat_opt"), 0.5 + 1e-6),
        (("sweep", "result", "rows", 8, "psat_policy"), 0.5 + 1e-6),
        (("verify", "result", "passed"), False),
        (("learn", "result", "policy", "s0|q0"), "b@q0"),
        (("learn", "result", "policy", "sX|q0"), "a@q0"),
        (("learn", "result", "q_at_initial", "b@q0"), 1.0 + 1e-6),
    ],
)
def test_checks_reject_perturbed_outputs(i2_outputs, path, value):
    reports, ref = i2_outputs
    bad = copy.deepcopy(reports)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    problems, _ = checks.check_learn_i2(bad, ref)
    assert problems


def test_q_band_outside_is_a_note_not_a_failure(i2_outputs):
    reports, ref = i2_outputs
    bad = copy.deepcopy(reports)
    bad["learn"]["result"]["q_at_initial"]["a@q0"] = 4.36
    problems, notes = checks.check_learn_i2(bad, ref)
    assert not problems and notes


def test_tracer_wraps_every_namespace_and_adds_up():
    m = buchirl.load_mdp(CORPUS / "mdp" / "i2.json")
    a = buchirl.parse_hoa(ACCEPT_G)
    original = buchirl.build_product
    tracer = Tracer()
    tracer.install()
    try:
        assert buchirl.verify.build_product is not original
        buchirl.threshold_sweep(m, a, (0.5, 0.9))
    finally:
        tracer.uninstall()
    assert buchirl.verify.build_product is original and buchirl.build_product is original
    s = tracer.summary()
    assert s["verify.threshold_sweep.calls"] == 1
    assert s["product.build_product.calls"] == 1 and s["product.states"] == 3
    assert s["solvers.solve_optimal.calls"] == 2
    self_sum = sum(v for k, v in s.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(s["covered_s"], abs=1e-9)
    # the sweep is the only top-level span; everything else is nested in it
    assert [span[0] for span in tracer.spans if span[3] == -1] == ["verify.threshold_sweep"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_probed_command_keeps_its_exit_code_and_reports_the_machine_speed(tmp_path):
    script = tmp_path / "slow.py"
    script.write_text("import sys, time\ntime.sleep(0.35)\nprint('out')\nsys.exit(3)\n")
    scaled, wall, code, _ = run.run_probed([str(script)], run.child_env(ROOT), tmp_path / "probes.json",
                                           tmp_path / "stdout.txt")
    assert code == 3 and (tmp_path / "stdout.txt").read_text() == "out\n"
    calls = json.loads((tmp_path / "probes.json").read_text())
    # kernel calls at both edges, and timer ticks while the script sleeps
    assert len(calls) >= 2 * speed.EDGE_CALLS + 2
    assert 0.35 <= wall < 2.0
    assert scaled == pytest.approx(speed.scale(wall, sum(calls) / len(calls)))
