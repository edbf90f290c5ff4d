"""Seeded instance generators and the writers that put them on disk.

Every generator takes a numpy Generator built from the workload seed, so one
seed always gives the same files.  The program under test only ever sees the
written MDP JSON and HOA text, never these in-memory structures.

The desk_sweep instances are one fixed pool, drawn once from DESK_POOL_SEED
like the acceptance sweep's instances; the workload seed renames and
reorders them (states, actions, letters, automaton states, transition
order).  Every seed thus gives other files describing isomorphic problems,
so the work per run does not depend on the seed: the cost of one desk
instance is heavy-tailed (value iteration takes from a handful to 90,000
sweeps per instance), and fresh random pools of a size one run can afford
differ by more than 20% in total cost.

All generated MDPs label each (state, action) with a single symbol: every
branch of one action emits the same letter.  With deterministic complete
automata the automaton successor is then fixed before the MDP branches, and
the product is the textbook product whatever order the program resolves the
automaton in.

An MDP here is a dict in the JSON schema of the program
(``states, actions, alphabet, initial, transitions``); an automaton is a
dict ``{"n": states, "start": q0, "delta": {(q, sym): (q2, accepting)}}``
over SYMBOLS.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SYMBOLS = ("g", "n")

DESK_INSTANCES = 24      # instances per desk_sweep round
DESK_POOL_SEED = 20240501
LARGE_MDP_STATES = 700   # body states of the large_product MDP


def _exact_probs(rng, k: int) -> list[float]:
    """k probabilities from integer weights 1..4; the last takes the exact
    remainder so the sum is 1.0 in floating point."""
    weights = [int(w) for w in rng.integers(1, 5, size=k)]
    total = sum(weights)
    probs = [w / total for w in weights]
    probs[-1] = 1.0 - math.fsum(probs[:-1])
    return probs


def desk_mdp(rng, max_states: int = 6, max_actions: int = 3) -> dict:
    """2..max_states states, 1..max_actions actions, one symbol per action.

    Drawn like the acceptance sweep's instances (action 0 everywhere, other
    actions with probability 0.65, 1..3 distinct successors, weights 1..4),
    except that the label belongs to the (state, action) pair.
    """
    n = int(rng.integers(2, max_states + 1))
    n_act = int(rng.integers(1, max_actions + 1))
    states = [f"s{i}" for i in range(n)]
    actions = [f"a{i}" for i in range(n_act)]
    transitions = []
    for s in range(n):
        for act in range(n_act):
            if act > 0 and rng.random() < 0.35:
                continue
            k = int(rng.integers(1, min(3, n) + 1))
            succs = [int(t) for t in rng.choice(n, size=k, replace=False)]
            label = SYMBOLS[int(rng.integers(len(SYMBOLS)))]
            for t, pr in zip(succs, _exact_probs(rng, k)):
                transitions.append(
                    {"from": states[s], "action": actions[act], "to": states[t],
                     "prob": pr, "label": label}
                )
    return {"states": states, "actions": actions, "alphabet": list(SYMBOLS),
            "initial": states[0], "transitions": transitions}


def desk_automaton(rng, max_states: int = 3, accept_prob: float = 0.4) -> dict:
    """Deterministic complete automaton with random successors and marks."""
    n = int(rng.integers(1, max_states + 1))
    delta = {}
    for q in range(n):
        for sym in range(len(SYMBOLS)):
            r = int(rng.integers(n))
            delta[(q, sym)] = (r, bool(rng.random() < accept_prob))
    return {"n": n, "start": 0, "delta": delta}


def desk_pool() -> list[tuple[dict, dict]]:
    rng = np.random.default_rng(DESK_POOL_SEED)
    return [(desk_mdp(rng), desk_automaton(rng)) for _ in range(DESK_INSTANCES)]


def relabel(mdp: dict, aut: dict, rng) -> tuple[dict, dict]:
    """An isomorphic copy: states, actions and automaton states renumbered,
    the two letters possibly swapped, transitions shuffled."""
    n = len(mdp["states"])
    state_name = dict(zip(mdp["states"], (f"s{i}" for i in rng.permutation(n))))
    action_name = dict(zip(mdp["actions"], (f"a{i}" for i in rng.permutation(len(mdp["actions"])))))
    letter = dict(zip(SYMBOLS, (SYMBOLS[i] for i in rng.permutation(len(SYMBOLS)))))
    transitions = [
        {"from": state_name[t["from"]], "action": action_name[t["action"]],
         "to": state_name[t["to"]], "prob": t["prob"], "label": letter[t["label"]]}
        for t in mdp["transitions"]
    ]
    order = rng.permutation(len(transitions))
    out_mdp = {
        "states": [state_name[s] for s in (mdp["states"][i] for i in rng.permutation(n))],
        "actions": [action_name[a] for a in mdp["actions"]],
        "alphabet": list(SYMBOLS),
        "initial": state_name[mdp["initial"]],
        "transitions": [transitions[i] for i in order],
    }
    qmap = [int(i) for i in rng.permutation(aut["n"])]
    sym_of = {SYMBOLS.index(k): SYMBOLS.index(v) for k, v in letter.items()}
    delta = {
        (qmap[q], sym_of[sym]): (qmap[r], acc) for (q, sym), (r, acc) in aut["delta"].items()
    }
    return out_mdp, {"n": aut["n"], "start": qmap[aut["start"]], "delta": delta}


def gf_gg_automaton() -> dict:
    """Three states counting consecutive g's; accepting on the second and
    later g in a row.  Every n resets to state 0 without a mark, so a run that
    reads only n from some point on is rejected."""
    delta = {
        (0, 0): (1, False), (0, 1): (0, False),
        (1, 0): (2, True), (1, 1): (0, False),
        (2, 0): (2, True), (2, 1): (0, False),
    }
    return {"n": 3, "start": 0, "delta": delta}


def large_mdp(rng, n_body: int = LARGE_MDP_STATES) -> dict:
    """A sparse MDP of n_body + 2 states with a risky initial state.

    ``s0`` has one action that falls into the rejecting sink ``sink`` (which
    only emits n) with probability 0.3 and otherwise enters the body, so the
    Buchi value at the initial state lies strictly between 0 and 1.  Body
    states have three actions with two or three random successors each; a
    quarter of the actions also risk the sink, and the i-th body state always
    keeps a safe action to the (i+1)-th, so every state is reachable.
    """
    body = [f"b{i}" for i in range(n_body)]
    states = ["s0", "sink"] + body
    actions = ["a0", "a1", "a2"]
    transitions = []

    def add(src, act, succs, probs, label):
        for t, pr in zip(succs, probs):
            transitions.append(
                {"from": src, "action": act, "to": t, "prob": pr, "label": label}
            )

    entry = [body[int(i)] for i in rng.choice(n_body, size=3, replace=False)]
    add("s0", "a0", ["sink"] + entry, [0.3, 0.25, 0.25, 0.2], "n")
    add("sink", "a0", ["sink"], [1.0], "n")
    for i, name in enumerate(body):
        for act in actions:
            k = int(rng.integers(2, 4))
            picks = [int(t) for t in rng.choice(n_body, size=k, replace=False)]
            if act == "a0":
                nxt = (i + 1) % n_body
                if nxt not in picks:
                    picks[0] = nxt
            succs = [body[t] for t in picks]
            probs = _exact_probs(rng, k)
            if act != "a0" and rng.random() < 0.25:
                # shift a slice of the first branch into the sink
                risk = 0.05 * int(rng.integers(1, 4))
                probs = [probs[0] - risk * probs[0]] + probs[1:] + [risk * probs[0]]
                probs[-1] = 1.0 - math.fsum(probs[:-1])
                succs = succs + ["sink"]
            label = SYMBOLS[int(rng.integers(len(SYMBOLS)))]
            add(name, act, succs, probs, label)
    return {"states": states, "actions": actions, "alphabet": list(SYMBOLS),
            "initial": "s0", "transitions": transitions}


def hoa_text(aut: dict) -> str:
    """The automaton in the HOA subset the program reads."""
    lines = [
        "HOA: v1",
        f"States: {aut['n']}",
        f"Start: {aut['start']}",
        "AP: " + str(len(SYMBOLS)) + "".join(f' "{s}"' for s in SYMBOLS),
        "acc-name: Buchi",
        "Acceptance: 1 Inf(0)",
        "--BODY--",
    ]
    for q in range(aut["n"]):
        lines.append(f"State: {q}")
        for sym in range(len(SYMBOLS)):
            r, acc = aut["delta"][(q, sym)]
            lines.append(f"[{sym}] {r}" + (" {0}" if acc else ""))
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def write_pair(out_dir: Path, stem: str, mdp: dict, aut: dict) -> tuple[str, str]:
    """Write ``<stem>.json`` and ``<stem>.hoa``; returns both paths."""
    mdp_path = out_dir / f"{stem}.json"
    hoa_path = out_dir / f"{stem}.hoa"
    mdp_path.write_text(json.dumps(mdp) + "\n")
    hoa_path.write_text(hoa_text(aut))
    return str(mdp_path), str(hoa_path)


def generate(workload: str, seed: int, out_dir: Path, corpus: Path) -> list[dict]:
    """Write the inputs of one workload run; returns one record per pair.

    Each record is ``{"name", "mdp", "hoa"}`` with paths to the written files.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    if workload == "desk_sweep":
        rng = np.random.default_rng([seed, 1])
        for k, (mdp, aut) in enumerate(desk_pool()):
            mdp, aut = relabel(mdp, aut, rng)
            mdp_path, hoa_path = write_pair(out_dir, f"desk{k:02d}", mdp, aut)
            records.append({"name": f"desk{k:02d}", "mdp": mdp_path, "hoa": hoa_path})
    elif workload == "large_product":
        rng = np.random.default_rng([seed, 2])
        mdp_path, hoa_path = write_pair(out_dir, "large", large_mdp(rng), gf_gg_automaton())
        records.append({"name": "large", "mdp": mdp_path, "hoa": hoa_path})
    elif workload == "learn_i2":
        # the corpus pair itself; the seed drives the learner and the sampler
        mdp_path = out_dir / "i2.json"
        hoa_path = out_dir / "accept_g.hoa"
        mdp_path.write_text((corpus / "mdp" / "i2.json").read_text())
        hoa_path.write_text((corpus / "hoa" / "accept_g.hoa").read_text())
        records.append({"name": "i2", "mdp": str(mdp_path), "hoa": str(hoa_path)})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return records
