"""Digests of the default CLI reports over a fixed command set.

Prints one line per command: the sha256 of its exit code, stdout, stderr
and the file it exported, if any, then the exit code and the command.
Running it on two checkouts and comparing the lines shows whether a change
moved any report byte:

    python tests/report_digest.py > change.txt
    python tests/report_digest.py ../parent > parent.txt
    diff parent.txt change.txt

The optional argument is the checkout whose `src/` the commands import
(default: the one holding this file).  The inputs always come from this
checkout: the corpus pairs (I2 x accept_g also under the learn_i2 benchmark
workload's learn and tail-check commands), and the pool of the desk_sweep benchmark
workload at seed 1 (where `learn` runs in the total view from a zero table
and in the reach view from an optimistic one) and the large_product MDP at
seeds 1-3, both written by `perfbench/instances.generate`.  `validate` runs on each corpus MDP alone
and on every input pair, and once more on `DIAGNOSTICS_MDP`, which hits
every diagnostic code.  `MANY_MECS_MDP` with `accept_g.hoa` runs
`validate`, `oracle`, `sweep` and a `verify`.  `validate` and `oracle`
also run on self_loop x incomplete_g without `--trap-complete`, and with it
on I2 and a copy of incomplete_g that declares 100,000 states.  `validate`
and `product` run on gambler's ruin at N = 1,000 and red-and-black at
N = 256 (`tests/generators.py`), each with `accept_g.hoa`: `product` lists
every state name, so a numbering that moves on a deep or a wide product
shows.  Every input is written to a scratch directory that is the working
directory while the commands run, so the paths inside the reports are
relative and the digests are the same on every machine with the same numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# one MDP that draws every `validate` diagnostic, interleaved: per-edge
# errors (edges 1, 2 and 4), per-state errors (s0, s2 with its two actions
# given out of order, s3 and s4), then the unreachable warnings (lost, s3);
# the initial state is not state 0
DIAGNOSTICS_MDP = {
    "states": ["lost", "s0", "s1", "s2", "s3", "s4"],
    "actions": ["a", "b"],
    "alphabet": ["g", "n"],
    "initial": "s0",
    "transitions": [
        {"from": "s0", "action": "a", "to": "s1", "prob": 0.5, "label": "g"},
        {"from": "s0", "action": "a", "to": "s2", "prob": 1.5, "label": "n"},
        {"from": "s1", "action": "a", "to": "s1", "prob": 1.0, "label": None},
        {"from": "s2", "action": "b", "to": "s0", "prob": 0.5, "label": "n"},
        {"from": "s0", "action": "a", "to": "s1", "prob": 0.0, "label": None},
        {"from": "s2", "action": "a", "to": "s4", "prob": 0.25, "label": "g"},
        {"from": "lost", "action": "a", "to": "lost", "prob": 1.0, "label": "n"},
        {"from": "s4", "action": "b", "to": "s4", "prob": 0.75, "label": "n"},
    ],
}

# one MDP of several end components side by side, for the oracle's anchoring:
# accepting ones of one state ({c0}, {c5}) and of two ({c2, c3} with two
# accepting pairs, {c6, c7} whose walk and anchor are second pairs),
# rejecting ones ({c1}, {c4}, the sink), and a risky step from c4
MANY_MECS_MDP = {
    "states": ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "sink"],
    "actions": ["a", "b"],
    "alphabet": ["g", "n"],
    "initial": "c0",
    "transitions": [
        {"from": "c0", "action": "a", "to": "c1", "prob": 1.0, "label": "n"},
        {"from": "c0", "action": "b", "to": "c0", "prob": 1.0, "label": "g"},
        {"from": "c1", "action": "a", "to": "c1", "prob": 1.0, "label": "n"},
        {"from": "c1", "action": "b", "to": "c2", "prob": 1.0, "label": "g"},
        {"from": "c2", "action": "a", "to": "c3", "prob": 1.0, "label": "n"},
        {"from": "c2", "action": "b", "to": "c2", "prob": 1.0, "label": "g"},
        {"from": "c3", "action": "a", "to": "c2", "prob": 1.0, "label": "g"},
        {"from": "c3", "action": "b", "to": "c4", "prob": 0.5, "label": "n"},
        {"from": "c3", "action": "b", "to": "c3", "prob": 0.5, "label": "n"},
        {"from": "c4", "action": "a", "to": "c5", "prob": 0.5, "label": "n"},
        {"from": "c4", "action": "a", "to": "sink", "prob": 0.5, "label": "n"},
        {"from": "c4", "action": "b", "to": "c4", "prob": 1.0, "label": "n"},
        {"from": "c5", "action": "a", "to": "c6", "prob": 1.0, "label": "g"},
        {"from": "c5", "action": "b", "to": "c5", "prob": 1.0, "label": "g"},
        {"from": "c6", "action": "a", "to": "c6", "prob": 1.0, "label": "n"},
        {"from": "c6", "action": "b", "to": "c7", "prob": 1.0, "label": "n"},
        {"from": "c7", "action": "a", "to": "c7", "prob": 1.0, "label": "n"},
        {"from": "c7", "action": "b", "to": "c6", "prob": 0.5, "label": "g"},
        {"from": "c7", "action": "b", "to": "c7", "prob": 0.5, "label": "g"},
        {"from": "sink", "action": "a", "to": "sink", "prob": 1.0, "label": "n"},
    ],
}
MANY_MECS_COMMANDS = [["validate"], ["oracle"], ["sweep"], ["verify", "--zeta", "0.9", "--policies", "2"]]

CORPUS_COMMANDS = [
    ["validate"],
    ["verify"],
    ["verify", "--tail-episodes", "2000"],
    ["sweep"],
    ["oracle"],
    ["product", "--export", "export.json"],
    ["product", "--export", "export.json", "--zeta", "0.9"],
] + [["solve", "--mode", mode, "--zeta", "0.9"] for mode in ("reach", "total", "biased")] + [
    ["learn", "--mode", mode, "--zeta", "0.9", "--episodes", "3000", *extra]
    for mode in ("reach", "total")
    for extra in ([], ["--optimistic"], ["--curve", "export.json"])  # the curve: every episode's total and epsilon
]
DESK_COMMANDS = [
    ["validate"],
    ["verify", "--zeta", "0.5", "--zeta", "0.9", "--zeta", "0.99"],
    ["verify", "--zeta", "0.9", "--policies", "0"],  # batches of the solved strategies alone, often empty
    ["verify", "--zeta", "0.99", "--policies", "60", "--seed", "3"],  # a pool over several stacks
    ["verify", "--zeta", "0.9", "--tail-episodes", "500"],
    ["sweep"],
    ["oracle"],
    ["product", "--export", "export.json", "--zeta", "0.9"],
] + [["solve", "--mode", mode, "--zeta", "0.99"] for mode in ("reach", "total", "biased")] + [
    ["learn", "--zeta", "0.9", "--episodes", "200", "--max-steps", "100"],
    ["learn", "--mode", "reach", "--optimistic", "--zeta", "0.9", "--episodes", "200", "--max-steps", "100"],
]


# the learn_i2 benchmark workload's learn and tail-check commands, run on I2 x accept_g
I2_COMMANDS = [
    ["learn", "--zeta", "0.9", "--episodes", "50000", "--seed", "1"],
    ["verify", "--zeta", "0.9", "--tail-episodes", "100000", "--seed", "1"],
]


def large_commands(seed: int) -> list[list[str]]:
    s = str(seed)
    return [
        ["validate"],
        ["verify", "--zeta", "0.99", "--policies", "2", "--seed", s],
        # sampled tails over pairs of up to 4 branches, and pairs that leak
        ["verify", "--zeta", "0.99", "--policies", "2", "--tail-episodes", "2000", "--seed", s],
        ["sweep"],
        ["oracle"],
        ["solve", "--zeta", "0.999"],  # above the dense limit: the sparse solve
        ["learn", "--zeta", "0.9", "--episodes", "500", "--max-steps", "200", "--seed", s],
    ]


def write_inputs() -> list[tuple[list[str], list[list[str]]]]:
    """Write every input below the working directory; returns, per input
    pair, its `--mdp/--hoa` arguments and the commands to run on it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from instances import generate

    shutil.copytree(ROOT / "corpus", "corpus")
    Path("diagnostics.json").write_text(json.dumps(DIAGNOSTICS_MDP))
    Path("many_mecs.json").write_text(json.dumps(MANY_MECS_MDP))
    runs = [(["--mdp", "diagnostics.json"], [["validate"]])]
    runs.append((["--mdp", "many_mecs.json", "--hoa", "corpus/hoa/accept_g.hoa"], MANY_MECS_COMMANDS))
    for mdp in sorted(Path("corpus/mdp").glob("*.json")):
        runs.append((["--mdp", str(mdp)], [["validate"]]))
        for hoa in sorted(Path("corpus/hoa").glob("*.hoa")):
            extra = ["--trap-complete"] if hoa.stem == "incomplete_g" else []
            runs.append((["--mdp", str(mdp), "--hoa", str(hoa), *extra], CORPUS_COMMANDS))
    # incomplete_g where no run of the product reads its gap, and a HOA that
    # declares 10^5 states and uses one
    incomplete = ["--hoa", "corpus/hoa/incomplete_g.hoa"]
    runs.append((["--mdp", "corpus/mdp/self_loop.json", *incomplete], [["validate"], ["oracle"]]))
    text = Path("corpus/hoa/incomplete_g.hoa").read_text().replace("States: 1", "States: 100000")
    Path("declared.hoa").write_text(text)
    declared = ["--mdp", "corpus/mdp/i2.json", "--hoa", "declared.hoa", "--trap-complete"]
    runs.append((declared, [["validate"], ["oracle"]]))
    runs.append((["--mdp", "corpus/mdp/i2.json", "--hoa", "corpus/hoa/accept_g.hoa"], I2_COMMANDS))
    # a deep chain and a wide product: `product` names every state in search order
    from buchirl import mdp_to_json
    from generators import gamblers_ruin, red_and_black

    for stem, m in (
        ("ruin1000", gamblers_ruin(np.random.default_rng(1000), 1000, 0.5)),
        ("red_black256", red_and_black(np.random.default_rng(256), 256, 0.4)),
    ):
        Path(f"{stem}.json").write_text(json.dumps(mdp_to_json(m)))
        runs.append((["--mdp", f"{stem}.json", "--hoa", "corpus/hoa/accept_g.hoa"], [["validate"], ["product"]]))
    inputs = [("desk_sweep", 1, DESK_COMMANDS)]
    inputs += [("large_product", seed, large_commands(seed)) for seed in (1, 2, 3)]
    for workload, seed, commands in inputs:
        for rec in generate(workload, seed, Path(f"{workload}{seed}"), Path("corpus")):
            runs.append((["--mdp", rec["mdp"], "--hoa", rec["hoa"]], commands))
    return runs


def digest(main, argv: list[str]) -> tuple[str, int]:
    """sha256 of one command's exit code, stdout, stderr and export."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    h = hashlib.sha256(f"{code}\n".encode())
    for text in (out.getvalue(), err.getvalue()):
        h.update(text.encode() + b"\0")
    export = Path("export.json")
    if export.exists():
        h.update(export.read_bytes())
        export.unlink()
    return h.hexdigest(), code


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]).resolve() if argv else ROOT
    sys.path.insert(0, str(checkout / "src"))
    from buchirl.cli import main as cli_main

    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for pair, commands in write_inputs():
                for cmd in commands:
                    argv = cmd[:1] + pair + cmd[1:]
                    hexdigest, code = digest(cli_main, argv)
                    print(f"{hexdigest}  exit {code}  {' '.join(argv)}", flush=True)
        finally:
            os.chdir(old)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
