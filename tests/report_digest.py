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
checkout: the corpus pairs, and the pool of the desk_sweep benchmark
workload at seed 1 and the large_product MDP at seeds 1-3, both written by
`perfbench/instances.generate`.  Every input is written to a scratch
directory that is the working directory while the commands run, so the
paths inside the reports are relative and the digests are the same on every
machine with the same numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CORPUS_COMMANDS = [
    ["verify"],
    ["verify", "--tail-episodes", "2000"],
    ["sweep"],
    ["oracle"],
    ["product", "--export", "export.json"],
    ["product", "--export", "export.json", "--zeta", "0.9"],
] + [["solve", "--mode", mode, "--zeta", "0.9"] for mode in ("reach", "total", "biased")] + [
    ["learn", "--mode", mode, "--zeta", "0.9", "--episodes", "3000"] for mode in ("reach", "total")
]
DESK_COMMANDS = [
    ["verify", "--zeta", "0.5", "--zeta", "0.9", "--zeta", "0.99"],
    ["sweep"],
    ["oracle"],
    ["product", "--export", "export.json", "--zeta", "0.9"],
] + [["solve", "--mode", mode, "--zeta", "0.99"] for mode in ("reach", "total", "biased")] + [
    ["learn", "--zeta", "0.9", "--episodes", "200", "--max-steps", "100"],
]


def large_commands(seed: int) -> list[list[str]]:
    s = str(seed)
    return [
        ["verify", "--zeta", "0.99", "--policies", "2", "--seed", s],
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
    runs = []
    for mdp in sorted(Path("corpus/mdp").glob("*.json")):
        for hoa in sorted(Path("corpus/hoa").glob("*.hoa")):
            extra = ["--trap-complete"] if hoa.stem == "incomplete_g" else []
            runs.append((["--mdp", str(mdp), "--hoa", str(hoa), *extra], CORPUS_COMMANDS))
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
