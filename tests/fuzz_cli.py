"""Seeded mutation fuzzer for the command line.

Each case mutates one corpus file, MDP JSON or HOA: truncation, a token
inserted or deleted, a number turned into NaN, 1e400 or -0.0, a huge
`States:` count, deep `[` nesting, a byte order mark or shuffled lines.
Other mutations keep the file parseable, so that the case gets past the
reader: a transition's probability nudged, so that its distribution no
longer sums to 1, its label changed to another symbol or to null, or the
transition dropped; an HOA `State:` block dropped, or an HOA edge sent to
another state.  The case then runs one of the seven subcommands on the
mutant through `cli.main`.  A
case fails when the command raises, exits outside {0, 2, 3, 4, 5, 6}, prints
to stderr on exit 0, or exits non-zero with anything but one `error:` line
on stderr; `validate`'s exit 4 carries its report instead, with nothing on
stderr.

Run as a script it takes the seeds, runs `CASES_PER_SEED` cases for each, and
prints one line per failing case.  A regression may allocate without bound,
so run it with a capped address space, as `tests/test_cli.py` does:

    (ulimit -v 524288; PYTHONPATH=src python tests/fuzz_cli.py 1 2 3)
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import tempfile
import traceback
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CASES_PER_SEED = 400
EXIT_CODES = {0, 2, 3, 4, 5, 6}
COMMANDS = (
    ["validate"],
    ["product"],
    ["solve", "--zeta", "0.9"],
    ["oracle"],
    ["learn", "--zeta", "0.9", "--episodes", "200", "--max-steps", "50"],
    ["verify", "--policies", "2"],
    ["sweep"],
)
TOKENS = (
    "{", "}", "[", "]", ",", ":", '"', "0", "-1", "null", "true", '"g"', '"prob"', "\n",
    "State: 0", "[0] 0 {0}", "[0|1] 0", "{0}", "|", "!", "--BODY--", "--END--", "States: 2",
)
NUMBERS = ("NaN", "1e400", "-0.0", "-1e400", "Infinity", "-1", "1e-400", "9" * 30)
STATE_COUNTS = ("1000000", "199999999999", "9" * 18, "9223372036854775808")
NUDGES = (-0.5, -1e-3, -1e-10, 1e-10, 1e-3, 0.5)
MUTATIONS = ("truncate", "insert", "delete", "number", "nesting", "bom", "shuffle")
MDP_MUTATIONS = MUTATIONS + ("prob", "relabel", "drop")
HOA_MUTATIONS = MUTATIONS + ("states", "drop-state", "destination")


def mutate(text: str, kind: str, rng: random.Random) -> str:
    """`text` with one mutation of the given kind."""
    at = rng.randrange(len(text) + 1)
    if kind == "truncate":
        return text[:at]
    if kind == "insert":
        return text[:at] + rng.choice(TOKENS) + text[at:]
    if kind == "delete":
        return text[:at] + text[at + rng.randint(1, 8):]
    if kind == "number":
        m = rng.choice(list(re.finditer(r"-?\d+(?:\.\d+)?", text)))
        return text[: m.start()] + rng.choice(NUMBERS) + text[m.end():]
    if kind == "states":
        return re.sub(r"States: *\d+", "States: " + rng.choice(STATE_COUNTS), text)
    if kind == "nesting":
        return text[:at] + "[" * rng.choice((64, 1_000, 100_000)) + text[at:]
    if kind == "bom":
        return "\ufeff" + text
    if kind in ("prob", "relabel", "drop"):
        data = json.loads(text)
        edges = data["transitions"]
        i = rng.randrange(len(edges))
        if kind == "prob":
            edges[i]["prob"] += rng.choice(NUDGES)
        elif kind == "relabel":
            edges[i]["label"] = rng.choice([*data["alphabet"], None])
        else:
            del edges[i]
        return json.dumps(data, indent=1)
    if kind == "drop-state":
        blocks = re.split(r"(?m)^(?=State:|--END--)", text)
        del blocks[rng.randrange(1, len(blocks) - 1)]
        return "".join(blocks)
    if kind == "destination":
        n = int(re.search(r"States: *(\d+)", text).group(1))
        m = rng.choice(list(re.finditer(r"(?m)^\[[^\]]*\] (\d+)", text)))
        return text[: m.start(1)] + str(rng.randrange(n)) + text[m.end(1):]
    lines = text.splitlines(keepends=True)
    rng.shuffle(lines)
    return "".join(lines)


def cases(seed: int):
    """`CASES_PER_SEED` (mdp text, hoa text, argv tail) triples; the argv
    tail follows `--mdp m --hoa h`."""
    rng = random.Random(seed)
    mdps = [p.read_text() for p in sorted((CORPUS / "mdp").glob("*.json"))]
    hoas = [p.read_text() for p in sorted((CORPUS / "hoa").glob("*.hoa"))]
    for _ in range(CASES_PER_SEED):
        texts = [rng.choice(mdps), rng.choice(hoas)]
        target = rng.randrange(2)  # 0 mutates the MDP, 1 the automaton
        kind = rng.choice(HOA_MUTATIONS if target else MDP_MUTATIONS)
        texts[target] = mutate(texts[target], kind, rng)
        command = rng.choice(COMMANDS)
        flags = ["--trap-complete"] if rng.random() < 0.5 else []
        yield texts[0], texts[1], [command[0], *flags, *command[1:]]


def check(main, argv: list[str]) -> str | None:
    """Why the command `argv` breaks the CLI's error contract, or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:
        return "raised " + traceback.format_exc(limit=-2).replace("\n", " | ")
    lines = err.getvalue().splitlines()
    if code not in EXIT_CODES:
        return f"exit {code}"
    if code == 0 or (code == 4 and argv[0] == "validate" and out.getvalue()):
        return f"exit {code} with stderr {lines[:2]!r}" if lines else None
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return f"exit {code} with stderr {lines[:2]!r}"
    return None


def main(seeds: list[int]) -> int:
    from buchirl.cli import main as cli_main

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        mdp, hoa = Path(tmp, "m.json"), Path(tmp, "a.hoa")
        for seed in seeds:
            for i, (mdp_text, hoa_text, tail) in enumerate(cases(seed)):
                mdp.write_text(mdp_text, encoding="utf-8")
                hoa.write_text(hoa_text, encoding="utf-8")
                argv = [tail[0], "--mdp", str(mdp), "--hoa", str(hoa), *tail[1:]]
                why = check(cli_main, argv)
                if why is not None:
                    failed += 1
                    print(f"seed {seed} case {i} {' '.join(tail)}: {why}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
