"""Golden reports: `product`, `solve` and `learn` on every corpus pair, byte for byte.

Each file under `tests/golden/` holds, for one MDP/automaton pair, the
default reports of `product --export` (raw and with `--zeta 0.9`, followed by
the exported MDP JSON), of `solve` in every mode at ζ 0.9 and 0.99, and of
`learn` (seed 0) in both leaked views at ζ 0.9.  These paths make no LAPACK
call, and learned returns are whole numbers, so their bytes are the same on
any machine.

Regenerate after an intended change of output with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import pytest

from buchirl.cli import main

from conftest import CORPUS

GOLDEN = Path(__file__).resolve().parent / "golden"

# incomplete_g builds only once a rejecting trap completes it
PAIRS = [
    (mdp.stem, hoa.stem, ["--trap-complete"] if hoa.stem == "incomplete_g" else [])
    for mdp in sorted((CORPUS / "mdp").glob("*.json"))
    for hoa in sorted((CORPUS / "hoa").glob("*.hoa"))
]

COMMANDS = [
    ["product", "--export", "export.json"],
    ["product", "--export", "export.json", "--zeta", "0.9"],
] + [
    ["solve", "--mode", mode, "--zeta", zeta]
    for mode in ("reach", "total", "biased")
    for zeta in ("0.9", "0.99")
] + [
    ["learn", "--mode", mode, "--zeta", "0.9", "--episodes", "3000"]
    for mode in ("reach", "total")
]


def render(mdp: str, hoa: str, extra: list[str]) -> str:
    """Every report of one pair, each under a header naming its command.

    Runs with the working directory at a scratch directory that links the
    corpus, so the paths inside the reports are relative and stable.
    """
    out = []
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.symlink(CORPUS, Path(tmp) / "corpus")
        os.chdir(tmp)
        try:
            for cmd in COMMANDS:
                argv = cmd[:1] + ["--mdp", f"corpus/mdp/{mdp}.json", "--hoa", f"corpus/hoa/{hoa}.hoa"]
                argv += extra + cmd[1:] + ["--out", "report.json"]
                code = main(argv)
                out.append(f"==> {' '.join(argv)} -> exit {code}\n")
                out.append(Path("report.json").read_text())
                if "--export" in cmd:
                    out.append(Path("export.json").read_text())
                for name in ("report.json", "export.json"):
                    Path(name).unlink(missing_ok=True)
        finally:
            os.chdir(old)
    return "".join(out)


@pytest.mark.parametrize("mdp,hoa,extra", PAIRS, ids=[f"{m}-{h}" for m, h, _ in PAIRS])
def test_reports_match_golden(mdp, hoa, extra):
    want = (GOLDEN / f"{mdp}__{hoa}.txt").read_bytes()
    assert render(mdp, hoa, extra).encode() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for mdp, hoa, extra in PAIRS:
        (GOLDEN / f"{mdp}__{hoa}.txt").write_text(render(mdp, hoa, extra))
    sys.exit(0)
