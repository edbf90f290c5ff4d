"""The machine's speed, probed in the process that does the timed work.

The benchmark shares a few cores of a host with other work, and the host's
speed drifts by 10-30% over seconds to minutes.  A wall time alone then
moves with the machine as much as with the program.  So every timed
operation is bracketed by calls of a fixed kernel that belongs to the
benchmark, made in the same process, and its time is reported at a
reference speed:

    reported = wall * REF_S / (mean kernel time per call next to it)

The kernel is a loop of small numpy operations on a 12x12 matrix: interpreter
dispatch plus small-array work, the mix that dominates the program on small
and mid-sized inputs.  A change to ``buchirl`` cannot move the kernel, so a
program that gets 10% slower reads 10% slower; only the machine's drift is
divided out.  REF_S is about one call's time next to the program's work on
the machine of the figures in README.md, so reported times read close to
wall times there.

    python3 perfbench/speed.py PROBES.json -m MODULE ARGS...
    python3 perfbench/speed.py PROBES.json SCRIPT ARGS...

runs the module or script in this process, as ``python3 -m`` or ``python3``
would, with EDGE_CALLS kernel calls at its start and at its end and one every
TICK_S seconds while it runs (from a timer signal, between bytecodes), and
writes the calls' durations to PROBES.json.  The child's time from outside
minus those calls is the command's wall time.
"""

from __future__ import annotations

import json
import os
import runpy
import signal
import sys
import time

import numpy as np

REF_S = 0.0018  # seconds per kernel call at the reference speed
TICK_S = 0.1  # interval of the kernel calls inside a probed command
EDGE_CALLS = 4  # kernel calls at the start and at the end of a probed command

_A = np.random.default_rng(0).random((12, 12))
_FLOOR = _A.min(axis=0)


def kernel() -> float:
    """One call of the fixed kernel; returns its wall time."""
    t = time.perf_counter()
    x = _A
    for _ in range(300):
        x = np.maximum(_A @ x * 0.01, _FLOOR)
    return time.perf_counter() - t


def scale(wall: float, per_call: float) -> float:
    """``wall`` at the reference speed, given the kernel's probed time."""
    return wall * REF_S / per_call


def run_probed(probes_path: str, target: list[str]) -> int:
    """Run ``target`` (``-m MODULE ARGS`` or ``SCRIPT ARGS``) with kernel
    calls around and during it; returns its exit code."""
    calls = [kernel() for _ in range(EDGE_CALLS)]
    signal.signal(signal.SIGALRM, lambda signum, frame: calls.append(kernel()))
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    code = 0
    try:
        if target[0] == "-m":
            sys.argv = target[1:]
            sys.path[0] = os.getcwd()
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = target
            sys.path[0] = os.path.dirname(os.path.abspath(target[0]))
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        calls += [kernel() for _ in range(EDGE_CALLS)]
        with open(probes_path, "w") as fh:
            json.dump(calls, fh)
    return code


if __name__ == "__main__":
    sys.exit(run_probed(sys.argv[1], sys.argv[2:]))
