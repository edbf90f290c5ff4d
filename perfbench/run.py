"""Benchmark of buchirl's verify, sweep and learn on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_sweep --seed 1 --seconds 20 --trace 0

One run writes the workload's inputs from the seed (several times, timing
each as set-up), computes the independent reference answers (untimed), runs
whole rounds of the workload's operations until ``--seconds`` have passed,
checks every output, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, timed from outside with tracing off and
taken to a reference machine speed by kernel calls in the timed process
(speed.py); with ``--trace 1`` one untraced and one traced in-process round
give the per-layer ones.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
from tracer import COUNT_NAMES, TRACED  # noqa: E402

WORKLOADS = ("desk_sweep", "large_product", "learn_i2")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CHILD_LIMIT_S = 150.0  # no single child may take longer
DESK_WORKERS = 4  # desk rounds run in this many processes, one after another

TIMES = ("setup_s", "verify_s", "sweep_s", "learn_s")
END_TO_END = (
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("sweep_s", "s"),
    ("learn_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    tuple((f"{qual}.{what}", unit) for qual in TRACED for what, unit in (("self_s", "s"), ("calls", "count")))
    + tuple((name, "count") for name in COUNT_NAMES)
    + (
        ("learn.ns_per_step", "ns"),
        ("cli.import_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.outside_s", "s"),
    )
)


# One untraced round of each CLI workload, in order.  Short commands repeat
# and are spread over the round, so their medians average out the machine's
# speed drift (about 10% over tens of seconds); the traced round runs each
# command once.
_I2_SHORT = ("verify", "sweep", "sweep")
ROUND_ORDER = {
    "large_product": ("verify", "sweep", "learn", "learn", "learn"),
    "learn_i2": _I2_SHORT * 3 + ("learn",) + _I2_SHORT * 2 + ("learn",) + _I2_SHORT * 3,
}


def cli_commands(workload: str, seed: int, rec: dict) -> list[dict]:
    """The commands of a CLI workload, each once."""
    pair = ["--mdp", rec["mdp"], "--hoa", rec["hoa"]]
    s = str(seed)
    if workload == "large_product":
        return [
            {"op": "verify", "argv": ["verify", *pair, "--zeta", "0.99", "--policies", "2", "--seed", s]},
            {"op": "sweep", "argv": ["sweep", *pair]},
            {"op": "learn", "argv": ["learn", *pair, "--zeta", "0.9", "--episodes", "500",
                                     "--max-steps", "200", "--seed", s]},
        ]
    return [
        {"op": "learn", "argv": ["learn", *pair, "--zeta", "0.9", "--episodes", "50000", "--seed", s]},
        {"op": "verify", "argv": ["verify", *pair, "--zeta", "0.9", "--tail-episodes", "100000",
                                  "--seed", s]},
        {"op": "sweep", "argv": ["sweep", *pair]},
    ]


class ChildFailed(RuntimeError):
    pass


def run_probed(target: list[str], env: dict, probes_path: Path,
               stdout_path: Path | None = None) -> tuple[float, float, int, int]:
    """Run ``python3 speed.py probes_path *target`` to its end; returns (the
    command's time at the reference speed, its wall time as measured, exit
    code, peak RSS in KiB).  The wall time leaves out the kernel calls."""
    probes_path.unlink(missing_ok=True)
    wall, code, rss = run_child([sys.executable, str(HERE / "speed.py"), str(probes_path), *target],
                                env, stdout_path)
    if not probes_path.is_file():
        raise ChildFailed(f"{' '.join(target[:3])} wrote no speed probes (exit code {code})")
    calls = json.loads(probes_path.read_text())
    wall -= sum(calls)
    return speed.scale(wall, statistics.mean(calls)), wall, code, rss


def run_child(argv: list[str], env: dict, stdout_path: Path | None = None) -> tuple[float, int, int]:
    """Run one child to its end; returns (wall seconds, exit code, peak RSS
    in KiB).  A child that outlives CHILD_LIMIT_S is killed."""
    out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=env)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: stop the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss
    finally:
        if stdout_path:
            out.close()


def child_env(root: Path) -> dict:
    """The children's environment: the checkout's sources, and one string
    hash seed, so that no run's timing depends on a random hash order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def set_up(args, root: Path, run_dir: Path, env: dict) -> tuple[list[float], list[float], list[dict]]:
    """Write the inputs SETUP_REPEATS times, each in a fresh interpreter.
    Returns the set-up times at the reference speed, as measured, and the
    manifest."""
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "input_dir": str(run_dir / "inputs"),
        "corpus": str(root / "corpus"),
        "manifest": str(run_dir / "manifest.json"),
    }
    spec_path = run_dir / "setup.json"
    spec_path.write_text(json.dumps(spec))
    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        scaled, wall, code, _ = run_probed([str(HERE / "work.py"), "setup", str(spec_path)], env,
                                           run_dir / "probes.json")
        if code != 0:
            raise ChildFailed(f"set-up exited with {code}")
        times.append(scaled)
        walls.append(wall)
    return times, walls, json.loads(Path(spec["manifest"]).read_text())


def cli_rounds(args, commands, run_dir: Path, env: dict) -> dict:
    """Whole rounds of the CLI commands in ROUND_ORDER, each timed from
    outside and scaled to the reference speed (``walls`` keeps the times as
    measured).  Every report must repeat the first one byte for byte."""
    argv_of = {cmd["op"]: cmd["argv"] for cmd in commands}
    rounds = []
    samples: dict[str, list[float]] = {f"{op}_s": [] for op in argv_of}
    walls: dict[str, list[float]] = {f"{op}_s": [] for op in argv_of}
    first: dict[str, bytes] = {}
    bad = []
    peak = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        r = {"ops": 0, "failed": 0}
        for op in ROUND_ORDER[args.workload]:
            path = run_dir / f"{op}.json"
            scaled, wall, code, rss = run_probed(["-m", "buchirl", *argv_of[op]], env,
                                                 run_dir / "probes.json", path)
            r["ops"] += 1
            peak = max(peak, rss)
            if code != 0:
                r["failed"] += 1
                print(f"{op} exited with {code}", file=sys.stderr)
                continue
            samples[f"{op}_s"].append(scaled)
            walls[f"{op}_s"].append(wall)
            data = path.read_bytes()
            if op not in first:
                first[op] = data
            elif data != first[op]:
                bad.append(f"{op} report changed between repeats")
        rounds.append(r)
    reports = {op: json.loads(data) for op, data in first.items()}
    return {"rounds": rounds, "samples": samples, "walls": walls, "reports": reports,
            "problems": bad, "peak_kib": peak}


def worker(mode: str, spec: dict, run_dir: Path, env: dict) -> tuple[dict, int]:
    spec["result"] = str(run_dir / f"{mode}-result.json")
    spec_path = run_dir / f"{mode}.json"
    spec_path.write_text(json.dumps(spec))
    _, code, rss = run_child([sys.executable, str(HERE / "work.py"), mode, str(spec_path)], env)
    if code != 0:
        raise ChildFailed(f"worker {mode} exited with {code}")
    return json.loads(Path(spec["result"]).read_text()), rss


def check_outputs(workload: str, reports_or_outputs, refs: dict) -> tuple[list[str], list[str]]:
    if workload == "desk_sweep":
        return checks.check_desk(reports_or_outputs, refs, zetas=3), []
    ref = next(iter(refs.values()))
    if workload == "large_product":
        return checks.check_large(reports_or_outputs, ref), []
    return checks.check_learn_i2(reports_or_outputs, ref)


def measure(args, root: Path, run_dir: Path) -> dict:
    env = child_env(root)
    setup_times, setup_walls, records = set_up(args, root, run_dir, env)
    cache = root / ".perfbench_runs" / "reference_cache"
    refs = {r["name"]: reference.solve_files(r["mdp"], r["hoa"], cache) for r in records}
    problems: list[str] = []
    kind = "desk" if args.workload == "desk_sweep" else "cli"
    commands = [] if kind == "desk" else cli_commands(args.workload, args.seed, records[0])
    measured: dict[str, float] = {}

    if args.trace:
        spec = {"kind": kind, "manifest": str(run_dir / "manifest.json"),
                "commands": commands, "report_dir": str(run_dir / "reports")}
        result, _ = worker("traced", spec, run_dir, env)
        rounds = result["rounds"]
        if kind == "desk":
            outputs = result["outputs"]
            if result["repeat_mismatch"]:
                problems.append("traced round gave other outputs than the untraced one")
        else:
            outputs = {}
            codes = rounds[1]["codes"]
            for cmd in commands:
                if codes[cmd["op"]] != 0:
                    continue
                path = run_dir / "reports" / "traced" / f"{cmd['op']}.json"
                plain = run_dir / "reports" / "plain" / f"{cmd['op']}.json"
                if path.read_bytes() != plain.read_bytes():
                    problems.append(f"traced {cmd['op']} report differs from the untraced one")
                outputs[cmd["op"]] = json.loads(path.read_text())
        layer = result["per_layer"]
        gap = layer["trace.wall_s"] - (result["self_sum_s"] + layer["trace.outside_s"])
        if abs(gap) > 1e-6:
            problems.append(f"self times plus outside time miss the traced wall time by {gap:.3g}s")
        imports = []
        for _ in range(IMPORT_REPEATS):
            wall, code, _ = run_child([sys.executable, "-c", "import buchirl"], env)
            if code != 0:
                raise ChildFailed("import buchirl failed")
            imports.append(wall)
        layer["cli.import_s"] = statistics.median(imports)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        if kind == "desk":
            # several processes, so that no one process's memory layout
            # sets the run's times
            rounds, outputs, mismatch, peak = [], None, 0, 0
            for _ in range(DESK_WORKERS):
                spec = {"manifest": str(run_dir / "manifest.json"), "seconds": args.seconds / DESK_WORKERS}
                result, rss = worker("rounds", spec, run_dir, env)
                rounds += result["rounds"]
                peak = max(peak, rss)
                mismatch += result["repeat_mismatch"]
                if outputs is None:
                    outputs = result["outputs"]
                elif json.dumps(result["outputs"]) != json.dumps(outputs):
                    mismatch += 1
            samples = {key: [r["times"][key] for r in rounds] for key in rounds[0]["times"]}
            walls = {key: [r["wall"][key] for r in rounds] for key in rounds[0]["wall"]}
            if mismatch:
                problems.append(f"{mismatch} rounds gave other outputs than the first")
        else:
            result = cli_rounds(args, commands, run_dir, env)
            rounds = result["rounds"]
            samples = result["samples"]
            walls = result["walls"]
            outputs = result["reports"]
            peak = result["peak_kib"]
            problems += result["problems"]
        samples["setup_s"], walls["setup_s"] = setup_times, setup_walls
        values = {key: statistics.median(samples[key] or [math.nan]) for key in TIMES}
        values["peak_rss_mb"] = peak / 1024.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        measured = {key: statistics.median(walls[key] or [math.nan]) for key in TIMES}

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    found, notes = check_outputs(args.workload, outputs, refs)
    problems += found
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "notes": notes,
        "rounds": len(rounds),
        "measured": measured,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Time buchirl's verify, sweep and learn.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so run_child stops the child it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "buchirl" / "__init__.py").is_file():
        print("error: run from the root of a buchirl checkout (no src/buchirl here)", file=sys.stderr)
        return 2
    if args.workload == "learn_i2" and not (root / "corpus" / "mdp" / "i2.json").is_file():
        print("error: corpus/mdp/i2.json is missing", file=sys.stderr)
        return 2

    run_dir = root / ".perfbench_runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        out = measure(args, root, run_dir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in out["problems"]:
        print(f"FAIL {line}", file=sys.stderr)
    for line in out["notes"]:
        print(f"note {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {out['rounds']} round(s), "
          f"{out['attempted']} operations attempted, {out['failed']} failed, "
          f"outputs {'correct' if out['correct'] else 'WRONG'}")
    for name, m in out["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for name, value in out["measured"].items():
        print(f"  {name + ' as measured (wall)':42s} {value:.6g} s")
    print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
