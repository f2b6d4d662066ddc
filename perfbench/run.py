"""Benchmark of the causalexpl CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it runs the CLI of that checkout's own
``src/``.  The workload's input is generated from ``--seed`` (see
inputs.py).  With ``--trace 0`` it spawns the CLI in whole rounds until
``--seconds`` have passed, each round being one ``--dump-theory`` process
(set-up time) and one full process (wall time, peak memory), and reports the
medians.  With ``--trace 1`` it does the same and then runs the CLI's
``main`` twice in a traced process (tracing.py) for the per-layer metrics.
Every output is checked by a separate process (check.py) after the timed
rounds, so that this process stays small: a spawned child's peak RSS can
report no less than its parent's.  The last line of standard output is one
JSON object with the result.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import signal
import statistics
import sys
import threading
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SPAWN_LIMIT_S = 120.0

sys.path.insert(0, HERE)

from inputs import WORKLOADS, make_workload  # noqa: E402

# The console-script entry point of the package, run from src/.
CLI = ["-c", "import sys; from causalexpl.cli import main; sys.exit(main())"]


def declared_metrics() -> Dict[str, List[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(argv: List[str], env: Dict[str, str], err_path: str):
    """Run one process; return (wall seconds, exit code, peak RSS in MB)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, err_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env,
                         file_actions=actions)
    watchdog = threading.Timer(SPAWN_LIMIT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


class RunError(RuntimeError):
    """A process failed or an output is wrong."""


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Runner:
    """Spawns the CLI on one generated input and keeps the samples."""

    def __init__(self, workload, seed: int, work: str):
        self.w = workload
        self.input = os.path.join(work, "input.lp")
        self.out = os.path.join(work, "out")
        self.dump = os.path.join(work, "dump")
        self.err = os.path.join(work, "err")
        with open(self.input, "w") as fh:
            fh.write(workload.text)
        # every process gets its own hash seed, drawn from the run's seed
        self.hash_seeds = random.Random("hash/%s/%d" % (workload.name, seed))
        self.samples: Dict[str, List[float]] = {"wall_s": [], "setup_s": [],
                                                "peak_rss_mb": []}
        self.attempted = 0
        self.failed = 0
        self.first_output = None
        self.outputs_differ = False

    def env(self) -> Dict[str, str]:
        return {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC,
                "PYTHONHASHSEED": str(self.hash_seeds.randrange(2 ** 32))}

    def cli(self, extra: List[str], out: str):
        return spawn(CLI + [self.input] + extra + ["--out", out],
                     self.env(), self.err)

    def round(self):
        """One --dump-theory process and one full process."""
        setup, code_a, _ = self.cli(["--dump-theory"], self.dump)
        wall, code_b, rss = self.cli(self.w.cli_args, self.out)
        self.attempted += 1
        if code_a != 0 or code_b != 0:
            self.failed += 1
            return
        self.same_output()
        self.samples["setup_s"].append(setup)
        self.samples["wall_s"].append(wall)
        self.samples["peak_rss_mb"].append(rss)

    def same_output(self):
        """Every process must write the first process's output."""
        out = read_bytes(self.out)
        if self.first_output is None:
            self.first_output = out
        elif out != self.first_output:
            self.outputs_differ = True

    def measure(self, seconds: float):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.round()

    def stderr_text(self) -> str:
        with open(self.err) as fh:
            return fh.read().strip()


def summary(name: str, values: List[float], unit: str) -> str:
    if len(values) < 2:
        return "%-22s %.6g %s (n=%d)" % (name, values[0], unit, len(values))
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return "%-22s median %.6g %s  quartiles %.6g..%.6g  n=%d" % (
        name, statistics.median(values), unit, q1, q3, len(values))


def trace_run(runner: Runner, hash_seed: int, path: str) -> dict:
    argv = [os.path.join(HERE, "tracing.py"), path, "--", runner.input]
    argv += runner.w.cli_args + ["--out", runner.out]
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": SRC,
           "PYTHONHASHSEED": str(hash_seed)}
    _, code, _ = spawn(argv, env, runner.err)
    if code != 0:
        raise RunError("traced run exited %d: %s"
                       % (code, runner.stderr_text()))
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "causalexpl", "cli.py")):
        print("error: no src/causalexpl under %s; run from the root of a "
              "checkout" % ROOT, file=sys.stderr)
        return 2

    declared = declared_metrics()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    w = make_workload(args.workload, args.seed)
    runner = Runner(w, args.seed, work)
    runner.cli(["--dump-theory"], runner.dump)   # warm-up: bytecode caches
    runner.measure(args.seconds)
    if not runner.samples["wall_s"]:
        print("error: no process succeeded: %s" % runner.stderr_text(),
              file=sys.stderr)
        return 1

    correct = not runner.outputs_differ
    if runner.outputs_differ:
        print("check failed: outputs differ between processes",
              file=sys.stderr)
    checked = subprocess.run(
        [sys.executable, os.path.join(HERE, "check.py"), "--workload",
         w.name, "--seed", str(args.seed), runner.out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=SPAWN_LIMIT_S)
    brave = 0
    if checked.returncode == 0:
        brave = json.loads(checked.stdout.splitlines()[-1])["brave"]
    else:
        print(checked.stderr.strip(), file=sys.stderr)
        correct = False

    s = runner.samples
    wall = statistics.median(s["wall_s"])
    setup = statistics.median(s["setup_s"])
    values = {"wall_s": wall,
              "atoms_per_s": statistics.median(brave / x for x in s["wall_s"]),
              "peak_rss_mb": statistics.median(s["peak_rss_mb"]),
              "setup_s": setup}
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        print(summary(name, s[name], "MB" if name == "peak_rss_mb" else "s"))
    print("%-22s %d distinct verdict atoms" % ("atoms", brave))
    wanted = declared["end_to_end"]

    if args.trace:
        wanted = declared["per_layer"]
        hash_seeds = random.Random("trace/%s/%d" % (w.name, args.seed))
        traced = []
        try:
            for i in range(2):
                traced.append(trace_run(
                    runner, hash_seeds.randrange(2 ** 32),
                    os.path.join(work, "trace%d.json" % i)))
                runner.attempted += 1
                if read_bytes(runner.out) != runner.first_output:
                    raise RunError("traced output differs from untraced")
            first, second = (t["metrics"] for t in traced)
            differ = [m["name"] for m in wanted
                      if m["unit"] in ("count", "B", "ratio")
                      and first.get(m["name"]) != second.get(m["name"])]
            if differ:
                raise RunError("counts differ between traced runs: %s"
                               % ", ".join(differ))
        except RunError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        values = dict(traced[0]["metrics"])
        values["trace.untraced_s"] = wall - setup
        values["trace.overhead_ratio"] = values["cli.pipeline_s"] / (
            wall - setup)
        for name in traced[0]["absent"]:
            print("absent: %s (its layer metrics read 0)" % name)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print("error: metric %s was not measured" % m["name"],
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-28s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
