"""End-to-end and per-layer benchmark of the `gml` command line.

Run from the root of a gmlab checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

With --trace 0 every operation is a fresh `python -m gmlab.cli ...`
process (PYTHONPATH=src, import included), started by one closed-loop
client only after the previous one exited; the end-to-end metrics come
from those processes.  With --trace 1 the same operations run in-process
through `gmlab.cli.main(argv)` with the functions of each gmlab module
wrapped (see layers.py), giving the per-layer metrics.  Either way a run
first does one untimed warm-up operation, then repeats whole rounds of the
workload's operations until --seconds have passed, then checks every
output (checks.py).  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Identical thread settings for the children, for the in-process traced
# run and for the oracles; they must be set before numpy is imported.
THREADS = {
    "GML_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_IMPORTS = 3
OP_TIMEOUT_S = 150.0


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", **THREADS)


def wait_child(argv: list, stdout, stderr) -> tuple:
    """Run one child to its end; (wall s, user+sys CPU s, max RSS MB, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=stdout, stderr=stderr)
    killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def import_time() -> float:
    wall, _, _, code = wait_child(
        [sys.executable, "-c", "import gmlab.cli"], subprocess.DEVNULL, subprocess.DEVNULL
    )
    if code != 0:
        raise SystemExit(f"perfbench: `import gmlab.cli` exited {code}")
    return wall


class Runner:
    """Executes operations into numbered directories and checks them afterwards."""

    def __init__(self, work: Path, traced_main=None):
        self.work = work
        self.main = traced_main
        self.executions: list = []  # (op, directory, exit code)
        self.samples: list = []  # (wall, cpu, rss) of timed child processes

    def execute(self, op: workloads.Op, timed: bool) -> None:
        # Every execution of an op writes to the same --out path, because
        # report.json records it; the directory is moved aside afterwards.
        out = self.work / "out" / op.key
        keep = self.work / "runs" / f"{op.key}.{len(self.executions)}"
        keep.mkdir(parents=True)
        args = [*op.args, "--out", str(out)]
        with open(keep / "stdout", "w") as so, open(keep / "stderr", "w") as se:
            if self.main is None:
                wall, cpu, rss, code = wait_child(
                    [sys.executable, "-m", "gmlab.cli", *args], so, se
                )
                if timed:
                    self.samples.append((wall, cpu, rss))
            else:
                with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                    try:
                        code = self.main(args)
                    except Exception:  # an escaped error is a failed operation, as in a child
                        traceback.print_exc()
                        code = 1
        if out.exists():
            out.rename(keep / "out")
        self.executions.append((op, keep, code))

    def check(self) -> tuple:
        """(failed operations, problems found in the outputs of the others)."""
        first: dict = {}
        failed, problems = 0, []
        for op, keep, code in self.executions:
            if code != 0:
                failed += 1
                err = (keep / "stderr").read_text().strip().splitlines()[-1:]
                print(f"perfbench: {op.key} exited {code} {err}", file=sys.stderr)
            elif op.key not in first:
                first[op.key] = keep
        outputs = {key: keep / "out" for key, keep in first.items()}
        for op, keep, code in self.executions:
            if code != 0:
                continue
            ref = first[op.key]
            try:
                if keep is ref:
                    op.check(keep / "out", keep / "stdout", outputs)
                else:
                    same_bytes(ref, keep)
            except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
                problems.append(f"{op.key}: {exc}")
        return failed, problems


def same_bytes(a: Path, b: Path) -> None:
    """Identical config and seed must give byte-identical files."""
    names = sorted(p.name for p in (a / "out").iterdir())
    checks.expect(names == sorted(p.name for p in (b / "out").iterdir()), "output file sets differ")
    for name in names + ["stdout"]:
        base = a / name if name == "stdout" else a / "out" / name
        other = b / name if name == "stdout" else b / "out" / name
        checks.expect(filecmp.cmp(base, other, shallow=False), f"{name} differs between repeats")


def timed_run(warm: workloads.Op, ops: list, seconds: float, work: Path) -> tuple:
    runner = Runner(work)
    runner.execute(warm, timed=False)
    setup = [import_time() for _ in range(SETUP_IMPORTS)]
    t0 = time.perf_counter()
    while True:
        for op in ops:
            runner.execute(op, timed=True)
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    walls, cpus, rss = zip(*runner.samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(walls) / wall, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "cpu_per_op_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return runner, metrics


def traced_run(warm: workloads.Op, ops: list, seconds: float, work: Path) -> tuple:
    import layers

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gmlab.cli

    import_s = time.perf_counter() - t0
    tracer = layers.Tracer()
    tracer.install()
    runner = Runner(work, traced_main=lambda argv: gmlab.cli.main(argv))
    runner.execute(warm, timed=False)
    tracer.reset()
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            runner.execute(op, timed=True)
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = {"cli.import_s": (import_s, "s"), **tracer.metrics(rounds)}
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gmlab" / "cli.py").is_file():
        print(f"perfbench: no gmlab sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        warm, ops = workloads.build(args.workload, args.seed, work / "inputs")
        run = traced_run if args.trace else timed_run
        runner, metrics = run(warm, ops, args.seconds, work)
        failed, problems = runner.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(runner.executions),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
