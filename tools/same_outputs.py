"""Whether this checkout of gmlab and another give the same outputs, byte for byte.

    python tools/same_outputs.py OTHER_ROOT

Runs each command of COMMANDS, and each operation of the fio_large
benchmark rounds of FIO_LARGE_SEEDS, twice as `python -m gmlab.cli COMMAND
--out out`: once on this checkout's src and once on OTHER_ROOT/src.  The
rounds are those `build` of perfbench/workloads.py makes, called in a child
process that writes their window, symbol and config files to a temporary
directory, which both runs read.  Each run has
a temporary directory of its own as its working directory, so every report
echoes the same relative --out, and runs with OPENBLAS_NUM_THREADS=1 and
without bytecode files, so it writes nothing in either checkout.  It
compares stdout, stderr, the exit code and every output file byte for byte,
prints one JSON line per command, {"command", "same", "differs"}, where
differs names what is not the same, and exits 1 on any difference.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = "out"
FIO_LARGE_SEEDS = (1, 2)

COMMANDS = (
    # the settings of the verify benchmark workload
    [f"verify --N 5 --seed {seed} --q {q} --s {s}"
     for seed in (1, 3, 6, 8, 12, 28, 29, 36) for q in (0.75, 1.0) for s in (0.0, 1.0, 2.0)]
    # the dense envelope calculus on random presets, at the sizes of fio_large
    + [f"{command} --N {N} --chi {chi} --window random --symbol random"
       for command in ("envelope", "compose", "invert") for N in (43, 61)
       for chi in ("1,1,0,1", "2,1,1,1")]
    + ["verify --N 13", "factorize --N 9 --chi 1,3,0,1", "gabor-matrix --N 7 --symbol random",
       "seq-invert", "amalgam"]
)


def fio_large_rounds(inputs: Path, seeds=FIO_LARGE_SEEDS) -> list:
    """The commands of the fio_large benchmark rounds of seeds, each seed's
    input files written under inputs/SEED: the identity chi and another for
    N = 61, q and s drawn, window and symbol files, and compose with a
    --config of its own symbol2 and chi2."""
    code = ("import json, sys; from pathlib import Path; from workloads import build; "
            "print(json.dumps([op.args for seed in sys.argv[2:] "
            "for op in build('fio_large', int(seed), Path(sys.argv[1], seed))[1]]))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "perfbench"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code, str(inputs), *map(str, seeds)],
                          env=env, capture_output=True, text=True, check=True)
    return [shlex.join(args) for args in json.loads(proc.stdout)]


def run(src: Path, command: str) -> dict:
    """stdout, stderr, exit code and output files of one gml command on the
    gmlab package under src, by name."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "gmlab.cli", *shlex.split(command), "--out", OUT],
                              cwd=tmp, env=env, capture_output=True, stdin=subprocess.DEVNULL)
        out = Path(tmp, OUT)
        files = {f"file {path.relative_to(out).as_posix()}": path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit code": proc.returncode, **files}


def compare(command: str, other: Path, src: Path = SRC) -> list:
    """What differs between the runs of one command on src and on other."""
    mine, theirs = run(src, command), run(other, command)
    return sorted(key for key in mine.keys() | theirs.keys() if mine.get(key) != theirs.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_root", help="root of the other checkout, which holds src/gmlab")
    other = Path(parser.parse_args(argv).other_root).resolve() / "src"
    if not (other / "gmlab").is_dir():
        parser.error(f"{other / 'gmlab'} is not a directory")
    same = True
    with tempfile.TemporaryDirectory() as inputs:
        for command in COMMANDS + fio_large_rounds(Path(inputs)):
            differs = compare(command, other)
            print(json.dumps({"command": command, "same": not differs, "differs": differs}),
                  flush=True)
            same = same and not differs
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
