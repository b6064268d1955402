"""Fuzz of `gml` over JSON configs built from the option table.

Every config must end in a documented exit code: 0 with no stderr output and
a report.json free of NaN and infinity, or 2-5 with one JSON line on stderr
and no output directory.  Never exit 1, a traceback or a warning.  `verify`
is left out: one valid run of it takes a second.
"""

import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from gmlab.cli import OPTIONS, main

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
MATRICES = [
    [[1, 0], [0, 1]], [[2, 1], [1, 1]], [[0, -1], [1, 0]], [[1, 2], [3, 4]],
    [[1.0, 0], [0, 1.0]], [[1e308, 0], [0, 1]], [[0, 0], [0, 0]],
]
SYMBOLS = ["one", "gaussian-bump", "near-identity", "random", "FILE"]
SEQUENCES = [
    "geometric",
    {"dim": 1, "entries": [[[0], 1, 0], [[2], 0.5, 0]]},
    {"dim": 2, "entries": [[[0, 0], 1, 0], [[1, -1], -0.3, 0.1]]},
    {"dim": 1, "entries": [[[0], 1, 0], [[1], -1, 0]]},
]
# Plausible values of each option; "FILE" stands for a file the example writes.
SAMPLES = {
    "N": [3, 5, 7.0, 9, 1],
    "q": [0.5, 1, 0.25, 0, 1.5],
    "s": [0, 1.0, 2, -1, 400],
    "chi": MATRICES,
    "window": ["gaussian", "gaussian:2", "gaussian:-1", "delta", "random", "FILE"],
    "symbol": SYMBOLS,
    "out": ["ignored: the --out flag wins"],
    "seed": [0, 1, 2**64, -1],
    "chi2": MATRICES,
    "symbol2": SYMBOLS,
    "cond_tol": [1e12, 1.0, 0.0, -1],
    "R": [1, 2],
    "samples_per_cell": [4, 8, 3],
    "field": ["gaussian", "bump", "chirped-gaussian", "FILE"],
    "field2": ["gaussian", "bump", "FILE"],
    "matrices": [[], MATRICES[:2], MATRICES[4:], [MATRICES[1]] * 2],
    "grid": [16, 64, 4096, 2**30, 1],
    "decay_cutoff": [1e-12, 1e-5, 0, 10],
    "sequence": SEQUENCES,
}
CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{name: st.one_of(st.sampled_from(SAMPLES[name]), JUNK) for name in OPTIONS},
        "gird": JUNK,
    },
)
NUMBER = st.one_of(st.floats(-3, 3), st.integers(-3, 3), st.sampled_from([1e308, True, "1"]))
PAIR = st.lists(NUMBER, min_size=2, max_size=2)
FILES = st.fixed_dictionaries({
    "window": st.one_of(st.lists(PAIR, min_size=5, max_size=5), JUNK),
    "symbol": st.one_of(
        st.lists(st.lists(PAIR, min_size=5, max_size=5), min_size=5, max_size=5), JUNK
    ),
})
COMMANDS = ["envelope", "compose", "invert", "factorize", "gabor-matrix", "amalgam", "seq-invert"]
AXIS = [k / 4 for k in range(-4, 4)]  # R = 1, M = 4
FIELD_CSV = "x,y,value\n" + "".join(f"{x},{y},{x * y + 1}\n" for x in AXIS for y in AXIS)


def test_samples_cover_the_option_table():
    assert set(SAMPLES) == set(OPTIONS)


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(command=st.sampled_from(COMMANDS), config=CONFIGS, files=FILES)
def test_main_never_crashes(command, config, files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in (*files.items(), ("field", FIELD_CSV)):
            paths[name] = os.path.join(tmp, f"{name}.data")
            with open(paths[name], "w") as fh:
                fh.write(content if isinstance(content, str) else json.dumps(content))
        for key, value in config.items():
            if value == "FILE":
                config[key] = paths[key.rstrip("2")]
        if command == "amalgam":  # the default 8 x 32 grid takes a second
            config.setdefault("R", 1)
            config.setdefault("samples_per_cell", 4)
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main([command, "--config", cfg, "--out", out])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            with open(os.path.join(out, "report.json")) as fh:
                json.load(fh, parse_constant=_reject_constant)
        else:
            assert code in (2, 3, 4, 5)
            assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "detail"}
            assert not os.path.exists(out)
