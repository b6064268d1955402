"""Smoke tests of the scripts in tools/: they still run against the package
API, and the calibration figures they produce are the frozen ones."""

import importlib.util
import math
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name):
    """The module of tools/<name>.py, imported without running its main."""
    spec = importlib.util.spec_from_file_location(f"tools_{name}", os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def leaves(obj, prefix=""):
    """(path, number) for every number in a nested dict."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{prefix}/{key}")
    else:
        yield prefix, obj


@pytest.mark.parametrize(
    "section",
    ["inverse_closedness", "fio_pairs", "almost_diagonalization", "gabor_pinv_decay"],
)
def test_calibrate_reproduces_the_frozen_figures(calibration, section):
    got = dict(leaves(getattr(load_tool("calibrate"), section)()))
    want = dict(leaves(calibration[section]))
    assert got.keys() == want.keys()
    for path, value in want.items():
        assert math.isclose(got[path], value, rel_tol=1e-9), path


def test_envelope_ladder_rung(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it; undone after
    tool = load_tool("envelope_ladder")
    result = tool.rung(11)
    assert list(result) == ["N", "workers", "envelope_s", "cpu_s", "peak_mb"]
    assert result["N"] == 11 and result["workers"] == 1  # below the cut-over
    assert result["envelope_s"] >= 0.0 and result["cpu_s"] >= 0.0 and result["peak_mb"] > 0.0
    assert tool.rung(21)["workers"] == tool.fio._workers(21) >= 1


def test_verify_ladder_rung(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # the tool sets it; undone after
    tool = load_tool("verify_ladder")
    monkeypatch.setattr(tool, "REPEATS", 1)
    result = tool.rung(5)
    assert result["N"] == 5 and len(result["suites"]) == 16
    assert list(result["suites"]) == sorted(result["suites"])
    assert all(t >= 0.0 for t in result["suites"].values())
    assert result["total_s"] == pytest.approx(sum(result["suites"].values()), abs=1e-3)
    assert list(result["peak_mb"]) == list(result["suites"])
    assert all(mb >= 0.0 for mb in result["peak_mb"].values())
