"""Per-layer tracing by wrapping the public functions of gmlab's modules.

`Tracer.install()` replaces each public function defined in a measured
module by a wrapper, everywhere gmlab holds a reference to it: module
attributes (including names imported into other gmlab modules) and
module-level lists and dicts such as `verify.ALL_SUITES` and
`cli.COMMANDS`.  A wrapper counts calls and records the wall span; self
time is the span minus the spans of the wrapped calls made inside it.
Spans are kept in memory as running sums.  Single-threaded use only: the
runner sets GML_THREADS=1.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

MODULES = (
    "cli", "verify", "seq_algebra", "phase_space", "weyl",
    "matrix_algebra", "metaplectic", "fio", "amalgam", "serialize",
)
# Helpers called once per sequence entry or per tiny index step; a wrapper
# there would cost more than the work, so their time stays in the caller.
SKIP = {"seq_algebra.weight_eval", "weyl.half_inverse"}
SEQ_METHODS = ("__add__", "__neg__", "__sub__", "__mul__")
PEAK = {"fio.envelope"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.span = defaultdict(float)
        self.self_time = defaultdict(float)
        self.terms = 0
        self.peak_mb = defaultdict(float)
        self._stack: list[float] = []

    def reset(self) -> None:
        for d in (self.calls, self.span, self.self_time, self.peak_mb):
            d.clear()
        self.terms = 0

    def _wrap(self, name: str, fn):
        tracer = self
        peak = name in PEAK
        terms = name == "seq_algebra.convolve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if terms:
                tracer.terms += len(args[0]) * len(args[1])
            if peak:
                tracemalloc.start()
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dt
                tracer.calls[name] += 1
                tracer.span[name] += dt
                tracer.self_time[name] += dt - children
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer.peak_mb[name] = max(tracer.peak_mb[name], mb)

        return wrapper

    def install(self) -> None:
        """Wrap every measured function and rebind each reference gmlab holds."""
        replace: dict = {}
        for mod_name in MODULES:
            mod = sys.modules[f"gmlab.{mod_name}"]
            for attr, fn in vars(mod).items():
                name = f"{mod_name}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    replace[fn] = self._wrap(name, fn)
        seq = sys.modules["gmlab.seq_algebra"].SparseSeq
        for attr in SEQ_METHODS:
            wrapped = self._wrap(f"seq_algebra.SparseSeq.{attr}", vars(seq)[attr])
            setattr(seq, attr, wrapped)
        seq.__rmul__ = seq.__mul__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gmlab" and not mod_name.startswith("gmlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(mod, attr, replace[value])
                elif isinstance(value, list):
                    value[:] = [replace.get(v, v) if inspect.isfunction(v) else v for v in value]
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for k, v in value.items():
                        if inspect.isfunction(v) and v in replace:
                            value[k] = replace[v]

    def module_self(self, module: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == module)

    def metrics(self, rounds: int) -> dict:
        """Per-round values of the per-layer metrics (peak_mb: worst single call)."""
        per = 1.0 / rounds
        st, calls, span = self.self_time, self.calls, self.span
        suites = {n: t for n, t in span.items() if n.startswith("verify.suite_")}
        m = {
            "cli.main.s": (span["cli.main"] * per, "s"),
            "cli.main.self_s": (st["cli.main"] * per, "s"),
            "seq_algebra.convolve.calls": (calls["seq_algebra.convolve"] * per, "count"),
            "seq_algebra.convolve.self_s": (st["seq_algebra.convolve"] * per, "s"),
            "seq_algebra.convolve.terms": (self.terms * per, "count"),
            "seq_algebra.qnorm.calls": (calls["seq_algebra.qnorm"] * per, "count"),
            "seq_algebra.qnorm.self_s": (st["seq_algebra.qnorm"] * per, "s"),
            "seq_algebra.SparseSeq.__add__.self_s": (st["seq_algebra.SparseSeq.__add__"] * per, "s"),
            "seq_algebra.neumann_inverse.self_s": (st["seq_algebra.neumann_inverse"] * per, "s"),
            "seq_algebra.invert_by_fourier.self_s": (st["seq_algebra.invert_by_fourier"] * per, "s"),
            "verify.seq_neumann.s": (suites.get("verify.suite_seq_neumann", 0.0) * per, "s"),
            "verify.other_suites.s": (
                sum(t for n, t in suites.items() if n != "verify.suite_seq_neumann") * per, "s"),
            "weyl.gabor_matrix.calls": (calls["weyl.gabor_matrix"] * per, "count"),
            "weyl.gabor_matrix.self_s": (st["weyl.gabor_matrix"] * per, "s"),
            "weyl.weyl_quantize.self_s": (st["weyl.weyl_quantize"] * per, "s"),
            "phase_space.shift_bank.self_s": (st["phase_space.shift_bank"] * per, "s"),
            "fio.envelope.calls": (calls["fio.envelope"] * per, "count"),
            "fio.envelope.self_s": (st["fio.envelope"] * per, "s"),
            "fio.envelope.peak_mb": (self.peak_mb["fio.envelope"], "MB"),
            "fio.invert_fio.self_s": (st["fio.invert_fio"] * per, "s"),
            "fio.fio_report.self_s": (st["fio.fio_report"] * per, "s"),
            "metaplectic.build_metaplectic.self_s": (st["metaplectic.build_metaplectic"] * per, "s"),
            "metaplectic.intertwine_defect.self_s": (st["metaplectic.intertwine_defect"] * per, "s"),
            "matrix_algebra.diagonal_envelope.self_s": (st["matrix_algebra.diagonal_envelope"] * per, "s"),
            "matrix_algebra.envelope_convolve.self_s": (st["matrix_algebra.envelope_convolve"] * per, "s"),
            "amalgam.gl_invariance_check.self_s": (st["amalgam.gl_invariance_check"] * per, "s"),
            "amalgam.convolve_fields.self_s": (st["amalgam.convolve_fields"] * per, "s"),
            "serialize.envelope_csv.self_s": (st["serialize.envelope_csv"] * per, "s"),
            "serialize.gabor_csv.self_s": (st["serialize.gabor_csv"] * per, "s"),
            "serialize.dump_json.self_s": (st["serialize.dump_json"] * per, "s"),
        }
        for module in MODULES:
            m[f"{module}.all.self_s"] = (self.module_self(module) * per, "s")
        return m
