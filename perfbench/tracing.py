"""Spans around weylkit's public calls, recorded from outside the program.

``install`` replaces each wrapped function in every ``weylkit`` module that
holds it (the CLI imports names directly, so patching the defining module
alone would miss its calls) and each wrapped method on its class.  A span
records its layer, start, end and parent; self time (duration minus the
time covered by child spans) is summed per layer as spans close, so the
per-layer figures need no second pass.  Spans are kept in flat arrays and
written to one JSON file at the end.
"""

import array
import functools
import json
import math
import os
import sys
import time

import numpy as np
from weylkit import defaults

_FACTOR_FLOP = 8.0 / 3.0     # complex zpotrf + ztrtri: 4 x (n^3/3 + n^3/3) real flops
_TRTRI_FLOP = 4.0 / 3.0      # complex ztrtri alone


def _first(args, kwargs, name, pos, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _forward_pairs(args, kwargs, result):
    s = args[0]
    z = _first(args, kwargs, "z", 1)
    gl = _first(args, kwargs, "gl_order", 4) or defaults.GL_ORDER
    zn = 1
    for dim in getattr(z, "shape", ()):
        zn *= dim
    return zn * (s.m - 1) * gl


def _inverse_pairs(args, kwargs, result):
    rep = result[2]
    n_zeta = int(round(2.0 * rep["a"] / rep["dzeta"])) + 1
    return n_zeta * (2 * int(round(rep["xmax"] / rep["h"])) + 1)


def _grid_points(result):
    """Grid size of a read-off; tuples carry the Hamiltonian or theta2 second."""
    return (result[1] if isinstance(result, tuple) else result).m


def _disk_steps(spu_pos):
    def steps(args, kwargs, result):
        l = _first(args, kwargs, "l", 2)
        spu = _first(args, kwargs, "steps_per_unit", spu_pos) or defaults.DISK_STEPS_PER_UNIT
        return max(8, int(math.ceil(l * spu)))
    return steps


def _x_count(args, kwargs, result):
    return int(np.size(_first(args, kwargs, "xs", 1, _first(args, kwargs, "x", 1))))


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[0])


# layer -> (work-count name, [(module, attribute, work function or None)]).
# A None work function counts one unit per call; "read" marks io readers,
# which write no bytes.  Work is counted only where a span enters its
# layer, so nested calls inside the same layer are not counted twice.
LAYERS = {
    "fourier.forward": ("zx_pairs", [
        ("weylkit.fourier", "weyl_from_amplitude", _forward_pairs)]),
    "fourier.inverse": ("zeta_x_pairs", [
        ("weylkit.fourier", "amplitude_from_weyl", _inverse_pairs)]),
    "fourier.sampler": ("calls", [
        ("weylkit.fourier", "WeylSampler.__call__", None)]),
    "structured.assemble": ("matrix_mb", [
        ("weylkit.structured", "build_structured_operator",
         lambda a, k, r: r.s.nbytes / 1e6)]),
    "structured.factor": ("gflop", [
        ("weylkit.structured", "factorize_triangular",
         lambda a, k, r: _FACTOR_FLOP * r.w.shape[0] ** 3 / 1e9),
        ("weylkit.structured", "TriangularFactor.winv", "winv")]),
    "structured.readoff": ("x_points", [
        ("weylkit.structured", name, lambda a, k, r: _grid_points(r))
        for name in ("recover_potential", "theta_functions",
                     "canonical_from_kernel", "accelerant_from_potential")]),
    "structured.fundamental": ("z_points", [
        ("weylkit.structured", "fundamental_from_kernel", None)]),
    "structured.disk": ("steps", [
        ("weylkit.structured", "weyl_disk_approx", _disk_steps(4)),
        ("weylkit.structured", "propagate_fundamental", _disk_steps(3))]),
    "gbdt.hamiltonian": ("x_points", [
        ("weylkit.gbdt", name, _x_count)
        for name in ("hamiltonian_grid", "evolve_grid", "hamiltonian_direct")]),
    "gbdt.fundamental": ("xz_points", [
        ("weylkit.gbdt", name, None)
        for name in ("fundamental_direct", "transfer_matrix", "evolve_state")]),
    "gbdt.weyl": ("z_points", [
        ("weylkit.gbdt", "WeylPair.phi", None),
        ("weylkit.gbdt", "WeylPair.phi_hat", None)]),
    "rational.realize": ("calls", [
        ("weylkit.rational", name, None)
        for name in ("realization_from_params", "params_from_realization",
                     "validate_realization", "Realization.phi")]),
    "interpolation.series": ("terms", [
        ("weylkit.interpolation", "interpolate_series",
         lambda a, k, r: _first(a, k, "n_terms", 2) or defaults.SERIES_ORDER)]),
    "io": ("bytes_written", [
        ("weylkit.io", name, _bytes_written if name.startswith(("write", "save")) else "read")
        for name in ("write_grid_csv", "read_grid_csv", "write_kernel_csv",
                     "read_kernel_csv", "write_weyl_samples_csv",
                     "read_weyl_samples_csv", "save_params", "load_params",
                     "save_realization", "load_realization", "save_grid_json",
                     "load_grid_json", "save_kernel_json", "load_kernel_json",
                     "read_lattice_samples", "write_lattice_samples_json")]),
    "cli": ("calls", [("weylkit.cli", "main", None)]),
}

WORK_UNITS = {
    "zx_pairs": "count", "zeta_x_pairs": "count", "matrix_mb": "MB",
    "gflop": "Gflop", "x_points": "count", "z_points": "count", "steps": "count",
    "xz_points": "count", "terms": "count", "bytes_written": "bytes",
}

# accuracy figures that explain a drop in accuracy_digits, in digits
ACCURACY = (
    "structured.factor.residual_digits",
    "fourier.inverse.error_digits",
    "structured.disk.error_digits",
    "gbdt.fundamental.junitary_digits",
    "interpolation.series.error_digits",
)


class Tracer:
    """Span recorder; ``enabled`` is switched on only inside timed jobs."""

    def __init__(self):
        self.names = list(LAYERS)
        self.enabled = False
        self._stack = []                 # [layer index, child time, span index]
        self.layer = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        n = len(self.names)
        self.self_s = [0.0] * n          # per-layer sums over all spans so far
        self.calls = [0] * n
        self.work = [0.0] * n
        self.root_s = 0.0                # time inside outermost spans

    def _wrap(self, idx, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            outer = not stack or stack[-1][0] != idx
            if work == "winv":
                pending = args[0]._winv is None
            span = len(tracer.start)
            tracer.layer.append(idx)
            tracer.parent.append(stack[-1][2] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            frame = [idx, 0.0, span]
            stack.append(frame)
            tracer.start[span] = t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.end[span] = t1
                stack.pop()
                dur = t1 - t0
                tracer.self_s[idx] += dur - frame[1]
                tracer.calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_s += dur
            if outer:
                if work is None:
                    tracer.work[idx] += 1
                elif work == "winv":
                    if pending:
                        tracer.work[idx] += _TRTRI_FLOP * args[0].w.shape[0] ** 3 / 1e9
                elif work != "read":
                    tracer.work[idx] += work(args, kwargs, result)
            return result

        return traced

    def install(self):
        for idx, (_, targets) in enumerate(LAYERS.values()):
            for modname, attr, work in targets:
                module = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, property):
                        setattr(cls, meth, property(self._wrap(idx, orig.fget, work)))
                    else:
                        setattr(cls, meth, self._wrap(idx, orig, work))
                    continue
                orig = getattr(module, attr)
                traced = self._wrap(idx, orig, work)
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] == "weylkit" and getattr(mod, attr, None) is orig:
                        setattr(mod, attr, traced)

    def write(self, path, meta):
        t0 = self.start[0] if len(self.start) else 0.0
        payload = {
            "meta": meta,
            "layers": self.names,
            "span_layer": self.layer.tolist(),
            "span_parent": self.parent.tolist(),
            "span_start_s": [round(t - t0, 9) for t in self.start],
            "span_end_s": [round(t - t0, 9) for t in self.end],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
