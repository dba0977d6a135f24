"""Serialization: JSON for parameter sets, CSV for grid data.

Conventions (shared with the CLI): complex scalars are [re, im] pairs of
IEEE-754 doubles in JSON; matrices are row-major nested arrays; the weight
diagonal is a flat real array.  CSV files carry an ``x`` (or ``zeta``)
column followed by ``Re_i_j``/``Im_i_j`` pairs in row-major entry order,
printed with 17 significant digits and '\n' line endings, so identical
inputs serialize byte-identically.  A reader requires exactly that entry
header.  Both formats round-trip bit-exactly, signed zeros included.  A
malformed file (no data rows, an unparsable cell, a ragged row, a missing
field) raises ``StructuralError`` naming the file or the field.
"""

import json
import re

import numpy as np

from .exceptions import StructuralError
from .gbdt import GbdtParams
from .grids import DifferenceKernel, GridFunction
from .rational import Realization

__all__ = [
    "params_to_json",
    "params_from_json",
    "realization_to_json",
    "realization_from_json",
    "load_params",
    "save_params",
    "load_realization",
    "save_realization",
    "write_grid_csv",
    "read_grid_csv",
    "write_kernel_csv",
    "read_kernel_csv",
    "write_weyl_samples_csv",
    "read_weyl_samples_csv",
    "grid_to_json",
    "grid_from_json",
    "kernel_to_json",
    "kernel_from_json",
    "save_grid_json",
    "load_grid_json",
    "save_kernel_json",
    "load_kernel_json",
    "read_lattice_samples",
    "write_lattice_samples_json",
    "write_rows",
]


# ---------------------------------------------------------------------------
# JSON


def _complex_to_json(arr):
    """Nested [re, im] pairs of a complex array of any rank."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def _complex_from_json(rank):
    """Reader of a rank-``rank`` complex array held as nested [re, im] pairs."""
    def read(obj):
        arr = np.asarray(obj, dtype=float)
        if arr.ndim != rank + 1 or arr.shape[-1] != 2:
            raise ValueError(f"expected a rank-{rank} array of [re, im] pairs")
        return np.ascontiguousarray(arr).view(complex)[..., 0]
    return read


def _real_from_json(obj):
    return np.asarray(obj, dtype=float)


def _fields(obj, kind, **readers):
    """The fields of a JSON object of this kind, each through its reader; a
    wrong kind, a missing field or a reader's failure is a StructuralError."""
    if not isinstance(obj, dict) or obj.get("kind") != kind:
        raise StructuralError(f'expected an object with "kind": "{kind}"')
    out = {}
    for key, read in readers.items():
        if key not in obj:
            raise StructuralError(f"{kind}: missing field {key!r}")
        try:
            out[key] = read(obj[key])
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"{kind}: field {key!r}: {exc}") from exc
    return out


def params_to_json(params):
    return {
        "kind": "gbdt_params",
        "n": params.n,
        "p": params.p,
        "d": np.asarray(params.d, dtype=float).tolist(),
        "alpha": _complex_to_json(params.alpha),
        "lambda1": _complex_to_json(params.lambda1),
        "lambda2": _complex_to_json(params.lambda2),
    }


def params_from_json(obj):
    return GbdtParams(**_fields(obj, "gbdt_params", d=_real_from_json,
                                alpha=_complex_from_json(2), lambda1=_complex_from_json(2),
                                lambda2=_complex_from_json(2)))


def realization_to_json(r):
    return {
        "kind": "realization",
        "n": r.n,
        "p": r.p,
        "d": np.asarray(r.d, dtype=float).tolist(),
        "gamma": _complex_to_json(r.gamma),
        "psi1_0": _complex_to_json(r.psi1_0),
        "psi2": _complex_to_json(r.psi2),
    }


def realization_from_json(obj):
    return Realization(**_fields(obj, "realization", d=_real_from_json,
                                 gamma=_complex_from_json(2), psi1_0=_complex_from_json(2),
                                 psi2=_complex_from_json(2)))


def grid_to_json(grid):
    return {"kind": "grid_function", "h": float(grid.h), "x0": float(grid.x0),
            "values": _complex_to_json(grid.values)}


def grid_from_json(obj):
    if isinstance(obj, dict):
        obj = {"x0": 0.0, **obj}     # x0 is optional
    return GridFunction(**_fields(obj, "grid_function", h=float, x0=float,
                                  values=_complex_from_json(3)))


def kernel_to_json(kernel):
    return {"kind": "difference_kernel", "p": kernel.p, "h": float(kernel.h),
            "samples": _complex_to_json(kernel.samples)}


def kernel_from_json(obj):
    return DifferenceKernel(**_fields(obj, "difference_kernel", p=int, h=float,
                                      samples=_complex_from_json(3)))


def _dump_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: invalid JSON ({exc})") from exc


def save_params(path, params):
    _dump_json(path, params_to_json(params))


def load_params(path):
    return params_from_json(_load_json(path))


def save_realization(path, r):
    _dump_json(path, realization_to_json(r))


def load_realization(path):
    return realization_from_json(_load_json(path))


def save_grid_json(path, grid):
    _dump_json(path, grid_to_json(grid))


def load_grid_json(path):
    return grid_from_json(_load_json(path))


def save_kernel_json(path, kernel):
    _dump_json(path, kernel_to_json(kernel))


def load_kernel_json(path):
    return kernel_from_json(_load_json(path))


# ---------------------------------------------------------------------------
# CSV


def _entry_header(rows, cols):
    return [f"{part}_{i}_{j}" for i in range(rows) for j in range(cols)
            for part in ("Re", "Im")]


def _write_table(path, names, table):
    """CSV of a real (k, len(names)) table, each cell with 17 significant digits."""
    k, ncols = table.shape
    row = ",".join(["%.17g"] * ncols) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.write((row * k) % tuple(table.ravel().tolist()))


def write_rows(path, labels, xs, values):
    """CSV of a (k, rows, cols) stack: the abscissa columns named by ``labels``
    (one value or one sequence of values per row in ``xs``), then the entries."""
    values = np.ascontiguousarray(values, dtype=complex)
    k, rows, cols = values.shape
    labels = list(labels)
    table = np.hstack([np.asarray(xs, dtype=float).reshape(k, len(labels)),
                       values.view(float).reshape(k, 2 * rows * cols)])
    _write_table(path, labels + _entry_header(rows, cols), table)


def _read_rows(path, n_abscissa=1):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise StructuralError(f"{path}: no data rows")
    header = lines[0].split(",")
    last = re.fullmatch(r"Im_(\d+)_(\d+)", header[-1])
    rows, cols = (int(last[1]) + 1, int(last[2]) + 1) if last else (0, 0)
    if not last or header[n_abscissa:] != _entry_header(rows, cols):
        raise StructuralError(
            f"{path}: the entry columns must be Re_i_j, Im_i_j pairs in row-major order")
    cells = [ln.split(",") for ln in lines[1:]]
    ragged = [n for n, row in enumerate(cells, start=1) if len(row) != len(header)]
    if ragged:
        raise StructuralError(f"{path}: data row {ragged[0]} does not have {len(header)} cells")
    try:
        data = np.array(cells, dtype=float)
    except ValueError as exc:
        raise StructuralError(f"{path}: unparsable cell ({exc})") from exc
    values = data[:, n_abscissa:].copy().view(complex).reshape(-1, rows, cols)
    return data[:, :n_abscissa], values


def write_grid_csv(path, grid):
    write_rows(path, ["x"], grid.xs, grid.values)


def read_grid_csv(path):
    xs, values = _read_rows(path)
    xs = xs[:, 0]
    if xs.size < 2:
        raise StructuralError(f"{path}: need at least two grid rows")
    h = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), h, rtol=0, atol=1e-9 * max(1.0, abs(h))):
        raise StructuralError(f"{path}: grid is not uniform")
    return GridFunction(h=h, values=values, x0=float(xs[0]))


def write_kernel_csv(path, kernel):
    write_rows(path, ["x"], kernel.xs, kernel.samples)


def read_kernel_csv(path):
    grid = read_grid_csv(path)
    if grid.rows != grid.cols:
        raise StructuralError(f"{path}: kernel blocks must be square")
    if abs(grid.x0 - grid.h / 2.0) > 1e-9 * max(1.0, grid.h):
        raise StructuralError(f"{path}: kernel samples must sit on the midpoint grid")
    return DifferenceKernel(p=grid.rows, h=grid.h, samples=grid.values)


def write_weyl_samples_csv(path, zetas, values):
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None, None]
    write_rows(path, ["zeta"], np.asarray(zetas, dtype=float), values)


def read_weyl_samples_csv(path):
    xs, values = _read_rows(path)
    return xs[:, 0], values


def read_lattice_samples(path):
    """Interpolation samples from CSV (q, Re/Im entries) or JSON."""
    path = str(path)
    if path.endswith(".json"):
        return _fields(_load_json(path), "lattice_samples",
                       samples=_complex_from_json(3))["samples"]
    qs, values = _read_rows(path)
    order = np.argsort(qs[:, 0])
    return values[order]


def write_lattice_samples_json(path, samples):
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[:, None, None]
    _dump_json(path, {"kind": "lattice_samples", "samples": _complex_to_json(samples)})
