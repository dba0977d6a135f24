"""Serialization: JSON for parameter sets, CSV for grid data.

Conventions (shared with the CLI): complex scalars are [re, im] pairs of
IEEE-754 doubles in JSON; matrices are row-major nested arrays; the weight
diagonal is a flat real array.  CSV files carry an ``x`` (or ``zeta``)
column followed by ``Re_i_j``/``Im_i_j`` pairs in row-major entry order,
printed with 17 significant digits and '\n' line endings, so identical
inputs serialize byte-identically and round-trip bit-exactly.
"""

import json

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
    "fmt",
]


def fmt(x):
    """Fixed 17-significant-digit decimal form of a float."""
    return format(float(x), ".17g")


def _matrix_to_json(arr):
    arr = np.asarray(arr, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def _matrix_from_json(obj, name):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"{name}: malformed complex matrix") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise StructuralError(f"{name}: expected nested [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def params_to_json(params):
    return {
        "kind": "gbdt_params",
        "n": params.n,
        "p": params.p,
        "d": [float(v) for v in params.d],
        "alpha": _matrix_to_json(params.alpha),
        "lambda1": _matrix_to_json(params.lambda1),
        "lambda2": _matrix_to_json(params.lambda2),
    }


def params_from_json(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "gbdt_params":
        raise StructuralError('expected an object with "kind": "gbdt_params"')
    for key in ("d", "alpha", "lambda1", "lambda2"):
        if key not in obj:
            raise StructuralError(f"missing field {key!r}")
    return GbdtParams(
        d=np.asarray(obj["d"], dtype=float),
        alpha=_matrix_from_json(obj["alpha"], "alpha"),
        lambda1=_matrix_from_json(obj["lambda1"], "lambda1"),
        lambda2=_matrix_from_json(obj["lambda2"], "lambda2"),
    )


def realization_to_json(r):
    return {
        "kind": "realization",
        "n": r.n,
        "p": r.p,
        "d": [float(v) for v in r.d],
        "gamma": _matrix_to_json(r.gamma),
        "psi1_0": _matrix_to_json(r.psi1_0),
        "psi2": _matrix_to_json(r.psi2),
    }


def realization_from_json(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "realization":
        raise StructuralError('expected an object with "kind": "realization"')
    for key in ("d", "gamma", "psi1_0", "psi2"):
        if key not in obj:
            raise StructuralError(f"missing field {key!r}")
    return Realization(
        d=np.asarray(obj["d"], dtype=float),
        gamma=_matrix_from_json(obj["gamma"], "gamma"),
        psi1_0=_matrix_from_json(obj["psi1_0"], "psi1_0"),
        psi2=_matrix_from_json(obj["psi2"], "psi2"),
    )


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


# ---------------------------------------------------------------------------
# CSV


def _entry_header(rows, cols):
    names = []
    for i in range(rows):
        for j in range(cols):
            names.append(f"Re_{i}_{j}")
            names.append(f"Im_{i}_{j}")
    return names


def write_rows(path, labels, xs, values):
    """CSV of a (k, rows, cols) stack: the abscissa columns named by ``labels``
    (one value or one sequence of values per row in ``xs``), then the entries."""
    values = np.asarray(values)
    rows, cols = values.shape[1], values.shape[2]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(list(labels) + _entry_header(rows, cols)) + "\n")
        for x, val in zip(xs, values):
            cells = [fmt(x)] if np.isscalar(x) or np.ndim(x) == 0 else [fmt(v) for v in x]
            for i in range(rows):
                for j in range(cols):
                    cells.append(fmt(val[i, j].real))
                    cells.append(fmt(val[i, j].imag))
            fh.write(",".join(cells) + "\n")


def _read_rows(path, n_abscissa=1):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise StructuralError(f"{path}: empty CSV")
    header = lines[0].split(",")
    entries = header[n_abscissa:]
    if len(entries) % 2:
        raise StructuralError(f"{path}: expected Re/Im column pairs")
    ijs = []
    for name in entries[::2]:
        parts = name.split("_")
        if len(parts) != 3 or parts[0] != "Re":
            raise StructuralError(f"{path}: unexpected column {name!r}")
        ijs.append((int(parts[1]), int(parts[2])))
    rows = max(i for i, _ in ijs) + 1
    cols = max(j for _, j in ijs) + 1
    if len(ijs) != rows * cols:
        raise StructuralError(f"{path}: incomplete entry grid in header")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    if data.shape[1] != n_abscissa + 2 * rows * cols:
        raise StructuralError(f"{path}: row width does not match header")
    xs = data[:, :n_abscissa]
    flat = data[:, n_abscissa::2] + 1j * data[:, n_abscissa + 1::2]
    values = flat.reshape(-1, rows, cols)
    return xs, values


def write_grid_csv(path, grid, xlabel="x"):
    write_rows(path, [xlabel], grid.xs, grid.values)


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


# ---------------------------------------------------------------------------
# JSON forms of grid data


def _stack_to_json(values):
    return [_matrix_to_json(v) for v in values]


def _stack_from_json(obj, name):
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 4 or arr.shape[3] != 2:
        raise StructuralError(f"{name}: expected a list of complex matrices")
    return arr[:, :, :, 0] + 1j * arr[:, :, :, 1]


def grid_to_json(grid):
    return {"kind": "grid_function", "h": float(grid.h), "x0": float(grid.x0),
            "values": _stack_to_json(grid.values)}


def grid_from_json(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "grid_function":
        raise StructuralError('expected an object with "kind": "grid_function"')
    return GridFunction(h=float(obj["h"]), x0=float(obj.get("x0", 0.0)),
                        values=_stack_from_json(obj["values"], "values"))


def kernel_to_json(kernel):
    return {"kind": "difference_kernel", "p": kernel.p, "h": float(kernel.h),
            "samples": _stack_to_json(kernel.samples)}


def kernel_from_json(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "difference_kernel":
        raise StructuralError('expected an object with "kind": "difference_kernel"')
    return DifferenceKernel(p=int(obj["p"]), h=float(obj["h"]),
                            samples=_stack_from_json(obj["samples"], "samples"))


def save_grid_json(path, grid):
    _dump_json(path, grid_to_json(grid))


def load_grid_json(path):
    return grid_from_json(_load_json(path))


def save_kernel_json(path, kernel):
    _dump_json(path, kernel_to_json(kernel))


def load_kernel_json(path):
    return kernel_from_json(_load_json(path))


def read_lattice_samples(path):
    """Interpolation samples from CSV (q, Re/Im entries) or JSON."""
    path = str(path)
    if path.endswith(".json"):
        obj = _load_json(path)
        if not isinstance(obj, dict) or obj.get("kind") != "lattice_samples":
            raise StructuralError('expected an object with "kind": "lattice_samples"')
        return _stack_from_json(obj["samples"], "samples")
    qs, values = _read_rows(path)
    order = np.argsort(qs[:, 0])
    return values[order]


def write_lattice_samples_json(path, samples):
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[:, None, None]
    _dump_json(path, {"kind": "lattice_samples",
                      "samples": _stack_to_json(samples)})
