"""Steady-state heat conduction on a voxel grid.

div(kappa grad T) + q = 0 on the finite-volume operator of `fv`. Each
outer face carries one heat-transfer coefficient h to the one ambient
temperature, and each face with h > 0 is one sink column of its
coupling matrix: the cell half conductance with 1/h in series, so
h = inf holds the face at ambient. The operator is symmetric positive
definite as soon as one face has h > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from . import fv
from .errors import (
    POSITIVE,
    ConfigurationError,
    RegionNotFoundError,
    SingularSystemError,
    check_rules,
)
from .fv import NM
from .geometry import VoxelGrid
from .materials import Material, per_cell
from .output import atomic_write

FACE_KEYS = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")


@dataclass(frozen=True)
class ThermalBC:
    """Heat-transfer coefficient h per face, W/(m^2 K), to one ambient in K.

    h = 0 is adiabatic, h = inf holds the face at ambient and any other h
    is convective to ambient. Every sink sits at ambient, so the field is
    ambient plus a rise linear in the sources.
    """

    h: dict[str, float]
    ambient: float

    def __post_init__(self):
        if set(self.h) != set(FACE_KEYS):
            raise ConfigurationError(f"BC must cover faces {FACE_KEYS}")
        if not all(h >= 0 for h in self.h.values()):
            raise ConfigurationError(f"h must be >= 0 on every face, got {self.h}")
        check_rules(THERMAL_RULES, {"ambient": self.ambient})
        if not any(self.h.values()):
            raise SingularSystemError("all faces adiabatic: steady problem is singular")


def default_bc(ambient: float = 300.0, top_h: float = 5e4) -> ThermalBC:
    """Substrate bottom held at ambient, weak egress on top."""
    h = dict.fromkeys(FACE_KEYS, 0.0)
    h["z_min"] = math.inf
    h["z_max"] = top_h
    return ThermalBC(h, ambient)


# [thermal] setting or hotspot total_power -> (test, rule stated in the error)
THERMAL_RULES = {
    "ambient": POSITIVE,
    "top_h": (lambda v: v > 0, "must be positive"),  # inf holds the top face at ambient
    "tol": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "concentration": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "total_power": (lambda v: v >= 0, "must be non-negative"),
}


@dataclass
class HeatSourceField:
    q: np.ndarray  # W/m^3 per cell
    grid: VoxelGrid

    def __post_init__(self):
        if self.q.shape != self.grid.dims:
            raise ConfigurationError("source shape does not match grid")
        if not np.all(np.isfinite(self.q)) or (self.q < 0).any():
            raise ConfigurationError("source density must be finite and non-negative")

    @property
    def total_power(self) -> float:
        return float((self.q * self.grid.cell_volumes() * NM**3).sum())


@dataclass
class TemperatureField:
    values: np.ndarray  # K per cell
    ambient: float

    @cached_property
    def reprs(self) -> np.ndarray:
        """`repr(float(v))` of each value as ASCII bytes, in an S25 array
        shaped like `values` (no float's repr is longer than 24 characters).
        It is formatted once for every heatmap written from this field, so
        `values` must not change after the first heatmap."""
        out = np.empty(self.values.shape, dtype="S25")
        for slab, values in zip(out, self.values):  # one x slab of strings at a time
            slab.reshape(-1)[:] = _reprs(values)
        return out


@dataclass
class ThermalOperator:
    matrix: sparse.csr_matrix
    boundary: sparse.csr_matrix  # B: cell-to-sink conductances, one column per sink face
    grid: VoxelGrid
    ambient: float
    cell_volumes_m3: np.ndarray
    precond: sparse.linalg.LinearOperator  # fv.multigrid of `matrix`


def assemble(grid: VoxelGrid, materials: dict[str, Material], bc: ThermalBC) -> ThermalOperator:
    """Build the conduction operator A with A T = q V + B T_sink."""
    k = per_cell(grid, materials, lambda m: m.kappa)
    everywhere = np.ones(grid.dims, dtype=bool)
    sinks, r_sink = [], []  # FACE_KEYS follow the order of fv.outer_faces
    for key, (axis, _, cells) in zip(FACE_KEYS, fv.outer_faces(everywhere)):
        if bc.h[key]:
            sinks.append((axis, cells, len(r_sink)))
            r_sink.append(1.0 / bc.h[key])
    mat, boundary = fv.assemble(grid, k, everywhere, sinks, r_sink)
    wx, wy, wz = fv.widths(grid)
    return ThermalOperator(mat, boundary, grid, bc.ambient, (wx * wy * wz).ravel(),
                           fv.multigrid(mat, everywhere))


def solve_steady(op: ThermalOperator, sources: HeatSourceField,
                 tol: float) -> TemperatureField:
    """CG solve preconditioned by the operator's multigrid; deterministic for
    fixed inputs at a fixed BLAS thread count."""
    ambient = np.full(op.boundary.shape[1], op.ambient)  # every sink
    b = op.boundary @ ambient + sources.q.ravel() * op.cell_volumes_m3
    x0 = np.full(op.matrix.shape[0], op.ambient)
    x = fv.solve_spd(op.matrix, b, tol, op.precond, x0=x0, name="thermal solve")
    return TemperatureField(x.reshape(op.grid.dims), op.ambient)


def delta_t_max(fld: TemperatureField) -> float:
    return float(fld.values.max() - fld.ambient)


def energy_balance(op: ThermalOperator, fld: TemperatureField,
                   sources: HeatSourceField) -> tuple[float, float, float]:
    """(power in, boundary flux out, relative mismatch) for a converged field."""
    p_in = sources.total_power
    # the flux of the rise over ambient into the sinks, without cancelling ~300 K
    rise = fld.values.ravel() - op.ambient
    p_out = float((op.boundary.T @ rise).sum())
    rel = abs(p_in - p_out) / max(abs(p_in), abs(p_out), 1e-30)
    return p_in, p_out, rel


def drain_hotspot_source(grid: VoxelGrid, device_region: str, total_power: float,
                         concentration: float = 0.7) -> HeatSourceField:
    """Deposit power in a channel, biased toward its drain-side half.

    x runs from source to drain (see `geometry`), so the drain-side half
    is the part of the channel above its x midplane. ``concentration`` of
    the power lands uniformly in that half, the rest uniformly in the
    other half. The field integrates to total_power exactly.
    """
    check_rules(THERMAL_RULES, {"total_power": total_power, "concentration": concentration})
    mask = grid.cells_of_label(device_region)
    if not mask.any():
        raise RegionNotFoundError(f"no cells labeled {device_region!r}")

    ix = np.nonzero(mask.any(axis=(1, 2)))[0]
    x_mid = 0.5 * (grid.x_edges[ix[0]] + grid.x_edges[ix[-1] + 1])
    high = grid.centers(0)[:, None, None] > x_mid
    near = mask & high
    far = mask & ~high
    if not near.any() or not far.any():
        raise ConfigurationError(f"channel {device_region!r} too thin to split at midplane")

    vols = grid.cell_volumes() * NM**3
    q = np.zeros(grid.dims)
    q[near] = concentration * total_power / vols[near].sum()
    q[far] = (1.0 - concentration) * total_power / vols[far].sum()
    return HeatSourceField(q, grid)


def export_heatmap(fld: TemperatureField, grid: VoxelGrid, path, fmt: str = "csv"):
    """Write the field as CSV rows or a legacy ASCII VTK structured grid."""
    if fld.values.shape != grid.dims:
        raise ConfigurationError("field and grid dims differ")
    if fmt == "csv":
        chunks = _heatmap_csv(fld, grid)
    elif fmt == "vtk_legacy":
        chunks = _heatmap_vtk(fld, grid)
    else:
        raise ConfigurationError(f"unknown heatmap format {fmt!r}")
    atomic_write(path, chunks)


def _reprs(values: np.ndarray) -> list[str]:
    """`repr(float(v))` of each value in C order."""
    return list(map(repr, values.ravel().tolist()))


def _centers(grid) -> list[list[bytes]]:
    """The `_reprs` of the cell centres along each axis, as ASCII bytes."""
    return [[r.encode() for r in _reprs(grid.centers(a))] for a in range(3)]


# Both writers read the field's `reprs`, so each temperature is formatted
# once however many heatmaps are written; that S25 array lives as long as
# the field. The writers yield one slab of lines at a time as bytes, so
# neither a heatmap nor one Python string per cell sits in memory.

def _heatmap_csv(fld, grid):
    xs, ys, zs = _centers(grid)
    yz = [b"%s,%s," % (y, z) for y in ys for z in zs]  # rows in C order: z varies fastest
    yield b"x_nm,y_nm,z_nm,T_K\n"
    for x, slab in zip(xs, fld.reprs):
        rows = map(bytes.__add__, yz, slab.ravel().tolist())
        yield x + b"," + (b"\n" + x + b",").join(rows) + b"\n"


def _heatmap_vtk(fld, grid):
    nx, ny, nz = grid.dims
    xs, ys, zs = _centers(grid)
    yield ("# vtk DataFile Version 3.0\n"
           "temperature field\n"
           "ASCII\n"
           "DATASET STRUCTURED_GRID\n"
           f"DIMENSIONS {nx} {ny} {nz}\n"
           f"POINTS {nx * ny * nz} double\n").encode()
    # VTK point order: x varies fastest
    for z in zs:
        yield b"".join((s + b"\n").join(xs) + s + b"\n" for s in (b" %s %s" % (y, z) for y in ys))
    yield (f"POINT_DATA {nx * ny * nz}\n"
           "SCALARS temperature double 1\n"
           "LOOKUP_TABLE default\n").encode()
    # the C-order strings through a transposed view: one z slab at a time
    for slab in fld.reprs.transpose():
        yield b"\n".join(slab.ravel().tolist()) + b"\n"
