"""Steady-state heat conduction on a voxel grid.

Finite-volume 7-point stencil for div(kappa grad T) + q = 0. The face
conductance between two cells is A / (d1/k1 + d2/k2) with d the
center-to-face distances, which is exact for layered media and reduces
to the harmonic mean on a uniform grid. The operator is symmetric
positive definite as soon as one boundary face is a heat sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import (
    ConfigurationError,
    ConvergenceError,
    MaterialError,
    RegionNotFoundError,
    SingularSystemError,
)
from .geometry import VoxelGrid
from .materials import Material, lookup
from .output import atomic_write

NM = 1e-9  # nm to m

FACE_KEYS = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")


@dataclass(frozen=True)
class FaceBC:
    kind: str  # dirichlet | adiabatic | robin
    t: float = 300.0  # K: fixed temperature (dirichlet) or far-field (robin)
    h: float = 0.0  # W/(m^2 K), robin only

    def __post_init__(self):
        if self.kind not in ("dirichlet", "adiabatic", "robin"):
            raise ConfigurationError(f"unknown BC kind {self.kind!r}")
        if self.kind == "robin" and not self.h > 0:
            raise ConfigurationError("robin BC needs h > 0")


@dataclass(frozen=True)
class ThermalBC:
    faces: dict[str, FaceBC]

    def __post_init__(self):
        if set(self.faces) != set(FACE_KEYS):
            raise ConfigurationError(f"BC must cover faces {FACE_KEYS}")
        if all(f.kind == "adiabatic" for f in self.faces.values()):
            raise SingularSystemError("all faces adiabatic: steady problem is singular")

    @property
    def ambient(self) -> float:
        return min(f.t for f in self.faces.values() if f.kind != "adiabatic")


def default_bc(ambient: float = 300.0, top_h: float = 5e4) -> ThermalBC:
    """Substrate bottom as a fixed-temperature sink, weak egress on top."""
    faces = {k: FaceBC("adiabatic") for k in FACE_KEYS}
    faces["z_min"] = FaceBC("dirichlet", t=ambient)
    faces["z_max"] = FaceBC("robin", t=ambient, h=top_h)
    return ThermalBC(faces)


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


@dataclass
class ThermalOperator:
    matrix: sparse.csr_matrix
    bc_rhs: np.ndarray
    grid: VoxelGrid
    ambient: float
    cell_volumes_m3: np.ndarray
    # sink faces for the energy balance: (flat cell indices, conductances, fixed temps)
    sinks: list[tuple[np.ndarray, np.ndarray, float]] = field(default_factory=list)


def _cell_kappa(grid: VoxelGrid, materials: dict[str, Material]) -> np.ndarray:
    kappa_by_code = np.array([lookup(materials, n).kappa for n in grid.material_names])
    if (grid.material < 0).any():
        raise MaterialError("grid has unassigned cells")
    return kappa_by_code[grid.material]


def assemble(grid: VoxelGrid, materials: dict[str, Material], bc: ThermalBC) -> ThermalOperator:
    """Build the conduction operator A with A T = q V + bc_rhs."""
    nx, ny, nz = grid.dims
    n = grid.n_cells
    k = _cell_kappa(grid, materials)
    w = [grid.widths(a) * NM for a in range(3)]
    vol = (w[0][:, None, None] * w[1][None, :, None] * w[2][None, None, :]).ravel()
    idx = np.arange(n).reshape(grid.dims)

    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    bc_rhs = np.zeros(n)
    sinks = []

    def add_pairs(i_lo, i_hi, g):
        g = g.ravel()
        lo = i_lo.ravel()
        hi = i_hi.ravel()
        rows.extend((lo, hi))
        cols.extend((hi, lo))
        vals.extend((-g, -g))
        np.add.at(diag, lo, g)
        np.add.at(diag, hi, g)

    for axis in range(3):
        wa = w[axis]
        area = _face_area(w, axis)
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[axis] = slice(0, -1)
        sl_hi[axis] = slice(1, None)
        k_lo, k_hi = k[tuple(sl_lo)], k[tuple(sl_hi)]
        d_lo = _along(wa[:-1] / 2, axis, k_lo.shape)
        d_hi = _along(wa[1:] / 2, axis, k_hi.shape)
        g = area / (d_lo / k_lo + d_hi / k_hi)
        add_pairs(idx[tuple(sl_lo)], idx[tuple(sl_hi)], g)

        for side, key in ((0, FACE_KEYS[2 * axis]), (-1, FACE_KEYS[2 * axis + 1])):
            face = bc.faces[key]
            if face.kind == "adiabatic":
                continue
            sl = [slice(None)] * 3
            sl[axis] = side
            k_b = k[tuple(sl)]
            d_b = wa[side] / 2
            area_b = _boundary_area(w, axis)
            if face.kind == "dirichlet":
                g_b = area_b / (d_b / k_b)
            else:
                g_b = area_b / (d_b / k_b + 1.0 / face.h)
            cells = idx[tuple(sl)].ravel()
            g_flat = g_b.ravel()
            np.add.at(diag, cells, g_flat)
            np.add.at(bc_rhs, cells, g_flat * face.t)
            sinks.append((cells, g_flat, face.t))

    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return ThermalOperator(mat, bc_rhs, grid, bc.ambient, vol, sinks)


def _along(arr, axis, shape):
    view = [None, None, None]
    view[axis] = slice(None)
    return np.broadcast_to(arr[tuple(view)], shape)


def _face_area(w, axis):
    others = [a for a in range(3) if a != axis]
    a, b = others
    shape = [len(w[0]), len(w[1]), len(w[2])]
    shape[axis] -= 1
    area = np.ones(tuple(shape))
    area = area * _along(w[a], a, tuple(shape))
    area = area * _along(w[b], b, tuple(shape))
    return area


def _boundary_area(w, axis):
    a, b = (x for x in range(3) if x != axis)
    return np.multiply.outer(w[a], w[b])


def solve_steady(op: ThermalOperator, sources: HeatSourceField,
                 tol: float = 1e-8, max_iter: int | None = None) -> TemperatureField:
    """Jacobi-preconditioned CG solve; deterministic for fixed inputs."""
    b = op.bc_rhs + sources.q.ravel() * op.cell_volumes_m3
    if max_iter is None:
        max_iter = 50 * max(op.grid.dims)
    d = op.matrix.diagonal()
    precond = spla.LinearOperator(op.matrix.shape, matvec=lambda v: v / d)
    x0 = np.full(op.matrix.shape[0], op.ambient)
    x, info = spla.cg(op.matrix, b, x0=x0, rtol=tol, atol=0.0,
                      maxiter=max_iter, M=precond)
    if info != 0:
        resid = float(np.linalg.norm(b - op.matrix @ x) / max(np.linalg.norm(b), 1e-300))
        raise ConvergenceError(
            f"thermal solve stalled after {max_iter} iterations", residual=resid)
    return TemperatureField(x.reshape(op.grid.dims), op.ambient)


def delta_t_max(fld: TemperatureField) -> float:
    return float(fld.values.max() - fld.ambient)


def energy_balance(op: ThermalOperator, fld: TemperatureField,
                   sources: HeatSourceField) -> tuple[float, float, float]:
    """(power in, boundary flux out, relative mismatch) for a converged field."""
    p_in = sources.total_power
    t = fld.values.ravel()
    p_out = sum(float((g * (t[cells] - t_fix)).sum()) for cells, g, t_fix in op.sinks)
    rel = abs(p_in - p_out) / max(abs(p_in), abs(p_out), 1e-30)
    return p_in, p_out, rel


def drain_hotspot_source(grid: VoxelGrid, device_region: str, total_power: float,
                         concentration: float = 0.7) -> HeatSourceField:
    """Deposit power in a channel, biased toward its drain-side half.

    ``concentration`` of the power lands uniformly in the half of the
    channel nearer the drain, the rest uniformly in the other half. The
    field integrates to total_power exactly.
    """
    if total_power < 0:
        raise ConfigurationError("total_power must be non-negative")
    if not 0 < concentration <= 1:
        raise ConfigurationError("concentration must be in (0, 1]")
    mask = grid.cells_of_label(device_region)
    if not mask.any():
        raise RegionNotFoundError(f"no cells labeled {device_region!r}")

    xc = grid.centers(0)
    ix = np.nonzero(mask.any(axis=(1, 2)))[0]
    x_mid = 0.5 * (grid.x_edges[ix[0]] + grid.x_edges[ix[-1] + 1])

    drain_side_high = True
    drain_label = device_region.replace(".channel", ".drain")
    if drain_label != device_region and grid.label_code(drain_label) >= 0:
        dmask = grid.cells_of_label(drain_label)
        jx = np.nonzero(dmask.any(axis=(1, 2)))[0]
        drain_side_high = xc[jx].mean() > x_mid

    high = xc[:, None, None] > x_mid
    near = mask & (high if drain_side_high else ~high)
    far = mask & ~ (high if drain_side_high else ~high)
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


def _reprs(values: np.ndarray):
    """`repr(float(v))` of each value in C order, as a lazy iterator."""
    return map(repr, values.ravel().tolist())


# The writers yield one slab of lines at a time, so a heatmap never sits
# in memory as one string or as one Python object per cell.

def _heatmap_csv(fld, grid):
    xs, ys, zs = (list(_reprs(grid.centers(a))) for a in range(3))
    zs = [f"{z}," for z in zs]
    yield "x_nm,y_nm,z_nm,T_K\n"
    # rows in C order: z varies fastest
    for x, slab in zip(xs, fld.values):
        rows = map(str.__add__, (f"{x},{y},{z}" for y in ys for z in zs), _reprs(slab))
        yield "\n".join(rows) + "\n"


def _heatmap_vtk(fld, grid):
    nx, ny, nz = grid.dims
    xs, ys, zs = (list(_reprs(grid.centers(a))) for a in range(3))
    yield ("# vtk DataFile Version 3.0\n"
           "temperature field\n"
           "ASCII\n"
           "DATASET STRUCTURED_GRID\n"
           f"DIMENSIONS {nx} {ny} {nz}\n"
           f"POINTS {nx * ny * nz} double\n")
    # VTK point order: x varies fastest
    for z in zs:
        yz = [f" {y} {z}" for y in ys]
        yield "\n".join(x + p for p in yz for x in xs) + "\n"
    yield (f"POINT_DATA {nx * ny * nz}\n"
           "SCALARS temperature double 1\n"
           "LOOKUP_TABLE default\n")
    for slab in fld.values.transpose():
        yield "\n".join(_reprs(slab)) + "\n"


def parse_heatmap_csv(path) -> np.ndarray:
    """Columns (x, y, z, T) back from a CSV heatmap, row order preserved."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return np.atleast_2d(data)
