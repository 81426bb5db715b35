"""Steady-state heat conduction on a voxel grid.

div(kappa grad T) + q = 0 on the finite-volume operator of `fv`. Each
non-adiabatic outer face is one sink column of its coupling matrix: a
Dirichlet face through the cell half conductance, a Robin face with
1/h in series. The operator is symmetric positive definite as soon as
one boundary face is a heat sink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fv
from .errors import (
    ConfigurationError,
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
    boundary: sparse.csr_matrix  # B: cell-to-sink conductances, one column per sink face
    sink_temps: np.ndarray  # K, one per column of `boundary`
    grid: VoxelGrid
    ambient: float
    cell_volumes_m3: np.ndarray


def _cell_kappa(grid: VoxelGrid, materials: dict[str, Material]) -> np.ndarray:
    kappa_by_code = np.array([lookup(materials, n).kappa for n in grid.material_names])
    if (grid.material < 0).any():
        raise MaterialError("grid has unassigned cells")
    return kappa_by_code[grid.material]


def assemble(grid: VoxelGrid, materials: dict[str, Material], bc: ThermalBC) -> ThermalOperator:
    """Build the conduction operator A with A T = q V + B T_sink."""
    k = _cell_kappa(grid, materials)
    idx = np.arange(grid.n_cells).reshape(grid.dims)
    sinks, temps = [], []
    for j, key in enumerate(FACE_KEYS):
        face = bc.faces[key]
        if face.kind == "adiabatic":
            continue
        axis = j // 2
        sl = [slice(None)] * 3
        sl[axis] = -(j % 2)  # 0 on the low face, -1 on the high face
        cells = idx[tuple(sl)].ravel()
        r_surface = 1.0 / face.h if face.kind == "robin" else 0.0
        g = fv.half_conductance(grid, k, cells, axis, r_surface)
        sinks.append((cells, g, len(temps)))
        temps.append(face.t)
    mat, boundary = fv.assemble(grid, k, np.ones(grid.dims, dtype=bool), sinks, len(temps))
    wx, wy, wz = np.ix_(*(grid.widths(a) * NM for a in range(3)))
    vol = (wx * wy * wz).ravel()
    return ThermalOperator(mat, boundary, np.array(temps), grid, bc.ambient, vol)


def solve_steady(op: ThermalOperator, sources: HeatSourceField,
                 tol: float = 1e-8) -> TemperatureField:
    """Jacobi-preconditioned CG solve; deterministic for fixed inputs."""
    b = op.boundary @ op.sink_temps + sources.q.ravel() * op.cell_volumes_m3
    x0 = np.full(op.matrix.shape[0], op.ambient)
    x = fv.solve_spd(op.matrix, b, tol, op.grid, x0=x0, name="thermal solve")
    return TemperatureField(x.reshape(op.grid.dims), op.ambient)


def delta_t_max(fld: TemperatureField) -> float:
    return float(fld.values.max() - fld.ambient)


def energy_balance(op: ThermalOperator, fld: TemperatureField,
                   sources: HeatSourceField) -> tuple[float, float, float]:
    """(power in, boundary flux out, relative mismatch) for a converged field."""
    p_in = sources.total_power
    # fluxes of the rise over ambient: the same values without cancelling ~300 K
    rise = fld.values.ravel() - op.ambient
    p_out = -float(fv.boundary_flux(op.boundary, rise, op.sink_temps - op.ambient).sum())
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
