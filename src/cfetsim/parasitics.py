"""Field-solver parasitic extraction over a voxelized cell.

Both solves use the finite-volume operator of `fv`, with each conductor
or terminal as one fixed-value column of its coupling matrix.

Capacitance: one Laplace solve per conductor with that conductor at 1 V
and the rest grounded, zero normal flux on the outer boundary (optionally
a grounded shield). The Dirichlet value sits on the conductor surface, so
a plate gap meshed into k uniform cells reproduces eps A / d exactly up
to fringing. Charges are the boundary fluxes of the same discrete
operator (Gauss summation), which keeps the Maxwell matrix symmetric
to solver precision. Conductor-role cells that are not in the extraction
set (floating metal) are treated as a very high permittivity dielectric.

Resistance: a conduction Laplace solve inside one conductor with the two
terminals held at fixed potential on their faces; R is the applied volt
over the through current.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.sparse import linalg as spla

from . import fv
from .circuit import Capacitor, Netlist, Resistor
from .errors import (
    ComparisonError,
    ConnectivityError,
    ConvergenceError,
    GeometryError,
    RegionNotFoundError,
)
from .geometry import VoxelGrid, locate_conductors
from .materials import Material, lookup

EPS0 = 8.8541878128e-12  # F/m
FLOATING_METAL_EPS = 1000.0  # quasi-equipotential stand-in for unlisted metal
MAXWELL_RTOL = 1e-9  # symmetry and coupling-sign tolerance, relative to the largest entry

# face sets are (flat cell index, axis, side) with side 0 = low face
Face = tuple[int, int, int]


@dataclass
class CapacitanceMatrix:
    names: list[str]
    c: np.ndarray  # F, Maxwell sign convention
    asymmetry: float = 0.0  # largest relative asymmetry before averaging
    clipped: float = 0.0  # largest positive coupling set to 0, relative

    def __post_init__(self):
        n = len(self.names)
        if self.c.shape != (n, n):
            raise GeometryError("capacitance matrix shape mismatch")
        scale = float(np.abs(self.c).max()) or 1.0
        if np.abs(self.c - self.c.T).max() > MAXWELL_RTOL * scale:
            raise GeometryError("capacitance matrix not symmetric")
        if (np.diag(self.c) <= 0).any():
            raise GeometryError("capacitance diagonal must be positive")
        off = self.c - np.diag(np.diag(self.c))
        if (off > MAXWELL_RTOL * scale).any():
            raise GeometryError("off-diagonal couplings must be non-positive")
        if (self.c.sum(axis=1) < -1e-6 * scale).any():
            raise GeometryError("row sums must be non-negative")

    def coupling(self, a: str, b: str) -> float:
        return float(self.c[self.names.index(a), self.names.index(b)])

    def to_csv(self) -> str:
        lines = ["conductor," + ",".join(self.names)]
        for i, name in enumerate(self.names):
            lines.append(name + "," + ",".join(repr(float(v)) for v in self.c[i]))
        return "\n".join(lines) + "\n"


@dataclass
class ResistanceEntry:
    node_a: str
    node_b: str
    r: float  # Ohm
    mismatch: float = 0.0  # relative terminal current imbalance

    def __post_init__(self):
        if not self.r > 0:
            raise GeometryError(f"resistance {self.node_a}-{self.node_b} must be positive")


@dataclass
class ResistanceReport:
    entries: list[ResistanceEntry]

    def to_csv(self) -> str:
        lines = ["node_a,node_b,r_ohm"]
        lines.extend(f"{e.node_a},{e.node_b},{float(e.r)!r}" for e in self.entries)
        return "\n".join(lines) + "\n"


def _cell_eps(grid: VoxelGrid, materials: dict[str, Material]) -> np.ndarray:
    """Permittivity per cell in F/m; conductors in the set are excluded later."""
    eps = np.empty(grid.dims)
    for code, name in enumerate(grid.material_names):
        mat = lookup(materials, name)
        value = FLOATING_METAL_EPS if mat.role == "conductor" else mat.eps_r
        eps[grid.material == code] = value * EPS0
    return eps


def extract_capacitance(grid: VoxelGrid, materials: dict[str, Material],
                        conductors: list[str], tol: float = 1e-10,
                        shield: bool = False) -> CapacitanceMatrix:
    """Maxwell capacitance matrix among named conductor labels."""
    if len(conductors) < 2 and not shield:
        raise GeometryError("need at least two conductors (or a grounded shield)")
    located = locate_conductors(grid)
    for name in conductors:
        if name not in located:
            raise RegionNotFoundError(f"conductor {name!r} not on grid")

    nrhs = len(conductors)
    cond_id = np.full(grid.n_cells, -1, dtype=np.int32)
    for ci, name in enumerate(conductors):
        cells = located[name]
        if (cond_id[cells] >= 0).any():
            raise GeometryError(f"conductor {name!r} overlaps another conductor")
        cond_id[cells] = ci
    cond_id = cond_id.reshape(grid.dims)
    domain = cond_id < 0
    eps = _cell_eps(grid, materials)
    idx = np.arange(grid.n_cells).reshape(grid.dims)

    # Dirichlet on each conductor face, column = conductor; column nrhs is
    # the grounded shield on the outer boundary
    fixed = []
    for axis in range(3):
        lo, hi = fv.face_pairs(axis)
        for inner, outer in ((lo, hi), (hi, lo)):
            m = domain[inner] & ~domain[outer]
            cells = idx[inner][m]
            fixed.append((cells, fv.half_conductance(grid, eps, cells, axis),
                          cond_id[outer][m]))
        if shield:
            for side in (0, -1):
                sl = [slice(None)] * 3
                sl[axis] = side
                cells = idx[tuple(sl)][domain[tuple(sl)]]
                fixed.append((cells, fv.half_conductance(grid, eps, cells, axis), nrhs))
    mat, coupling = fv.assemble(grid, eps, domain, fixed, nrhs + 1)

    phi_fixed = np.eye(nrhs + 1, nrhs)  # solve i: conductor i at 1 V, all else at 0
    rhs = coupling @ phi_fixed
    phi = np.column_stack([
        fv.solve_spd(mat, rhs[:, i], tol, grid, name=f"capacitance solve {name}")
        for i, name in enumerate(conductors)])
    # Gauss sums: c_raw[i, j] is the charge on conductor j in solve i
    c_raw = fv.boundary_flux(coupling, phi, phi_fixed)[:nrhs].T

    sym = 0.5 * (c_raw + c_raw.T)
    scale = np.abs(sym).max() or 1.0
    asym = float(np.abs(c_raw - c_raw.T).max() / scale)
    positive = ~np.eye(nrhs, dtype=bool) & (sym > 0)
    clipped = float(sym[positive].max(initial=0.0) / scale)
    if clipped > MAXWELL_RTOL:
        raise ConvergenceError(
            f"capacitance solves left a positive coupling of {clipped:.3g} "
            "of the largest entry")
    sym[positive] = 0.0  # solver-noise positives
    return CapacitanceMatrix(list(conductors), sym, asymmetry=asym, clipped=clipped)


def boundary_port_faces(grid: VoxelGrid, label: str) -> list[Face]:
    """Faces of a labeled conductor that lie on the outer grid boundary."""
    mask = grid.cells_of_label(label)
    if not mask.any():
        raise RegionNotFoundError(f"no cells labeled {label!r}")
    faces = []
    flat = np.arange(grid.n_cells).reshape(grid.dims)
    for axis in range(3):
        for side, index in ((0, 0), (1, -1)):
            sl = [slice(None)] * 3
            sl[axis] = index
            m = mask[tuple(sl)]
            faces.extend((int(c), axis, side) for c in flat[tuple(sl)][m])
    return faces


def contact_faces(grid: VoxelGrid, label: str, target_labels: list[str]) -> list[Face]:
    """Faces where the conductor touches any of the target labels."""
    mask = grid.cells_of_label(label)
    tmask = np.zeros(grid.dims, dtype=bool)
    for t in target_labels:
        tmask |= grid.cells_of_label(t)
    faces = []
    flat = np.arange(grid.n_cells).reshape(grid.dims)
    for axis in range(3):
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[axis] = slice(0, -1)
        sl_hi[axis] = slice(1, None)
        m_lo = mask[tuple(sl_lo)] & tmask[tuple(sl_hi)]
        m_hi = mask[tuple(sl_hi)] & tmask[tuple(sl_lo)]
        faces.extend((int(c), axis, 1) for c in flat[tuple(sl_lo)][m_lo])
        faces.extend((int(c), axis, 0) for c in flat[tuple(sl_hi)][m_hi])
    return faces


def inverter_terminals(grid: VoxelGrid, wired: tuple[int, int]) -> dict[str, list[Face]]:
    """Port and device-end terminals for the four rails of a wired pair."""
    p_tier, n_tier = wired
    tiers = [p_tier, n_tier]
    terms = {
        "Input": boundary_port_faces(grid, "Input"),
        "Gate": contact_faces(grid, "Input", [f"tier{i}.gate" for i in tiers]),
        "Output": boundary_port_faces(grid, "Output"),
        "Drain": contact_faces(grid, "Output", [f"tier{i}.drain" for i in tiers]),
        "Power": boundary_port_faces(grid, "Power"),
        "PSource": contact_faces(grid, "Power", [f"tier{p_tier}.source"]),
        "Ground": boundary_port_faces(grid, "Ground"),
        "NSource": contact_faces(grid, "Ground", [f"tier{n_tier}.source"]),
    }
    for name, faces in terms.items():
        if not faces:
            raise ConnectivityError(f"terminal {name!r} has no contact faces")
    return terms


DEFAULT_PAIRS = (("Ground", "NSource"), ("PSource", "Power"),
                 ("Input", "Gate"), ("Output", "Drain"))


def extract_resistance(grid: VoxelGrid, materials: dict[str, Material],
                       pairs=DEFAULT_PAIRS,
                       terminals: dict[str, list[Face]] | None = None) -> ResistanceReport:
    """Terminal-pair resistances solved inside each conductor volume."""
    if terminals is None:
        raise ConnectivityError("terminal face sets are required")
    label_flat = grid.label.ravel()
    entries = []
    for a, b in pairs:
        for t in (a, b):
            if t not in terminals:
                raise ConnectivityError(f"unknown terminal {t!r}")
        cells_a = {c for c, _, _ in terminals[a]}
        cells_b = {c for c, _, _ in terminals[b]}
        labels = {int(label_flat[c]) for c in cells_a | cells_b}
        if len(labels) != 1:
            raise ConnectivityError(f"terminals {a}/{b} span different conductors")
        label_name = grid.label_names[labels.pop()]
        r, mism = _conduction_solve(grid, materials, label_name,
                                    terminals[a], terminals[b])
        entries.append(ResistanceEntry(a, b, r, mism))
    return ResistanceReport(entries)


def _conduction_solve(grid, materials, label_name, faces_a, faces_b):
    mask = grid.cells_of_label(label_name)
    rho = np.empty(grid.dims)
    for code, name in enumerate(grid.material_names):
        mat = lookup(materials, name)
        rho[grid.material == code] = mat.rho_e if mat.role == "conductor" else np.inf
    if not np.isfinite(rho[mask]).all():
        raise ConnectivityError(f"conductor {label_name!r} has non-metal cells")

    parts, _ = ndimage.label(mask, structure=ndimage.generate_binary_structure(3, 1))
    part_a = {int(parts.ravel()[c]) for c, _, _ in faces_a}
    part_b = {int(parts.ravel()[c]) for c, _, _ in faces_b}
    if part_a != part_b or len(part_a) != 1 or 0 in part_a:
        raise ConnectivityError(
            f"terminals on {label_name!r} are not on one connected component")

    sigma = np.where(mask, 1.0 / rho, 1.0)  # 1 keeps faces off the conductor finite
    fixed = []
    for column, faces in enumerate((faces_a, faces_b)):
        f = np.array(faces, dtype=np.int64).reshape(-1, 3)
        for axis in range(3):
            cells = f[f[:, 1] == axis, 0]
            fixed.append((cells, fv.half_conductance(grid, sigma, cells, axis), column))
    mat, coupling = fv.assemble(grid, sigma, mask, fixed, 2)
    v_fixed = np.array([1.0, 0.0])
    phi = spla.spsolve(mat, coupling @ v_fixed)
    currents = fv.boundary_flux(coupling, phi, v_fixed)
    i_a, i_b = currents[0], -currents[1]
    i_mean = 0.5 * (i_a + i_b)
    if not i_mean > 0:
        raise ConnectivityError("no current flows between the terminals")
    return 1.0 / i_mean, abs(i_a - i_b) / i_mean


def to_netlist(cmatrix: CapacitanceMatrix, rreport: ResistanceReport,
               node_map: dict[str, str] | None = None,
               floor: float = 1e-21) -> tuple[Netlist, list[tuple[str, float]]]:
    """Two-terminal elements from the extraction, couplings below floor pruned."""
    node_map = node_map or {}
    rename = lambda n: node_map.get(n, n)
    elements = []
    pruned = []
    names_seen = set()
    for i, a in enumerate(cmatrix.names):
        for j in range(i + 1, len(cmatrix.names)):
            b = cmatrix.names[j]
            value = -float(cmatrix.c[i, j])
            name = f"C_{a}_{b}"
            if value < floor:
                pruned.append((name, value))
                continue
            elements.append(Capacitor(name, rename(a), rename(b), value))
    for e in rreport.entries:
        name = f"R_{e.node_a}_{e.node_b}"
        elements.append(Resistor(name, rename(e.node_a), rename(e.node_b), e.r))
    elements.sort(key=lambda el: (type(el).__name__, el.name))
    for el in elements:
        if el.name in names_seen:
            raise GeometryError(f"duplicate element name {el.name!r}")
        names_seen.add(el.name)
    return Netlist(elements), pruned


@dataclass
class RatioRow:
    element: str
    base: float
    variant: float

    @property
    def ratio(self) -> float:
        return self.variant / self.base


@dataclass
class RatioTable:
    rows: list[RatioRow]
    missing: list[str] = field(default_factory=list)

    def ratio_of(self, element: str) -> float:
        for row in self.rows:
            if row.element == element:
                return row.ratio
        raise ComparisonError(f"no element {element!r} in the comparison")

    def to_csv(self) -> str:
        lines = ["element,base,variant,ratio"]
        for r in self.rows:
            lines.append(f"{r.element},{r.base!r},{r.variant!r},{r.ratio:.2f}")
        return "\n".join(lines) + "\n"


def compare_tiers(base: Netlist, variant: Netlist) -> RatioTable:
    """Per-element variant/base ratios over the shared element names."""
    base_vals = {el.name: el.value for el in base.elements
                 if isinstance(el, (Resistor, Capacitor))}
    var_vals = {el.name: el.value for el in variant.elements
                if isinstance(el, (Resistor, Capacitor))}
    shared = sorted(set(base_vals) & set(var_vals))
    if not shared:
        raise ComparisonError("netlists share no element names")
    missing = sorted(set(base_vals) ^ set(var_vals))
    rows = [RatioRow(name, base_vals[name], var_vals[name]) for name in shared]
    return RatioTable(rows, missing)
