"""Field-solver parasitic extraction over a voxelized cell.

Both solves use the finite-volume operator of `fv`, with each conductor
or terminal as one fixed-value column of its coupling matrix.

Capacitance: one Laplace solve per conductor with that conductor at 1 V
and the rest grounded, zero normal flux on the outer boundary. The
Dirichlet value sits on the conductor surface, so a plate gap meshed
into k uniform cells reproduces eps A / d exactly up to fringing.
Charges are the boundary fluxes of the same discrete operator (Gauss
summation), which keeps the Maxwell matrix symmetric to solver
precision. Conductor-role cells that are not in the extraction set
(floating metal) are treated as a very high permittivity dielectric.

Resistance: a conduction Laplace solve inside one conductor with the two
terminals held at fixed potential on their faces; R is the applied volt
over the through current.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
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
from .materials import Material, per_cell

EPS0 = 8.8541878128e-12  # F/m
FLOATING_METAL_EPS = 1000.0  # quasi-equipotential stand-in for unlisted metal
MAXWELL_RTOL = 1e-9  # symmetry and coupling-sign tolerance, relative to the largest entry

# a terminal lists non-empty (axis, side, flat cells) groups of faces normal
# to `axis`, on the low (side 0) or high (side 1) face of each cell
Terminal = list[tuple[int, int, np.ndarray]]


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


def extract_capacitance(grid: VoxelGrid, materials: dict[str, Material],
                        conductors: list[str], tol: float = 1e-10) -> CapacitanceMatrix:
    """Maxwell capacitance matrix among named conductor labels."""
    if len(conductors) < 2:
        raise GeometryError("need at least two conductors")
    located = locate_conductors(grid)
    for i, name in enumerate(conductors):
        if name not in located:
            raise RegionNotFoundError(f"conductor {name!r} not on grid")
        if name in conductors[:i]:
            raise GeometryError(f"conductor {name!r} is listed twice")

    nrhs = len(conductors)
    cond_id = np.full(grid.n_cells, -1, dtype=np.int32)
    for ci, name in enumerate(conductors):
        cond_id[located[name]] = ci
    cond_id = cond_id.reshape(grid.dims)
    domain = cond_id < 0
    # F/m; the cells of the extracted conductors are excluded from the domain
    eps = per_cell(grid, materials, lambda m: (
        FLOATING_METAL_EPS if m.role == "conductor" else m.eps_r) * EPS0)

    # Dirichlet on each conductor face, column = conductor
    fixed = [(axis, cells, cond_id.ravel()[outer])
             for axis, _, cells, outer in fv.interfaces(domain, ~domain)]
    mat, coupling = fv.assemble(grid, eps, domain, fixed, np.zeros(nrhs))
    precond = fv.multigrid(mat, domain)  # one hierarchy for every right-hand side

    phi_fixed = np.eye(nrhs)  # solve i: conductor i at 1 V, all else at 0
    # all conductors at 1 V hold the potential at 1, so the solutions sum to
    # 1 and the last solve starts from 1 minus the others; it is still a
    # full solve checked on its own residual, so `asymmetry` keeps its meaning
    phi = np.empty((mat.shape[0], nrhs))
    rest = np.ones(mat.shape[0])  # 1 minus the solutions so far
    for i, name in enumerate(conductors):
        phi[:, i] = fv.solve_spd(mat, coupling @ phi_fixed[:, i], tol, precond,
                                 x0=rest if i == nrhs - 1 else None,
                                 name=f"capacitance solve {name}")
        rest -= phi[:, i]
    # Gauss sums: c_raw[i, j] is the charge on conductor j in solve i
    c_raw = fv.boundary_flux(coupling, phi, phi_fixed).T

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


def boundary_port_faces(grid: VoxelGrid, label: str) -> Terminal:
    """Faces of a labeled conductor that lie on the outer grid boundary."""
    mask = grid.cells_of_label(label)
    if not mask.any():
        raise RegionNotFoundError(f"no cells labeled {label!r}")
    return [g for g in fv.outer_faces(mask) if g[2].size]


def contact_faces(grid: VoxelGrid, label: str, target_labels: list[str]) -> Terminal:
    """Faces where the conductor touches any of the target labels."""
    targets = np.zeros(grid.dims, dtype=bool)
    for t in target_labels:
        targets |= grid.cells_of_label(t)
    return [(axis, side, cells) for axis, side, cells, _ in
            fv.interfaces(grid.cells_of_label(label), targets) if cells.size]


def inverter_terminals(grid: VoxelGrid, wired: tuple[int, int]) -> dict[str, Terminal]:
    """Port and device-end terminals for the four rails of a wired pair."""
    p_tier, n_tier = wired
    tiers = [p_tier, n_tier]
    return {
        "Input": boundary_port_faces(grid, "Input"),
        "Gate": contact_faces(grid, "Input", [f"tier{i}.gate" for i in tiers]),
        "Output": boundary_port_faces(grid, "Output"),
        "Drain": contact_faces(grid, "Output", [f"tier{i}.drain" for i in tiers]),
        "Power": boundary_port_faces(grid, "Power"),
        "PSource": contact_faces(grid, "Power", [f"tier{p_tier}.source"]),
        "Ground": boundary_port_faces(grid, "Ground"),
        "NSource": contact_faces(grid, "Ground", [f"tier{n_tier}.source"]),
    }


DEFAULT_PAIRS = (("Ground", "NSource"), ("PSource", "Power"),
                 ("Input", "Gate"), ("Output", "Drain"))


def extract_resistance(grid: VoxelGrid, materials: dict[str, Material],
                       pairs=DEFAULT_PAIRS, *,
                       terminals: dict[str, Terminal]) -> ResistanceReport:
    """Terminal-pair resistances solved inside each conductor volume.

    Each pair's terminals must lie on one label, every cell of which is
    metal; that label's cells are the solve's domain.
    """
    locate_conductors(grid)  # every label is one face-connected piece
    # Ohm m on metal, 0 elsewhere; sigma is 1 off the metal so that the
    # faces outside the solve's domain stay finite
    rho = per_cell(grid, materials, lambda m: m.rho_e if m.role == "conductor" else 0.0)
    metal = rho > 0
    sigma = np.divide(1.0, rho, out=np.ones_like(rho), where=metal)
    label_flat = grid.label.ravel()
    v_fixed = np.array([1.0, 0.0])
    entries = []
    for a, b in pairs:
        for t in (a, b):
            if t not in terminals:
                raise ConnectivityError(f"unknown terminal {t!r}")
            if not terminals[t]:
                raise ConnectivityError(f"terminal {t!r} has no faces")
        fixed = [(axis, cells, column) for column, t in enumerate((a, b))
                 for axis, _, cells in terminals[t]]
        labels = np.unique(label_flat[np.concatenate([cells for _, cells, _ in fixed])])
        if labels.size != 1:
            raise ConnectivityError(f"terminals {a}/{b} span different conductors")
        code = int(labels[0])
        if code < 0:
            raise ConnectivityError(f"terminals {a}/{b} lie on no labelled conductor")
        mask = grid.label == code
        if not metal[mask].all():
            raise ConnectivityError(
                f"conductor {grid.label_names[code]!r} has non-metal cells")
        mat, coupling = fv.assemble(grid, sigma, mask, fixed, np.zeros(2))
        phi = spla.spsolve(mat, coupling @ v_fixed)
        currents = fv.boundary_flux(coupling, phi, v_fixed)
        i_a, i_b = currents[0], -currents[1]
        i_mean = 0.5 * (i_a + i_b)
        if not i_mean > 0:
            raise ConnectivityError("no current flows between the terminals")
        entries.append(ResistanceEntry(a, b, 1.0 / i_mean, abs(i_a - i_b) / i_mean))
    return ResistanceReport(entries)


def to_netlist(cmatrix: CapacitanceMatrix, rreport: ResistanceReport,
               floor: float) -> tuple[Netlist, list[tuple[str, float]]]:
    """Two-terminal elements from the extraction, couplings below floor pruned."""
    elements = []
    pruned = []
    for i, a in enumerate(cmatrix.names):
        for j in range(i + 1, len(cmatrix.names)):
            b = cmatrix.names[j]
            value = -float(cmatrix.c[i, j])
            name = f"C_{a}_{b}"
            if value < floor:
                pruned.append((name, value))
                continue
            elements.append(Capacitor(name, a, b, value))
    for e in rreport.entries:
        name = f"R_{e.node_a}_{e.node_b}"
        elements.append(Resistor(name, e.node_a, e.node_b, e.r))
    elements.sort(key=lambda el: (type(el).__name__, el.name))
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

    def to_csv(self) -> str:
        lines = ["element,base,variant,ratio"]
        for r in self.rows:
            lines.append(f"{r.element},{r.base!r},{r.variant!r},{r.ratio:.2f}")
        return "\n".join(lines) + "\n"


def compare_tiers(base: Netlist, variant: Netlist) -> RatioTable:
    """Per-element variant/base ratios over the shared element names, each
    with a nonzero base value."""
    base_vals = {el.name: el.value for el in base.elements
                 if isinstance(el, (Resistor, Capacitor))}
    var_vals = {el.name: el.value for el in variant.elements
                if isinstance(el, (Resistor, Capacitor))}
    shared = sorted(set(base_vals) & set(var_vals))
    if not shared:
        raise ComparisonError("netlists share no element names")
    for name in shared:
        if base_vals[name] == 0:
            raise ComparisonError(f"{name}: the base value is 0, so the ratio is undefined")
    missing = sorted(set(base_vals) ^ set(var_vals))
    rows = [RatioRow(name, base_vals[name], var_vals[name]) for name in shared]
    return RatioTable(rows, missing)
