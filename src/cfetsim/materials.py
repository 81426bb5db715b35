"""Material property library shared by the thermal and field solvers.

Thermal conductivities are literature-typical room-temperature values.
The nanosheet silicon entry is deliberately far below bulk: in-plane
conductivity of silicon films collapses by roughly an order of magnitude
once the film is only a few nanometers thick (phonon boundary scattering),
so a 6 nm sheet is modeled at 13 W/(m K) against 148 W/(m K) bulk.
All values can be overridden per run; the solvers only rely on orderings
and analytic cases, never on these exact numbers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, MaterialError, check_rules

ROLES = ("conductor", "dielectric", "semiconductor")


@dataclass(frozen=True)
class Material:
    name: str
    role: str
    kappa: float  # thermal conductivity, W/(m K)
    eps_r: float | None = None  # relative permittivity
    rho_e: float | None = None  # electrical resistivity, Ohm m (conductors)

    def __post_init__(self):
        if self.role not in ROLES:
            raise MaterialError(f"unknown role {self.role!r} for {self.name!r}")
        rules = _CONDUCTOR_RULES if self.role == "conductor" else _INSULATOR_RULES
        check_rules(rules, vars(self), MaterialError)


# property -> (test, rule stated in the error), by role; semiconductors
# take the insulator rules
_CONDUCTOR_RULES = {
    "kappa": POSITIVE,
    "rho_e": (lambda v: v is not None and 0 < v < math.inf,
              "must be positive and finite for a conductor"),
}
_INSULATOR_RULES = {
    "kappa": POSITIVE,
    "eps_r": (lambda v: v is not None and 1.0 <= v < math.inf, "must be >= 1 and finite"),
    "rho_e": (lambda v: v is None, "is only valid for conductors"),
}


def default_library() -> dict[str, Material]:
    """Materials used by the geometry builders, keyed by id."""
    mats = [
        Material("silicon_bulk", "semiconductor", kappa=148.0, eps_r=11.7),
        Material("silicon_nanosheet", "semiconductor", kappa=13.0, eps_r=11.7),
        Material("silicon_sd", "semiconductor", kappa=20.0, eps_r=11.7),
        Material("sio2", "dielectric", kappa=1.4, eps_r=3.9),
        Material("hfo2", "dielectric", kappa=1.0, eps_r=22.0),
        Material("gate_metal", "conductor", kappa=11.0, rho_e=2.0e-7),
        Material("interconnect_metal", "conductor", kappa=170.0, rho_e=3.0e-8),
        Material("spacer_dielectric", "dielectric", kappa=1.2, eps_r=4.0),
        Material("interlayer_dielectric", "dielectric", kappa=0.5, eps_r=2.5),
    ]
    return {m.name: m for m in mats}


def lookup(library: dict[str, Material], name: str) -> Material:
    try:
        return library[name]
    except KeyError:
        raise MaterialError(f"material {name!r} not in library") from None


def per_cell(grid, library: dict[str, Material], prop) -> np.ndarray:
    """`prop(material)` of every cell of `grid`, shaped like its cell arrays."""
    if (grid.material < 0).any():
        raise MaterialError("grid has unassigned cells")
    return np.array([prop(lookup(library, n)) for n in grid.material_names])[grid.material]


def override(library: dict[str, Material], name: str, field: str, value) -> dict[str, Material]:
    """Functional update: returns a new library, the input is untouched."""
    mat = lookup(library, name)
    if field not in {f.name for f in dataclasses.fields(Material)}:
        raise MaterialError(f"{name}: no such field {field!r}")
    updated = dataclasses.replace(mat, **{field: value})
    out = dict(library)
    out[name] = updated
    return out
