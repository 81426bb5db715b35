"""INI-style run configuration with typed, unit-suffixed values.

Sections mirror the module inputs: [device], [stack], [beol], [mesh],
[thermal], [she], [experiment] plus per-material [materials.<name>]
overrides. Values may carry the unit the key is declared in ("15nm",
"0.75V", "300K"); bare numbers are taken as already being in that unit.
Unknown sections or keys are rejected. A [device], [stack] or [beol] key
left out takes the default of DeviceSpec, default_stack or BeolSpec, the
one place each is written; the other sections' defaults are in _SCHEMA.
`load_config` builds every object a command reads, so a bad value fails
at load on every subcommand.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from . import materials as mat_mod
from .circuit import Stimulus
from .device import CompactModelParams, check_she_settings
from .errors import ConfigurationError
from .geometry import BeolSpec, DeviceSpec, StackConfig, default_stack
from .thermal import ThermalBC, check_thermal_settings, default_bc

_UNIT_SUFFIXES = {
    "nm": ("nm",),
    "nm2": ("nm2", "nm^2"),
    "V": ("v",),
    "K": ("k",),
    "none": (),
}


def parse_value(text: str, unit: str) -> float:
    s = text.strip()
    low = s.lower()
    for suffix in _UNIT_SUFFIXES.get(unit, ()):
        if low.endswith(suffix):
            s = s[: len(s) - len(suffix)]
            break
    try:
        return float(s)
    except ValueError:
        raise ConfigurationError(f"cannot parse {text!r} as a {unit} value") from None


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigurationError(f"cannot parse {text!r} as a boolean")


# The [device], [stack] and [beol] keys are the keyword arguments of
# DeviceSpec, default_stack and BeolSpec. load_config passes only the keys
# the INI gives, so their defaults live in those constructors, not here.
_SPEC_UNITS = {
    "device": {"gate_length": "nm", "sheet_width": "nm", "sheet_thickness": "nm", "eot": "nm",
               "spacer_thickness": "nm", "vdd": "V", "sd_extension": "nm",
               "gate_metal_thickness": "nm"},
    "stack": {"tier_count": "int", "tier_gap": "nm", "pair_gap": "nm", "standoff": "nm",
              "substrate_thickness": "nm", "inter_tier_dielectric": "str", "order": "str"},
    "beol": {"via_cross_section": "nm2", "metal_thickness": "nm", "mol_standoff": "nm",
             "buried_power_rail": "bool", "bpr_depth": "nm", "bpr_thickness": "nm",
             "conductor_material": "str", "margin": "nm"},
}
# key -> (unit-or-type, default) for the sections read here; a target
# default of None means "not given".
_SCHEMA = {
    "mesh": {
        "resolution": ("nm", 2.0),
        # plus dynamic refine.<label-or-material> keys
    },
    "thermal": {
        "ambient": ("K", 300.0),
        "top_h": ("none", 5e4),
        "concentration": ("none", 0.7),
        "tol": ("none", 1e-8),
        "power": ("str", "auto"),
    },
    "she": {
        "damping": ("none", 0.5),
        "tol_k": ("none", 0.01),
        "max_iter": ("int", 100),
    },
    "experiment": {
        "n.vth": ("V", None),
        "n.ss": ("none", None),
        "n.ioff": ("none", None),
        "n.ion": ("none", None),
        "p.vth": ("V", None),
        "p.ss": ("none", None),
        "p.ioff": ("none", None),
        "p.ion": ("none", None),
        "n.mu0": ("none", 600.0),
        "p.mu0": ("none", 470.0),
        "n.vsat0": ("none", 1.0e6),
        "p.vsat0": ("none", 6.0e5),
        "n.alpha_mu": ("none", 1.5),
        "p.alpha_mu": ("none", 1.3),
        "n.alpha_vsat": ("none", 0.4),
        "p.alpha_vsat": ("none", 0.4),
        "n.k_vth": ("none", -0.7e-3),
        "p.k_vth": ("none", -0.7e-3),
        "n.c_g": ("none", 5.0e-17),
        "p.c_g": ("none", 5.0e-17),
        "n.c_gd": ("none", 1.5e-17),
        "p.c_gd": ("none", 1.5e-17),
        "load_c": ("none", 1.0e-16),
        "edge_ps": ("none", 1.0),
        "period_ps": ("none", 20.0),
        "dt_fs": ("none", 5.0),
        "parasitic_floor": ("none", 1e-21),
    },
}

_UNITS = {**_SPEC_UNITS, **{sec: {key: unit for key, (unit, _) in keys.items()}
                            for sec, keys in _SCHEMA.items()}}
_MATERIAL_FIELDS = ("kappa", "eps_r", "rho_e")
_TARGET_KEYS = ("vth", "ss", "ioff", "ion")


@dataclass
class RunConfig:
    """Every input a command reads, built and checked once by `load_config`."""

    device: DeviceSpec
    stack: StackConfig
    beol: BeolSpec
    mesh_resolution: float
    mesh_refinement: dict[str, float]
    library: dict[str, mat_mod.Material]  # the default library with [materials.*] applied
    bc: ThermalBC
    concentration: float
    tol: float  # heat-solve tolerance
    power: str | float  # "auto" or watts
    she: dict  # keyword arguments of the SHE loop
    stimulus: Stimulus
    seeds: dict[str, CompactModelParams]  # per polarity
    targets: dict[str, dict[str, float] | None]  # per polarity, see _targets
    load_c: float
    parasitic_floor: float


def _coerce(section, key, unit, raw):
    """The typed value of `[section] key = raw`; a parse error names the key."""
    try:
        if unit == "int":
            return int(raw)
        if unit == "bool":
            return parse_bool(raw)
        if unit == "str":
            return raw.strip()
        return parse_value(raw, unit)
    except ValueError:  # only int() raises it
        raise ConfigurationError(f"[{section}] {key}: expected integer") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"[{section}] {key}: {exc}") from None


def _parse_power(raw: str) -> str | float:
    """[thermal] power: "auto" or a finite, non-negative wattage."""
    if raw == "auto":
        return raw
    try:
        watts = float(raw)
    except ValueError:
        watts = math.nan
    if not 0 <= watts < math.inf:
        raise ConfigurationError(
            f"[thermal] power must be 'auto' or a non-negative wattage, got {raw!r}")
    return watts


def load_config(path) -> RunConfig:
    """Parse the INI at `path` and build every run input from it, checking each
    value that needs no built cell."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        found = cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from None
    if not found:  # read() skips a path it cannot open, a directory too
        raise ConfigurationError(f"config file {path!r} does not exist or cannot be read")

    values = {sec: {} for sec in _SPEC_UNITS}
    values.update((sec, {k: d for k, (_, d) in keys.items()}) for sec, keys in _SCHEMA.items())
    library = mat_mod.default_library()
    for section in cp.sections():
        if section.startswith("materials."):
            name = section[len("materials."):]
            for key, raw in cp[section].items():
                if key not in _MATERIAL_FIELDS:
                    raise ConfigurationError(f"[{section}] unknown key {key!r}")
                library = mat_mod.override(library, name, key,
                                           _coerce(section, key, "none", raw))
            continue
        if section not in _UNITS:
            raise ConfigurationError(f"unknown section [{section}]")
        for key, raw in cp[section].items():
            refine = section == "mesh" and key.startswith("refine.")
            unit = "nm" if refine else _UNITS[section].get(key)
            if unit is None:
                raise ConfigurationError(f"[{section}] unknown key {key!r}")
            values[section][key] = _coerce(section, key, unit, raw)

    mesh = values["mesh"]  # resolution and refine.<label-or-material> targets
    for key, value in mesh.items():
        if not value > 0:
            raise ConfigurationError(f"[mesh] {key} must be positive, got {value}")
    resolution = mesh.pop("resolution")
    exp = values["experiment"]
    for key in ("load_c", "parasitic_floor"):
        if exp[key] < 0:
            raise ConfigurationError(f"[experiment] {key} must be non-negative, got {exp[key]}")
    check_she_settings(**values["she"])
    th = values["thermal"]
    check_thermal_settings(ambient=th["ambient"], top_h=th["top_h"], tol=th["tol"],
                           concentration=th["concentration"])
    spec = DeviceSpec(**values["device"])
    return RunConfig(
        device=spec, stack=default_stack(**values["stack"]), beol=BeolSpec(**values["beol"]),
        mesh_resolution=resolution,
        mesh_refinement={k.removeprefix("refine."): v for k, v in mesh.items()},
        library=library, bc=default_bc(th["ambient"], th["top_h"]),
        concentration=th["concentration"], tol=th["tol"], power=_parse_power(th["power"]),
        she=values["she"],
        stimulus=Stimulus(edge_ps=exp["edge_ps"], period_ps=exp["period_ps"],
                          dt_fs=exp["dt_fs"]),
        seeds={pol: _seed(exp, spec, pol) for pol in "np"},
        targets={pol: _targets(exp, pol, spec.vdd) for pol in "np"},
        load_c=exp["load_c"], parasitic_floor=exp["parasitic_floor"])


def _targets(exp: dict, polarity: str, vdd: float) -> dict[str, float] | None:
    """Four-target dict, an ion-only dict, or None when nothing is set."""
    values = {k: exp[f"{polarity}.{k}"] for k in _TARGET_KEYS}
    given = {k for k, v in values.items() if v is not None}
    if not given:
        return None
    ion, ioff = values["ion"], values["ioff"]
    if given == {"ion"}:
        if not ion > 0:
            raise ConfigurationError(
                f"[experiment] {polarity}.ion must be positive, got {ion}")
        return {"ion": ion, "vdd": vdd}
    if given != set(_TARGET_KEYS):
        raise ConfigurationError(
            f"[experiment] {polarity}.*: give all four targets, only ion, or none "
            f"(got {sorted(given)})")
    if not ion > ioff > 0:
        raise ConfigurationError(
            f"[experiment] {polarity}.ion > {polarity}.ioff > 0 must hold, "
            f"got ion = {ion}, ioff = {ioff}")
    return {**values, "vdd": vdd}


def _seed(exp: dict, spec: DeviceSpec, polarity: str) -> CompactModelParams:
    w_eff = 2.0 * (spec.sheet_width + spec.sheet_thickness) * 1e-9
    cox = 8.8541878128e-12 * 3.9 / (spec.eot * 1e-9)
    return CompactModelParams(
        polarity=polarity,
        mu0=exp[f"{polarity}.mu0"], vsat0=exp[f"{polarity}.vsat0"],
        alpha_mu=exp[f"{polarity}.alpha_mu"], alpha_vsat=exp[f"{polarity}.alpha_vsat"],
        k_vth=exp[f"{polarity}.k_vth"], c_g=exp[f"{polarity}.c_g"],
        c_gd=exp[f"{polarity}.c_gd"],
        w_eff=w_eff, l_eff=spec.gate_length * 1e-9, cox=cox)
