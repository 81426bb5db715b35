"""INI-style run configuration with typed, unit-suffixed values.

Sections mirror the module inputs: [device], [stack], [beol], [mesh],
[thermal], [she], [experiment] plus per-material [materials.<name>]
overrides. Values may carry the unit the key is declared in ("15nm",
"0.75V", "300K"); bare numbers are taken as already being in that unit.
Unknown sections or keys are rejected.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

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


# key -> (unit-or-type, default); defaults of None mean "derived elsewhere".
# The [device], [stack] and [beol] keys are the keyword arguments of
# DeviceSpec, default_stack and BeolSpec.
_SCHEMA = {
    "device": {
        "gate_length": ("nm", 15.0),
        "sheet_width": ("nm", 16.0),
        "sheet_thickness": ("nm", 6.0),
        "eot": ("nm", 0.9),
        "spacer_thickness": ("nm", 5.0),
        "vdd": ("V", 0.75),
        "sd_extension": ("nm", None),
        "gate_metal_thickness": ("nm", 3.0),
    },
    "stack": {
        "tier_count": ("int", 2),
        "tier_gap": ("nm", 10.0),
        "pair_gap": ("nm", None),
        "standoff": ("nm", 20.0),
        "substrate_thickness": ("nm", 200.0),
        "inter_tier_dielectric": ("str", "interlayer_dielectric"),
        "order": ("str", None),
    },
    "beol": {
        "via_cross_section": ("nm2", 36.0),
        "metal_thickness": ("nm", 20.0),
        "mol_standoff": ("nm", 10.0),
        "buried_power_rail": ("bool", True),
        "bpr_depth": ("nm", 10.0),
        "bpr_thickness": ("nm", 20.0),
        "conductor_material": ("str", "interconnect_metal"),
        "margin": ("nm", 20.0),
    },
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

_MATERIAL_FIELDS = {"kappa": "none", "eps_r": "none", "rho_e": "none"}


@dataclass
class RunConfig:
    device: DeviceSpec
    stack: StackConfig
    beol: BeolSpec
    mesh_resolution: float
    mesh_refinement: dict[str, float]
    thermal: dict
    she: dict
    experiment: dict
    material_overrides: dict[str, dict[str, float]] = field(default_factory=dict)

    def library(self):
        lib = mat_mod.default_library()
        for name, fields in self.material_overrides.items():
            for fname, value in fields.items():
                lib = mat_mod.override(lib, name, fname, value)
        return lib

    def stimulus(self) -> Stimulus:
        exp = self.experiment
        return Stimulus(edge_ps=exp["edge_ps"], period_ps=exp["period_ps"],
                        dt_fs=exp["dt_fs"])

    def thermal_bc(self) -> ThermalBC:
        return default_bc(ambient=self.thermal["ambient"], top_h=self.thermal["top_h"])


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
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        found = cp.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from None
    if not found:  # read() skips a path it cannot open, a directory too
        raise ConfigurationError(f"config file {path!r} does not exist or cannot be read")

    values = {sec: dict((k, d) for k, (_, d) in keys.items())
              for sec, keys in _SCHEMA.items()}
    overrides: dict[str, dict[str, float]] = {}
    refinement: dict[str, float] = {}

    for section in cp.sections():
        if section.startswith("materials."):
            name = section[len("materials."):]
            overrides[name] = {}
            for key, raw in cp[section].items():
                if key not in _MATERIAL_FIELDS:
                    raise ConfigurationError(f"[{section}] unknown key {key!r}")
                overrides[name][key] = _coerce(section, key, "none", raw)
            continue
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown section [{section}]")
        for key, raw in cp[section].items():
            if section == "mesh" and key.startswith("refine."):
                refinement[key[len("refine."):]] = _coerce(section, key, "nm", raw)
                continue
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"[{section}] unknown key {key!r}")
            unit, _ = _SCHEMA[section][key]
            values[section][key] = _coerce(section, key, unit, raw)

    for key in ("load_c", "parasitic_floor"):
        if values["experiment"][key] < 0:
            raise ConfigurationError(
                f"[experiment] {key} must be non-negative, got {values['experiment'][key]}")
    check_she_settings(**values["she"])
    th = values["thermal"]
    check_thermal_settings(ambient=th["ambient"], top_h=th["top_h"], tol=th["tol"],
                           concentration=th["concentration"])
    th["power"] = _parse_power(th["power"])
    return RunConfig(
        device=DeviceSpec(**values["device"]), stack=default_stack(**values["stack"]),
        beol=BeolSpec(**values["beol"]),
        mesh_resolution=values["mesh"]["resolution"], mesh_refinement=refinement,
        thermal=values["thermal"], she=values["she"], experiment=values["experiment"],
        material_overrides=overrides)


def device_targets(config: RunConfig, polarity: str) -> dict[str, float] | None:
    """Four-target dict, an ion-only dict, or None when nothing is set."""
    exp = config.experiment
    values = {k: exp[f"{polarity}.{k}"] for k in ("vth", "ss", "ioff", "ion")}
    given = {k for k, v in values.items() if v is not None}
    if not given:
        return None
    if given == {"ion"}:
        return {"ion": values["ion"], "vdd": config.device.vdd}
    if given == {"vth", "ss", "ioff", "ion"}:
        values["vdd"] = config.device.vdd
        return values
    raise ConfigurationError(
        f"[experiment] {polarity}.*: give all four targets, only ion, or none "
        f"(got {sorted(given)})")


def seed_params(config: RunConfig, polarity: str) -> CompactModelParams:
    exp = config.experiment
    spec = config.device
    w_eff = 2.0 * (spec.sheet_width + spec.sheet_thickness) * 1e-9
    cox = 8.8541878128e-12 * 3.9 / (spec.eot * 1e-9)
    return CompactModelParams(
        polarity=polarity,
        mu0=exp[f"{polarity}.mu0"], vsat0=exp[f"{polarity}.vsat0"],
        alpha_mu=exp[f"{polarity}.alpha_mu"], alpha_vsat=exp[f"{polarity}.alpha_vsat"],
        k_vth=exp[f"{polarity}.k_vth"], c_g=exp[f"{polarity}.c_g"],
        c_gd=exp[f"{polarity}.c_gd"],
        w_eff=w_eff, l_eff=spec.gate_length * 1e-9, cox=cox)
