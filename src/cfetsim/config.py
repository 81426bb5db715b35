"""INI-style run configuration with typed, unit-suffixed values.

Sections mirror the module inputs: [device], [stack], [beol], [mesh],
[thermal], [she], [experiment] plus per-material [materials.<name>]
overrides. Values may carry the unit the key is declared in ("15nm",
"0.75V", "300K"); bare numbers are taken as already being in that unit.
Unknown sections or keys are rejected. A key left out takes the default
of the library object that receives it, the one place each is written;
only the run's own settings (resolution, power, load_c, parasitic_floor)
and the pFET seed values have their defaults here. `load_config` builds
every object a command reads, so a bad value fails at load on every
subcommand, and its error names the section and key.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from . import materials as mat_mod
from .circuit import Stimulus
from .device import SHE_RULES, CompactModelParams
from .errors import POSITIVE, ConfigurationError, MaterialError, check_rules
from .fv import NM
from .geometry import BeolSpec, DeviceSpec, StackConfig, default_stack
from .parasitics import EPS0
from .thermal import THERMAL_RULES, ThermalBC, default_bc

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


# The unit or type of every key, written once. load_config passes only the
# keys the INI gives to the object that takes them, so each default lives in
# that object's signature alone: DeviceSpec, default_stack, BeolSpec,
# default_bc ([thermal] ambient, top_h), ThermalContext (concentration, tol),
# she_operating_point ([she]), Stimulus (edge_ps, period_ps, dt_fs) and
# CompactModelParams (the n.* and p.* seeds).
_TARGET_KEYS = ("vth", "ss", "ioff", "ion")
_SEED_KEYS = ("mu0", "vsat0", "alpha_mu", "alpha_vsat", "k_vth", "c_g", "c_gd")
_UNITS = {
    "device": {"gate_length": "nm", "sheet_width": "nm", "sheet_thickness": "nm", "eot": "nm",
               "spacer_thickness": "nm", "vdd": "V", "sd_extension": "nm",
               "gate_metal_thickness": "nm"},
    "stack": {"tier_count": "int", "tier_gap": "nm", "pair_gap": "nm", "standoff": "nm",
              "substrate_thickness": "nm", "inter_tier_dielectric": "str", "order": "str"},
    "beol": {"via_cross_section": "nm2", "metal_thickness": "nm", "mol_standoff": "nm",
             "buried_power_rail": "bool", "bpr_depth": "nm", "bpr_thickness": "nm",
             "conductor_material": "str", "margin": "nm"},
    "mesh": {"resolution": "nm"},  # plus refine.<label-or-material> keys
    "thermal": {"ambient": "K", "top_h": "none", "concentration": "none", "tol": "none",
                "power": "str"},
    "she": {"damping": "none", "tol_k": "none", "max_iter": "int"},
    "experiment": {"load_c": "none", "edge_ps": "none", "period_ps": "none", "dt_fs": "none",
                   "parasitic_floor": "none",
                   **{f"{pol}.{key}": "V" if key == "vth" else "none"
                      for pol in "np" for key in (*_TARGET_KEYS, *_SEED_KEYS)}},
}
# The defaults no library signature holds: the run's own settings, and the
# pFET seed values where they differ from CompactModelParams' nFET ones.
# The calibration targets (n.vth ... p.ion) have none.
_DEFAULTS = {
    "mesh": {"resolution": 2.0},
    "thermal": {"power": "auto"},
    "experiment": {"load_c": 1.0e-16, "parasitic_floor": 1e-21,
                   "p.mu0": 470.0, "p.vsat0": 6.0e5, "p.alpha_mu": 1.3},
}
_MATERIAL_FIELDS = ("kappa", "eps_r", "rho_e")
_EXPERIMENT_RULES = dict.fromkeys(("load_c", "parasitic_floor"),
                                  (lambda v: 0 <= v < math.inf, "must be non-negative and finite"))


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
    heat: dict  # keyword arguments of ThermalContext: concentration, tol
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


def _build(prefix: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`; an error that does not yet name its section
    gets `prefix`, the section and, for a model seed, the polarity."""
    try:
        return make(*args, **kwargs)
    except (ConfigurationError, MaterialError) as exc:
        msg = str(exc)
        raise ConfigurationError(msg if msg.startswith("[") else prefix + msg) from None


def _take(values: dict, *keys: str) -> dict:
    return {k: values[k] for k in keys if k in values}


def load_config(path) -> RunConfig:
    """Parse the INI at `path` and build every run input from it, checking each
    value that needs no built cell."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        found = cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigurationError(f"config file {path!r} is not UTF-8 text") from None
    if not found:  # read() skips a path it cannot open, a directory too
        raise ConfigurationError(f"config file {path!r} does not exist or cannot be read")

    values = {sec: dict(_DEFAULTS.get(sec, {})) for sec in _UNITS}
    library = mat_mod.default_library()
    for section in cp.sections():
        if section.startswith("materials."):
            name = section[len("materials."):]
            for key, raw in cp[section].items():
                if key not in _MATERIAL_FIELDS:
                    raise ConfigurationError(f"[{section}] unknown key {key!r}")
                library = _build(f"[{section}] ", mat_mod.override, library, name, key,
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
    _build("[mesh] ", check_rules, dict.fromkeys(mesh, POSITIVE), mesh)
    resolution = mesh.pop("resolution")
    exp = values["experiment"]
    _build("[experiment] ", check_rules, _EXPERIMENT_RULES, exp)
    _build("[she] ", check_rules, SHE_RULES, values["she"])
    th = values["thermal"]
    power = _parse_power(th.pop("power"))
    _build("[thermal] ", check_rules, THERMAL_RULES, th)
    spec = _build("[device] ", DeviceSpec, **values["device"])
    return RunConfig(
        device=spec, stack=_build("[stack] ", default_stack, **values["stack"]),
        beol=_build("[beol] ", BeolSpec, **values["beol"]),
        mesh_resolution=resolution,
        mesh_refinement={k.removeprefix("refine."): v for k, v in mesh.items()},
        library=library, bc=default_bc(**_take(th, "ambient", "top_h")),
        heat=_take(th, "concentration", "tol"), power=power, she=values["she"],
        stimulus=_build("[experiment] ", Stimulus, **_take(exp, "edge_ps", "period_ps", "dt_fs")),
        seeds={pol: _seed(exp, spec, pol) for pol in "np"},
        targets={pol: _targets(exp, pol, spec.vdd) for pol in "np"},
        load_c=exp["load_c"], parasitic_floor=exp["parasitic_floor"])


def _targets(exp: dict, polarity: str, vdd: float) -> dict[str, float] | None:
    """Four-target dict, an ion-only dict, or None when nothing is set."""
    values = {k: exp.get(f"{polarity}.{k}") for k in _TARGET_KEYS}
    given = {k for k, v in values.items() if v is not None}
    if not given:
        return None
    ion, ioff = values["ion"], values["ioff"]
    if given == {"ion"}:
        _build(f"[experiment] {polarity}.", check_rules, {"ion": POSITIVE}, values)
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
    """The polarity's model seed on the cell's channel geometry."""
    given = {k: exp[f"{polarity}.{k}"] for k in _SEED_KEYS if f"{polarity}.{k}" in exp}
    return _build(f"[experiment] {polarity}.", CompactModelParams, polarity=polarity, **given,
                  w_eff=2.0 * (spec.sheet_width + spec.sheet_thickness) * NM,
                  l_eff=spec.gate_length * NM,
                  cox=EPS0 * 3.9 / (spec.eot * NM))
