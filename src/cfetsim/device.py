"""Temperature-dependent compact transistor model and the self-heating loop.

The drain current is one smooth expression over all regimes, a sum of a
subthreshold branch and a strong-inversion branch that trade dominance
just below threshold:

    u    = (vgs - vth(T)) / a,  a = n_ss kT/q
    v_q  = a ln(1 + exp(u))                       softplus overdrive, V
    id   = beta(T) (v_q - vde/2) vde / (1 + vde/(Esat L))
         + i0 sigmoid(u) (1 - exp(-vds/phit))

with beta = mu(T) Cox W/L, Esat L = 2 vsat(T) L / mu(T), and
vde = vdsat tanh(vds/vdsat) a smooth saturation clamp. Below threshold
the triode branch dies off as exp(2u), twice as fast as the sigmoid
floor, so the floor alone sets the subthreshold slope and I_OFF; above
threshold the floor saturates at i0 and the triode branch takes over.
Temperature enters through mu(T) = mu0 (T/300)^-alpha_mu, vsat(T) =
vsat0 (T/300)^-alpha_vsat and vth(T) = vth0 + k_vth (T - 300). With
non-negative k_vth heating strictly weakens the device, which is the
feedback the self-heating loop needs; a negative k_vth can offset part
of that at low overdrive. p-type devices reuse the n-type math under
sign reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit

from .errors import CalibrationError, ConfigurationError, CouplingDivergenceError
from .materials import Material
from .thermal import (
    HeatSourceField,
    TemperatureField,
    ThermalBC,
    ThermalOperator,
    assemble,
    drain_hotspot_source,
    solve_steady,
)

Q_E = 1.602176634e-19  # C
K_B = 1.380649e-23  # J/K
T_REF = 300.0  # K

# constant-current threshold criterion used by calibration; sits in the
# strong-inversion branch so the threshold stage decouples from the floor
I_CRIT = 5e-6  # A


@dataclass(frozen=True)
class CompactModelParams:
    polarity: str = "n"
    vth0: float = 0.30  # V at 300 K
    n_ss: float = 1.25  # subthreshold ideality
    mu0: float = 600.0  # cm^2/(V s) at 300 K
    alpha_mu: float = 1.5  # mobility temperature exponent
    vsat0: float = 1.0e6  # m/s at 300 K
    alpha_vsat: float = 0.4
    k_vth: float = -0.7e-3  # V/K
    i0: float = 1.0e-6  # A, subthreshold prefactor
    c_g: float = 5.0e-17  # F, total gate capacitance
    c_gd: float = 1.5e-17  # F
    # channel geometry behind the absolute current scale
    w_eff: float = 44.0e-9  # m, wrapped perimeter 2*(width + thickness)
    l_eff: float = 15.0e-9  # m
    cox: float = 3.836e-2  # F/m^2 at 0.9 nm effective oxide

    def __post_init__(self):
        if self.polarity not in ("n", "p"):
            raise ConfigurationError(f"polarity must be n or p, got {self.polarity!r}")
        positives = dict(mu0=self.mu0, vsat0=self.vsat0, c_g=self.c_g,
                         alpha_mu=self.alpha_mu, i0=self.i0,
                         w_eff=self.w_eff, l_eff=self.l_eff, cox=self.cox)
        for name, v in positives.items():
            if not v > 0:
                raise ConfigurationError(f"{name} must be positive, got {v}")
        if self.n_ss < 1.0:
            raise ConfigurationError("n_ss must be >= 1")


def _softplus(x):
    return np.logaddexp(0.0, x)


def _forward_current(p: CompactModelParams, vgs, vds, t):
    """n-type current for vds >= 0."""
    phit = K_B * t / Q_E
    a = p.n_ss * phit
    vth = p.vth0 + p.k_vth * (t - T_REF)
    u = (vgs - vth) / a
    v_q = a * _softplus(u)
    mu = p.mu0 * 1e-4 * (t / T_REF) ** (-p.alpha_mu)  # m^2/(V s)
    vsat = p.vsat0 * (t / T_REF) ** (-p.alpha_vsat)
    esat_l = 2.0 * vsat * p.l_eff / mu  # V
    vdsat = v_q * esat_l / (v_q + esat_l)
    vde = vdsat * np.tanh(np.divide(vds, vdsat, out=np.zeros_like(vdsat + vds),
                                    where=vdsat > 0))
    beta = mu * p.cox * p.w_eff / p.l_eff  # A/V^2
    i_core = beta * (v_q - 0.5 * vde) * vde / (1.0 + vde / esat_l)
    i_leak = p.i0 * expit(u) * (1.0 - np.exp(-vds / phit))
    return i_core + i_leak


def _ncurrent(p, vgs, vds, t):
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    fwd = _forward_current(p, vgs, np.abs(vds), t)
    rev = _forward_current(p, vgs - vds, np.abs(vds), t)
    return np.where(vds >= 0, fwd, -rev)


def drain_current(p: CompactModelParams, vgs, vds, t=T_REF):
    """Drain current in A; scalar in, scalar out, arrays broadcast.

    n-type convention: positive for vgs, vds > 0. p-type devices are
    evaluated by sign reflection, so a pFET carries negative current at
    negative bias. The reverse-bias branch swaps source and drain, which
    keeps the expression continuous through vds = 0.
    """
    if not t > 0:
        raise ConfigurationError("temperature must be positive")
    if p.polarity == "p":
        out = -_ncurrent(p, -np.asarray(vgs, dtype=float), -np.asarray(vds, dtype=float), t)
    else:
        out = _ncurrent(p, vgs, vds, t)
    return out.item() if np.ndim(out) == 0 else out


def _bias(p: CompactModelParams, v):
    """Map a bias magnitude onto the device's own sign convention."""
    return -v if p.polarity == "p" else v


def current_magnitude(p: CompactModelParams, vgs_mag, vds_mag, t=T_REF) -> float:
    return abs(drain_current(p, _bias(p, vgs_mag), _bias(p, vds_mag), t))


def threshold_voltage(p: CompactModelParams, vdd: float,
                      icrit: float | None = None) -> float:
    """Constant-current threshold: gate magnitude where |id| = icrit at |vds| = vdd.

    The criterion defaults to I_CRIT but never exceeds a fifth of the
    device's own on-current, so weak devices stay measurable.
    """
    if icrit is None:
        icrit = min(I_CRIT, 0.2 * current_magnitude(p, vdd, vdd))
    lo, hi = -1.0, vdd + 2.0
    f = lambda v: current_magnitude(p, v, vdd) - icrit
    if f(lo) > 0 or f(hi) < 0:
        raise CalibrationError("threshold criterion outside sweep range", stage="vth")
    return float(brentq(f, lo, hi, xtol=1e-9))


def fit_ion(p: CompactModelParams, ion: float, vdd: float) -> CompactModelParams:
    """Tune the velocity-saturation knob alone to hit an on-current."""
    if not ion > 0:
        raise CalibrationError("ion target must be positive", stage="ion")
    f = lambda v: math.log(current_magnitude(replace(p, vsat0=v), vdd, vdd) / ion)
    vsat0 = _stage_root("ion", f, 1e2, 1e8, log=True)
    fitted = replace(p, vsat0=vsat0)
    if abs(current_magnitude(fitted, vdd, vdd) / ion - 1.0) > 1e-2:
        raise CalibrationError("ion target unreachable via vsat0", stage="ion")
    return fitted


def subthreshold_swing(p: CompactModelParams, vdd: float) -> float:
    """Swing in mV/dec as the local slope at the off-state point."""
    v1, v2 = 0.0, 0.02
    i1 = current_magnitude(p, v1, vdd)
    i2 = current_magnitude(p, v2, vdd)
    return 1e3 * (v2 - v1) / math.log10(i2 / i1)


def extract_targets(p: CompactModelParams, vdd: float) -> dict[str, float]:
    """Calibration targets as measured from the model itself."""
    return {
        "vth": threshold_voltage(p, vdd),
        "ss": subthreshold_swing(p, vdd),
        "ioff": current_magnitude(p, 0.0, vdd),
        "ion": current_magnitude(p, vdd, vdd),
        "vdd": vdd,
    }


def _stage_root(name, f, lo, hi, log=False):
    """1D root of f on [lo, hi]; clamps to the closer end when no sign change.

    A clamped stage is not an error by itself: earlier stages re-run in the
    next coordinate sweep and usually pull the root back into the bracket.
    The final residual check in calibrate() raises if it never does.
    """
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    g = (lambda x: f(10.0 ** x)) if log else f
    try:
        fa, fb = g(a), g(b)
    except (OverflowError, ValueError) as exc:
        raise CalibrationError(f"stage {name}: evaluation failed ({exc})", stage=name)
    if fa * fb > 0:
        x = a if abs(fa) <= abs(fb) else b
    else:
        x = brentq(g, a, b, xtol=1e-12, rtol=1e-12)
    return 10.0 ** x if log else float(x)


def calibrate(targets: dict[str, float], seed: CompactModelParams,
              max_sweeps: int = 14) -> CompactModelParams:
    """Staged coordinate fit: vth0, then n_ss, then i0, then vsat0.

    Each stage is a 1D root find against its measured quantity. The stages
    interact weakly through the shared curve, so the sweep repeats until
    every residual is far inside the 1 percent contract or raises naming
    the stage that cannot reach its target.
    """
    for key in ("vth", "ss", "ioff", "ion", "vdd"):
        if key not in targets:
            raise CalibrationError(f"missing target {key!r}")
    if not targets["ion"] > targets["ioff"] > 0:
        raise CalibrationError("need ion > ioff > 0")
    vdd = targets["vdd"]
    p = seed

    for _ in range(max_sweeps):
        p = replace(p, vth0=_stage_root(
            "vth", lambda v: threshold_voltage(replace(p, vth0=v), vdd) - targets["vth"],
            targets["vth"] - 0.6, targets["vth"] + 0.6))
        p = replace(p, n_ss=_stage_root(
            "ss", lambda v: subthreshold_swing(replace(p, n_ss=v), vdd) - targets["ss"],
            1.0, 4.0))
        p = replace(p, i0=_stage_root(
            "ioff",
            lambda v: math.log(current_magnitude(replace(p, i0=v), 0.0, vdd) / targets["ioff"]),
            1e-18, 1e-2, log=True))
        p = replace(p, vsat0=_stage_root(
            "ion",
            lambda v: math.log(current_magnitude(replace(p, vsat0=v), vdd, vdd) / targets["ion"]),
            1e2, 1e8, log=True))
        res = calibration_residuals(p, targets)
        if all(abs(r) < 1e-5 for r in res.values()):
            break
    bad = [k for k, r in calibration_residuals(p, targets).items() if abs(r) > 1e-2]
    if bad:
        raise CalibrationError(
            f"stage {bad[0]}: target unreachable within parameter bounds "
            f"(residuals above 1 percent: {bad})", stage=bad[0])
    return p


def calibration_residuals(p: CompactModelParams, targets: dict[str, float]) -> dict[str, float]:
    got = extract_targets(p, targets["vdd"])
    return {k: got[k] / targets[k] - 1.0 for k in ("vth", "ss", "ioff", "ion")}


def calibration_report(p: CompactModelParams, targets: dict[str, float]) -> str:
    got = extract_targets(p, targets["vdd"])
    lines = ["stage target achieved residual"]
    for k in ("vth", "ss", "ioff", "ion"):
        lines.append(f"{k} {float(targets[k])!r} {float(got[k])!r} {float(got[k] / targets[k] - 1.0)!r}")
    return "\n".join(lines) + "\n"


@dataclass
class OperatingPoint:
    vgs: float
    vds: float
    id: float  # A, magnitude
    t_channel: float  # K, volume-weighted channel mean
    delta_t: float  # K, peak rise anywhere on the grid
    ion_degradation: float
    iterations: int = 0
    residuals: list = field(default_factory=list)


@dataclass
class ThermalContext:
    """Grid, materials and boundary conditions owned by one SHE analysis.

    The heat equation is linear and every sink sits at ambient, so the
    context solves the unit-power hotspot field once: the fixed-point loop
    reuses its per-watt channel response, and the field at any power is
    that unit rise scaled.
    """

    grid: object
    materials: dict[str, Material]
    bc: ThermalBC
    device_region: str
    concentration: float = 0.7
    solver_tol: float = 1e-8

    operator: ThermalOperator | None = field(default=None, init=False)
    r_mean: float = 0.0  # K/W channel-mean rise
    r_max: float = 0.0  # K/W peak rise
    _unit_q: np.ndarray | None = field(default=None, init=False, repr=False)
    _unit_rise: np.ndarray | None = field(default=None, init=False, repr=False)

    def prepare(self):
        """Solve the unit rise; an `operator` set beforehand for the same grid,
        materials and boundary conditions is reused, not assembled again."""
        if self._unit_rise is not None:
            return self
        sink_temps = {f.t for f in self.bc.faces.values() if f.kind != "adiabatic"}
        if len(sink_temps) > 1:
            raise ConfigurationError(
                f"self-heating needs every sink at one temperature, got {sorted(sink_temps)}")
        if self.operator is None:
            self.operator = assemble(self.grid, self.materials, self.bc)
        unit = drain_hotspot_source(self.grid, self.device_region, 1.0, self.concentration)
        fld = solve_steady(self.operator, unit, tol=self.solver_tol)
        rise = fld.values - self.bc.ambient
        mask = self.grid.cells_of_label(self.device_region)
        vols = self.grid.cell_volumes()
        self.r_mean = float((rise[mask] * vols[mask]).sum() / vols[mask].sum())
        self.r_max = float(rise.max())
        self._unit_q = unit.q
        self._unit_rise = rise
        return self

    def heat_source(self, power: float) -> HeatSourceField:
        """The hotspot source that dissipates `power` watts in the channel."""
        self.prepare()
        return HeatSourceField(self._unit_q * power, self.grid)

    def solve_at_power(self, power: float) -> TemperatureField:
        """Steady field at `power` watts: ambient plus the scaled unit rise."""
        self.prepare()
        ambient = self.bc.ambient
        return TemperatureField(ambient + power * self._unit_rise, ambient)


def she_operating_point(p: CompactModelParams, vgs: float, vds: float,
                        ctx: ThermalContext, damping: float = 0.5,
                        tol_k: float = 0.01, max_iter: int = 100) -> OperatingPoint:
    """Damped fixed point between drain current and channel temperature."""
    ctx.prepare()
    ambient = ctx.bc.ambient
    i_iso = abs(drain_current(p, vgs, vds, T_REF))
    t_ch = ambient
    residuals = []
    for it in range(1, max_iter + 1):
        i_d = abs(drain_current(p, vgs, vds, t_ch))
        power = i_d * abs(vds)
        t_target = ambient + power * ctx.r_mean
        step = damping * (t_target - t_ch)
        t_ch += step
        residuals.append(abs(step))
        if abs(step) < tol_k:
            break
    else:
        raise CouplingDivergenceError(
            f"electro-thermal loop open after {max_iter} iterations",
            residual=residuals[-1])
    i_final = abs(drain_current(p, vgs, vds, t_ch))
    power = i_final * abs(vds)
    degradation = 1.0 - i_final / i_iso if i_iso > 0 else 0.0
    return OperatingPoint(vgs=vgs, vds=vds, id=i_final, t_channel=t_ch,
                          delta_t=power * ctx.r_max, ion_degradation=degradation,
                          iterations=it, residuals=residuals)


def transfer_curve(p: CompactModelParams, vds: float, vgs_sweep,
                   mode: str = "isothermal", ctx: ThermalContext | None = None,
                   t: float = T_REF):
    """Rows of (vgs, id, t_channel); she mode runs the coupled loop per bias."""
    vgs_sweep = np.asarray(vgs_sweep, dtype=float)
    if len(vgs_sweep) > 1 and not (np.all(np.diff(vgs_sweep) > 0)
                                   or np.all(np.diff(vgs_sweep) < 0)):
        raise ConfigurationError("vgs sweep must be monotone")
    rows = []
    if mode == "isothermal":
        for vgs in vgs_sweep:
            rows.append((float(vgs), drain_current(p, float(vgs), vds, t), t))
    elif mode == "she":
        if ctx is None:
            raise ConfigurationError("she mode needs a thermal context")
        for vgs in vgs_sweep:
            op = she_operating_point(p, float(vgs), vds, ctx)
            signed = math.copysign(op.id, drain_current(p, float(vgs), vds, t))
            rows.append((float(vgs), signed, op.t_channel))
    else:
        raise ConfigurationError(f"unknown transfer mode {mode!r}")
    return rows


def transfer_curve_csv(rows) -> str:
    lines = ["vgs_V,id_A,t_channel_K"]
    lines.extend(f"{float(v)!r},{float(i)!r},{float(t)!r}" for v, i, t in rows)
    return "\n".join(lines) + "\n"
