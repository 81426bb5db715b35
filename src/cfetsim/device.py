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

The expression is written once, in `math` on one bias point
(`_forward_scalar`), in forms that cannot overflow at any bias: softplus
as max(u, 0) + log1p(exp(-|u|)), the sigmoid split on the sign of u, and
the leak factor as -expm1(-vds/phit). The same body returns the
closed-form slopes gm = d id/d vgs and gds = d id/d vds by the chain rule
through each of those steps, so a circuit Newton iteration linearizes a
transistor with one evaluation. `drain_current` takes scalar biases and
returns (id, gm, gds) as Python floats; nothing else evaluates the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    POSITIVE,
    CalibrationError,
    ConfigurationError,
    CouplingDivergenceError,
    check_rules,
)
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

MAX_SWEEPS = 14  # coordinate sweeps of calibrate()


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
        for rules in (_PARAM_FORM, _PARAM_RANGES):
            check_rules(rules, vars(self))
        # the gate-drain share of the gate capacitance; the rest is gate-source
        if not 0 <= self.c_gd <= self.c_g:
            raise ConfigurationError(
                f"c_gd must lie in [0, c_g = {self.c_g}], got {self.c_gd}")


# field -> (test, rule stated in the error); NaN and inf fail before any range
_PARAM_FORM = {"polarity": (lambda v: v in ("n", "p"), "must be n or p"),
               **{f.name: (math.isfinite, "must be finite")
                  for f in fields(CompactModelParams)[1:]}}
_PARAM_RANGES = {**dict.fromkeys(("mu0", "vsat0", "c_g", "alpha_mu", "i0",
                                  "w_eff", "l_eff", "cox"), POSITIVE),
                 "n_ss": (lambda v: v >= 1.0, "must be >= 1")}


def _forward_scalar(p: CompactModelParams, vgs: float, vds: float,
                    t: float) -> tuple[float, float, float]:
    """n-type (id, d id/d vgs, d id/d vds) for vds >= 0 at one bias point."""
    phit = K_B * t / Q_E
    a = p.n_ss * phit
    vth = p.vth0 + p.k_vth * (t - T_REF)
    u = (vgs - vth) / a
    e = math.exp(-abs(u))  # in (0, 1]: neither term below can overflow
    v_q = a * (max(u, 0.0) + math.log1p(e))  # softplus
    mu = p.mu0 * 1e-4 * (t / T_REF) ** (-p.alpha_mu)  # m^2/(V s)
    vsat = p.vsat0 * (t / T_REF) ** (-p.alpha_vsat)
    esat_l = 2.0 * vsat * p.l_eff / mu  # V
    vdsat = v_q * esat_l / (v_q + esat_l)
    if vdsat > 0:
        r = vds / vdsat
        th = math.tanh(r)
        vde = vdsat * th
        sech2 = 1.0 - th * th  # d vde / d vds
        # d vde / d vdsat; r is infinite when vdsat is subnormal, sech2 then 0
        vde_sat = th - r * sech2 if sech2 > 0 else th
    else:
        vde = sech2 = vde_sat = 0.0
    beta = mu * p.cox * p.w_eff / p.l_eff  # A/V^2
    den = 1.0 + vde / esat_l
    i_core = beta * (v_q - 0.5 * vde) * vde / den
    sigmoid = 1.0 / (1.0 + e) if u >= 0 else e / (1.0 + e)
    leak = -math.expm1(-vds / phit)
    i_leak = p.i0 * sigmoid * leak
    # slopes by the chain rule: d v_q / d vgs is the sigmoid, d sigmoid / d u
    # is e / (1 + e)^2 on either side of u = 0
    core_vde = beta * ((v_q - vde) - (v_q - 0.5 * vde) * vde / (esat_l * den)) / den
    dvdsat = (esat_l / (v_q + esat_l)) ** 2
    gm = sigmoid * (beta * vde / den + core_vde * vde_sat * dvdsat) \
        + p.i0 * leak * e / ((1.0 + e) ** 2 * a)
    gds = core_vde * sech2 + p.i0 * sigmoid * (1.0 - leak) / phit
    return i_core + i_leak, gm, gds


def _ncurrent(p: CompactModelParams, vgs: float, vds: float,
              t: float) -> tuple[float, float, float]:
    """Reverse bias swaps source and drain: the gate then sees vgs - vds."""
    if vds < 0:
        i, gm, gds = _forward_scalar(p, vgs - vds, -vds, t)
        return -i, -gm, gm + gds
    return _forward_scalar(p, vgs, vds, t)


def drain_current(p: CompactModelParams, vgs: float, vds: float,
                  t: float = T_REF) -> tuple[float, float, float]:
    """Drain current in A and its slopes gm = d id/d vgs and gds = d id/d vds
    in A/V at one bias point; scalar biases in, three Python floats out.

    n-type convention: positive for vgs, vds > 0. p-type devices are
    evaluated by sign reflection, so a pFET carries negative current at
    negative bias; the reflection leaves the slopes' signs as they are.
    The reverse-bias branch swaps source and drain, which keeps the
    expression continuous through vds = 0.

    A circuit transient calls this once per transistor per Newton
    iteration, for the current and the Jacobian stamps at once. The body
    is plain `math` because numpy's per-call overhead made each such call
    about ten times slower.
    """
    if not t > 0:
        raise ConfigurationError("temperature must be positive")
    s = -1.0 if p.polarity == "p" else 1.0
    i, gm, gds = _ncurrent(p, s * float(vgs), s * float(vds), float(t))
    return s * i, gm, gds


def _bias(p: CompactModelParams, v):
    """Map a bias magnitude onto the device's own sign convention."""
    return -v if p.polarity == "p" else v


def _brentq(f, xa: float, xb: float, xtol: float = 2e-12,
            rtol: float = 4 * math.ulp(1.0), maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method.

    A step-for-step port of scipy.optimize.brentq (its brentq.c, after
    Brent, "Algorithms for Minimization without Derivatives", 1973, ch. 4),
    with its defaults and failures: ValueError when f(xa) and f(xb) have
    the same sign or f returns NaN, RuntimeError after maxiter iterations.
    Given the same f it returns the same float, bit for bit.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def current_magnitude(p: CompactModelParams, vgs_mag, vds_mag, t=T_REF) -> float:
    return abs(drain_current(p, _bias(p, vgs_mag), _bias(p, vds_mag), t)[0])


def threshold_voltage(p: CompactModelParams, vdd: float) -> float:
    """Constant-current threshold: gate magnitude where |id| = icrit at |vds| = vdd.

    The criterion icrit is I_CRIT but never exceeds a fifth of the device's
    own on-current, so weak devices stay measurable.
    """
    icrit = min(I_CRIT, 0.2 * current_magnitude(p, vdd, vdd))
    lo, hi = -1.0, vdd + 2.0
    f = lambda v: current_magnitude(p, v, vdd) - icrit
    if f(lo) > 0 or f(hi) < 0:
        raise CalibrationError("threshold criterion outside sweep range", stage="vth")
    return _brentq(f, lo, hi, xtol=1e-9)


def subthreshold_swing(p: CompactModelParams, vdd: float) -> float:
    """Swing in mV/dec as the local slope at the off-state point."""
    v1, v2 = 0.0, 0.02
    i1 = current_magnitude(p, v1, vdd)
    i2 = current_magnitude(p, v2, vdd)
    return 1e3 * (v2 - v1) / math.log10(i2 / i1)


# Calibration stages in run order: target -> (fitted parameter, measurement
# at vdd, parameter bracket for a target, log scale). A log stage zeroes the
# log ratio of measurement and target, the others their difference.
_STAGES = {
    "vth": ("vth0", threshold_voltage, lambda t: (t - 0.6, t + 0.6), False),
    "ss": ("n_ss", subthreshold_swing, lambda t: (1.0, 4.0), False),
    "ioff": ("i0", lambda p, vdd: current_magnitude(p, 0.0, vdd),
             lambda t: (1e-18, 1e-2), True),
    "ion": ("vsat0", lambda p, vdd: current_magnitude(p, vdd, vdd),
            lambda t: (1e2, 1e8), True),
}


def _fit_stage(p: CompactModelParams, name: str, target: float,
               vdd: float) -> CompactModelParams:
    """Refit one stage's parameter by a 1D root find in its bracket.

    With no sign change it clamps to the closer end. That is not an error by
    itself: earlier stages re-run in the next coordinate sweep and usually
    pull the root back into the bracket. calibrate() raises if they never do.
    """
    param, measure, bracket, log = _STAGES[name]

    def residual(v):
        got = measure(replace(p, **{param: v}), vdd)
        return math.log(got / target) if log else got - target

    lo, hi = bracket(target)
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    g = (lambda x: residual(10.0 ** x)) if log else residual
    try:
        fa, fb = g(a), g(b)
    except (OverflowError, ValueError) as exc:
        raise CalibrationError(f"stage {name}: evaluation failed ({exc})", stage=name)
    if fa * fb > 0:
        x = a if abs(fa) <= abs(fb) else b
    else:
        x = _brentq(g, a, b, xtol=1e-12, rtol=1e-12)
    return replace(p, **{param: 10.0 ** x if log else float(x)})


def fit_ion(p: CompactModelParams, ion: float, vdd: float) -> CompactModelParams:
    """Tune the velocity-saturation knob alone to hit an on-current."""
    if not ion > 0:
        raise CalibrationError("ion target must be positive", stage="ion")
    fitted = _fit_stage(p, "ion", ion, vdd)
    if abs(current_magnitude(fitted, vdd, vdd) / ion - 1.0) > 1e-2:
        raise CalibrationError("ion target unreachable via vsat0", stage="ion")
    return fitted


def extract_targets(p: CompactModelParams, vdd: float) -> dict[str, float]:
    """Calibration targets as measured from the model itself."""
    return {**{k: measure(p, vdd) for k, (_, measure, _, _) in _STAGES.items()}, "vdd": vdd}


def calibrate(targets: dict[str, float], seed: CompactModelParams) -> CompactModelParams:
    """Staged coordinate fit: vth0, then n_ss, then i0, then vsat0.

    Each stage is a 1D root find against its measured quantity. The stages
    interact weakly through the shared curve, so the sweep repeats until
    every residual is far inside the 1 percent contract or raises naming
    the stage that cannot reach its target.
    """
    for key in (*_STAGES, "vdd"):
        if key not in targets:
            raise CalibrationError(f"missing target {key!r}")
    if not targets["ion"] > targets["ioff"] > 0:
        raise CalibrationError("need ion > ioff > 0")
    vdd = targets["vdd"]
    p = seed

    for _ in range(MAX_SWEEPS):
        for name in _STAGES:
            p = _fit_stage(p, name, targets[name], vdd)
        res = calibration_residuals(p, targets)
        if all(abs(r) < 1e-5 for r in res.values()):
            break
    bad = [k for k, r in res.items() if abs(r) > 1e-2]  # res is of the final p
    if bad:
        raise CalibrationError(
            f"stage {bad[0]}: target unreachable within parameter bounds "
            f"(residuals above 1 percent: {bad})", stage=bad[0])
    return p


def calibration_residuals(p: CompactModelParams, targets: dict[str, float]) -> dict[str, float]:
    got = extract_targets(p, targets["vdd"])
    return {k: got[k] / targets[k] - 1.0 for k in _STAGES}


def calibration_report(p: CompactModelParams, targets: dict[str, float]) -> str:
    got = extract_targets(p, targets["vdd"])
    lines = ["stage target achieved residual"]
    for k in _STAGES:
        lines.append(f"{k} {float(targets[k])!r} {float(got[k])!r} {float(got[k] / targets[k] - 1.0)!r}")
    return "\n".join(lines) + "\n"


@dataclass
class OperatingPoint:
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

    `operator` may be given: another context's operator for the same grid,
    materials and boundary conditions, which `prepare` then reuses. Left
    None, the first `prepare` assembles it.
    """

    grid: object
    materials: dict[str, Material]
    bc: ThermalBC
    device_region: str
    concentration: float = 0.7
    tol: float = 1e-8  # heat-solve tolerance
    operator: ThermalOperator | None = None

    r_mean: float = field(default=0.0, init=False)  # K/W channel-mean rise
    r_max: float = field(default=0.0, init=False)  # K/W peak rise
    _unit_q: np.ndarray | None = field(default=None, init=False, repr=False)
    _unit_rise: np.ndarray | None = field(default=None, init=False, repr=False)

    def prepare(self):
        """Solve the unit rise, assembling `operator` unless it was given."""
        if self._unit_rise is not None:
            return self
        if self.operator is None:
            self.operator = assemble(self.grid, self.materials, self.bc)
        unit = drain_hotspot_source(self.grid, self.device_region, 1.0, self.concentration)
        fld = solve_steady(self.operator, unit, tol=self.tol)
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


# [she] setting -> (test, rule stated in the error)
SHE_RULES = {
    "damping": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "tol_k": POSITIVE,
    "max_iter": (lambda v: v >= 1, "must be at least 1"),
}


def she_operating_point(p: CompactModelParams, vdd: float, ctx: ThermalContext,
                        damping: float = 0.5, tol_k: float = 0.01,
                        max_iter: int = 100) -> OperatingPoint:
    """Damped fixed point between drain current and channel temperature,
    with the device fully on: |vgs| = |vds| = vdd. `ion_degradation` is the
    share of the on-current lost against the same device at ambient."""
    check_rules(SHE_RULES, {"damping": damping, "tol_k": tol_k, "max_iter": max_iter})
    ctx.prepare()
    ambient = ctx.bc.ambient
    i_iso = current_magnitude(p, vdd, vdd, ambient)
    t_ch = ambient
    residuals = []
    for it in range(1, max_iter + 1):
        i_d = current_magnitude(p, vdd, vdd, t_ch)
        power = i_d * vdd
        t_target = ambient + power * ctx.r_mean
        step = damping * (t_target - t_ch)
        t_ch += step
        residuals.append(abs(step))
        if abs(step) < tol_k:
            break
    else:
        raise CouplingDivergenceError(
            f"electro-thermal loop open after {max_iter} iterations "
            f"(last step {residuals[-1]:.3g} K)")
    i_final = current_magnitude(p, vdd, vdd, t_ch)
    power = i_final * vdd
    degradation = 1.0 - i_final / i_iso if i_iso > 0 else 0.0
    return OperatingPoint(id=i_final, t_channel=t_ch,
                          delta_t=power * ctx.r_max, ion_degradation=degradation,
                          iterations=it, residuals=residuals)

