import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from cfetsim.device import (
    K_B,
    Q_E,
    CompactModelParams,
    ThermalContext,
    _forward_current,
    calibrate,
    calibration_residuals,
    drain_current,
    extract_targets,
    fit_ion,
    she_operating_point,
    subthreshold_swing,
    threshold_voltage,
)
from cfetsim.errors import CalibrationError, ConfigurationError
from cfetsim.thermal import FaceBC, ThermalBC, default_bc

VDD = 0.75


def reference_current(p, vgs, vds, t):
    """The documented closed form, written out independently."""
    phit = K_B * t / Q_E
    a = p.n_ss * phit
    vth = p.vth0 + p.k_vth * (t - 300.0)
    u = (vgs - vth) / a
    v_q = a * np.logaddexp(0.0, u)
    mu = p.mu0 * 1e-4 * (t / 300.0) ** (-p.alpha_mu)
    vsat = p.vsat0 * (t / 300.0) ** (-p.alpha_vsat)
    esat_l = 2.0 * vsat * p.l_eff / mu
    vdsat = v_q * esat_l / (v_q + esat_l)
    vde = vdsat * math.tanh(vds / vdsat)
    beta = mu * p.cox * p.w_eff / p.l_eff
    core = beta * (v_q - 0.5 * vde) * vde / (1.0 + vde / esat_l)
    leak = p.i0 * expit(u) * (1.0 - math.exp(-vds / phit))
    return core + leak


def test_off_current_matches_closed_form():
    p = CompactModelParams()
    got = drain_current(p, 0.0, VDD, 300.0)
    assert got == pytest.approx(reference_current(p, 0.0, VDD, 300.0), rel=1e-12)


def test_on_current_matches_closed_form():
    p = CompactModelParams()
    got = drain_current(p, VDD, VDD, 300.0)
    assert got == pytest.approx(reference_current(p, VDD, VDD, 300.0), rel=1e-12)


def test_temperature_dependence_disabled():
    p = CompactModelParams(alpha_mu=1e-12, alpha_vsat=0.0, k_vth=0.0)
    cold = drain_current(p, VDD, VDD, 300.0)
    hot = drain_current(p, VDD, VDD, 400.0)
    # only the thermal voltage in the floor term moves, and only slightly
    # the blend width keeps its physical kT/q scaling, nothing else moves
    assert hot == pytest.approx(cold, rel=1e-4)


def test_hotter_means_weaker_above_threshold():
    p = CompactModelParams(k_vth=0.0)
    i1 = drain_current(p, VDD, VDD, 300.0)
    i2 = drain_current(p, VDD, VDD, 360.0)
    i3 = drain_current(p, VDD, VDD, 420.0)
    assert i1 > i2 > i3 > 0


def test_monotone_in_vgs():
    p = CompactModelParams()
    vgs = np.linspace(-0.2, 1.0, 400)
    ids = drain_current(p, vgs, VDD, 300.0)
    assert (np.diff(ids) > 0).all()


def test_continuity_across_blend():
    """Left and right difference quotients agree through the blend region."""
    p = CompactModelParams()
    h = 1e-8
    for vds in (0.05, VDD):
        for t in (300.0, 380.0):
            vgs = np.linspace(0.05, 0.65, 121)
            d_plus = (drain_current(p, vgs + h, vds, t) - drain_current(p, vgs, vds, t)) / h
            d_minus = (drain_current(p, vgs, vds, t) - drain_current(p, vgs - h, vds, t)) / h
            scale = np.maximum(np.abs(d_plus), np.abs(d_minus))
            assert (np.abs(d_plus - d_minus) <= 1e-6 * scale + 1e-30).all()


def test_continuity_through_vds_zero():
    p = CompactModelParams()
    vds = np.linspace(-0.1, 0.1, 2001)
    ids = np.array([drain_current(p, 0.6, float(v), 300.0) for v in vds])
    first = np.diff(ids)
    second = np.abs(np.diff(ids, 2))
    # smooth curve: curvature per step stays far below the local slope
    assert second.max() < 2e-2 * np.abs(first).max()
    assert (first > 0).all()


def test_polarity_sign_reflection():
    pn = CompactModelParams()
    pp = replace(pn, polarity="p")
    for vg, vd in ((0.75, 0.75), (0.3, 0.5), (0.0, 0.75)):
        assert drain_current(pp, -vg, -vd, 310.0) == pytest.approx(
            -drain_current(pn, vg, vd, 310.0), rel=1e-12)


def two_branch_current(p, vgs, vds, t):
    """The model as it was: both bias branches evaluated, one of them kept."""
    def ncurrent(vgs, vds):
        fwd = _forward_current(p, vgs, np.abs(vds), t)
        rev = _forward_current(p, vgs - vds, np.abs(vds), t)
        return np.where(vds >= 0, fwd, -rev)

    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    out = -ncurrent(-vgs, -vds) if p.polarity == "p" else ncurrent(vgs, vds)
    return out.item() if np.ndim(out) == 0 else out


@pytest.mark.parametrize("polarity", ["n", "p"])
@pytest.mark.parametrize("t", [300.0, 400.0])
def test_one_branch_current_equals_two_branch_exactly(polarity, t):
    p = CompactModelParams(polarity=polarity)
    bias = np.append(np.linspace(-VDD, VDD, 30), 0.0)
    vgs, vds = np.meshgrid(bias, bias)
    assert (drain_current(p, vgs, vds, t) == two_branch_current(p, vgs, vds, t)).all()
    for vg in bias:
        for vd in bias:
            got = drain_current(p, float(vg), float(vd), t)
            assert got == two_branch_current(p, float(vg), float(vd), t), (vg, vd)


def numpy_current(p, vgs, vds, t):
    """The model as numpy array code: softplus by logaddexp, the sigmoid
    by expit, the saturation clamp through a masked divide, both bias
    branches through np.where."""
    def forward(vgs, vds):
        phit = K_B * t / Q_E
        a = p.n_ss * phit
        u = (vgs - (p.vth0 + p.k_vth * (t - 300.0))) / a
        v_q = a * np.logaddexp(0.0, u)
        mu = p.mu0 * 1e-4 * (t / 300.0) ** (-p.alpha_mu)
        vsat = p.vsat0 * (t / 300.0) ** (-p.alpha_vsat)
        esat_l = 2.0 * vsat * p.l_eff / mu
        vdsat = v_q * esat_l / (v_q + esat_l)
        vde = vdsat * np.tanh(np.divide(vds, vdsat, out=np.zeros_like(vdsat + vds),
                                        where=vdsat > 0))
        beta = mu * p.cox * p.w_eff / p.l_eff
        core = beta * (v_q - 0.5 * vde) * vde / (1.0 + vde / esat_l)
        return core + p.i0 * expit(u) * (1.0 - np.exp(-vds / phit))

    def ncurrent(vgs, vds):
        reverse = vds < 0
        i = forward(np.where(reverse, vgs - vds, vgs), np.abs(vds))
        return np.where(reverse, -i, i)

    s = -1.0 if p.polarity == "p" else 1.0
    return s * ncurrent(s * np.asarray(vgs, dtype=float), s * np.asarray(vds, dtype=float))


GRID_T = [250.0, 300.0, 400.0, 600.0]
GRID_BIAS = np.linspace(-1.0, 1.0, 21)  # both signs, and 0 exactly


@pytest.mark.parametrize("polarity", ["n", "p"])
@pytest.mark.parametrize("t", GRID_T)
def test_scalar_path_equals_array_path_bitwise(polarity, t):
    p = CompactModelParams(polarity=polarity)
    vgs, vds = np.meshgrid(GRID_BIAS, GRID_BIAS)
    arr = drain_current(p, vgs, vds, t)
    scalar = [drain_current(p, vg, vd, t) for vg, vd in zip(vgs.ravel().tolist(),
                                                            vds.ravel().tolist())]
    assert arr.tobytes() == np.array(scalar).reshape(arr.shape).tobytes()


@pytest.mark.parametrize("polarity", ["n", "p"])
@pytest.mark.parametrize("t", GRID_T)
def test_model_matches_numpy_expression(polarity, t):
    p = CompactModelParams(polarity=polarity)
    vgs, vds = np.meshgrid(GRID_BIAS, GRID_BIAS)
    got = drain_current(p, vgs, vds, t)
    want = numpy_current(p, vgs, vds, t)
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


@pytest.mark.parametrize("vgs", [0.6, np.float64(0.6), np.array(0.6)])
def test_scalar_inputs_return_python_float(vgs):
    p = CompactModelParams()
    got = drain_current(p, vgs, VDD, 300.0)
    assert type(got) is float
    assert got == drain_current(p, 0.6, VDD, 300.0)


@pytest.mark.parametrize("polarity", ["n", "p"])
def test_extreme_bias_stays_finite(polarity):
    p = CompactModelParams(polarity=polarity)
    for vg in (-50.0, 50.0):
        for vd in (-50.0, 0.0, 50.0):
            assert math.isfinite(drain_current(p, vg, vd, 1000.0)), (vg, vd)
    vgs, vds = np.meshgrid([-50.0, 50.0], [-50.0, 0.0, 50.0])
    assert np.isfinite(drain_current(p, vgs, vds, 1000.0)).all()


def test_calibration_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(4):
        seed = CompactModelParams(
            vth0=float(rng.uniform(0.22, 0.40)),
            n_ss=float(rng.uniform(1.05, 1.6)),
            i0=float(10 ** rng.uniform(-6.5, -5.5)),
            vsat0=float(10 ** rng.uniform(4.8, 6.2)))
        targets = extract_targets(seed, VDD)
        fitted = calibrate(targets, CompactModelParams())
        for name in ("vth0", "n_ss", "i0", "vsat0"):
            assert getattr(fitted, name) == pytest.approx(
                getattr(seed, name), rel=1e-2), name
        for resid in calibration_residuals(fitted, targets).values():
            assert abs(resid) < 1e-2


def test_swing_floor_at_ideality_one():
    phit = K_B * 300.0 / Q_E
    floor = math.log(10.0) * phit * 1e3
    targets = extract_targets(CompactModelParams(n_ss=1.0), VDD)
    targets["ss"] = floor * 1.005
    fitted = calibrate(targets, CompactModelParams())
    assert fitted.n_ss == pytest.approx(1.0, abs=0.03)


def test_calibration_rejects_ion_below_ioff():
    with pytest.raises(CalibrationError):
        calibrate({"vth": 0.3, "ss": 75.0, "ioff": 1e-5, "ion": 1e-6, "vdd": VDD},
                  CompactModelParams())


def test_calibration_unreachable_names_stage():
    targets = extract_targets(CompactModelParams(), VDD)
    targets["ion"] = 10.0  # ten amps from one nanosheet
    with pytest.raises(CalibrationError) as err:
        calibrate(targets, CompactModelParams())
    assert err.value.stage == "ion"


def test_fit_ion_single_knob():
    p = fit_ion(CompactModelParams(), 2e-6, VDD)
    assert drain_current(p, VDD, VDD, 300.0) == pytest.approx(2e-6, rel=1e-2)


def she_context(grid, library, region):
    return ThermalContext(grid, library, default_bc(), region)


def test_context_rejects_sinks_at_different_temperatures(device_grid2, library):
    faces = dict(default_bc().faces)
    faces["z_max"] = FaceBC("robin", t=310.0, h=5e4)
    ctx = ThermalContext(device_grid2, library, ThermalBC(faces), "tier0.channel")
    with pytest.raises(ConfigurationError, match="one temperature"):
        ctx.prepare()


def test_context_field_scales_unit_rise(device_grid2, library):
    ctx = she_context(device_grid2, library, "tier0.channel").prepare()
    assert ctx.solve_at_power(0.0).values.max() == 300.0
    one = ctx.solve_at_power(1.0).values - 300.0
    two = ctx.solve_at_power(2.0).values - 300.0
    assert one.max() == pytest.approx(ctx.r_max, rel=1e-12)
    assert np.allclose(two, 2.0 * one, rtol=1e-12, atol=1e-9)


def test_she_one_way_coupling(device_grid2, library):
    p = fit_ion(CompactModelParams(alpha_mu=1e-12, alpha_vsat=0.0, k_vth=0.0, i0=1e-30),
                2e-6, VDD)
    op = she_operating_point(p, VDD, she_context(device_grid2, library, "tier1.channel"))
    assert op.delta_t > 0.0
    assert op.ion_degradation == pytest.approx(0.0, abs=1e-4)


def test_she_stronger_pfet_hotter(device_grid2, library):
    pn = fit_ion(CompactModelParams(k_vth=0.0), 1.6e-6, VDD)
    pp = fit_ion(CompactModelParams(polarity="p", mu0=470.0, alpha_mu=1.5, k_vth=0.0),
                 1.6e-6 * 1.175, VDD)
    op_n = she_operating_point(pn, VDD,
                               she_context(device_grid2, library, "tier1.channel"))
    op_p = she_operating_point(pp, VDD,
                               she_context(device_grid2, library, "tier0.channel"))
    assert op_p.delta_t > op_n.delta_t
    assert op_p.ion_degradation > op_n.ion_degradation > 0.0


def test_she_top_tier_hotter(device_grid4, library):
    p = fit_ion(CompactModelParams(k_vth=0.0), 1.6e-6, VDD)
    op_b = she_operating_point(p, VDD,
                               she_context(device_grid4, library, "tier1.channel"))
    op_t = she_operating_point(p, VDD,
                               she_context(device_grid4, library, "tier3.channel"))
    assert op_t.delta_t > op_b.delta_t
    assert op_t.ion_degradation > op_b.ion_degradation > 0.0


def test_she_residuals_decrease(device_grid2, library):
    p = fit_ion(CompactModelParams(k_vth=0.0), 1.6e-6, VDD)
    op = she_operating_point(p, VDD,
                             she_context(device_grid2, library, "tier1.channel"))
    tail = op.residuals[1:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


def test_degradation_in_unit_interval_with_nonneg_coefficients():
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = CompactModelParams(
            alpha_mu=float(rng.uniform(0.2, 2.0)),
            alpha_vsat=float(rng.uniform(0.0, 1.0)),
            k_vth=float(rng.uniform(0.0, 2e-3)))
        t_hot = float(rng.uniform(301.0, 500.0))
        i_cold = drain_current(p, VDD, VDD, 300.0)
        i_hot = drain_current(p, VDD, VDD, t_hot)
        degradation = 1.0 - i_hot / i_cold
        assert 0.0 <= degradation < 1.0


def test_threshold_and_swing_measures(nfet):
    assert 0.1 < threshold_voltage(nfet, VDD) < 0.6
    assert 59.0 < subthreshold_swing(nfet, VDD) < 120.0
