import math
from dataclasses import replace

import numpy as np
import pytest

from cfetsim import circuit, device
from cfetsim.circuit import (
    Capacitor,
    Netlist,
    Resistor,
    Stimulus,
    Transistor,
    VSource,
    Waveform,
    _Mna,
    build_inverter_netlist,
    electro_thermal_delay,
    inverter_experiment,
    propagation_delay,
    transient,
    waveforms_csv,
)
from cfetsim.device import CompactModelParams, ThermalContext, fit_ion
from cfetsim.errors import ConfigurationError, MeasurementError, NetlistError
from cfetsim.thermal import default_bc

VDD = 0.75


def step_source(name, node, v1=1.0):
    return VSource(name, node, "0", ((0.0, 0.0), (1e-18, v1)))


def test_rc_half_crossing():
    r, c = 1e3, 1e-15
    tau = r * c
    nl = Netlist()
    nl.add(step_source("Vs", "in"))
    nl.add(Resistor("R1", "in", "out", r))
    nl.add(Capacitor("C1", "out", "0", c))
    waves = transient(nl, 8 * tau, tau / 100)
    out = waves["out"]
    idx = int(np.argmax(out.v >= 0.5))
    t50 = np.interp(0.5, [out.v[idx - 1], out.v[idx]], [out.t[idx - 1], out.t[idx]])
    assert t50 == pytest.approx(math.log(2.0) * tau, rel=0.01)


def test_quiet_netlist_stays_at_zero():
    nl = Netlist()
    nl.add(Resistor("R1", "a", "0", 1e3))
    nl.add(Capacitor("C1", "a", "0", 1e-15))
    waves = transient(nl, 1e-12, 1e-14)
    assert np.abs(waves["a"].v).max() == 0.0


def elmore_ladder(r, cs):
    """Ladder of equal series resistors with grounded caps; returns netlist."""
    nl = Netlist()
    nl.add(step_source("Vs", "n0"))
    for k, c in enumerate(cs):
        nl.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", r))
        nl.add(Capacitor(f"C{k}", f"n{k + 1}", "0", c))
    return nl


def test_three_stage_ladder_matches_elmore():
    r = 1e3
    cs = [2e-15, 1e-15, 3e-15]
    # first moment: sum over nodes of upstream resistance times node capacitance;
    # the 50 percent point of a step response sits near ln(2) of it
    elmore = sum(r * (k + 1) * c for k, c in enumerate(cs))
    t50_estimate = math.log(2.0) * elmore
    nl = elmore_ladder(r, cs)
    waves = transient(nl, 12 * elmore, elmore / 400)
    out = waves["n3"]
    idx = int(np.argmax(out.v >= 0.5))
    t50 = np.interp(0.5, [out.v[idx - 1], out.v[idx]], [out.t[idx - 1], out.t[idx]])
    assert t50 == pytest.approx(t50_estimate, rel=0.15)


def test_floating_node_rejected():
    nl = Netlist()
    nl.add(step_source("Vs", "a"))
    nl.add(Capacitor("C1", "b", "c", 1e-15))  # b, c have no DC path
    with pytest.raises(NetlistError):
        transient(nl, 1e-12, 1e-14)


def _first_floating_node(nl):
    """Reference: union-find over the R, V and transistor edges."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for el in nl.elements:
        if isinstance(el, Transistor):
            pairs = [(el.d, el.s), (el.g, el.s)]
        elif isinstance(el, (Resistor, VSource)):
            pairs = [(el.n1, el.n2)]
        else:
            pairs = []
        for a, b in pairs:
            parent[find(a)] = find(b)
    return next((n for n in nl.nodes if find(n) != find("0")), None)


def test_dc_path_check_matches_union_find():
    rng = np.random.default_rng(5)
    nodes = ["0"] + [f"n{k}" for k in range(7)]
    params = CompactModelParams()
    floating = 0
    for trial in range(200):
        nl = Netlist()
        for k in range(rng.integers(1, 9)):
            a, b, c = (str(n) for n in rng.choice(nodes, 3))
            kind = rng.integers(4)
            if kind == 0:
                nl.add(Resistor(f"R{k}", a, b, 1e3))
            elif kind == 1:
                nl.add(VSource(f"V{k}", a, b, ((0.0, 1.0),)))
            elif kind == 2:
                nl.add(Capacitor(f"C{k}", a, b, 1e-15))
            else:
                nl.add(Transistor(f"M{k}", d=a, g=b, s=c, params=params))
        node = _first_floating_node(nl)
        if node is None:
            nl.validate_for_transient()
        else:
            floating += 1
            with pytest.raises(NetlistError, match=f"^node '{node}' has no DC path to ground$"):
                nl.validate_for_transient()
    assert 0 < floating < 200


def test_passive_voltages_stay_bounded():
    """Backward Euler on randomized passive RC stays inside the source range."""
    rng = np.random.default_rng(23)
    for trial in range(5):
        nl = Netlist()
        nl.add(step_source("Vs", "n0", 1.0))
        n_nodes = 6
        for k in range(n_nodes):
            a = f"n{k}"
            b = f"n{rng.integers(0, k + 1)}" if k else "0"
            nl.add(Resistor(f"R{k}", a, b if k else "0", float(10 ** rng.uniform(2, 4))))
            if k:
                nl.add(Resistor(f"Rc{k}", a, f"n{k - 1}", float(10 ** rng.uniform(2, 4))))
            nl.add(Capacitor(f"C{k}", a, "0", float(10 ** rng.uniform(-16, -14))))
        waves = transient(nl, 1e-11, 2e-13)
        for name, w in waves.items():
            assert w.v.min() >= -1e-9
            assert w.v.max() <= 1.0 + 1e-9


def test_capacitor_charge_matches_integrated_current():
    r, c = 1e3, 1e-15
    nl = Netlist()
    nl.add(step_source("Vs", "in"))
    nl.add(Resistor("R1", "in", "out", r))
    nl.add(Capacitor("C1", "out", "0", c))
    waves = transient(nl, 10 * r * c, r * c / 200)
    v_in, v_out = waves["in"].v, waves["out"].v
    t = waves["out"].t
    # BE consistency: sum of resistor currents times dt equals the charge change
    dt = np.diff(t)
    i_r = (v_in[1:] - v_out[1:]) / r
    charge_in = float((i_r * dt).sum())
    charge_stored = c * (v_out[-1] - v_out[0])
    assert charge_in == pytest.approx(charge_stored, rel=1e-6)


def test_propagation_delay_synthetic_shift():
    t = np.linspace(0.0, 20e-12, 2001)
    vdd = 1.0
    delay = 0.7e-12

    def edge_pair(ts):
        v = np.where((ts > 2e-12) & (ts <= 3e-12), (ts - 2e-12) / 1e-12, 0.0)
        v = np.where(ts > 3e-12, 1.0, v)
        v = np.where(ts > 12e-12, np.clip(1.0 - (ts - 12e-12) / 1e-12, 0.0, 1.0), v)
        return v

    vin = Waveform(t, edge_pair(t) * vdd)
    vout = Waveform(t, vdd - edge_pair(t - delay) * vdd)
    got = propagation_delay(vin, vout, vdd)
    assert got == pytest.approx(delay, abs=2e-14)


def test_propagation_delay_requires_crossings():
    t = np.linspace(0.0, 1e-12, 100)
    vin = Waveform(t, np.where(t > 0.2e-12, 1.0, 0.0))
    flat = Waveform(t, np.full_like(t, 0.1))
    with pytest.raises(MeasurementError):
        propagation_delay(vin, flat, 1.0)
    one_edge = Waveform(t, np.where(t > 0.5e-12, 1.0, 0.0))
    with pytest.raises(MeasurementError):
        propagation_delay(one_edge, flat, 1.0)


@pytest.fixture(scope="module")
def devices(nfet, pfet):
    return nfet, pfet


def test_inverter_empty_parasitics_no_degradation(devices):
    pn, pp = devices
    res = inverter_experiment(pn, pp, VDD, Netlist(), load_c=1e-16,
                              stimulus=Stimulus(dt_fs=10.0))
    assert res.tp_with == res.tp_without
    assert res.degradation == 0.0


def test_inverter_symmetric_edges(devices):
    pn, pp = devices
    res = inverter_experiment(pn, pp, VDD, None, load_c=1e-16,
                              stimulus=Stimulus(dt_fs=5.0))
    waves = res.waves_without
    half = 0.5 * VDD
    vin, vout = waves["Input"], waves["Output"]
    from cfetsim.circuit import _crossings

    in_cross = dict((d, t) for t, d in _crossings(vin, half))
    out_cross = _crossings(vout, half)
    tphl = next(t for t, d in out_cross if d < 0 and t >= in_cross[1]) - in_cross[1]
    tplh = next(t for t, d in out_cross if d > 0 and t >= in_cross[-1]) - in_cross[-1]
    assert tphl == pytest.approx(tplh, rel=0.05)


def test_output_capacitance_monotonicity(devices):
    pn, pp = devices
    tps = []
    for extra in (0.0, 2e-17, 6e-17):
        para = Netlist()
        if extra:
            para.add(Capacitor("C_Output_Ground", "Output", "Ground", extra))
        res = inverter_experiment(pn, pp, VDD, para, load_c=1e-16,
                                  stimulus=Stimulus(dt_fs=10.0))
        tps.append(res.tp_with)
    assert tps[0] <= tps[1] <= tps[2]
    assert tps[2] > tps[0]


def test_input_series_resistance_monotonicity(devices):
    pn, pp = devices
    tps = []
    for r in (1.0, 200.0, 2000.0):
        para = Netlist([Resistor("R_Input_Gate", "Input", "Gate", r)])
        res = inverter_experiment(pn, pp, VDD, para, load_c=1e-16,
                                  stimulus=Stimulus(dt_fs=10.0))
        tps.append(res.tp_with)
    assert tps[0] <= tps[1] <= tps[2]
    assert tps[2] > tps[0]


def test_nonempty_parasitics_increase_delay(devices):
    pn, pp = devices
    para = Netlist([
        Resistor("R_Output_Drain", "Output", "Drain", 30.0),
        Capacitor("C_Input_Output", "Input", "Output", 3e-18),
    ])
    res = inverter_experiment(pn, pp, VDD, para, load_c=1e-16,
                              stimulus=Stimulus(dt_fs=5.0))
    assert res.tp_with > res.tp_without
    assert res.degradation > 0.0


def test_dt_refinement_stability(devices):
    pn, pp = devices
    res_a = inverter_experiment(pn, pp, VDD, None, load_c=1e-16,
                                stimulus=Stimulus(dt_fs=5.0))
    res_b = inverter_experiment(pn, pp, VDD, None, load_c=1e-16,
                                stimulus=Stimulus(dt_fs=2.5))
    assert res_b.tp_without == pytest.approx(res_a.tp_without, rel=0.01)


def test_she_delay_zero_coefficients_identical(device_grid2, library):
    pn = fit_ion(CompactModelParams(alpha_mu=1e-12, alpha_vsat=0.0, k_vth=0.0),
                 1.6e-6, VDD)
    pp = replace(pn, polarity="p")
    stim = Stimulus(dt_fs=200.0, period_ps=500.0, edge_ps=5.0)
    ctx_n = ThermalContext(device_grid2, library, default_bc(), "tier1.channel")
    ctx_p = ThermalContext(device_grid2, library, default_bc(), "tier0.channel")
    she = electro_thermal_delay(pn, pp, ctx_n, ctx_p, VDD, None, 1e-17, stim)
    iso = inverter_experiment(pn, pp, VDD, None, 1e-17, stim)
    assert she.result.tp_without == pytest.approx(iso.tp_without, rel=1e-3)
    assert she.delta_t["n"] > 0 and she.delta_t["p"] > 0


def test_she_delay_not_faster(device_grid2, library):
    pn = fit_ion(CompactModelParams(k_vth=0.0), 1.6e-6, VDD)
    pp = replace(fit_ion(CompactModelParams(polarity="p", mu0=470.0, alpha_mu=1.5,
                                            k_vth=0.0), 1.88e-6, VDD), polarity="p")
    stim = Stimulus(dt_fs=200.0, period_ps=500.0, edge_ps=5.0)
    ctx_n = ThermalContext(device_grid2, library, default_bc(), "tier1.channel")
    ctx_p = ThermalContext(device_grid2, library, default_bc(), "tier0.channel")
    she = electro_thermal_delay(pn, pp, ctx_n, ctx_p, VDD, None, 1e-17, stim)
    iso = inverter_experiment(pn, pp, VDD, None, 1e-17, stim)
    assert she.result.tp_without >= iso.tp_without * (1.0 - 1e-9)


def test_waveforms_csv_shape(devices):
    pn, pp = devices
    res = inverter_experiment(pn, pp, VDD, None, load_c=1e-16,
                              stimulus=Stimulus(dt_fs=20.0))
    text = waveforms_csv(res.waves_without)
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t_s"
    assert "Input" in header and "Output" in header
    assert len(lines) == len(res.waves_without["Input"].t) + 1


def test_spliced_netlist_separates_device_nodes(devices):
    pn, pp = devices
    para = Netlist([Resistor("R_Input_Gate", "Input", "Gate", 100.0)])
    nl = build_inverter_netlist(pn, pp, VDD, 1e-16, Stimulus(), para)
    nodes = nl.nodes
    assert "Gate" in nodes
    # rails without a parasitic resistor stay merged with the device node
    assert "Drain" not in nodes


def test_device_stamps_evaluate_the_model_through_the_module_attribute(devices, monkeypatch):
    """Three evaluations per transistor per stamp, each a call of
    `circuit.drain_current`, which is what an outside counter wraps."""
    pn, pp = devices
    mna = _Mna(build_inverter_netlist(pn, pp, VDD, 1e-16, Stimulus()))
    x = np.linspace(0.1, VDD, mna.n)
    want = mna._device_stamps(x)
    calls, bodies = [], []
    forward = device._forward_scalar

    def counted(*args):
        calls.append(args)
        return device.drain_current(*args)

    def body(*args):
        bodies.append(args)
        return forward(*args)

    monkeypatch.setattr(circuit, "drain_current", counted)
    monkeypatch.setattr(device, "_forward_scalar", body)
    got = mna._device_stamps(x)
    assert len(mna.transistors) == 2
    assert len(calls) == 3 * len(mna.transistors)
    assert len(bodies) == len(calls)  # no model evaluation bypasses the attribute
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@pytest.mark.parametrize("kwargs, key", [
    ({"edge_ps": 0.0}, "edge_ps"), ({"edge_ps": -1.0}, "edge_ps"),
    ({"edge_ps": 8.0, "period_ps": 20.0}, "edge_ps"),
    ({"edge_ps": 15.0, "period_ps": 20.0}, "edge_ps"),
    ({"edge_ps": 1.0, "period_ps": 0.0}, "edge_ps"),
    ({"dt_fs": 0.0}, "dt_fs"), ({"dt_fs": -5.0}, "dt_fs"),
])
def test_stimulus_rejects_non_increasing_pwl(kwargs, key):
    with pytest.raises(ConfigurationError, match=key):
        Stimulus(**kwargs)


def test_stimulus_accepts_edge_just_inside_the_phase():
    times = [t for t, _ in Stimulus(edge_ps=7.9, period_ps=20.0).pwl(VDD)]
    assert all(b > a for a, b in zip(times, times[1:]))
