import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfetsim import circuit, cli, device
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
from cfetsim.errors import (
    ConfigurationError,
    MeasurementError,
    NetlistError,
    TransientFailureError,
)
from cfetsim.thermal import default_bc

VDD = 0.75
SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sample_2tier.ini"


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
    text = "".join(waveforms_csv(res.waves_without))  # the chunks atomic_write streams
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t_s"
    assert "Input" in header and "Output" in header
    waves = res.waves_without
    assert len(lines) == len(waves["Input"].t) + 1
    for i in range(len(lines) - 1):  # each row is the repr of every sample
        row = [waves["Input"].t[i]] + [waves[n].v[i] for n in header[1:]]
        assert lines[i + 1] == ",".join(repr(float(v)) for v in row)


def test_spliced_netlist_separates_device_nodes(devices):
    pn, pp = devices
    para = Netlist([Resistor("R_Input_Gate", "Input", "Gate", 100.0)])
    nl = build_inverter_netlist(pn, pp, VDD, 1e-16, Stimulus(), para)
    nodes = nl.nodes
    assert "Gate" in nodes
    # rails without a parasitic resistor stay merged with the device node
    assert "Drain" not in nodes


@pytest.mark.parametrize("make, message", [
    (lambda: Resistor("R1", "a", "0", math.nan), "R1: resistance must be positive and finite"),
    (lambda: Resistor("R1", "a", "0", -1.0), "R1: resistance must be positive and finite"),
    (lambda: Capacitor("C1", "a", "0", math.nan), "C1: capacitance must be >= 0 and finite"),
    (lambda: Capacitor("C1", "a", "0", math.inf), "C1: capacitance must be >= 0 and finite"),
    (lambda: replace(Capacitor("C1", "a", "0", 1e-18), value=-1e-18),
     "C1: capacitance must be >= 0 and finite"),
    (lambda: Netlist([Resistor("R1", "a", "0", 1.0), Capacitor("R1", "a", "0", 0.0)]),
     "duplicate element name 'R1'"),
    (lambda: Netlist().add(Resistor("R1", "a", "0", 1.0)).add(Resistor("R1", "b", "0", 1.0)),
     "duplicate element name 'R1'"),
], ids=["r-nan", "r-negative", "c-nan", "c-inf", "c-replaced-negative", "netlist-init",
        "netlist-add"])
def test_elements_are_checked_where_they_are_made(make, message):
    with pytest.raises(NetlistError, match=message):
        make()


def test_splicing_under_an_intrinsic_name_raises(devices):
    pn, pp = devices
    para = Netlist([Capacitor("Cload", "Output", "0", 1e-18)])
    with pytest.raises(NetlistError, match="duplicate element name 'Cload'"):
        build_inverter_netlist(pn, pp, VDD, 1e-16, Stimulus(), para)


def test_device_stamps_evaluate_the_model_through_the_module_attribute(devices, monkeypatch):
    """One evaluation per transistor per stamp, since the model returns its
    slopes with the current, each a call of `circuit.drain_current`, which
    is what an outside counter wraps."""
    pn, pp = devices
    mna = _Mna(build_inverter_netlist(pn, pp, VDD, 1e-16, Stimulus()))
    x = np.append(np.linspace(0.1, VDD, mna.n), 0.0)  # ground last

    def stamps(x):
        jac, f = np.zeros((mna.n + 1, mna.n + 1)), np.zeros(mna.n + 1)
        mna._device_stamps(x, jac, f)
        return jac, f

    want = stamps(x)
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
    got = stamps(x)
    assert len(mna.transistors) == 2
    assert len(calls) == len(mna.transistors)
    assert len(bodies) == len(calls)  # no model evaluation bypasses the attribute
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_device_stamps_are_the_jacobian_of_the_currents(devices):
    """Each stamped column matches central differences of the stamped
    currents in that node's voltage, ground's column included."""
    pn, pp = devices
    mna = _Mna(build_inverter_netlist(pn, pp, VDD, 1e-16, Stimulus()))
    size = mna.n + 1

    def stamps(x):
        jac, f = np.zeros((size, size)), np.zeros(size)
        mna._device_stamps(x, jac, f)
        return jac, f

    x = np.append(np.linspace(0.1, VDD, mna.n), 0.0)
    jac = stamps(x)[0]
    h = 1e-9
    for k in range(size):
        step = np.zeros(size)
        step[k] = h
        column = (stamps(x + step)[1] - stamps(x - step)[1]) / (2 * h)
        assert np.abs(jac[:, k] - column).max() <= 1e-6 * np.abs(jac).max(), k
    assert np.abs(jac).max() > 0


def test_pwl_value_equals_numpy_interp_bitwise():
    """The source interpolation returns np.interp's float, bit for bit: at
    every step and half-step time of a transient, just before, at and just
    after each corner, outside the ends, and for a one-point source."""
    stim = Stimulus()
    ts, vs = map(list, zip(*stim.pwl(VDD)))
    steps = round(stim.tstop / stim.dt)
    times = [k * stim.dt for k in range(steps + 1)]
    times += [(k + 0.5) * stim.dt for k in range(steps)]
    for corner in ts:
        times += [math.nextafter(corner, -math.inf), corner, math.nextafter(corner, math.inf)]
    times += [-1e-12, 2 * stim.tstop]
    for t in times:
        assert circuit._pwl_value(ts, vs, t).hex() == float(np.interp(t, ts, vs)).hex(), t
    for t in (-1e-12, 0.0, 1e-12):
        assert circuit._pwl_value([0.0], [VDD], t).hex() == float(np.interp(t, [0.0], [VDD])).hex()


@pytest.mark.parametrize("kwargs, key", [
    ({"edge_ps": 0.0}, "edge_ps"), ({"edge_ps": -1.0}, "edge_ps"),
    ({"edge_ps": 8.0, "period_ps": 20.0}, "edge_ps"),
    ({"edge_ps": 15.0, "period_ps": 20.0}, "edge_ps"),
    ({"edge_ps": 1.0, "period_ps": 0.0}, "edge_ps"),
    ({"dt_fs": 0.0}, "dt_fs"), ({"dt_fs": -5.0}, "dt_fs"),
    ({"dt_fs": 1000.5, "edge_ps": 1.0}, "dt_fs must not exceed the input edge of 1000 fs"),
    ({"dt_fs": 50000.0, "edge_ps": 2.0}, "dt_fs must not exceed the input edge of 2000 fs"),
    # 2e10, 1,000,001 and inf print samples, against the cap of 1e6
    ({"dt_fs": 1e-6}, "dt_fs must leave at most 1,000,000 print samples in the 20 ps period"),
    ({"dt_fs": 0.02}, "dt_fs must leave at most 1,000,000 print samples in the 20 ps period"),
    ({"dt_fs": 5e-324}, "dt_fs must leave at most 1,000,000 print samples in the 20 ps period"),
])
def test_stimulus_rejects_non_increasing_pwl(kwargs, key):
    with pytest.raises(ConfigurationError, match=key):
        Stimulus(**kwargs)


def test_stimulus_accepts_a_step_as_long_as_the_edge():
    assert Stimulus(edge_ps=2.0, dt_fs=2000.0).dt == 2e-12


def test_stimulus_accepts_edge_just_inside_the_phase():
    times = [t for t, _ in Stimulus(edge_ps=7.9, period_ps=20.0).pwl(VDD)]
    assert all(b > a for a, b in zip(times, times[1:]))


def resistor_load_mna(devices):
    """nFET pulled up by 10 kOhm with its gate at VDD: the output sits at 0.15 V."""
    nl = Netlist()
    nl.add(VSource("Vdd", "Power", "0", ((0.0, VDD),)))
    nl.add(VSource("Vin", "Input", "0", ((0.0, VDD),)))
    nl.add(Resistor("Rl", "Power", "Output", 1e4))
    nl.add(Transistor("Mn", "Output", "Input", "0", devices[0], 300.0))
    return _Mna(nl)


def failing_newton(monkeypatch, fails):
    """Patch `_Mna.newton` to return None wherever fails(t, dt) holds;
    returns the list of (t, dt) of every call."""
    newton = _Mna.newton
    calls = []

    def patched(self, x_prev, t, dt):
        calls.append((t, dt))
        if fails(t, dt):
            return None
        return newton(self, x_prev, t, dt)

    monkeypatch.setattr(circuit._Mna, "newton", patched)
    return calls


def test_failed_dc_solve_raises_at_time_zero(devices, monkeypatch):
    calls = failing_newton(monkeypatch, lambda t, dt: dt is None)
    with pytest.raises(TransientFailureError, match="DC operating point") as err:
        resistor_load_mna(devices).dc_operating_point()
    assert err.value.time == 0.0
    assert calls == [(0.0, None)]  # one direct solve, no fallback


def test_transient_step_failure_names_the_smallest_step(devices, monkeypatch):
    """A step whose Newton solve fails is halved from the size the controller
    tried until it is at most dt/64, and that one raises at its end time."""
    pn, pp = devices
    stim = Stimulus()
    dt = stim.dt
    t_fail = 3.5 * dt  # every step that starts later fails at every size
    calls = failing_newton(monkeypatch, lambda t, step: step is not None and t - step > t_fail)
    with pytest.raises(TransientFailureError, match="dt/64") as err:
        transient(build_inverter_netlist(pn, pp, VDD, 1e-16, stim), stim.tstop, dt)
    failed = [(t, step) for t, step in calls if step is not None and t - step > t_fail]
    assert calls[-len(failed):] == failed  # no solve between the halvings
    start = failed[0][0] - failed[0][1]
    sizes = [step for _, step in failed]
    assert [t - step for t, step in failed] == pytest.approx([start] * len(sizes), rel=1e-12)
    assert sizes == pytest.approx([sizes[0] / 2**k for k in range(len(sizes))], rel=1e-12)
    assert sizes[-1] <= dt / 64 < sizes[-2]
    assert err.value.time == failed[-1][0] == pytest.approx(start + sizes[-1], rel=1e-12)


def test_cli_delay_transient_failure_exits_three(tmp_path, monkeypatch, capsys):
    failing_newton(monkeypatch, lambda t, dt: dt is not None)
    rc = cli.main(["delay", str(SAMPLE_CONFIG), "--design", "2tier",
                   "--parasitics", "off", "--out", str(tmp_path / "delay")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and "dt/64" in err


def test_a_corner_closer_than_dt_over_64_is_stepped_through():
    """The step source's corner at 1e-18 s is stepped through: landing on it
    needs a 1e-18 s step, at which Newton cannot move the source current."""
    nl = Netlist([VSource("Vs", "in", "0", ((0.0, 0.0), (1e-18, 1.0))),
                  Resistor("R1", "in", "out", 1e3), Capacitor("C1", "out", "0", 1e-15)])
    mna = _Mna(nl)
    times, _ = circuit._steps(mna, mna.dc_operating_point(), 1e-12, 1e-14)
    assert 1e-18 not in times and times[1] == 1e-14
    waves = transient(nl, 1e-12, 1e-14)
    assert waves["in"].v[1:].min() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < waves["out"].v[-1] < 1.0


def test_every_source_corner_is_an_accepted_step(devices):
    pn, pp = devices
    stim = Stimulus()
    mna = _Mna(build_inverter_netlist(pn, pp, VDD, 1e-16, stim))
    times, _ = circuit._steps(mna, mna.dc_operating_point(), stim.tstop, stim.dt)
    corners = [t for t, _ in stim.pwl(VDD)][1:]
    assert set(corners) <= set(times)
    assert len(times) < stim.tstop / stim.dt / 2  # the controller takes longer steps


def test_delay_is_within_1e_3_of_a_fixed_1fs_step(devices):
    pn, pp = devices
    stim = Stimulus()
    nl = build_inverter_netlist(pn, pp, VDD, 1e-16, stim)
    mna, dt = _Mna(nl), 1e-15
    n = round(stim.tstop / dt)
    states = [mna.dc_operating_point()]
    for k in range(1, n + 1):
        states.append(mna.newton(states[-1], k * dt, dt))
    t, arr = np.arange(n + 1) * dt, np.array(states)
    vin, vout = (Waveform(t, arr[:, mna.node_index[name]]) for name in ("Input", "Output"))
    reference = propagation_delay(vin, vout, VDD)
    waves = transient(nl, stim.tstop, stim.dt)
    got = propagation_delay(waves["Input"], waves["Output"], VDD)
    assert got == pytest.approx(reference, rel=1e-3)


def test_sample_delay_evaluates_the_model_fewer_than_10000_times(tmp_path, monkeypatch):
    calls = []
    model = circuit.drain_current

    def counted(*args):
        calls.append(None)
        return model(*args)

    monkeypatch.setattr(circuit, "drain_current", counted)
    rc = cli.main(["delay", str(SAMPLE_CONFIG), "--design", "2tier", "--parasitics", "on",
                   "--she", "on", "--out", str(tmp_path / "delay")])
    assert rc == 0
    assert 0 < len(calls) < 10_000
