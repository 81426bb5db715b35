"""Acceptance suite: one test per release criterion, each printing a
PASS line and holding to its runtime budget."""

import math
import time

import numpy as np
import pytest

from cfetsim import cli
from cfetsim.circuit import (
    Capacitor,
    Netlist,
    Resistor,
    Stimulus,
    VSource,
    inverter_experiment,
    transient,
)
from cfetsim.device import (
    CompactModelParams,
    ThermalContext,
    calibrate,
    extract_targets,
    fit_ion,
    she_operating_point,
)
from cfetsim.geometry import (
    RAIL_NAMES,
    BeolSpec,
    Region,
    build_cfet_stack,
    build_inverter_cell,
    default_stack,
    voxelize,
    wired_tiers,
)
from cfetsim.netlist_io import format_netlist
from cfetsim.parasitics import (
    boundary_port_faces,
    extract_capacitance,
    extract_resistance,
    inverter_terminals,
    to_netlist,
)
from cfetsim.thermal import (
    FACE_KEYS,
    HeatSourceField,
    ThermalBC,
    assemble,
    default_bc,
    energy_balance,
    solve_steady,
)

EPS0 = 8.8541878128e-12
NM = 1e-9
VDD = 0.75


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s")
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.1f}s)")
        return False


# reference RC tables (ohm, farad) for the three inverter designs
RC_2TIER = [
    ("R", "Ground", "NSource", 21.62), ("R", "PSource", "Power", 11.37),
    ("R", "Input", "Gate", 5.61), ("R", "Output", "Drain", 3.89),
    ("C", "Power", "Input", 5.13e-24), ("C", "NSource", "Gate", 1.17e-17),
    ("C", "Gate", "Drain", 2.66e-17), ("C", "Output", "Gate", 2.29e-19),
]
RC_4TIER_BOTTOM = [
    ("R", "Ground", "NSource", 68.18), ("R", "PSource", "Power", 48.76),
    ("R", "Input", "Gate", 78.12), ("R", "Output", "Drain", 73.48),
    ("C", "Power", "Input", 1.13e-22), ("C", "NSource", "Gate", 1.25e-17),
    ("C", "Gate", "Drain", 3.01e-17), ("C", "Output", "Gate", 2.58e-20),
]
RC_4TIER_TOP = [
    ("R", "Ground", "NSource", 160.7), ("R", "PSource", "Power", 120.5),
    ("R", "Input", "Gate", 11.72), ("R", "Output", "Drain", 18.89),
    ("C", "Power", "Input", 2.71e-23), ("C", "NSource", "Gate", 1.36e-17),
    ("C", "Gate", "Drain", 2.88e-17), ("C", "Output", "Gate", 1.66e-20),
]

# published ratio-table entries; the Power-Input bottom ratio is restated as
# the exact quotient of the inputs (the printed source rounds inconsistently)
EXPECTED_RATIOS_BOTTOM = {
    "R_Ground_NSource": 3.15, "R_PSource_Power": 4.29,
    "R_Input_Gate": 13.93, "R_Output_Drain": 18.89,
    "C_Power_Input": 22.03, "C_NSource_Gate": 1.07,
    "C_Gate_Drain": 1.13, "C_Output_Gate": 0.11,
}
EXPECTED_RATIOS_TOP = {
    "R_Ground_NSource": 7.43, "R_PSource_Power": 10.60,
    "R_Input_Gate": 2.09, "R_Output_Drain": 4.86,
    "C_Power_Input": 5.28, "C_NSource_Gate": 1.16,
    "C_Gate_Drain": 1.08, "C_Output_Gate": 0.07,
}


def rc_netlist(rows):
    nl = Netlist()
    for kind, n1, n2, value in rows:
        cls = Resistor if kind == "R" else Capacitor
        nl.add(cls(f"{kind}_{n1}_{n2}", n1, n2, value))
    return nl


def read_ratio_csv(path):
    out = {}
    for line in path.read_text().strip().splitlines()[1:]:
        element, _, _, ratio = line.split(",")
        out[element] = float(ratio)
    return out


def test_criterion_1_ratio_table_arithmetic(tmp_path):
    with Budget("1 ratio-table-arithmetic", 1.0):
        base = tmp_path / "base.sp"
        base.write_text(format_netlist(rc_netlist(RC_2TIER)))
        for rows, expected, tag in (
            (RC_4TIER_BOTTOM, EXPECTED_RATIOS_BOTTOM, "bottom"),
            (RC_4TIER_TOP, EXPECTED_RATIOS_TOP, "top"),
        ):
            variant = tmp_path / f"{tag}.sp"
            variant.write_text(format_netlist(rc_netlist(rows)))
            out = tmp_path / f"ratio_{tag}.csv"
            rc = cli.main(["compare", "--base", str(base),
                           "--variant", str(variant), "--out", str(out)])
            assert rc == 0
            got = read_ratio_csv(out)
            assert set(got) == set(expected)
            for element, value in expected.items():
                assert abs(got[element] - value) <= 0.01 + 1e-12, element


def test_criterion_2_thermal_analytic_oracle(library):
    with Budget("2 thermal-analytic-oracle", 5.0):
        n, length = 64, 64.0
        kappa = library["silicon_bulk"].kappa
        grid = voxelize([Region(((0.0, length), (0.0, 4.0), (0.0, 4.0)),
                                "silicon_bulk")], length / n)
        h = dict.fromkeys(FACE_KEYS, 0.0) | {"x_min": math.inf, "x_max": math.inf}
        op = assemble(grid, library, ThermalBC(h, 300.0))

        q = 1e18
        src = HeatSourceField(np.full(grid.dims, q), grid)
        fld = solve_steady(op, src, tol=1e-12)
        x = grid.centers(0) * NM
        length_m = length * NM
        expected = 300.0 + q * x * (length_m - x) / (2.0 * kappa)
        profile = fld.values[:, 0, 0]
        assert np.abs(profile - expected).max() / (expected.max() - 300.0) < 0.01

        p_in, p_out, rel = energy_balance(op, fld, src)
        assert rel < 1e-6

        rng = np.random.default_rng(2)
        qa = HeatSourceField(rng.random(grid.dims) * 1e17, grid)
        qb = HeatSourceField(rng.random(grid.dims) * 1e17, grid)
        fa = solve_steady(op, qa, tol=1e-12)
        fb = solve_steady(op, qb, tol=1e-12)
        fab = solve_steady(op, HeatSourceField(qa.q + qb.q, grid), tol=1e-12)
        scale = max(fab.values.max() - 300.0, 1e-30)
        assert np.abs(fab.values - (fa.values + fb.values - 300.0)).max() / scale < 1e-8
        f2 = solve_steady(op, HeatSourceField(2.0 * qa.q, grid), tol=1e-12)
        assert np.abs((f2.values - 300.0) - 2.0 * (fa.values - 300.0)).max() / scale < 1e-8


def test_criterion_3_extraction_analytic_oracles(library, device_spec):
    with Budget("3 extraction-analytic-oracles", 60.0):
        # parallel plate with lateral guard of five gaps
        gap, width, thick, guard = 1.0, 100.0, 4.0, 5.0
        regions = [
            Region(((-guard, width + guard), (-guard, width + guard),
                    (-guard - thick, gap + thick + guard)), "sio2"),
            Region(((0, width), (0, width), (-thick, 0.0)),
                   "interconnect_metal", label="A"),
            Region(((0, width), (0, width), (gap, gap + thick)),
                   "interconnect_metal", label="B"),
        ]
        grid = voxelize(regions, 2.5)
        cm = extract_capacitance(grid, library, ["A", "B"], tol=1e-10)
        analytic_c = EPS0 * 3.9 * (width * NM) ** 2 / (gap * NM)
        c_ab = cm.c[cm.names.index("A"), cm.names.index("B")]
        assert -c_ab == pytest.approx(analytic_c, rel=0.05)

        # uniform bar and series composition
        def bar_r(length):
            g = voxelize([Region(((0, length), (0, 5.0), (0, 5.0)),
                                 "interconnect_metal", label="bar")], 2.0)
            faces = boundary_port_faces(g, "bar")
            terms = {"A": [f for f in faces if f[:2] == (0, 0)],
                     "B": [f for f in faces if f[:2] == (0, 1)]}
            return extract_resistance(g, library, [("A", "B")],
                                      terminals=terms).entries[0].r

        r_100 = bar_r(100.0)
        analytic_r = 3e-8 * (100.0 * NM) / ((5.0 * NM) ** 2)
        assert r_100 == pytest.approx(analytic_r, rel=0.02)
        assert bar_r(200.0) == pytest.approx(2.0 * r_100, rel=0.02)

        # Maxwell structure on the reference inverter extraction
        stack = default_stack(2, substrate_thickness=100.0)
        cell = build_inverter_cell(device_spec, stack, BeolSpec())
        igrid = voxelize(cell, 3.0)
        cmat = extract_capacitance(igrid, library, list(RAIL_NAMES), tol=1e-9)
        c = cmat.c
        scale = np.abs(c).max()
        assert np.abs(c - c.T).max() <= 1e-9 * scale
        assert (np.diag(c) > 0).all()
        off = c - np.diag(np.diag(c))
        assert (off <= 0).all()
        for i in range(len(cmat.names)):
            assert c[i, i] >= -off[i].sum() - 1e-6 * scale


@pytest.fixture(scope="module")
def she_fixture(library, device_spec):
    """Paper-like SHE geometry: tight pair spacing, thick MOL standoff."""
    bc = default_bc()
    stack2 = default_stack(2, tier_gap=2.0, standoff=60.0, substrate_thickness=100.0)
    stack4 = default_stack(4, tier_gap=2.0, pair_gap=10.0, standoff=60.0,
                           substrate_thickness=100.0)
    grid2 = voxelize(build_cfet_stack(device_spec, stack2), 3.0)
    grid4 = voxelize(build_cfet_stack(device_spec, stack4), 3.0)
    ion_n = 1.6e-6
    pn = fit_ion(CompactModelParams(k_vth=0.0), ion_n, VDD)
    pp = fit_ion(CompactModelParams(polarity="p", mu0=470.0, alpha_mu=1.5,
                                    k_vth=0.0), ion_n * 1.175, VDD)
    return bc, grid2, grid4, pn, pp


def test_criterion_4_she_ordering_suite(library, she_fixture):
    with Budget("4 she-ordering-suite", 120.0):
        bc, grid2, grid4, pn, pp = she_fixture

        def ctx(grid, region):
            return ThermalContext(grid, library, bc, region)

        # (a) pFET sits below the nFET but carries 17.5 percent more current
        op_n = she_operating_point(pn, VDD, ctx(grid2, "tier1.channel"))
        op_p = she_operating_point(pp, VDD, ctx(grid2, "tier0.channel"))
        assert op_p.delta_t > op_n.delta_t
        assert op_p.ion_degradation > op_n.ion_degradation

        # (b) matched device, bottom-pair vs top-pair tier of the 4-tier stack
        op_bot = she_operating_point(pn, VDD, ctx(grid4, "tier1.channel"))
        op_top = she_operating_point(pn, VDD, ctx(grid4, "tier3.channel"))
        assert op_top.delta_t > op_bot.delta_t

        # (c) strictly positive degradation, larger in the top tier
        assert op_bot.ion_degradation > 0.0
        assert op_top.ion_degradation > op_bot.ion_degradation


@pytest.fixture(scope="module")
def extracted_netlists(library, device_spec):
    beol = BeolSpec(via_cross_section=16.0)
    out = {}
    for design in ("2tier", "4tier-bottom", "4tier-top"):
        tiers = 2 if design == "2tier" else 4
        variant = "top" if design.endswith("top") else "bottom"
        stack = default_stack(tiers, substrate_thickness=100.0)
        cell = build_inverter_cell(device_spec, stack, beol, variant)
        grid = voxelize(cell, 3.0)
        cm = extract_capacitance(grid, library, list(RAIL_NAMES), tol=1e-9)
        terms = inverter_terminals(grid, wired_tiers(stack, variant))
        rr = extract_resistance(grid, library, terminals=terms)
        nl, _ = to_netlist(cm, rr, floor=1e-21)
        out[design] = nl
    return out


def test_criterion_5_delay_suite(nfet, pfet, extracted_netlists):
    with Budget("5 delay-suite", 60.0):
        # single-pole RC oracle
        r, c = 1e3, 1e-15
        tau = r * c
        nl = Netlist()
        nl.add(VSource("Vs", "in", "0", ((0.0, 0.0), (1e-18, 1.0))))
        nl.add(Resistor("R1", "in", "out", r))
        nl.add(Capacitor("C1", "out", "0", c))
        waves = transient(nl, 8 * tau, tau / 100)
        out = waves["out"]
        idx = int(np.argmax(out.v >= 0.5))
        t50 = np.interp(0.5, [out.v[idx - 1], out.v[idx]],
                        [out.t[idx - 1], out.t[idx]])
        assert t50 == pytest.approx(math.log(2.0) * tau, rel=0.01)

        # empty parasitics leave the delay untouched
        res_empty = inverter_experiment(nfet, pfet, VDD, Netlist(), 1e-16,
                                        Stimulus(dt_fs=5.0))
        assert res_empty.degradation == 0.0

        # every extracted netlist slows the inverter down
        tp_with = {}
        for design, para in extracted_netlists.items():
            res = inverter_experiment(nfet, pfet, VDD, para, 1e-16,
                                      Stimulus(dt_fs=2.0))
            assert res.tp_with > res.tp_without, design
            tp_with[design] = res.tp_with

        # stacking taller does not speed the loaded inverter up
        assert tp_with["4tier-top"] >= tp_with["2tier"]

        # halving the step moves the reference delay by less than one percent
        res_a = inverter_experiment(nfet, pfet, VDD, None, 1e-16, Stimulus(dt_fs=5.0))
        res_b = inverter_experiment(nfet, pfet, VDD, None, 1e-16, Stimulus(dt_fs=2.5))
        assert res_b.tp_without == pytest.approx(res_a.tp_without, rel=0.01)


def test_criterion_6_calibration_round_trip():
    with Budget("6 calibration-round-trip", 5.0):
        rng = np.random.default_rng(314)
        for _ in range(3):
            seed = CompactModelParams(
                vth0=float(rng.uniform(0.24, 0.40)),
                n_ss=float(rng.uniform(1.05, 1.55)),
                i0=float(10 ** rng.uniform(-6.4, -5.6)),
                vsat0=float(10 ** rng.uniform(4.9, 6.1)))
            targets = extract_targets(seed, VDD)
            fitted = calibrate(targets, CompactModelParams())
            for name in ("vth0", "n_ss", "i0", "vsat0"):
                assert getattr(fitted, name) == pytest.approx(
                    getattr(seed, name), rel=1e-2), name


PIPELINE_CONFIG = """
[device]
vdd = 0.75V

[stack]
tier_count = 2
substrate_thickness = 60nm

[beol]
margin = 12nm
via_cross_section = 16

[mesh]
resolution = 3nm

[thermal]
power = 1e-6

[experiment]
n.ion = 2.0e-6
p.ion = 2.35e-6
n.k_vth = 0
p.k_vth = 0
p.alpha_mu = 1.5
load_c = 1e-17
period_ps = 600
edge_ps = 6
dt_fs = 300
"""


def test_criterion_7_pipeline_determinism(tmp_path):
    with Budget("7 pipeline-determinism", 120.0):
        config = tmp_path / "run.ini"
        config.write_text(PIPELINE_CONFIG)

        def pipeline(tag):
            base = tmp_path / tag
            assert cli.main(["extract", str(config), "--design", "2tier",
                             "--out", str(base / "ex")]) == 0
            assert cli.main(["thermal", str(config), "--device", "0:p",
                             "--out", str(base / "th")]) == 0
            assert cli.main(["delay", str(config), "--design", "2tier",
                             "--parasitics", str(base / "ex" / "netlist.sp"),
                             "--she", "on", "--out", str(base / "dl")]) == 0
            return base

        a = pipeline("a")
        b = pipeline("b")
        for rel in ("ex/netlist.sp", "ex/capacitance.csv", "ex/resistance.csv",
                    "th/heatmap.csv", "th/summary.txt", "dl/report.txt",
                    "dl/waveforms.csv"):
            pa = (a / rel).read_bytes()
            pb = (b / rel).read_bytes()
            assert pa == pb, f"{rel} differs between runs"
