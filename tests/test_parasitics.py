import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cfetsim.circuit import Capacitor, Netlist, Resistor
from cfetsim import cli, geometry, parasitics
from cfetsim.config import load_config
from cfetsim.errors import (
    ComparisonError,
    ConnectivityError,
    GeometryError,
    IntegrityError,
    RegionNotFoundError,
)
from cfetsim.geometry import (
    RAIL_NAMES,
    BeolSpec,
    Region,
    build_inverter_cell,
    default_stack,
    voxelize,
    wired_tiers,
)
from cfetsim.materials import override
from cfetsim.parasitics import (
    CapacitanceMatrix,
    ResistanceReport,
    boundary_port_faces,
    compare_tiers,
    extract_capacitance,
    extract_resistance,
    inverter_terminals,
    to_netlist,
)

EPS0 = 8.8541878128e-12
NM = 1e-9
SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "sample_2tier.ini"


def plate_pair(gap=1.0, width=100.0, thickness=4.0, guard=5.0):
    regions = [
        Region(((-guard, width + guard), (-guard, width + guard),
                (-guard - thickness, gap + thickness + guard)), "sio2"),
        Region(((0, width), (0, width), (-thickness, 0.0)),
               "interconnect_metal", label="A"),
        Region(((0, width), (0, width), (gap, gap + thickness)),
               "interconnect_metal", label="B"),
    ]
    return voxelize(regions, 2.5)


def bar_grid(length=100.0, side=5.0, res=2.0):
    return voxelize([Region(((0, length), (0, side), (0, side)),
                            "interconnect_metal", label="bar")], res)


def bar_end_terminals(grid):
    faces = boundary_port_faces(grid, "bar")
    return {
        "A": [g for g in faces if g[:2] == (0, 0)],
        "B": [g for g in faces if g[:2] == (0, 1)],
    }


def test_parallel_plate_capacitance(library):
    gap, width = 1.0, 100.0
    grid = plate_pair(gap, width)
    cm = extract_capacitance(grid, library, ["A", "B"], tol=1e-10)
    analytic = EPS0 * 3.9 * (width * NM) ** 2 / (gap * NM)
    c_ab = cm.c[cm.names.index("A"), cm.names.index("B")]
    assert -c_ab == pytest.approx(analytic, rel=0.05)


def test_capacitance_reciprocity(library):
    grid = plate_pair()
    cm = extract_capacitance(grid, library, ["A", "B"], tol=1e-11)
    assert cm.asymmetry < 1e-9


def test_capacitance_linear_in_permittivity(library):
    grid = plate_pair()
    cm1 = extract_capacitance(grid, library, ["A", "B"], tol=1e-11)
    lib2 = override(library, "sio2", "eps_r", 2 * 3.9)
    cm2 = extract_capacitance(lib2 and grid, lib2, ["A", "B"], tol=1e-11)
    assert np.allclose(cm2.c, 2.0 * cm1.c, rtol=1e-9)


@pytest.mark.parametrize("conductors, error, message", [
    (["A"], GeometryError, "need at least two conductors"),
    (["A", "Nope"], RegionNotFoundError, "conductor 'Nope' not on grid"),
    (["A", "B", "A"], GeometryError, "conductor 'A' is listed twice"),
])
def test_capacitance_rejects_bad_conductor_lists(library, conductors, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        extract_capacitance(plate_pair(), library, conductors)


def test_maxwell_structure_validated():
    with pytest.raises(GeometryError):
        CapacitanceMatrix(["A", "B"], np.array([[1e-18, 1e-20], [1e-20, 1e-18]]))
    with pytest.raises(GeometryError):
        CapacitanceMatrix(["A", "B"], np.array([[-1e-18, -1e-20], [-1e-20, 1e-18]]))


def test_bar_resistance_analytic(library):
    length, side = 100.0, 5.0
    grid = bar_grid(length, side)
    rep = extract_resistance(grid, library, pairs=[("A", "B")],
                             terminals=bar_end_terminals(grid))
    analytic = 3e-8 * (length * NM) / ((side * NM) ** 2)
    assert rep.entries[0].r == pytest.approx(analytic, rel=0.02)


def test_series_resistance_adds(library):
    side = 5.0
    grid_one = bar_grid(60.0, side)
    grid_two = bar_grid(120.0, side)
    r1 = extract_resistance(grid_one, library, [("A", "B")],
                            terminals=bar_end_terminals(grid_one)).entries[0].r
    r2 = extract_resistance(grid_two, library, [("A", "B")],
                            terminals=bar_end_terminals(grid_two)).entries[0].r
    assert r2 == pytest.approx(2.0 * r1, rel=0.02)


def test_l_bend_resistance_between_straight_bounds(library):
    # an L of two equal arms lies between the short and the long straight bar
    arm, side = 40.0, 4.0
    regions = [
        Region(((0, arm), (0, side), (0, arm)), "sio2"),
        Region(((0, arm), (0, side), (0, side)), "interconnect_metal", label="bar"),
        Region(((arm - side, arm), (0, side), (0, arm)), "interconnect_metal", label="bar"),
    ]
    grid = voxelize(regions, 2.0)
    faces = boundary_port_faces(grid, "bar")
    terms = {
        "A": [g for g in faces if g[:2] == (0, 0)],
        "B": [g for g in faces if g[:2] == (2, 1)],
    }
    r = extract_resistance(grid, library, [("A", "B")], terminals=terms).entries[0].r
    rho_per = 3e-8 / ((side * NM) ** 2) * NM
    assert rho_per * arm < r < rho_per * 2 * arm


def test_disconnected_terminals_raise(library):
    regions = [
        Region(((0, 50), (0, 4), (0, 4)), "sio2"),
        Region(((0, 20), (0, 4), (0, 4)), "interconnect_metal", label="bar"),
        Region(((30, 50), (0, 4), (0, 4)), "interconnect_metal", label="bar2"),
    ]
    grid = voxelize(regions, 2.0)
    t1 = [g for g in boundary_port_faces(grid, "bar") if g[:2] == (0, 0)]
    t2 = [g for g in boundary_port_faces(grid, "bar2") if g[:2] == (0, 1)]
    with pytest.raises(ConnectivityError):
        extract_resistance(grid, library, [("A", "B")], terminals={"A": t1, "B": t2})


def test_conductor_with_non_metal_cells_raises(library):
    """A label whose cells are partly dielectric has no conductivity there."""
    regions = [
        Region(((0, 20), (0, 4), (0, 4)), "interconnect_metal", label="bar"),
        Region(((20, 40), (0, 4), (0, 4)), "sio2", label="bar"),
    ]
    grid = voxelize(regions, 2.0)
    with pytest.raises(ConnectivityError, match="^conductor 'bar' has non-metal cells$"):
        extract_resistance(grid, library, [("A", "B")], terminals=bar_end_terminals(grid))


def test_terminals_on_two_parts_of_one_label_raise(library):
    """One label on two bars that do not touch: the labels agree, but the
    label is not one face-connected piece."""
    regions = [
        Region(((0, 50), (0, 4), (0, 4)), "sio2"),
        Region(((0, 20), (0, 4), (0, 4)), "interconnect_metal", label="bar"),
        Region(((30, 50), (0, 4), (0, 4)), "interconnect_metal", label="bar"),
    ]
    grid = voxelize(regions, 2.0)
    faces = boundary_port_faces(grid, "bar")
    terms = {"A": [g for g in faces if g[:2] == (0, 0)],
             "B": [g for g in faces if g[:2] == (0, 1)]}
    assert terms["A"] and terms["B"]
    with pytest.raises(IntegrityError, match="^conductor 'bar' splits into 2 parts$"):
        extract_resistance(grid, library, [("A", "B")], terminals=terms)


@pytest.mark.parametrize("empty", ["A", "B", "both"])
def test_terminal_without_faces_raises(library, empty):
    grid = bar_grid()
    terms = bar_end_terminals(grid)
    for name in ("A", "B") if empty == "both" else (empty,):
        terms[name] = []
    first = "A" if empty == "both" else empty
    with pytest.raises(ConnectivityError, match=f"terminal '{first}' has no faces"):
        extract_resistance(grid, library, [("A", "B")], terminals=terms)


def test_resistance_labels_the_grid_once(library, monkeypatch):
    """One connectivity pass covers every pair of the 3 nm sample inverter."""
    grid, _, wired, _ = cli.build_inverter_grid(load_config(str(SAMPLE_CONFIG)), "2tier")
    terms = inverter_terminals(grid, wired)
    calls = []
    real = geometry.face_components

    def counting(labels):
        calls.append(labels.shape)
        return real(labels)
    monkeypatch.setattr(geometry, "face_components", counting)
    if hasattr(parasitics, "face_components"):
        monkeypatch.setattr(parasitics, "face_components", counting)
    rr = extract_resistance(grid, library, terminals=terms)
    assert len(rr.entries) == 4
    assert calls == [grid.dims]


def test_terminals_on_unlabelled_cells_raise(library, inverter_grid2):
    """Unlabelled cells carry label -1, which must not index the last label."""
    cells = np.flatnonzero(inverter_grid2.label.ravel() < 0)[[0, -1]]
    terms = {"A": [(0, 0, cells[:1])], "B": [(0, 1, cells[1:])]}
    with pytest.raises(ConnectivityError, match="no labelled conductor"):
        extract_resistance(inverter_grid2, library, [("A", "B")], terminals=terms)


@pytest.fixture(scope="module")
def inverter_extraction(library, device_spec):
    stack = default_stack(2, substrate_thickness=100.0)
    regions = build_inverter_cell(device_spec, stack, BeolSpec())
    grid = voxelize(regions, 3.0)
    cm = extract_capacitance(grid, library, list(RAIL_NAMES), tol=1e-9)
    terms = inverter_terminals(grid, wired_tiers(stack, "bottom"))
    rr = extract_resistance(grid, library, terminals=terms)
    return grid, cm, rr


def test_capacitance_peak_memory_is_within_33_vectors(library, inverter_extraction):
    """numpy reports its buffers to tracemalloc: extracting the 3 nm
    inverter's Maxwell matrix allocates at most 33 vectors of 8 bytes per
    cell at its peak. It reads 30.0 with each right-hand side formed when
    its solve starts, and read 36.5 with the dense n x 4 block of them and
    the cycle's two spare vectors (its held residual and np.take's index
    copy)."""
    grid = inverter_extraction[0]  # the fixture's extraction ran the imports
    tracemalloc.start()
    try:
        extract_capacitance(grid, library, list(RAIL_NAMES), tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 33 * 8 * grid.n_cells


def test_inverter_matrix_structure(inverter_extraction):
    _, cm, _ = inverter_extraction
    n = len(cm.names)
    assert (np.diag(cm.c) > 0).all()
    off = cm.c - np.diag(np.diag(cm.c))
    assert (off <= 0).all()
    scale = np.abs(cm.c).max()
    assert np.abs(cm.c - cm.c.T).max() <= 1e-9 * scale
    for i in range(n):
        assert cm.c[i, i] >= -off[i].sum() - 1e-6 * scale


def test_inverter_resistances_positive(inverter_extraction):
    _, _, rr = inverter_extraction
    assert len(rr.entries) == 4
    for e in rr.entries:
        assert e.r > 0
        assert e.mismatch < 1e-9


def test_power_rail_resistance_grows_with_stacking(library, device_spec):
    def power_r(tier_count, variant):
        stack = default_stack(tier_count, substrate_thickness=100.0)
        regions = build_inverter_cell(device_spec, stack, BeolSpec(), variant)
        grid = voxelize(regions, 3.0)
        terms = inverter_terminals(grid, wired_tiers(stack, variant))
        rr = extract_resistance(grid, library, pairs=[("PSource", "Power"), ("Ground", "NSource")],
                                terminals=terms)
        return {((e.node_a, e.node_b)): e.r for e in rr.entries}

    r2 = power_r(2, "bottom")
    rt = power_r(4, "top")
    for pair in r2:
        assert rt[pair] > r2[pair]


def test_mesh_convergence_on_reference_cell(library, device_spec):
    """Halving the cell size moves every reported R and C by < 5 percent."""
    stack = default_stack(2, substrate_thickness=60.0)
    beol = BeolSpec(margin=12.0)
    regions = build_inverter_cell(device_spec, stack, beol)

    def report(res):
        grid = voxelize(regions, res)
        cm = extract_capacitance(grid, library, list(RAIL_NAMES), tol=1e-10)
        terms = inverter_terminals(grid, wired_tiers(stack, "bottom"))
        rr = extract_resistance(grid, library, terminals=terms)
        return cm, rr

    cm_a, rr_a = report(2.0)
    cm_b, rr_b = report(1.0)
    for e_a, e_b in zip(rr_a.entries, rr_b.entries):
        assert e_b.r == pytest.approx(e_a.r, rel=0.05)
    for i in range(len(cm_a.names)):
        for j in range(i + 1, len(cm_a.names)):
            assert cm_b.c[i, j] == pytest.approx(cm_a.c[i, j], rel=0.05)


def test_netlist_two_conductors_single_coupling(library):
    grid = plate_pair()
    cm = extract_capacitance(grid, library, ["A", "B"], tol=1e-10)
    rr = ResistanceReport([])
    nl, pruned = to_netlist(cm, rr, floor=1e-21)
    caps = [el for el in nl.elements if isinstance(el, Capacitor)]
    assert len(caps) == 1
    assert caps[0].name == "C_A_B"
    c_ab = cm.c[cm.names.index("A"), cm.names.index("B")]
    assert caps[0].value == pytest.approx(-c_ab, rel=1e-12)


def test_netlist_floor_prunes_and_reports(inverter_extraction):
    _, cm, rr = inverter_extraction
    nl_all, pruned_none = to_netlist(cm, rr, floor=0.0)
    nl_cut, pruned = to_netlist(cm, rr, floor=1e-18)
    kept = [el for el in nl_cut.elements if isinstance(el, Capacitor)]
    assert len(kept) + len(pruned) == len([el for el in nl_all.elements
                                           if isinstance(el, Capacitor)])
    for name, value in pruned:
        assert value < 1e-18


def test_netlist_round_trip_values(inverter_extraction):
    _, cm, rr = inverter_extraction
    nl, _ = to_netlist(cm, rr, floor=0.0)
    by_name = {el.name: el.value for el in nl.elements}
    for e in rr.entries:
        assert by_name[f"R_{e.node_a}_{e.node_b}"] == e.r
    for i, a in enumerate(cm.names):
        for j in range(i + 1, len(cm.names)):
            b = cm.names[j]
            assert by_name[f"C_{a}_{b}"] == -cm.c[i, j]


def _table_netlist(values):
    nl = Netlist()
    for name, n1, n2, v in values:
        cls = Resistor if name.startswith("R") else Capacitor
        nl.add(cls(f"{name[0]}_{n1}_{n2}", n1, n2, v))
    return nl


BASE_2TIER = [
    ("R1", "Ground", "NSource", 21.62), ("R2", "PSource", "Power", 11.37),
    ("R3", "Input", "Gate", 5.61), ("R4", "Output", "Drain", 3.89),
    ("C1", "Power", "Input", 5.13e-24), ("C2", "NSource", "Gate", 1.17e-17),
    ("C3", "Gate", "Drain", 2.66e-17), ("C4", "Output", "Gate", 2.29e-19),
]
BOTTOM_4TIER = [
    ("R1", "Ground", "NSource", 68.18), ("R2", "PSource", "Power", 48.76),
    ("R3", "Input", "Gate", 78.12), ("R4", "Output", "Drain", 73.48),
    ("C1", "Power", "Input", 1.13e-22), ("C2", "NSource", "Gate", 1.25e-17),
    ("C3", "Gate", "Drain", 3.01e-17), ("C4", "Output", "Gate", 2.58e-20),
]
TOP_4TIER = [
    ("R1", "Ground", "NSource", 160.7), ("R2", "PSource", "Power", 120.5),
    ("R3", "Input", "Gate", 11.72), ("R4", "Output", "Drain", 18.89),
    ("C1", "Power", "Input", 2.71e-23), ("C2", "NSource", "Gate", 1.36e-17),
    ("C3", "Gate", "Drain", 2.88e-17), ("C4", "Output", "Gate", 1.66e-20),
]


def ratios(table):
    return {r.element: r.ratio for r in table.rows}


def test_compare_tiers_reference_rows():
    base = _table_netlist(BASE_2TIER)
    bottom = ratios(compare_tiers(base, _table_netlist(BOTTOM_4TIER)))
    top = ratios(compare_tiers(base, _table_netlist(TOP_4TIER)))
    assert round(bottom["R_Ground_NSource"], 2) == 3.15
    assert round(top["R_PSource_Power"], 2) == 10.60
    assert round(bottom["C_Output_Gate"], 2) == 0.11
    assert round(top["C_Output_Gate"], 2) == 0.07


def test_compare_tiers_identity():
    base = _table_netlist(BASE_2TIER)
    table = compare_tiers(base, base)
    for row in table.rows:
        assert row.ratio == pytest.approx(1.0)
        assert f"{row.ratio:.2f}" == "1.00"


def test_compare_tiers_disjoint_raises():
    a = Netlist([Resistor("R_a_b", "a", "b", 1.0)])
    b = Netlist([Resistor("R_c_d", "c", "d", 1.0)])
    with pytest.raises(ComparisonError):
        compare_tiers(a, b)


def test_compare_tiers_reports_misses():
    a = Netlist([Resistor("R_a_b", "a", "b", 1.0), Resistor("R_x_y", "x", "y", 2.0)])
    b = Netlist([Resistor("R_a_b", "a", "b", 3.0)])
    table = compare_tiers(a, b)
    assert table.missing == ["R_x_y"]
    assert ratios(table)["R_a_b"] == pytest.approx(3.0)
