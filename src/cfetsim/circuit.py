"""Transient simulation of R / C / source / transistor netlists.

Modified nodal analysis with ground elimination and backward Euler time
stepping, after SPICE2 (Nagel, UCB ERL-M520, 1975). Ground is stamped as
one more full row and column, which the linear solve leaves out (the
indefinite admittance form), so no stamp branches on it; state vectors
carry ground's zero volts last. Steps are error-controlled, land on every
source corner, and the accepted points are interpolated onto a fixed print
step. Capacitors are stamped as companion conductances C/h with a history
current; transistors are linearized every Newton iteration into companion
conductances from the closed-form slopes the compact model returns with
the current: one `drain_current` call per transistor, on node voltages
read as Python floats, which the model's scalar `math` body takes fastest.
The linear part G + C/h and the history term are formed once per step,
not per iteration. Node counts stay below about a hundred here, so each
Newton step is a dense LAPACK solve.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgesv
from scipy.sparse import csgraph

from .device import T_REF, CompactModelParams, drain_current, she_operating_point
from .errors import (
    POSITIVE,
    ConfigurationError,
    MeasurementError,
    NetlistError,
    TransientFailureError,
    check_rules,
)

GROUND = "0"
ABSTOL = 1e-6  # V, Newton update at which a step counts as converged
NEWTON_MAX_ITER = 60
LTE_TOL = 7e-6  # V, estimated local truncation error at which a step is accepted
MAX_PRINT_SAMPLES = 10**6  # desk scale: 8 MB per node waveform


@dataclass(frozen=True)
class Resistor:
    name: str
    n1: str
    n2: str
    value: float  # Ohm

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise NetlistError(
                f"{self.name}: resistance must be positive and finite, got {self.value!r}")


@dataclass(frozen=True)
class Capacitor:
    name: str
    n1: str
    n2: str
    value: float  # F

    def __post_init__(self):
        if not 0 <= self.value < math.inf:
            raise NetlistError(
                f"{self.name}: capacitance must be >= 0 and finite, got {self.value!r}")


@dataclass(frozen=True)
class VSource:
    name: str
    n1: str
    n2: str
    pwl: tuple  # ((t, v), ...) piecewise linear, held constant past the ends


@dataclass(frozen=True)
class Transistor:
    name: str
    d: str
    g: str
    s: str
    params: CompactModelParams
    temperature: float = T_REF


@dataclass
class Netlist:
    """Elements with distinct names, in the order given."""

    elements: list = field(default_factory=list)

    def __post_init__(self):
        elements, self.elements = self.elements, []
        for el in elements:
            self.add(el)

    def add(self, element):
        if any(el.name == element.name for el in self.elements):
            raise NetlistError(f"duplicate element name {element.name!r}")
        self.elements.append(element)
        return self

    @property
    def nodes(self) -> list[str]:
        seen = {GROUND}
        out = [GROUND]
        for el in self.elements:
            refs = (el.d, el.g, el.s) if isinstance(el, Transistor) else (el.n1, el.n2)
            for n in refs:
                if n not in seen:
                    seen.add(n)
                    out.append(n)
        return out

    def validate_for_transient(self):
        if not self.elements:
            raise NetlistError("empty netlist")
        # every node needs a DC path to ground through R, V or transistor elements
        nodes = self.nodes
        index = {n: i for i, n in enumerate(nodes)}
        linked = np.zeros((len(nodes), len(nodes)))
        for el in self.elements:
            if isinstance(el, (Resistor, VSource)):
                linked[index[el.n1], index[el.n2]] = 1.0
            elif isinstance(el, Transistor):
                linked[index[el.s], [index[el.d], index[el.g]]] = 1.0
        _, part = csgraph.connected_components(linked, directed=False)
        for n, p in zip(nodes, part):
            if p != part[0]:  # nodes lists ground first
                raise NetlistError(f"node {n!r} has no DC path to ground")


@dataclass
class Waveform:
    t: np.ndarray  # s
    v: np.ndarray  # V

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if len(self.t) != len(self.v):
            raise ConfigurationError("waveform arrays differ in length")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise ConfigurationError("waveform times must be strictly increasing")


def _pwl_value(ts, vs, t):
    """np.interp(t, ts, vs) for one t, bit for bit, without numpy's per-call
    overhead: held at the end values, exact at each corner (the slope times
    zero adds nothing while the slope is finite)."""
    j = bisect.bisect_right(ts, t) - 1
    if j < 0:
        return vs[0]
    if j == len(ts) - 1:
        return vs[j]
    return (vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j]) * (t - ts[j]) + vs[j]


def _stamp_pair(mat, i, j, g):
    mat[i, i] += g
    mat[j, j] += g
    mat[i, j] -= g
    mat[j, i] -= g


class _Mna:
    def __init__(self, netlist: Netlist):
        netlist.validate_for_transient()
        self.node_names = netlist.nodes[1:]  # nodes lists ground first
        self.node_index = {n: i for i, n in enumerate(self.node_names)}
        self.vsources = [el for el in netlist.elements if isinstance(el, VSource)]
        self.nv = len(self.node_names)
        self.n = self.nv + len(self.vsources)
        idx = {**self.node_index, GROUND: self.n}  # ground is the dropped last row
        self.transistors = [(el, idx[el.d], idx[el.g], idx[el.s])
                            for el in netlist.elements if isinstance(el, Transistor)]

        g_full = np.zeros((self.n + 1, self.n + 1))
        c_full = np.zeros((self.n + 1, self.n + 1))
        for el in netlist.elements:
            if isinstance(el, Resistor):
                _stamp_pair(g_full, idx[el.n1], idx[el.n2], 1.0 / el.value)
            elif isinstance(el, Capacitor):
                _stamp_pair(c_full, idx[el.n1], idx[el.n2], el.value)
        for k, src in enumerate(self.vsources):
            row = self.nv + k
            for node, sign in ((src.n1, 1.0), (src.n2, -1.0)):
                g_full[row, idx[node]] += sign
                g_full[idx[node], row] += sign
        # (n + 1)-sized, ground last: the solve takes the leading n x n block
        self.g_full = g_full
        self.c_full = c_full
        self.pwls = [([p[0] for p in src.pwl], [p[1] for p in src.pwl])
                     for src in self.vsources]

    def source_vector(self, t):
        s = np.zeros(self.n + 1)
        for k, (ts, vs) in enumerate(self.pwls):
            s[self.nv + k] = _pwl_value(ts, vs, t)
        return s

    def _device_stamps(self, x, jac, f):
        """Add each transistor's current to f and its slopes to jac at node
        voltages x, one model evaluation per transistor."""
        v = x.tolist()
        for tr, di, gi, si in self.transistors:
            i, gm, gds = drain_current(tr.params, v[gi] - v[si], v[di] - v[si],
                                       tr.temperature)
            f[di] += i
            f[si] -= i
            jac[di, gi] += gm
            jac[di, di] += gds
            jac[di, si] -= gm + gds
            jac[si, gi] -= gm
            jac[si, di] -= gds
            jac[si, si] += gm + gds

    def newton(self, x_prev, t, dt):
        """Solve the BE step equations; dt=None means a DC solve.

        Per-iteration updates are clamped to 0.3 V so the exponential
        device characteristics cannot throw the iteration into overflow.
        """
        lin = self.g_full.copy()  # G + C/dt
        rhs = self.source_vector(t)
        if dt is not None:
            c_over_dt = self.c_full / dt
            lin += c_over_dt
            rhs += c_over_dt @ x_prev
        x = x_prev.copy()
        for _ in range(NEWTON_MAX_ITER):
            jac = lin.copy()
            resid = lin @ x - rhs
            self._device_stamps(x, jac, resid)
            _, _, delta, info = dgesv(jac[:-1, :-1], resid[:-1])
            if info != 0:
                raise NetlistError("singular MNA matrix")
            x[:-1] -= delta.clip(-0.3, 0.3)
            if abs(delta).max() < ABSTOL:
                return x
        return None

    def dc_operating_point(self):
        x = self.newton(np.zeros(self.n + 1), 0.0, None)
        if x is None:
            raise TransientFailureError("DC operating point did not converge", time=0.0)
        return x


def transient(netlist: Netlist, tstop: float, dt: float) -> dict[str, Waveform]:
    """Backward Euler transient printed on the grid k * dt; deterministic for
    fixed inputs.

    The steps themselves are error-controlled (see `_steps`); each node's
    accepted points are interpolated linearly onto the print grid, so the
    waveforms hold round(tstop / dt) + 1 samples whatever steps were taken.
    """
    check_rules({"tstop": POSITIVE, "dt": POSITIVE}, {"tstop": tstop, "dt": dt})
    mna = _Mna(netlist)
    n_print = int(round(tstop / dt))
    times, states = _steps(mna, mna.dc_operating_point(), n_print * dt, dt)
    t_arr = np.arange(n_print + 1) * dt
    arr = np.array(states)
    out = {GROUND: Waveform(t_arr, np.zeros(len(t_arr)))}
    for name, i in mna.node_index.items():
        out[name] = Waveform(t_arr, np.interp(t_arr, times, arr[:, i]))
    return out


def _steps(mna, x, t_end, dt):
    """Accepted times and states from the DC state x at 0 to t_end.

    A step is accepted when its estimated local truncation error,
    h / (h + h_prev) * max |x - x_pred| over the node voltages, with x_pred
    extrapolated linearly from the last two accepted points, is at most
    LTE_TOL, or when it is at most dt/64; the next step is at most twice
    and at least 0.2 times the last. Steps land on every source corner and
    on t_end, but one closer than dt/64 is stepped through. Past a corner
    the predictor restarts at a step of at most dt. A step whose Newton
    solve fails is halved, and one of at most dt/64 that fails raises with
    its end time.
    """
    h_min = dt / 64
    corners = sorted({c for ts, _ in mna.pwls for c in ts if 0.0 < c < t_end})
    corners += [t_end, math.inf]
    times, states = [0.0], [x]
    t, h, back = 0.0, dt, None  # back: the step before and the state it started from
    k = 0  # the first corner after t
    while t < t_end:
        m = k
        while corners[m] - t < h_min:
            m += 1
        h = min(h, corners[m] - t)
        t_next = corners[m] if h == corners[m] - t else t + h
        sol = mna.newton(x, t_next, h)
        if sol is None:
            if h <= h_min:
                raise TransientFailureError(
                    f"Newton failed at t={t_next:.3e} s even at dt/64", time=t_next)
            h *= 0.5
            continue
        grow = 2.0
        if back is not None:
            h_prev, x_prev = back
            pred = x + (x - x_prev) * (h / h_prev)
            lte = h / (h + h_prev) * abs(sol[:mna.nv] - pred[:mna.nv]).max()
            if lte > 0:
                grow = min(2.0, max(0.2, 0.9 * math.sqrt(LTE_TOL / lte)))
            if lte > LTE_TOL and h > h_min:
                h = max(h * grow, h_min)
                continue
        crossed = corners[k] <= t_next
        back = None if crossed else (h, x)
        t, x = t_next, sol
        times.append(t)
        states.append(x)
        h = min(h * grow, dt) if crossed else h * grow
        while corners[k] <= t:
            k += 1
    return times, states


def _crossings(wave: Waveform, level: float):
    """(time, direction) of linearly interpolated level crossings.

    Works on sign transitions between non-level samples, so a sample
    landing exactly on the level counts as one crossing, not two.
    """
    v = wave.v - level
    out = []
    last_sign = 0
    last_i = 0
    for i, value in enumerate(v):
        s = 1 if value > 0 else (-1 if value < 0 else 0)
        if s == 0:
            continue
        if last_sign != 0 and s != last_sign:
            a, b = v[last_i], v[i]
            tc = wave.t[last_i] + (0.0 - a) * (wave.t[i] - wave.t[last_i]) / (b - a)
            out.append((float(tc), s))
        last_sign, last_i = s, i
    return out


def propagation_delay(vin: Waveform, vout: Waveform, vdd: float) -> float:
    """Mean of the two 50 percent input-to-output crossing delays."""
    if abs(vin.t[0] - vout.t[0]) > 0 or abs(vin.t[-1] - vout.t[-1]) > 0:
        raise MeasurementError("input and output waveforms span different ranges")
    half = 0.5 * vdd
    in_cross = _crossings(vin, half)
    rising = [t for t, d in in_cross if d > 0]
    falling = [t for t, d in in_cross if d < 0]
    if len(rising) != 1 or len(falling) != 1:
        raise MeasurementError(
            f"input needs exactly one rising and one falling edge, got "
            f"{len(rising)} and {len(falling)}")
    out_cross = _crossings(vout, half)
    delays = []
    for t_in, want in ((rising[0], -1), (falling[0], 1)):
        after = [t for t, d in out_cross if d == want and t >= t_in]
        if not after:
            raise MeasurementError("output never crosses 50 percent after the input edge")
        delays.append(after[0] - t_in)
    return 0.5 * (delays[0] + delays[1])


@dataclass(frozen=True)
class Stimulus:
    edge_ps: float = 1.0
    period_ps: float = 20.0
    dt_fs: float = 5.0

    def __post_init__(self):
        check_rules({"dt_fs": POSITIVE}, vars(self))
        times = [t for t, _ in self.pwl(1.0)]
        if not all(b > a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"edge_ps must lie in (0, 0.4 period_ps) for period_ps = "
                f"{self.period_ps}, got {self.edge_ps}")
        # a longer step jumps over the input edge, and the delay it measures
        # is an artefact of the step
        check_rules({"dt_fs": (lambda v: v <= 1000 * self.edge_ps,
                               f"must not exceed the input edge of {1000 * self.edge_ps:g} fs")},
                    vars(self))
        # the print grid holds period / dt + 1 samples of every node
        check_rules({"dt_fs": (lambda v: 1000 * self.period_ps / v + 1 <= MAX_PRINT_SAMPLES,
                               f"must leave at most {MAX_PRINT_SAMPLES:,} print samples in "
                               f"the {self.period_ps:g} ps period")}, vars(self))

    def pwl(self, vdd: float):
        ps = 1e-12
        t_rise = 0.1 * self.period_ps
        t_fall = 0.6 * self.period_ps
        return (
            (0.0, 0.0),
            (t_rise * ps, 0.0),
            ((t_rise + self.edge_ps) * ps, vdd),
            (t_fall * ps, vdd),
            ((t_fall + self.edge_ps) * ps, 0.0),
            (self.period_ps * ps, 0.0),
        )

    @property
    def tstop(self) -> float:
        return self.period_ps * 1e-12

    @property
    def dt(self) -> float:
        return self.dt_fs * 1e-15


# (rail, device-side node): a merged pair keeps the rail's name, so the
# orientation shows in the waveform headers
RAIL_PAIRS = (("Input", "Gate"), ("Output", "Drain"),
              ("Power", "PSource"), ("Ground", "NSource"))


def build_inverter_netlist(nparams: CompactModelParams, pparams: CompactModelParams,
                           vdd: float, load_c: float, stimulus: Stimulus,
                           parasitics: Netlist | None = None,
                           t_n: float = T_REF, t_p: float = T_REF) -> Netlist:
    """CMOS inverter with intrinsic device caps, optionally spliced parasitics.

    Rail-side nodes keep the names Input / Output / Power; Ground is the
    global reference. A parasitic rail resistor separates the device-side
    node from its rail, otherwise the two are merged, and a spliced
    element on either name lands on the merged node.
    """
    nl = Netlist()
    para_elements = list(parasitics.elements) if parasitics is not None else []
    have_r = {frozenset((el.n1, el.n2)) for el in para_elements if isinstance(el, Resistor)}

    node_of = {"Input": "Input", "Output": "Output", "Power": "Power",
               "Ground": GROUND, "Gate": "Gate", "Drain": "Drain",
               "PSource": "PSource", "NSource": "NSource"}
    for rail, dev in RAIL_PAIRS:
        if frozenset((rail, dev)) not in have_r:
            node_of[dev] = node_of[rail]

    nl.add(VSource("Vdd", node_of["Power"], GROUND, ((0.0, vdd),)))
    nl.add(VSource("Vin", node_of["Input"], GROUND, stimulus.pwl(vdd)))

    nl.add(Transistor("Mn", d=node_of["Drain"], g=node_of["Gate"],
                      s=node_of["NSource"], params=nparams, temperature=t_n))
    nl.add(Transistor("Mp", d=node_of["Drain"], g=node_of["Gate"],
                      s=node_of["PSource"], params=pparams, temperature=t_p))

    nl.add(Capacitor("Cgdn", node_of["Gate"], node_of["Drain"], nparams.c_gd))
    nl.add(Capacitor("Cgsn", node_of["Gate"], node_of["NSource"],
                     nparams.c_g - nparams.c_gd))
    nl.add(Capacitor("Cgdp", node_of["Gate"], node_of["Drain"], pparams.c_gd))
    nl.add(Capacitor("Cgsp", node_of["Gate"], node_of["PSource"],
                     pparams.c_g - pparams.c_gd))
    if load_c > 0:
        nl.add(Capacitor("Cload", node_of["Output"], GROUND, load_c))

    for el in para_elements:
        if not isinstance(el, (Resistor, Capacitor)):
            raise NetlistError(f"cannot splice element {el!r}")
        nl.add(replace(el, n1=node_of.get(el.n1, el.n1), n2=node_of.get(el.n2, el.n2)))
    return nl


@dataclass
class InverterResult:
    tp_without: float  # s
    tp_with: float  # s
    waves_without: dict
    waves_with: dict

    @property
    def degradation(self) -> float:
        return self.tp_with / self.tp_without - 1.0


def inverter_experiment(nparams: CompactModelParams, pparams: CompactModelParams,
                        vdd: float, parasitic_netlist: Netlist | None, load_c: float,
                        stimulus: Stimulus, t_n: float = T_REF,
                        t_p: float = T_REF) -> InverterResult:
    """Propagation delay with and without the spliced network; both netlists are built first."""
    base = build_inverter_netlist(nparams, pparams, vdd, load_c, stimulus,
                                  None, t_n, t_p)
    spliced = build_inverter_netlist(nparams, pparams, vdd, load_c, stimulus,
                                     parasitic_netlist, t_n, t_p)
    waves_base = transient(base, stimulus.tstop, stimulus.dt)
    tp_base = propagation_delay(waves_base["Input"], waves_base["Output"], vdd)

    if parasitic_netlist is None or not parasitic_netlist.elements:
        return InverterResult(tp_base, tp_base, waves_base, waves_base)

    waves_para = transient(spliced, stimulus.tstop, stimulus.dt)
    tp_para = propagation_delay(waves_para["Input"], waves_para["Output"], vdd)
    return InverterResult(tp_base, tp_para, waves_base, waves_para)


@dataclass
class SheDelayResult:
    result: InverterResult
    delta_t: dict[str, float]


def electro_thermal_delay(nparams, pparams, ctx_n, ctx_p, vdd: float, parasitic_netlist,
                          load_c: float, stimulus: Stimulus, **loop) -> SheDelayResult:
    """Delays at self-heated channel temperatures (worst-case on-state bias).

    `loop` (`damping`, `tol_k`, `max_iter`) steers both fixed-point loops,
    as in `she_operating_point`.
    """
    op_n = she_operating_point(nparams, vdd, ctx_n, **loop)
    op_p = she_operating_point(pparams, vdd, ctx_p, **loop)
    res = inverter_experiment(nparams, pparams, vdd, parasitic_netlist, load_c,
                              stimulus, t_n=op_n.t_channel, t_p=op_p.t_channel)
    return SheDelayResult(res, {"n": op_n.delta_t, "p": op_p.delta_t})


WAVEFORM_CHUNK_ROWS = 1000


def waveforms_csv(waves: dict[str, Waveform]) -> Iterator[str]:
    """The waveforms as CSV text (the time, then each node by name), yielded
    WAVEFORM_CHUNK_ROWS rows at a time for `atomic_write` to stream."""
    names = sorted(n for n in waves if n != GROUND)
    yield "t_s," + ",".join(names) + "\n"
    table = np.column_stack([waves[names[0]].t] + [waves[n].v for n in names])
    for start in range(0, len(table), WAVEFORM_CHUNK_ROWS):
        # one row of floats at a time: a whole chunk's `tolist` raises the peak RSS
        rows = table[start:start + WAVEFORM_CHUNK_ROWS]
        yield "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)
