"""Transient simulation of R / C / source / transistor netlists.

Modified nodal analysis with ground elimination and backward Euler time
stepping. Ground is stamped as one more full row and column, which are
then dropped (the indefinite admittance form), so no stamp branches on
it. Capacitors are stamped as companion conductances C/dt with a history
current; transistors are linearized every Newton iteration into
companion conductances, as in SPICE2 (Nagel, UCB ERL-M520, 1975), here
from forward differences of the compact model: three `drain_current`
calls per transistor, on node voltages read as Python floats, which the
model's scalar `math` body takes fastest.
Closed-form gradients would save two of the three calls; they stay out
for now because the benchmark in `perfbench/` counts model evaluations
by wrapping `circuit.drain_current` and pins the step count, so that
switch, and error-controlled steps, land with a change to the benchmark.
Node counts stay below about a hundred here, so each Newton step is a
dense solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csgraph

from .device import CompactModelParams, drain_current, she_operating_point
from .errors import (
    ConfigurationError,
    MeasurementError,
    NetlistError,
    TransientFailureError,
)

GROUND = "0"
ABSTOL = 1e-6  # V, Newton update at which a step counts as converged
NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class Resistor:
    name: str
    n1: str
    n2: str
    value: float  # Ohm


@dataclass(frozen=True)
class Capacitor:
    name: str
    n1: str
    n2: str
    value: float  # F


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
    temperature: float = 300.0


@dataclass
class Netlist:
    elements: list = field(default_factory=list)

    def add(self, element):
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


def _pwl_value(pwl, t):
    ts = [p[0] for p in pwl]
    vs = [p[1] for p in pwl]
    return float(np.interp(t, ts, vs))


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
                if not el.value > 0:
                    raise NetlistError(f"{el.name}: resistance must be positive")
                _stamp_pair(g_full, idx[el.n1], idx[el.n2], 1.0 / el.value)
            elif isinstance(el, Capacitor):
                if el.value < 0:
                    raise NetlistError(f"{el.name}: negative capacitance")
                _stamp_pair(c_full, idx[el.n1], idx[el.n2], el.value)
        for k, src in enumerate(self.vsources):
            row = self.nv + k
            for node, sign in ((src.n1, 1.0), (src.n2, -1.0)):
                g_full[row, idx[node]] += sign
                g_full[idx[node], row] += sign
        self.g_static = np.ascontiguousarray(g_full[:-1, :-1])
        self.c_mat = np.ascontiguousarray(c_full[:-1, :-1])

    def source_vector(self, t, scale=1.0):
        s = np.zeros(self.n)
        for k, src in enumerate(self.vsources):
            s[self.nv + k] = scale * _pwl_value(src.pwl, t)
        return s

    def _device_stamps(self, x):
        """Nonlinear currents and their Jacobian at node voltages x."""
        v = x.tolist() + [0.0]  # ground at the last index
        f = np.zeros(self.n + 1)
        j = np.zeros((self.n + 1, self.n + 1))
        h = 1e-6
        for tr, di, gi, si in self.transistors:
            vgs, vds = v[gi] - v[si], v[di] - v[si]
            i0 = drain_current(tr.params, vgs, vds, tr.temperature)
            gm = (drain_current(tr.params, vgs + h, vds, tr.temperature) - i0) / h
            gd = (drain_current(tr.params, vgs, vds + h, tr.temperature) - i0) / h
            f[di] += i0
            f[si] -= i0
            for node_i, sign in ((di, 1.0), (si, -1.0)):
                j[node_i, gi] += sign * gm
                j[node_i, di] += sign * gd
                j[node_i, si] += sign * (-gm - gd)
        return f[:-1], j[:-1, :-1]

    def newton(self, x_prev, t, dt, source_scale=1.0):
        """Solve the BE step equations; dt=None means a DC solve.

        Per-iteration updates are clamped to 0.3 V so the exponential
        device characteristics cannot throw the iteration into overflow.
        """
        x = x_prev.copy()
        c_over_dt = self.c_mat / dt if dt is not None else None
        s = self.source_vector(t, source_scale)
        for _ in range(NEWTON_MAX_ITER):
            f_nl, j_nl = self._device_stamps(x)
            resid = self.g_static @ x + f_nl - s
            jac = self.g_static + j_nl
            if c_over_dt is not None:
                resid = resid + c_over_dt @ (x - x_prev)
                jac = jac + c_over_dt
            try:
                delta = np.linalg.solve(jac, -resid)
            except np.linalg.LinAlgError:
                raise NetlistError("singular MNA matrix") from None
            x = x + np.clip(delta, -0.3, 0.3)
            if np.max(np.abs(delta)) < ABSTOL:
                return x
        return None

    def dc_operating_point(self):
        x = np.zeros(self.n)
        sol = self.newton(x, 0.0, None)
        if sol is not None:
            return sol
        for scale in np.linspace(0.1, 1.0, 10):
            nxt = self.newton(x, 0.0, None, source_scale=float(scale))
            if nxt is None:
                raise TransientFailureError("DC operating point did not converge", time=0.0)
            x = nxt
        return x


def transient(netlist: Netlist, tstop: float, dt: float) -> dict[str, Waveform]:
    """Backward Euler transient; deterministic for fixed inputs.

    Steps that fail Newton are retried at halved dt down to dt/64, then
    raise with the failing timestamp. Sample times include any refined
    sub-steps that were taken.
    """
    if not dt > 0 or not tstop > 0:
        raise ConfigurationError("tstop and dt must be positive")
    mna = _Mna(netlist)
    x = mna.dc_operating_point()
    times = [0.0]
    states = [x]

    t = 0.0
    n_steps = int(round(tstop / dt))
    for k in range(1, n_steps + 1):
        t_next = k * dt
        x, sub = _advance(mna, x, t, t_next, dt)
        for ts, xs in sub:
            times.append(ts)
            states.append(xs)
        t = t_next

    arr = np.array(states)
    t_arr = np.array(times)
    out = {GROUND: Waveform(t_arr, np.zeros(len(t_arr)))}
    for name, i in mna.node_index.items():
        out[name] = Waveform(t_arr, arr[:, i])
    return out


def _advance(mna, x, t0, t1, dt, depth=0):
    sol = mna.newton(x, t1, t1 - t0)
    if sol is not None:
        return sol, [(t1, sol)]
    if depth >= 6:
        raise TransientFailureError(
            f"Newton failed at t={t1:.3e} s even at dt/64", time=t1)
    tm = 0.5 * (t0 + t1)
    xa, sub_a = _advance(mna, x, t0, tm, dt, depth + 1)
    xb, sub_b = _advance(mna, xa, tm, t1, dt, depth + 1)
    return xb, sub_a + sub_b


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
        if not self.dt_fs > 0:
            raise ConfigurationError(f"dt_fs must be positive, got {self.dt_fs}")
        times = [t for t, _ in self.pwl(1.0)]
        if not all(b > a for a, b in zip(times, times[1:])):
            raise ConfigurationError(
                f"edge_ps = {self.edge_ps} does not fit period_ps = {self.period_ps}: "
                "it must be positive and below 0.4 period_ps")

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
                           t_n: float = 300.0, t_p: float = 300.0) -> Netlist:
    """CMOS inverter with intrinsic device caps, optionally spliced parasitics.

    Rail-side nodes keep the names Input / Output / Power; Ground is the
    global reference. A parasitic rail resistor separates the device-side
    node from its rail, otherwise the two are merged.
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
                     max(nparams.c_g - nparams.c_gd, 0.0)))
    nl.add(Capacitor("Cgdp", node_of["Gate"], node_of["Drain"], pparams.c_gd))
    nl.add(Capacitor("Cgsp", node_of["Gate"], node_of["PSource"],
                     max(pparams.c_g - pparams.c_gd, 0.0)))
    if load_c > 0:
        nl.add(Capacitor("Cload", node_of["Output"], GROUND, load_c))

    rename = lambda n: GROUND if n == "Ground" else n
    for el in para_elements:
        if not isinstance(el, (Resistor, Capacitor)):
            raise NetlistError(f"cannot splice element {el!r}")
        nl.add(replace(el, n1=rename(el.n1), n2=rename(el.n2)))
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
                        vdd: float = 0.75, parasitic_netlist: Netlist | None = None,
                        load_c: float = 1e-16, stimulus: Stimulus = Stimulus(),
                        t_n: float = 300.0, t_p: float = 300.0) -> InverterResult:
    """Propagation delay with and without the spliced parasitic network."""
    base = build_inverter_netlist(nparams, pparams, vdd, load_c, stimulus,
                                  None, t_n, t_p)
    waves_base = transient(base, stimulus.tstop, stimulus.dt)
    tp_base = propagation_delay(waves_base["Input"], waves_base["Output"], vdd)

    if parasitic_netlist is None or not parasitic_netlist.elements:
        return InverterResult(tp_base, tp_base, waves_base, waves_base)

    spliced = build_inverter_netlist(nparams, pparams, vdd, load_c, stimulus,
                                     parasitic_netlist, t_n, t_p)
    waves_para = transient(spliced, stimulus.tstop, stimulus.dt)
    tp_para = propagation_delay(waves_para["Input"], waves_para["Output"], vdd)
    return InverterResult(tp_base, tp_para, waves_base, waves_para)


@dataclass
class SheDelayResult:
    result: InverterResult
    delta_t: dict[str, float]


def electro_thermal_delay(nparams, pparams, ctx_n, ctx_p, vdd: float = 0.75,
                          parasitic_netlist=None, load_c: float = 1e-16,
                          stimulus: Stimulus = Stimulus(), **loop) -> SheDelayResult:
    """Delays at self-heated channel temperatures (worst-case on-state bias).

    `loop` (`damping`, `tol_k`, `max_iter`) steers both fixed-point loops,
    as in `she_operating_point`.
    """
    op_n = she_operating_point(nparams, vdd, ctx_n, **loop)
    op_p = she_operating_point(pparams, vdd, ctx_p, **loop)
    res = inverter_experiment(nparams, pparams, vdd, parasitic_netlist, load_c,
                              stimulus, t_n=op_n.t_channel, t_p=op_p.t_channel)
    return SheDelayResult(res, {"n": op_n.delta_t, "p": op_p.delta_t})


def waveforms_csv(waves: dict[str, Waveform]) -> str:
    names = sorted(n for n in waves if n != GROUND)
    t = waves[names[0]].t
    lines = ["t_s," + ",".join(names)]
    for i in range(len(t)):
        lines.append(f"{float(t[i])!r}," + ",".join(repr(float(waves[n].v[i])) for n in names))
    return "\n".join(lines) + "\n"
