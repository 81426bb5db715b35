"""Command line driver: config in, report files out.

Subcommands: thermal, extract, compare, delay, calibrate. Exit codes:
0 success, 2 configuration or usage error, 3 solver failure. Output
files are written atomically (temp file then rename) so re-runs always
leave complete artifacts.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace

from . import circuit, device, geometry, netlist_io, parasitics, thermal
from .config import RunConfig, load_config
from .errors import (
    CalibrationError,
    CfetSimError,
    ConfigurationError,
    ConvergenceError,
    SingularSystemError,
    TransientFailureError,
)
from .output import atomic_write

DESIGNS = ("2tier", "4tier-bottom", "4tier-top")

_SOLVER_ERRORS = (ConvergenceError, SingularSystemError, TransientFailureError,
                  CalibrationError)


def _design_stack(config: RunConfig, design: str):
    """The configured stack with the design's tier count and its own tier order.

    A 2-tier design keeps the bottom pair; a 4-tier design on a 2-tier
    stack repeats the pair, the copy sitting one tier gap above it.
    """
    variant = "top" if design.endswith("top") else "bottom"
    stack = config.stack
    pair = stack.tiers[:2]
    if design == "2tier":
        tiers = pair
    elif stack.tier_count == 4:
        tiers = stack.tiers
    else:
        tiers = (*pair, replace(pair[0], gap_below=pair[1].gap_below), pair[1])
    return replace(stack, tiers=tiers), variant


def build_inverter_grid(config: RunConfig, design: str):
    stack, variant = _design_stack(config, design)
    regions = geometry.build_inverter_cell(config.device, stack, config.beol, variant)
    grid = geometry.voxelize(regions, config.mesh_resolution, config.mesh_refinement)
    wired = geometry.wired_tiers(stack, variant)
    return grid, stack, wired, regions


def calibrated_params(config: RunConfig, polarity: str):
    seed, targets = config.seeds[polarity], config.targets[polarity]
    if targets is None:
        return seed
    if set(targets) == {"ion", "vdd"}:
        return device.fit_ion(seed, targets["ion"], targets["vdd"])
    return device.calibrate(targets, seed)


def _she_context(config: RunConfig, grid, tier: int, operator=None):
    return device.ThermalContext(
        grid=grid, materials=config.library, bc=config.bc,
        device_region=f"tier{tier}.channel", operator=operator, **config.heat)


def _thermal_field(config: RunConfig, grid, tier: int, polarity: str):
    """(power, temperatures, energy balance) of the device at `tier`.

    The heat context, with its operator and multigrid hierarchy, ends with
    this call, so it is freed before the caller formats the heatmaps.
    """
    ctx = _she_context(config, grid, tier)
    power = config.power
    if power == "auto":
        params = calibrated_params(config, polarity)
        vdd = config.device.vdd
        power = device.she_operating_point(params, vdd, ctx, **config.she).id * vdd
    temps = ctx.solve_at_power(power)
    return power, temps, thermal.energy_balance(ctx.operator, temps, ctx.heat_source(power))


def cmd_thermal(args) -> int:
    config = load_config(args.config)
    form = re.fullmatch(r"([-+]?[0-9]+):([np])", args.device)
    if form is None:
        raise ConfigurationError(f"--device must look like 0:p, got {args.device!r}")
    tier, pol = int(form[1]), form[2]
    tiers = config.stack.tiers  # the design below keeps the configured stack
    polarity = tiers[tier].polarity if 0 <= tier < len(tiers) else None
    if polarity != pol:
        raise ConfigurationError(
            f"--device {args.device}: tier {tier} is {polarity or 'absent'}")
    design = "2tier" if len(tiers) == 2 else ("4tier-top" if tier >= 2 else "4tier-bottom")
    grid = build_inverter_grid(config, design)[0]

    power, temps, (p_in, p_out, rel) = _thermal_field(config, grid, tier, pol)
    dtmax = temps.max() - config.bc.ambient
    reprs = thermal.format_reprs(temps)  # once, for both heatmaps
    thermal.export_heatmap(reprs, grid, os.path.join(args.out, "heatmap.csv"), "csv")
    thermal.export_heatmap(reprs, grid, os.path.join(args.out, "heatmap.vtk"), "vtk_legacy")
    summary = (
        f"device={args.device}\n"
        f"power_W={float(power)!r}\n"
        f"delta_t_max_K={float(dtmax)!r}\n"
        f"energy_in_W={float(p_in)!r}\n"
        f"energy_out_W={float(p_out)!r}\n"
        f"balance_rel={float(rel)!r}\n")
    atomic_write(os.path.join(args.out, "summary.txt"), summary)
    print(f"delta_t_max_K={float(dtmax)!r}")
    return 0


def extract_design(config: RunConfig, built):
    """Capacitance, resistance and the pruned netlist of a `build_inverter_grid` result."""
    grid, _, wired, _ = built
    cmat = parasitics.extract_capacitance(grid, config.library, list(geometry.RAIL_NAMES))
    terms = parasitics.inverter_terminals(grid, wired)
    rrep = parasitics.extract_resistance(grid, config.library, terminals=terms)
    nl, pruned = parasitics.to_netlist(cmat, rrep, floor=config.parasitic_floor)
    return cmat, rrep, nl, pruned


def cmd_extract(args) -> int:
    config = load_config(args.config)
    built = build_inverter_grid(config, args.design)
    grid, _, _, regions = built
    cmat, rrep, nl, pruned = extract_design(config, built)
    atomic_write(os.path.join(args.out, "netlist.sp"),
                 netlist_io.format_netlist(nl, title=f"design: {args.design}"))
    atomic_write(os.path.join(args.out, "geometry.csv"), geometry.regions_csv(regions))
    atomic_write(os.path.join(args.out, "capacitance.csv"), cmat.to_csv())
    atomic_write(os.path.join(args.out, "resistance.csv"), rrep.to_csv())
    diag = [f"cells={grid.n_cells}", f"asymmetry_rel={float(cmat.asymmetry)!r}",
            f"clipped_rel={float(cmat.clipped)!r}"]
    diag += [f"pruned {name} {value!r}" for name, value in pruned]
    atomic_write(os.path.join(args.out, "diagnostics.txt"), "\n".join(diag) + "\n")
    print(f"extracted {len(nl.elements)} elements for {args.design}")
    return 0


def cmd_compare(args) -> int:
    base = netlist_io.read_netlist(args.base)
    variant = netlist_io.read_netlist(args.variant)
    table = parasitics.compare_tiers(base, variant)
    atomic_write(args.out, table.to_csv())
    print(f"compared {len(table.rows)} shared elements")
    if table.missing:
        print(f"unmatched: {' '.join(table.missing)}")
    return 0


def cmd_delay(args) -> int:
    config = load_config(args.config)
    nparams = calibrated_params(config, "n")
    pparams = calibrated_params(config, "p")
    vdd = config.device.vdd

    built = None
    if args.parasitics == "on" or args.she == "on":
        built = build_inverter_grid(config, args.design)
    para = None
    if args.parasitics == "on":
        para = extract_design(config, built)[2]
    elif args.parasitics != "off":
        para = netlist_io.read_netlist(args.parasitics)

    para_tag = args.parasitics if args.parasitics in ("on", "off") else (
        os.path.basename(args.parasitics))
    lines = [f"design={args.design}", f"parasitics={para_tag}",
             f"she={args.she}"]
    if args.she == "on":
        grid, _, (p_tier, n_tier), _ = built
        ctx_n = _she_context(config, grid, n_tier).prepare()
        ctx_p = _she_context(config, grid, p_tier, ctx_n.operator)  # one grid, one operator
        res = circuit.electro_thermal_delay(
            nparams, pparams, ctx_n=ctx_n, ctx_p=ctx_p,
            vdd=vdd, parasitic_netlist=para, load_c=config.load_c, stimulus=config.stimulus,
            **config.she)
        result = res.result
        lines += [f"delta_t_n_K={float(res.delta_t['n'])!r}",
                  f"delta_t_p_K={float(res.delta_t['p'])!r}"]
    else:
        ambient = config.bc.ambient
        result = circuit.inverter_experiment(nparams, pparams, vdd, para, config.load_c,
                                             config.stimulus, t_n=ambient, t_p=ambient)
    lines += [
        f"tp_without_ps={float(result.tp_without * 1e12)!r}",
        f"tp_with_ps={float(result.tp_with * 1e12)!r}",
        f"degradation_pct={float(result.degradation * 100.0)!r}",
    ]
    atomic_write(os.path.join(args.out, "report.txt"), "\n".join(lines) + "\n")
    atomic_write(os.path.join(args.out, "waveforms.csv"),
                 circuit.waveforms_csv(result.waves_with))
    atomic_write(os.path.join(args.out, "waveforms_baseline.csv"),
                 circuit.waveforms_csv(result.waves_without))
    print(f"tp_without={result.tp_without:.3e} s tp_with={result.tp_with:.3e} s")
    return 0


def cmd_calibrate(args) -> int:
    config = load_config(args.config)
    out = []
    for pol in ("n", "p"):
        params, targets = calibrated_params(config, pol), config.targets[pol]
        out.append(f"[{pol}]")
        if targets is None:
            out.append("no targets configured, seed parameters kept")
        elif set(targets) == {"ion", "vdd"}:
            got = device.current_magnitude(params, targets["vdd"], targets["vdd"])
            out.append(f"ion-only fit: target {float(targets['ion'])!r} "
                       f"achieved {float(got)!r}")
        else:
            out.append(device.calibration_report(params, targets).rstrip())
        out.append(f"vth0={float(params.vth0)!r} n_ss={float(params.n_ss)!r} "
                   f"i0={float(params.i0)!r} vsat0={float(params.vsat0)!r}")
    atomic_write(os.path.join(args.out, "calibration.txt"), "\n".join(out) + "\n")
    print("calibration written")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cfetsim",
                                description="stacked-CFET thermal and parasitic analysis")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("thermal", help="steady-state self-heating field and delta-T report")
    t.add_argument("config")
    t.add_argument("--device", required=True, help="tier:polarity, e.g. 0:p")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_thermal)

    e = sub.add_parser("extract", help="parasitic RC extraction to netlist and CSV")
    e.add_argument("config")
    e.add_argument("--design", required=True, choices=DESIGNS)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_extract)

    c = sub.add_parser("compare", help="element-wise ratio table of two netlists")
    c.add_argument("--base", required=True)
    c.add_argument("--variant", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compare)

    d = sub.add_parser("delay", help="inverter propagation delay experiment")
    d.add_argument("config")
    d.add_argument("--design", required=True, choices=DESIGNS)
    d.add_argument("--parasitics", default="off",
                   help="on, off, or a netlist path to splice")
    d.add_argument("--she", default="off", choices=("on", "off"))
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_delay)

    k = sub.add_parser("calibrate", help="fit compact model parameters to targets")
    k.add_argument("config")
    k.add_argument("--out", required=True)
    k.set_defaults(func=cmd_calibrate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except CfetSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
