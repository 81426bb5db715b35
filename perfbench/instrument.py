"""Which cfetsim attributes the traced run wraps, and the per-layer metrics.

Everything is reached through module and class attributes at call time,
so the program itself is not edited. `cfetsim.device.assemble` and
`cfetsim.device.solve_steady` are the names `device` binds from `thermal`;
`cfetsim.circuit.she_operating_point` and `cfetsim.circuit.drain_current`
are the names `circuit` binds from `device`. The CG wrapper chains a
counting `callback` in front of any the caller passes.
"""

from __future__ import annotations

import inspect
import os

from spans import durations, nearest, self_times


def _argument(fn, name):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


def _file_bytes(fn, name):
    get_path = _argument(fn, name)

    def hook(attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(get_path(args, kwargs))
    return hook


def _counting_cg(tracer):
    import numpy as np

    def make(original):
        def cg(A, b, *args, callback=None, **kwargs):
            iters = 0

            def counting(xk):
                nonlocal iters
                iters += 1
                if callback is not None:
                    callback(xk)

            def hook(attrs, _args, _kwargs, result):
                x, info = result
                bnorm = float(np.linalg.norm(b))
                attrs.update(iters=iters, info=int(info), rel_residual=(
                    float(np.linalg.norm(b - A @ x)) / bnorm if bnorm else 0.0))

            return tracer.call("solver.cg", original, (A, b, *args),
                               {**kwargs, "callback": counting}, hook)
        return cg
    return make


def instrument(tracer):
    """Wrap the public functions of each layer and the scipy solver calls."""
    import scipy.sparse.linalg as spla
    from cfetsim import circuit, cli, device, geometry, parasitics, thermal

    tracer.wrap(cli, "load_config", "config.load")
    tracer.wrap(cli, "atomic_write", "cli.write", _file_bytes(cli.atomic_write, "path"))
    tracer.wrap(geometry, "build_inverter_cell", "geometry.build")
    tracer.wrap(geometry, "voxelize", "geometry.voxelize",
                lambda attrs, a, k, grid: attrs.update(cells=grid.n_cells))
    tracer.wrap(device, "calibrate", "device.calibrate")
    tracer.wrap(device, "fit_ion", "device.calibrate")
    she_hook = lambda attrs, a, k, op: attrs.update(iterations=op.iterations)  # noqa: E731
    tracer.wrap(device, "she_operating_point", "device.she", she_hook)
    tracer.wrap(circuit, "she_operating_point", "device.she", she_hook)
    tracer.wrap(device.ThermalContext, "prepare", "device.context_prepare")
    tracer.wrap(device.ThermalContext, "solve_at_power", "device.solve_at_power")
    tracer.wrap(device, "assemble", "thermal.assemble")
    tracer.wrap(device, "solve_steady", "thermal.solve")
    tracer.wrap(thermal, "export_heatmap", "thermal.export",
                _file_bytes(thermal.export_heatmap, "path"))
    tracer.wrap(parasitics, "extract_capacitance", "parasitics.cap")
    tracer.wrap(parasitics, "extract_resistance", "parasitics.res")
    tracer.wrap_with(spla, "cg", _counting_cg(tracer))
    tracer.wrap(spla, "spsolve", "solver.spsolve")
    tracer.wrap(circuit, "inverter_experiment", "circuit.experiment")

    transient_args = inspect.signature(circuit.transient)

    def transient_hook(attrs, args, kwargs, waves):
        bound = transient_args.bind(*args, **kwargs).arguments
        steps = len(next(iter(waves.values())).t) - 1
        attrs.update(steps=steps,
                     halvings=steps - int(round(bound["tstop"] / bound["dt"])))

    tracer.wrap(circuit, "transient", "circuit.transient", transient_hook)
    tracer.wrap(circuit, "propagation_delay", "circuit.measure")
    tracer.count(circuit, "drain_current", "circuit.model_evals")


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer times (s), counts and sizes (MB) from one traced run."""
    dur = durations(spans)
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(dur[s["id"]] for s in named(*names))

    def attr_sum(items, key):
        return sum(s["attrs"].get(key, 0) for s in items)

    cg = named("solver.cg")
    cg_owner = {s["id"]: (nearest(spans, s, ("parasitics.cap", "thermal.solve")) or {})
                .get("name") for s in cg}
    cap_cg = [s for s in cg if cg_owner[s["id"]] == "parasitics.cap"]
    thermal_cg = [s for s in cg if cg_owner[s["id"]] == "thermal.solve"]
    res_lu = [s for s in named("solver.spsolve")
              if nearest(spans, s, ("parasitics.res",)) is not None]
    cg_iters = attr_sum(cg, "iters")
    root = next(s for s in spans if s["parent"] is None)
    wall = dur[root["id"]]
    return {
        "solver.cg_s": total("solver.cg"),
        "solver.cg_calls": len(cg),
        "solver.cg_iters": cg_iters,
        "solver.cg_ms_per_iter": 1e3 * total("solver.cg") / cg_iters if cg_iters else 0.0,
        "solver.rel_residual_max": max((s["attrs"]["rel_residual"] for s in cg), default=0.0),
        "solver.spsolve_s": total("solver.spsolve"),
        "parasitics.cap_s": total("parasitics.cap"),
        "parasitics.cap_self_s": sum(own[s["id"]] for s in named("parasitics.cap")),
        "parasitics.cap_solves": len(cap_cg),
        "parasitics.cap_cg_iters": attr_sum(cap_cg, "iters"),
        "parasitics.cap_cg_iters_max": max((s["attrs"]["iters"] for s in cap_cg), default=0),
        "parasitics.res_s": total("parasitics.res"),
        "parasitics.res_solves": len(res_lu),
        "thermal.assemble_s": total("thermal.assemble"),
        "thermal.assemble_calls": len(named("thermal.assemble")),
        "thermal.solve_s": total("thermal.solve"),
        "thermal.solve_calls": len(named("thermal.solve")),
        "thermal.cg_iters": attr_sum(thermal_cg, "iters"),
        "thermal.export_s": total("thermal.export"),
        "thermal.export_mb": attr_sum(named("thermal.export"), "bytes") / 1e6,
        "device.calibrate_s": total("device.calibrate"),
        "device.she_s": sum(own[s["id"]] for s in named("device.she")),
        "device.she_iters": attr_sum(named("device.she"), "iterations"),
        "device.context_prepare_s": total("device.context_prepare"),
        "circuit.transient_s": total("circuit.transient"),
        "circuit.transient_calls": len(named("circuit.transient")),
        "circuit.steps": attr_sum(named("circuit.transient"), "steps"),
        "circuit.halvings": attr_sum(named("circuit.transient"), "halvings"),
        "circuit.model_evals": counts.get("circuit.model_evals", 0),
        "circuit.measure_s": total("circuit.measure"),
        "geometry.build_s": total("geometry.build", "geometry.voxelize"),
        "geometry.cells": max((s["attrs"]["cells"] for s in named("geometry.voxelize")),
                              default=0),
        "cli.write_s": total("cli.write"),
        "cli.write_mb": attr_sum(named("cli.write"), "bytes") / 1e6,
        "cli.self_s": own[root["id"]],
        "config.load_s": total("config.load"),
        "trace.coverage": 1.0 - own[root["id"]] / wall if wall > 0 else 0.0,
    }


def unit_of(key: str) -> str:
    if key.endswith("_ms_per_iter"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.startswith("check.") or key in ("solver.rel_residual_max", "trace.coverage"):
        return "1"
    return "count"
