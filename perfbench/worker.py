"""One cfetsim CLI invocation in a fresh process, timed from the inside.

    python3 perfbench/worker.py RESULT_JSON SPAWNED TRACE -- CLI_ARGS...
    python3 perfbench/worker.py RESULT_JSON SPAWNED warm -- CONFIG

SPAWNED is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so `setup_s` covers interpreter start, the import
of cfetsim and one load of the config. `wall_s` is the `cli.main` call
alone. With TRACE 1 the call runs under a Tracer and RESULT_JSON also
holds its spans. `warm` only imports, loads the config and reports the
machine, which compiles the bytecode before any timed run.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback


def machine_info() -> dict:
    import numpy
    import scipy

    def openblas(lib):
        deps = lib.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": openblas(numpy),
        "scipy_blas": openblas(scipy),
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def run(mode: str, argv: list[str]) -> dict:
    from cfetsim import cli, config

    config.load_config(argv[0] if mode == "warm" else argv[1])
    ready = time.monotonic()
    if mode == "warm":
        return {"rc": 0, "ready": ready, "machine": machine_info()}

    out = {"ready": ready}
    if mode == "1":
        import instrument
        from spans import Tracer

        with Tracer() as tracer:
            instrument.instrument(tracer)
            cpu0, t0 = time.process_time(), time.perf_counter()
            rc = tracer.call("cli.main", cli.main, (argv,))
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        out.update(spans=tracer.spans, counts=dict(tracer.counts),
                   unwrapped=tracer.missing, threads_max=tracer.threads_max)
    else:
        cpu0, t0 = time.process_time(), time.perf_counter()
        rc = cli.main(argv)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    out.update(rc=rc, wall_s=wall, cpu_s=cpu)
    return out


def main() -> int:
    split = sys.argv.index("--")
    result_path, spawned, mode = sys.argv[1:split]
    try:
        out = run(mode, sys.argv[split + 1:])
    except SystemExit as exc:  # argparse inside cli.main
        out = {"rc": exc.code, "error": f"SystemExit({exc.code!r})"}
    except Exception:
        out = {"rc": None, "error": traceback.format_exc()}
    if "ready" in out:
        out["setup_s"] = out.pop("ready") - float(spawned)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(result_path, "w") as f:
        json.dump(out, f)
    return 0 if out.get("rc") == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
