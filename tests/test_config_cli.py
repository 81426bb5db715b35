import errno
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from scipy.sparse import linalg as spla

from cfetsim import circuit, cli, device, fv, output, parasitics, thermal
from cfetsim.config import load_config, parse_value
from cfetsim.device import CompactModelParams
from cfetsim.geometry import BeolSpec, DeviceSpec, TierSpec, build_inverter_cell, default_stack
from cfetsim.errors import ConfigurationError

BASE_CONFIG = """
[device]
gate_length = 15nm
vdd = 0.75V

[stack]
tier_count = 2
substrate_thickness = 60nm

[beol]
margin = 12nm

[mesh]
resolution = 4nm

[thermal]
power = 2e-6

[experiment]
n.vth = 0.30V
n.ss = 75
n.ioff = 1e-10
n.ion = 6.0e-5
p.vth = 0.30V
p.ss = 75
p.ioff = 1e-10
p.ion = 7.05e-5
dt_fs = 10
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_value_units():
    assert parse_value("15nm", "nm") == 15.0
    assert parse_value("15 nm", "nm") == 15.0
    assert parse_value("0.75V", "V") == 0.75
    assert parse_value("300K", "K") == 300.0
    assert parse_value("2.5", "nm") == 2.5
    with pytest.raises(ConfigurationError):
        parse_value("15furlong", "nm")


def test_load_config_defaults(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config.device.gate_length == 15.0
    assert config.device.sheet_width == 16.0  # untouched default
    assert config.stack.substrate_thickness == 60.0
    assert config.mesh_resolution == 4.0
    assert config.power == 2e-6


def test_empty_sections_load_to_the_constructor_defaults(tmp_path):
    text = "[device]\n[stack]\n[beol]\n[thermal]\n[she]\n[experiment]\n"
    config = load_config(write_config(tmp_path, text))
    assert config.device == DeviceSpec()
    assert config.stack == default_stack()
    assert config.beol == BeolSpec()
    assert config.bc == thermal.default_bc()
    assert config.heat == {}  # ThermalContext's concentration and tol
    assert config.power == "auto"
    assert config.she == {}  # she_operating_point's loop settings
    assert config.stimulus == circuit.Stimulus()
    channel = {k: getattr(config.seeds["n"], k) for k in ("w_eff", "l_eff", "cox")}
    assert config.seeds["n"] == CompactModelParams(**channel)
    assert config.seeds["p"] == CompactModelParams(polarity="p", mu0=470.0, vsat0=6.0e5,
                                                   alpha_mu=1.3, **channel)
    assert config.targets == {"n": None, "p": None}
    assert (config.mesh_resolution, config.load_c, config.parasitic_floor) == (2.0, 1e-16, 1e-21)


# Every [thermal], [she] and [experiment] default, written out: a config that
# gives these must run as one that leaves them to the library signatures.
WRITTEN_DEFAULTS = """
n.mu0 = 600
p.mu0 = 470
n.vsat0 = 1e6
p.vsat0 = 6e5
n.alpha_mu = 1.5
p.alpha_mu = 1.3
n.alpha_vsat = 0.4
p.alpha_vsat = 0.4
n.k_vth = -0.7e-3
p.k_vth = -0.7e-3
n.c_g = 5e-17
p.c_g = 5e-17
n.c_gd = 1.5e-17
p.c_gd = 1.5e-17
load_c = 1e-16
edge_ps = 1
period_ps = 20
parasitic_floor = 1e-21

[thermal]
ambient = 300K
top_h = 5e4
concentration = 0.7
tol = 1e-8
power = auto

[she]
damping = 0.5
tol_k = 0.01
max_iter = 100
"""


def test_left_out_keys_run_as_the_written_defaults(tmp_path):
    bare = BASE_CONFIG.replace("[thermal]\npower = 2e-6\n", "")
    assert "[thermal]" not in bare and bare.rstrip().endswith("dt_fs = 10")
    outputs = []
    for name, text in (("bare", bare), ("written", bare + WRITTEN_DEFAULTS)):
        path = write_config(tmp_path, text, f"{name}.ini")
        out = tmp_path / name
        assert cli.main(["thermal", path, "--device", "0:p", "--out", str(out / "th")]) == 0
        assert cli.main(["delay", path, "--design", "2tier", "--she", "on",
                         "--out", str(out / "de")]) == 0
        outputs.append({f"{d}/{f}": (out / d / f).read_bytes()
                        for d in ("th", "de") for f in os.listdir(out / d)})
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "absent.ini"))


def test_load_config_unknown_key(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.replace("vdd = 0.75V", "vdd = 0.75V\nwibble = 3"))
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(path)


@pytest.mark.parametrize("key", ["channel_doping", "sd_doping"])
def test_doping_keys_are_unknown(tmp_path, capsys, key):
    path = write_config(tmp_path, BASE_CONFIG.replace("vdd = 0.75V", f"vdd = 0.75V\n{key} = 1e15"))
    assert cli.main(["calibrate", path, "--out", str(tmp_path / "cal")]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_load_config_unknown_section(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[wibble]\nx = 1\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_load_config_material_override(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[materials.sio2]\nkappa = 2.2\n")
    config = load_config(path)
    assert config.library["sio2"].kappa == 2.2


def test_load_config_material_unknown_field(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[materials.sio2]\ncolour = blue\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_load_config_mesh_refinement(tmp_path):
    text = BASE_CONFIG.replace("resolution = 4nm", "resolution = 4nm\nrefine.hfo2 = 0.5nm")
    config = load_config(write_config(tmp_path, text))
    assert config.mesh_refinement == {"hfo2": 0.5}


def test_load_config_missing_referenced_file(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "dt_fs = 10", "dt_fs = 10\nparasitic_netlist = gone.sp"))
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(path)


def test_load_config_parasitic_netlist_key_is_unknown(tmp_path):
    (tmp_path / "para.sp").write_text("R_Input_Gate Input Gate 1.0\n")
    text = BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nparasitic_netlist = para.sp")
    with pytest.raises(ConfigurationError, match="unknown key 'parasitic_netlist'"):
        load_config(write_config(tmp_path, text))


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["thermal", "--help"], ["extract", "--help"],
                 ["compare", "--help"], ["delay", "--help"], ["calibrate", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


def test_threads_flag_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path)
    thermal_argv = ["thermal", path, "--device", "0:p", "--out", str(tmp_path / "th")]
    for argv in (["--threads", "2", *thermal_argv], [*thermal_argv, "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "th").exists()


def test_bogus_design_exits_two(tmp_path, capsys):
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["extract", path, "--design", "bogus", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_config_error_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG.replace("vdd = 0.75V", "vdd = 0.75V\nwibble = 3"))
    rc = cli.main(["extract", path, "--design", "2tier", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_path_that_is_a_directory_exits_two(tmp_path, capsys):
    rc = cli.main(["calibrate", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "cannot be read" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unreachable_target_exits_three(tmp_path):
    text = BASE_CONFIG.replace("n.ion = 6.0e-5", "n.ion = 10.0")
    path = write_config(tmp_path, text)
    rc = cli.main(["calibrate", path, "--out", str(tmp_path / "o")])
    assert rc == 3


def test_cmd_thermal_smoke(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "th"
    rc = cli.main(["thermal", path, "--device", "0:p", "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "delta_t_max_K=" in summary
    dtmax = float(summary.split("delta_t_max_K=")[1].splitlines()[0])
    assert dtmax > 0.0
    assert (out / "heatmap.csv").exists()
    assert (out / "heatmap.vtk").read_text().startswith("# vtk DataFile Version")


def test_cmd_thermal_zero_power(tmp_path):
    text = BASE_CONFIG.replace("power = 2e-6", "power = 0")
    path = write_config(tmp_path, text)
    out = tmp_path / "th0"
    assert cli.main(["thermal", path, "--device", "1:n", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    dtmax = float(summary.split("delta_t_max_K=")[1].splitlines()[0])
    assert dtmax == 0.0


def read_summary(out):
    return dict(line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())


@pytest.mark.parametrize("power", ["2e-6", "auto"])
def test_cmd_thermal_solves_once(tmp_path, monkeypatch, power):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return thermal.solve_steady(*args, **kwargs)

    monkeypatch.setattr(device, "solve_steady", counting)
    path = write_config(tmp_path, BASE_CONFIG.replace("power = 2e-6", f"power = {power}"))
    assert cli.main(["thermal", path, "--device", "0:p", "--out", str(tmp_path / "th")]) == 0
    assert len(calls) == 1


def test_cmd_thermal_formats_its_temperatures_once(tmp_path, monkeypatch):
    """Both heatmaps are written from one set of strings: of the
    `format_reprs` calls a run makes, one is on a grid-sized array (the
    others format the cell centres of one axis each)."""
    sizes, real = [], thermal.format_reprs

    def counting(values):
        sizes.append(np.size(values))
        return real(values)

    monkeypatch.setattr(thermal, "format_reprs", counting)
    path = write_config(tmp_path)
    assert cli.main(["thermal", path, "--device", "0:p", "--out", str(tmp_path / "th")]) == 0
    grid = cli.build_inverter_grid(cli.load_config(path), "2tier")[0]
    assert sizes.count(grid.n_cells) == 1, sizes


@pytest.mark.parametrize("power", ["2e-6", "auto"])
def test_cmd_thermal_frees_the_heat_operator_before_the_export(tmp_path, monkeypatch, power):
    refs, dead_at_export = [], []
    real_prepare, real_export = device.ThermalContext.prepare, thermal.export_heatmap

    def prepare(ctx):
        result = real_prepare(ctx)
        refs.extend((weakref.ref(ctx.operator), weakref.ref(ctx.operator.precond)))
        return result

    def export(*args, **kwargs):
        dead_at_export.append([ref() is None for ref in refs])
        return real_export(*args, **kwargs)

    monkeypatch.setattr(device.ThermalContext, "prepare", prepare)
    monkeypatch.setattr(thermal, "export_heatmap", export)
    path = write_config(tmp_path, BASE_CONFIG.replace("power = 2e-6", f"power = {power}"))
    assert cli.main(["thermal", path, "--device", "0:p", "--out", str(tmp_path / "th")]) == 0
    assert refs
    assert dead_at_export == [[True] * len(refs)] * 2  # the CSV and the VTK


def test_cmd_thermal_matches_direct_solve(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "th"
    assert cli.main(["thermal", path, "--device", "0:p", "--out", str(out)]) == 0
    summary = read_summary(out)

    config = cli.load_config(path)
    grid = cli.build_inverter_grid(config, "2tier")[0]
    ctx = cli._she_context(config, grid, 0).prepare()
    src = ctx.heat_source(float(summary["power_W"]))
    temps = thermal.solve_steady(ctx.operator, src, tol=1e-12)
    _, _, rel = thermal.energy_balance(ctx.operator, temps, src)
    assert float(summary["delta_t_max_K"]) == pytest.approx(temps.max() - 300.0, rel=1e-6)
    assert float(summary["balance_rel"]) == pytest.approx(rel, abs=1e-6)


def test_cmd_thermal_failed_write_keeps_earlier_heatmap(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    out = tmp_path / "th"
    assert cli.main(["thermal", path, "--device", "0:p", "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}

    class DiskFull:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def writelines(self, chunks):
            self.f.write(next(iter(chunks)))
            raise OSError(errno.ENOSPC, "No space left on device")

    opened = []

    def second_write_fails(fd, mode):
        opened.append(fd)
        f = open(fd, mode)
        return f if len(opened) == 1 else DiskFull(f)

    monkeypatch.setattr(output, "open", second_write_fails, raising=False)
    path = write_config(tmp_path, BASE_CONFIG.replace("power = 2e-6", "power = 3e-6"))
    assert cli.main(["thermal", path, "--device", "0:p", "--out", str(out)]) == 2
    assert len(opened) == 2
    assert sorted(os.listdir(out)) == sorted(before)
    assert (out / "heatmap.vtk").read_bytes() == before["heatmap.vtk"]
    assert (out / "summary.txt").read_bytes() == before["summary.txt"]
    assert (out / "heatmap.csv").read_bytes() != before["heatmap.csv"]


def test_cmd_thermal_outputs_respect_umask(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "th"
    old = os.umask(0o022)
    try:
        assert cli.main(["thermal", path, "--device", "0:p", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    for name in ("summary.txt", "heatmap.csv", "heatmap.vtk"):
        assert os.stat(out / name).st_mode & 0o777 == 0o644, name


def test_cmd_thermal_wrong_polarity(tmp_path):
    path = write_config(tmp_path)
    rc = cli.main(["thermal", path, "--device", "0:n", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cmd_extract_smoke_and_determinism(tmp_path):
    path = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["extract", path, "--design", "2tier", "--out", str(out_a)]) == 0
    assert cli.main(["extract", path, "--design", "2tier", "--out", str(out_b)]) == 0
    for name in ("netlist.sp", "capacitance.csv", "resistance.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    netlist = (out_a / "netlist.sp").read_text()
    for rail_pair in ("R_Ground_NSource", "R_PSource_Power", "R_Input_Gate",
                      "R_Output_Drain"):
        assert rail_pair in netlist


def test_cmd_extract_rerun_overwrites(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "o"
    assert cli.main(["extract", path, "--design", "2tier", "--out", str(out)]) == 0
    first = (out / "netlist.sp").read_bytes()
    assert cli.main(["extract", path, "--design", "2tier", "--out", str(out)]) == 0
    assert (out / "netlist.sp").read_bytes() == first


def test_cmd_compare_identity(tmp_path):
    nl = "* t\nR_a_b a b 2.000e+00\nC_a_b a b 1.000e-18\n"
    base = tmp_path / "base.sp"
    base.write_text(nl)
    out = tmp_path / "ratio.csv"
    assert cli.main(["compare", "--base", str(base), "--variant", str(base),
                     "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert all(row.endswith(",1.00") for row in rows)


def test_cmd_compare_disjoint_exits_two(tmp_path):
    a = tmp_path / "a.sp"
    b = tmp_path / "b.sp"
    a.write_text("R_a_b a b 1.0\n")
    b.write_text("R_c_d c d 1.0\n")
    rc = cli.main(["compare", "--base", str(a), "--variant", str(b),
                   "--out", str(tmp_path / "r.csv")])
    assert rc == 2


def test_cmd_compare_reports_unmatched_elements(tmp_path, capsys):
    a = tmp_path / "a.sp"
    b = tmp_path / "b.sp"
    a.write_text("R_a_b a b 2.0\nC_a_b a b 1e-18\n")
    b.write_text("R_a_b a b 4.0\nR_x_y x y 1.0\n")
    out = tmp_path / "r.csv"
    assert cli.main(["compare", "--base", str(a), "--variant", str(b), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "compared 1 shared elements\nunmatched: C_a_b R_x_y\n"
    assert out.read_text() == "element,base,variant,ratio\nR_a_b,2.0,4.0,2.00\n"
    assert cli.main(["compare", "--base", str(a), "--variant", str(a), "--out", str(out)]) == 0
    assert "unmatched" not in capsys.readouterr().out


@pytest.mark.parametrize("variant, message", [
    ("C_a_b a b nan", "line 2: C_a_b: capacitance must be >= 0 and finite, got nan"),
    ("C_a_b a b 1e400", "line 2: C_a_b: capacitance must be >= 0 and finite, got inf"),
    ("C_a_b a b -1e-18", "line 2: C_a_b: capacitance must be >= 0 and finite, got -1e-18"),
    ("R_a_b a b 0", "line 2: R_a_b: resistance must be positive and finite, got 0.0"),
    ("R_a_b a b 100\nR_a_b a b 200", "line 3: duplicate element name 'R_a_b'"),
], ids=["nan", "inf", "negative-c", "zero-r", "duplicate-name"])
def test_cmd_compare_rejects_bad_elements(tmp_path, capsys, variant, message):
    a, b, out = tmp_path / "a.sp", tmp_path / "b.sp", tmp_path / "r.csv"
    a.write_text("R_a_b a b 50\nC_a_b a b 1e-18\n")
    b.write_text(f"* variant\n{variant}\n")
    rc = cli.main(["compare", "--base", str(a), "--variant", str(b), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cmd_compare_zero_base_value_exits_two(tmp_path, capsys):
    a, b, out = tmp_path / "a.sp", tmp_path / "b.sp", tmp_path / "r.csv"
    a.write_text("R_a_b a b 50\nC_a_b a b 0\n")
    b.write_text("R_a_b a b 100\nC_a_b a b 1e-18\n")
    rc = cli.main(["compare", "--base", str(a), "--variant", str(b), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: C_a_b: the base value is 0, so the ratio is undefined\n"
    assert not out.exists()


@pytest.mark.parametrize("para, message", [
    ("C_x Output 0 nan", "line 1: C_x: capacitance must be >= 0 and finite, got nan"),
    ("R_Output_Drain Output Drain 50\nR_Output_Drain Output Drain 50",
     "line 2: duplicate element name 'R_Output_Drain'"),
    ("Cload Output 0 1e-18", "duplicate element name 'Cload'"),
], ids=["nan", "duplicate-name", "intrinsic-name"])
def test_cmd_delay_rejects_bad_spliced_elements(tmp_path, monkeypatch, capsys, para, message):
    """A splice is rejected before any transient runs."""
    calls, real = [], circuit.transient

    def counting(*args, **kwargs):
        calls.append("transient")
        return real(*args, **kwargs)

    monkeypatch.setattr(circuit, "transient", counting)
    path = write_config(tmp_path)
    sp = tmp_path / "para.sp"
    sp.write_text(para + "\n")
    rc = cli.main(["delay", path, "--design", "2tier", "--parasitics", str(sp),
                   "--out", str(tmp_path / "d")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


def test_importing_the_package_loads_no_module(tmp_path):
    """`import cfetsim` runs the package docstring alone: no numpy, no scipy,
    no cfetsim module."""
    script = ("import sys, cfetsim\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'scipy')\n"
              "             or m.startswith('cfetsim.')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "[]\n"


def test_cli_runs_without_ndimage_or_optimize(tmp_path):
    # thermal, and delay with parasitics and SHE, reach every connectivity
    # check and root find; a fresh interpreter shows what they import
    path = write_config(tmp_path)
    script = f"""
import sys
from cfetsim import cli
assert cli.main(["thermal", {path!r}, "--device", "0:p", "--out", {str(tmp_path / "th")!r}]) == 0
assert cli.main(["delay", {path!r}, "--design", "2tier", "--parasitics", "on", "--she", "on",
                 "--out", {str(tmp_path / "de")!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith(("scipy.ndimage", "scipy.optimize"))))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_loads_no_csgraph(tmp_path):
    # face connectivity and the DC-path check are numpy and Python searches:
    # neither the import nor a thermal or SHE delay run loads scipy's graph
    # routines
    path = write_config(tmp_path)
    script = f"""
import sys
from cfetsim import cli
print("scipy.sparse.csgraph" in sys.modules)
assert cli.main(["thermal", {path!r}, "--device", "0:p", "--out", {str(tmp_path / "th")!r}]) == 0
assert cli.main(["delay", {path!r}, "--design", "2tier", "--parasitics", "on", "--she", "on",
                 "--out", {str(tmp_path / "de")!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse.csgraph")))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "[]")


def test_delay_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The transient's dense solves give the same bytes on one BLAS thread
    and on two; without parasitics the delay runs no CG solve."""
    path = write_config(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
                   OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-m", "cfetsim.cli", "delay", path, "--design",
                               "2tier", "--parasitics", "off", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(outputs[0]) == ["report.txt", "waveforms.csv", "waveforms_baseline.csv"]
    assert outputs[0] == outputs[1]


def test_cmd_delay_parasitics_increase_tp(tmp_path):
    path = write_config(tmp_path)
    para = tmp_path / "para.sp"
    para.write_text("* rc\nR_Output_Drain Output Drain 5.000e+01\n"
                    "C_Input_Output Input Output 4.000e-18\n")
    out_off = tmp_path / "off"
    out_on = tmp_path / "on"
    assert cli.main(["delay", path, "--design", "2tier", "--parasitics", "off",
                     "--out", str(out_off)]) == 0
    assert cli.main(["delay", path, "--design", "2tier", "--parasitics", str(para),
                     "--out", str(out_on)]) == 0

    def tp_with(out):
        text = (out / "report.txt").read_text()
        return float(text.split("tp_with_ps=")[1].splitlines()[0])

    assert tp_with(out_on) > tp_with(out_off)
    report = (out_on / "report.txt").read_text()
    assert "degradation_pct=" in report
    assert (out_on / "waveforms.csv").exists()


def test_cmd_delay_splices_elements_on_merged_device_nodes(tmp_path):
    """Without rail resistors each device node is merged into its rail, so a
    capacitor between Drain and Gate is the one between Output and Input."""
    path = write_config(tmp_path)
    outputs = []
    for a, b in (("Drain", "Gate"), ("Output", "Input")):
        para = tmp_path / f"{a}.sp"
        para.write_text(f"C_{a}_{b} {a} {b} 1.000e-17\n")
        out = tmp_path / a
        assert cli.main(["delay", path, "--design", "2tier", "--parasitics", str(para),
                         "--out", str(out)]) == 0
        report = (out / "report.txt").read_text().replace(para.name, "FILE")
        outputs.append((report, (out / "waveforms.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_cmd_delay_without_she_runs_at_ambient(tmp_path, monkeypatch):
    temperatures = []
    real = circuit.transient

    def recording(netlist, *args, **kwargs):
        temperatures.extend(el.temperature for el in netlist.elements
                            if isinstance(el, circuit.Transistor))
        return real(netlist, *args, **kwargs)

    monkeypatch.setattr(circuit, "transient", recording)
    path = write_config(tmp_path, BASE_CONFIG.replace("power = 2e-6", "ambient = 350K"))
    assert cli.main(["delay", path, "--design", "2tier", "--she", "off",
                     "--out", str(tmp_path / "d")]) == 0
    assert temperatures == [350.0, 350.0]


def test_cmd_delay_waveform_headers_pin_node_names(tmp_path):
    # a rail resistor keeps the device-side node; without one the rail's name survives
    path = write_config(tmp_path)
    headers = {}
    for para in ("on", "off"):
        out = tmp_path / para
        assert cli.main(["delay", path, "--design", "2tier", "--parasitics", para,
                         "--out", str(out)]) == 0
        for name in ("waveforms.csv", "waveforms_baseline.csv"):
            headers[para, name] = (out / name).read_text().split("\n", 1)[0]
    rails = "t_s,Input,Output,Power"
    assert headers == {
        ("on", "waveforms.csv"): "t_s,Drain,Gate,Input,NSource,Output,PSource,Power",
        ("on", "waveforms_baseline.csv"): rails,
        ("off", "waveforms.csv"): rails,
        ("off", "waveforms_baseline.csv"): rails,
    }


def test_cmd_delay_she_zero_coefficients(tmp_path):
    # ion-only fit at a weak drive so the thermal loop stays mild
    text = BASE_CONFIG
    for drop in ("n.vth = 0.30V", "n.ss = 75", "n.ioff = 1e-10",
                 "p.vth = 0.30V", "p.ss = 75", "p.ioff = 1e-10"):
        text = text.replace(drop + "\n", "")
    text = text.replace("n.ion = 6.0e-5", "n.ion = 2.0e-6")
    text = text.replace("p.ion = 7.05e-5", "p.ion = 2.35e-6")
    text = text.replace("dt_fs = 10", (
        "dt_fs = 300\nperiod_ps = 600\nedge_ps = 6\nload_c = 1e-17\n"
        "n.alpha_mu = 1e-12\nn.alpha_vsat = 0\nn.k_vth = 0\n"
        "p.alpha_mu = 1e-12\np.alpha_vsat = 0\np.k_vth = 0"))
    path = write_config(tmp_path, text)
    out_iso = tmp_path / "iso"
    out_she = tmp_path / "she"
    assert cli.main(["delay", path, "--design", "2tier", "--parasitics", "off",
                     "--she", "off", "--out", str(out_iso)]) == 0
    assert cli.main(["delay", path, "--design", "2tier", "--parasitics", "off",
                     "--she", "on", "--out", str(out_she)]) == 0

    def tp(out):
        text = (out / "report.txt").read_text()
        return float(text.split("tp_without_ps=")[1].splitlines()[0])

    assert tp(out_she) == pytest.approx(tp(out_iso), rel=1e-3)
    assert "delta_t_n_K=" in (out_she / "report.txt").read_text()


def test_cmd_delay_she_honours_max_iter(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG + "\n[she]\nmax_iter = 1\n")
    rc = cli.main(["delay", path, "--design", "2tier", "--parasitics", "off",
                   "--she", "on", "--out", str(tmp_path / "she")])
    assert rc == 3
    assert "after 1 iterations" in capsys.readouterr().err


def test_cmd_delay_she_assembles_heat_operator_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return thermal.assemble(*args, **kwargs)

    monkeypatch.setattr(device, "assemble", counting)
    path = write_config(tmp_path)
    out = tmp_path / "she"
    assert cli.main(["delay", path, "--design", "2tier", "--parasitics", "off",
                     "--she", "on", "--out", str(out)]) == 0
    assert len(calls) == 1

    # each channel's rise is the one a context of its own gives
    report = dict(line.split("=", 1) for line in (out / "report.txt").read_text().splitlines())
    config = cli.load_config(path)
    grid, _, (p_tier, n_tier), _ = cli.build_inverter_grid(config, "2tier")
    vdd = config.device.vdd
    for pol, tier in (("n", n_tier), ("p", p_tier)):
        params = cli.calibrated_params(config, pol)
        op = device.she_operating_point(params, vdd, cli._she_context(config, grid, tier),
                                        **config.she)
        assert report[f"delta_t_{pol}_K"] == repr(float(op.delta_t))


def test_cmd_extract_reports_and_rejects_clipped_couplings(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "ex"
    assert cli.main(["extract", path, "--design", "2tier", "--out", str(out)]) == 0
    assert "clipped_rel=0.0\n" in (out / "diagnostics.txt").read_text()

    real = fv.solve_spd
    monkeypatch.setattr(fv, "solve_spd", lambda *args, **kwargs: real(*args, **kwargs) - 0.5)
    assert cli.main(["extract", path, "--design", "2tier", "--out", str(out)]) == 3
    assert "positive coupling" in capsys.readouterr().err


def test_cmd_extract_stalled_solve_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(spla, "cg", lambda a, b, **kwargs: (np.zeros_like(b), 9))
    path = write_config(tmp_path)
    assert cli.main(["extract", path, "--design", "2tier", "--out", str(tmp_path / "ex")]) == 3
    err = capsys.readouterr().err
    assert "capacitance solve Input stalled" in err
    assert "(residual 1)" in err  # |b - A 0| / |b|


def test_cmd_calibrate_report(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "cal"
    assert cli.main(["calibrate", path, "--out", str(out)]) == 0
    text = (out / "calibration.txt").read_text()
    assert "[n]" in text and "[p]" in text
    assert "stage target achieved residual" in text


def test_cmd_extract_writes_geometry_dump(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "ex"
    assert cli.main(["extract", path, "--design", "2tier", "--out", str(out)]) == 0
    text = (out / "geometry.csv").read_text()
    assert text.startswith("label,material,")
    assert "Output,interconnect_metal," in text


def test_cmd_thermal_four_tier_top_hotter(tmp_path):
    text = BASE_CONFIG.replace("tier_count = 2", "tier_count = 4")
    path = write_config(tmp_path, text)

    def dtmax(device, out):
        assert cli.main(["thermal", path, "--device", device, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        return float(summary.split("delta_t_max_K=")[1].splitlines()[0])

    bottom = dtmax("0:p", tmp_path / "bot")
    top = dtmax("2:p", tmp_path / "top")
    assert top > bottom > 0.0


ALL_SPEC_KEYS = """
[device]
gate_length = 17nm
sheet_width = 18nm
sheet_thickness = 7nm
eot = 1.1nm
spacer_thickness = 6nm
vdd = 0.8V
sd_extension = 11nm
gate_metal_thickness = 4nm

[stack]
tier_count = 4
tier_gap = 7nm
pair_gap = 13nm
standoff = 25nm
substrate_thickness = 150nm
inter_tier_dielectric = sio2
order = npnp

[beol]
via_cross_section = 25
metal_thickness = 22nm
mol_standoff = 12nm
buried_power_rail = false
bpr_depth = 8nm
bpr_thickness = 18nm
conductor_material = gate_metal
margin = 15nm
"""


def test_load_config_every_spec_key_reaches_its_field(tmp_path):
    config = load_config(write_config(tmp_path, ALL_SPEC_KEYS))
    assert config.device == DeviceSpec(
        gate_length=17.0, sheet_width=18.0, sheet_thickness=7.0, eot=1.1,
        spacer_thickness=6.0, vdd=0.8, sd_extension=11.0, gate_metal_thickness=4.0)

    stack = config.stack
    assert stack.tier_count == 4
    assert stack.tiers == (TierSpec("n", 25.0), TierSpec("p", 7.0),
                           TierSpec("n", 13.0), TierSpec("p", 7.0))
    assert stack.substrate_thickness == 150.0
    assert stack.inter_tier_dielectric == "sio2"

    beol = config.beol
    assert (beol.via_cross_section, beol.mol_standoff, beol.buried_power_rail,
            beol.bpr_depth, beol.bpr_thickness, beol.conductor_material, beol.margin) == (
        25.0, 12.0, False, 8.0, 18.0, "gate_metal", 15.0)
    # the first metal level, seen where the Input rail runs along y
    regions = build_inverter_cell(config.device, stack, beol)
    stack_top = max(r.box[2][1] for r in regions if (r.label or "").endswith(".gate"))
    (rail_z0, rail_z1), = {r.box[2] for r in regions
                           if r.label == "Input" and r.box[1][1] == regions[0].box[1][1]}
    assert rail_z0 == pytest.approx(stack_top + 12.0)
    assert rail_z1 - rail_z0 == pytest.approx(22.0)


def test_design_stack_promotion_keeps_configured_stack(tmp_path):
    text = BASE_CONFIG.replace("substrate_thickness = 60nm", (
        "substrate_thickness = 150nm\ntier_gap = 7nm\nstandoff = 25nm\n"
        "inter_tier_dielectric = sio2\norder = np"))
    config = load_config(write_config(tmp_path, text))
    assert [t.polarity for t in config.stack.tiers] == ["n", "p"]
    stack, variant = cli._design_stack(config, "4tier-top")
    assert variant == "top"
    assert stack.tier_count == 4
    assert stack.inter_tier_dielectric == "sio2"
    assert stack.substrate_thickness == 150.0
    assert [t.gap_below for t in stack.tiers] == [25.0, 7.0, 7.0, 7.0]
    assert [t.polarity for t in stack.tiers] == ["n", "p", "n", "p"]


def test_design_stack_demotion_keeps_configured_bottom_pair(tmp_path):
    text = BASE_CONFIG.replace("tier_count = 2", "tier_count = 4\ntier_gap = 7nm\norder = nppn")
    config = load_config(write_config(tmp_path, text))
    stack, variant = cli._design_stack(config, "2tier")
    assert variant == "bottom"
    assert stack.tiers == config.stack.tiers[:2]
    assert [t.polarity for t in stack.tiers] == ["n", "p"]


@pytest.mark.parametrize("setting, key", [
    ("max_iter = 0", "max_iter"), ("damping = 0", "damping"),
    ("damping = 1.5", "damping"), ("tol_k = 0", "tol_k"),
])
def test_cmd_delay_she_rejects_bad_loop_settings(tmp_path, capsys, setting, key):
    path = write_config(tmp_path, BASE_CONFIG + f"\n[she]\n{setting}\n")
    rc = cli.main(["delay", path, "--design", "2tier", "--parasitics", "off",
                   "--she", "on", "--out", str(tmp_path / "she")])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_cmd_delay_bad_she_setting_rejected_before_any_solve(tmp_path, monkeypatch, capsys):
    calls = []

    def count_calls(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    count_calls(parasitics, "extract_capacitance")
    count_calls(device, "solve_steady")
    path = write_config(tmp_path, BASE_CONFIG + "\n[she]\ndamping = 0\n")
    rc = cli.main(["delay", path, "--design", "2tier", "--parasitics", "on",
                   "--she", "on", "--out", str(tmp_path / "she")])
    assert rc == 2
    assert "damping" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("key, command", [
    ("load_c", ["delay", "--design", "2tier"]),
    ("parasitic_floor", ["extract", "--design", "2tier"]),
])
def test_negative_experiment_value_exits_two(tmp_path, capsys, key, command):
    path = write_config(tmp_path, BASE_CONFIG.replace("dt_fs = 10", f"dt_fs = 10\n{key} = -1e-18"))
    rc = cli.main([command[0], path, *command[1:], "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key} must be non-negative" in capsys.readouterr().err


def test_cmd_delay_rejects_edge_longer_than_the_phase(tmp_path, monkeypatch, capsys):
    calls = []
    real = circuit.transient
    monkeypatch.setattr(circuit, "transient",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    text = BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nedge_ps = 15\nperiod_ps = 20")
    path = write_config(tmp_path, text)
    rc = cli.main(["delay", path, "--design", "2tier", "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "edge_ps" in capsys.readouterr().err
    assert not calls


@pytest.mark.parametrize("text, message", [
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nedge_ps = 15\nperiod_ps = 20"),
     "[experiment] edge_ps must lie in (0, 0.4 period_ps) for period_ps = 20.0, got 15.0"),
    (BASE_CONFIG + "\n[materials.sio2]\nkappa = -1\n",
     "[materials.sio2] kappa must be positive and finite, got -1.0"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nn.mu0 = -600"),
     "[experiment] n.mu0 must be positive and finite, got -600.0"),
    (BASE_CONFIG.replace("n.ss = 75\n", ""), "[experiment] n.*: give all four targets"),
    (BASE_CONFIG.replace("n.ioff = 1e-10", "n.ioff = 1e-3"),
     "[experiment] n.ion > n.ioff > 0 must hold, got ion = 6e-05, ioff = 0.001"),
    (BASE_CONFIG.replace("n.vth = 0.30V\nn.ss = 75\nn.ioff = 1e-10\nn.ion = 6.0e-5",
                         "n.ion = -1e-5"),
     "[experiment] n.ion must be positive and finite, got -1e-05"),
    (BASE_CONFIG.replace("resolution = 4nm", "resolution = 0nm"),
     "[mesh] resolution must be positive and finite, got 0.0"),
    (BASE_CONFIG.replace("resolution = 4nm", "resolution = 4nm\nrefine.hfo2 = 0nm"),
     "[mesh] refine.hfo2 must be positive and finite, got 0.0"),
    (BASE_CONFIG.replace("tier_count = 2", "tier_count = 3"),
     "[stack] tier_count must be 2 or 4, got 3"),
    (BASE_CONFIG.replace("vdd = 0.75V", "vdd = -1V"), "[device] vdd must be positive"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\np.vsat0 = 0"),
     "[experiment] p.vsat0 must be positive and finite, got 0.0"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 0"),
     "[experiment] dt_fs must be positive and finite, got 0.0"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 2000"),
     "[experiment] dt_fs must not exceed the input edge of 1000 fs, got 2000.0"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 1e-6"),
     "[experiment] dt_fs must leave at most 1,000,000 print samples in the 20 ps period, "
     "got 1e-06"),
    (BASE_CONFIG.replace("power = 2e-6", "power = 2e-6\ntop_h = 0"),
     "[thermal] top_h must be positive, got 0.0"),
    (BASE_CONFIG + "\n[she]\ndamping = 0\n", "[she] damping must lie in (0, 1], got 0.0"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nload_c = nan"),
     "[experiment] load_c must be non-negative and finite, got nan"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nparasitic_floor = inf"),
     "[experiment] parasitic_floor must be non-negative and finite, got inf"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nn.c_gd = nan"),
     "[experiment] n.c_gd must be finite, got nan"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\np.k_vth = -inf"),
     "[experiment] p.k_vth must be finite, got -inf"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nn.c_gd = -1e-17"),
     "[experiment] n.c_gd must lie in [0, c_g = 5e-17], got -1e-17"),
    (BASE_CONFIG.replace("dt_fs = 10", "dt_fs = 10\nn.c_gd = 1e-16"),
     "[experiment] n.c_gd must lie in [0, c_g = 5e-17], got 1e-16"),
    (BASE_CONFIG.replace("tier_count = 2", "tier_count = 2\ntier_gap = 0nm"),
     "[stack] tier_gap must be positive and finite, got 0.0"),
    (BASE_CONFIG.replace("tier_count = 2", "tier_count = 2\nstandoff = -5nm"),
     "[stack] standoff must be positive and finite, got -5.0"),
    (BASE_CONFIG.replace("tier_count = 2", "tier_count = 2\npair_gap = -5nm"),
     "[stack] pair_gap must be positive and finite, got -5.0"),
    (BASE_CONFIG + "\n[materials.hfo2]\neps_r = 0.5\n",
     "[materials.hfo2] eps_r must be >= 1 and finite, got 0.5"),
    (BASE_CONFIG + "\n[materials.interlayer_dielectric]\neps_r = inf\n",
     "[materials.interlayer_dielectric] eps_r must be >= 1 and finite, got inf"),
    (BASE_CONFIG + "\n[materials.interconnect_metal]\nrho_e = inf\n",
     "[materials.interconnect_metal] rho_e must be positive and finite for a conductor, got inf"),
    (BASE_CONFIG.replace("vdd = 0.75V", "vdd = inf"),
     "[device] vdd must be positive and finite, got inf"),
    (BASE_CONFIG.replace("gate_length = 15nm", "gate_length = inf"),
     "[device] gate_length must be positive and finite, got inf"),
    (BASE_CONFIG.replace("gate_length = 15nm", "gate_length = 15nm\nsd_extension = inf"),
     "[device] sd_extension must be positive and finite, got inf"),
    (BASE_CONFIG.replace("margin = 12nm", "margin = 12nm\nmol_standoff = -30nm"),
     "[beol] mol_standoff must be non-negative and finite, got -30.0"),
    (BASE_CONFIG.replace("margin = 12nm", "margin = 12nm\nmol_standoff = inf"),
     "[beol] mol_standoff must be non-negative and finite, got inf"),
], ids=["edge_ps", "kappa", "mu0", "partial-targets", "ioff-above-ion", "ion-only-negative",
        "resolution", "refine", "tier_count", "vdd", "p.vsat0", "dt_fs", "dt_fs-above-edge",
        "dt_fs-print-samples",
        "top_h", "damping",
        "load_c-nan", "parasitic_floor-inf", "n.c_gd-nan", "p.k_vth-inf", "n.c_gd-negative",
        "n.c_gd-above-c_g", "tier_gap", "standoff", "pair_gap-2tier", "eps_r", "eps_r-inf",
        "rho_e-inf",
        "vdd-inf", "gate_length-inf", "sd_extension-inf", "mol_standoff",
        "mol_standoff-inf"])
@pytest.mark.parametrize("command", [
    ["calibrate"], ["thermal", "--device", "0:p"], ["extract", "--design", "2tier"],
    ["delay", "--design", "2tier"],
], ids=lambda argv: argv[0])
def test_bad_value_exits_two_on_every_command(tmp_path, monkeypatch, capsys, text, message,
                                              command):
    def never(*args, **kwargs):
        raise AssertionError("grid built or device fitted for a bad config")

    for module, name in ((cli, "build_inverter_grid"), (device, "calibrate"),
                         (device, "fit_ion")):
        monkeypatch.setattr(module, name, never)
    path = write_config(tmp_path, text)
    rc = cli.main([command[0], path, *command[1:], "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")  # section named once


def test_non_utf8_config_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"\xff" + BASE_CONFIG.encode())
    rc = cli.main(["calibrate", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config file {str(path)!r} is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [
    ["compare", "--base", "{bad}", "--variant", "{good}"],
    ["delay", "{config}", "--design", "2tier", "--parasitics", "{bad}"],
], ids=lambda argv: argv[0])
def test_non_utf8_netlist_exits_two(tmp_path, capsys, command):
    bad, good = tmp_path / "bad.sp", tmp_path / "good.sp"
    bad.write_bytes(b"* caf\xe9\nR_a_b a b 1.0\n")
    good.write_text("R_a_b a b 1.0\n")
    paths = {"bad": str(bad), "good": str(good), "config": write_config(tmp_path)}
    rc = cli.main([arg.format(**paths) for arg in command] + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"netlist {str(bad)!r} is not UTF-8 text" in capsys.readouterr().err


def test_cmd_thermal_negative_tier_rejected_before_meshing(tmp_path, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built for a bad --device")

    monkeypatch.setattr(cli, "build_inverter_grid", no_grid)
    path = write_config(tmp_path)
    rc = cli.main(["thermal", path, "--device=-1:n", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--device -1:n: tier -1 is absent" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0", "0:p:q", "0:x", ":p", "p:0"])
def test_cmd_thermal_malformed_device_rejected_before_meshing(tmp_path, monkeypatch, capsys,
                                                              spec):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built for a malformed --device")

    monkeypatch.setattr(cli, "build_inverter_grid", no_grid)
    path = write_config(tmp_path)
    rc = cli.main(["thermal", path, f"--device={spec}", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --device must look like 0:p, got {spec!r}\n"


@pytest.mark.parametrize("setting, message", [
    ("tol = 1", "tol must lie in (0, 1)"), ("tol = 0", "tol must lie in (0, 1)"),
    ("ambient = -5K", "ambient must be positive"),
    ("concentration = 0", "concentration must lie in (0, 1]"),
    ("concentration = 1.5", "concentration must lie in (0, 1]"),
    ("top_h = 0", "top_h must be positive"), ("top_h = -1", "top_h must be positive"),
    ("power = abc", "[thermal] power must be 'auto' or a non-negative wattage, got 'abc'"),
    ("power = -1e-6", "[thermal] power must be 'auto' or a non-negative wattage"),
    ("power = inf", "[thermal] power must be 'auto' or a non-negative wattage"),
])
def test_cmd_thermal_bad_setting_rejected_at_load(tmp_path, monkeypatch, capsys, setting, message):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built for a bad [thermal] setting")

    monkeypatch.setattr(cli, "build_inverter_grid", no_grid)
    path = write_config(tmp_path, BASE_CONFIG.replace("power = 2e-6", setting))
    rc = cli.main(["thermal", path, "--device", "0:p", "--out", str(tmp_path / "t")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_top_h_inf_holds_the_top_face(tmp_path):
    config = load_config(write_config(tmp_path, BASE_CONFIG.replace(
        "power = 2e-6", "power = 2e-6\ntop_h = inf")))
    assert config.bc.h["z_max"] == float("inf")


@pytest.mark.parametrize("beol, key", [
    ("margin = 0nm", "margin"), ("margin = -5nm", "margin"),
    ("margin = 12nm\nbpr_thickness = 0nm", "bpr_thickness"),
])
def test_cmd_extract_bad_beol_size_names_the_key(tmp_path, capsys, beol, key):
    path = write_config(tmp_path, BASE_CONFIG.replace("margin = 12nm", beol))
    rc = cli.main(["extract", path, "--design", "2tier", "--out", str(tmp_path / "e")])
    assert rc == 2
    assert f"{key} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("beol, message", [
    ("bpr_depth = -30nm", "bpr_depth must be non-negative, got -30.0"),
    ("bpr_depth = 45nm", "bpr_depth + bpr_thickness must not exceed substrate_thickness "
                         "60.0, got 65.0"),
])
def test_cmd_extract_bad_bpr_depth_names_the_key(tmp_path, capsys, beol, message):
    path = write_config(tmp_path, BASE_CONFIG.replace("margin = 12nm", f"margin = 12nm\n{beol}"))
    rc = cli.main(["extract", path, "--design", "2tier", "--out", str(tmp_path / "e")])
    assert rc == 2
    assert message in capsys.readouterr().err


SAMPLE_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "sample_2tier.ini")


@pytest.mark.parametrize("old, new, message", [
    ("spacer_thickness = 5nm", "spacer_thickness = 5nm\nsd_extension = 6nm",
     "rail Output routing blocked by spacer_dielectric"),
    ("via_cross_section = 36", "via_cross_section = 900", "rails Input and Output overlap"),
])
def test_cmd_extract_rejects_blocked_routing_before_meshing(tmp_path, monkeypatch, capsys,
                                                            old, new, message):
    def no_mesh(*args, **kwargs):
        raise AssertionError("meshed a cell whose routing is blocked")
    monkeypatch.setattr(cli.geometry, "voxelize", no_mesh)
    with open(SAMPLE_CONFIG) as f:
        text = f.read()
    assert old in text
    path = write_config(tmp_path, text.replace(old, new))
    rc = cli.main(["extract", path, "--design", "2tier", "--out", str(tmp_path / "e")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cmd_extract_empty_terminal_exits_two(tmp_path, monkeypatch, capsys):
    """Terminals taken with the p and n tiers swapped: the ground rail
    touches no source of the tier named as n."""
    real = cli.build_inverter_grid

    def swapped(config, design):
        grid, stack, (p_tier, n_tier), regions = real(config, design)
        return grid, stack, (n_tier, p_tier), regions
    monkeypatch.setattr(cli, "build_inverter_grid", swapped)
    path = write_config(tmp_path)
    rc = cli.main(["extract", path, "--design", "2tier", "--out", str(tmp_path / "e")])
    assert rc == 2
    assert capsys.readouterr().err == "error: terminal 'NSource' has no faces\n"


@pytest.mark.parametrize("text, message", [
    (BASE_CONFIG.replace("gate_length = 15nm", "gate_length = abc"),
     "[device] gate_length: cannot parse 'abc' as a nm value"),
    (BASE_CONFIG + "\n[materials.sio2]\nkappa = x\n",
     "[materials.sio2] kappa: cannot parse 'x' as a none value"),
    (BASE_CONFIG.replace("resolution = 4nm", "resolution = 4nm\nrefine.Input = fine"),
     "[mesh] refine.Input: cannot parse 'fine' as a nm value"),
], ids=["device", "materials", "refine"])
def test_bad_number_names_section_and_key(tmp_path, capsys, text, message):
    rc = cli.main(["extract", write_config(tmp_path, text), "--design", "2tier",
                   "--out", str(tmp_path / "e")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_cmd_thermal_unreachable_tol_stalls_at_the_fixed_cap(tmp_path, capsys):
    # cg stops on its recursively updated residual, which keeps falling by
    # about 0.4 decades per multigrid iteration after the true residual has
    # levelled off near 5e-13; 1e-120 puts the stop beyond the fixed cap
    text = BASE_CONFIG.replace("power = 2e-6", "power = 2e-6\ntol = 1e-120")
    path = write_config(tmp_path, text)
    rc = cli.main(["thermal", path, "--device", "0:p", "--out", str(tmp_path / "t")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "thermal solve stalled after 200 iterations (residual " in err
    assert float(err.split("(residual ")[1].split(")")[0]) < 1e-9


def test_cmd_thermal_tol_below_rounding_exits_three(tmp_path, capsys):
    # cg reports success on its recursive residual long before the cap, while
    # the true residual stays near 5e-13: the true residual decides
    text = BASE_CONFIG.replace("power = 2e-6", "power = 2e-6\ntol = 1e-30")
    path = write_config(tmp_path, text)
    out = tmp_path / "t"
    rc = cli.main(["thermal", path, "--device", "0:p", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "thermal solve cannot reach tolerance 1e-30: true residual " in err
    assert 1e-30 < float(err.split("true residual ")[1].split()[0]) < 1e-9
    assert not out.exists() or not any(out.iterdir())
