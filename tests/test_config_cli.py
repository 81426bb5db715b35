import errno
import os

import numpy as np
import pytest
from scipy.sparse import linalg as spla

from cfetsim import cli, device, fv, output, thermal
from cfetsim.config import load_config, parse_value
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
    assert config.thermal["power"] == "2e-6"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "absent.ini"))


def test_load_config_unknown_key(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[device]\nwibble = 3\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_load_config_unknown_section(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[wibble]\nx = 1\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_load_config_material_override(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[materials.sio2]\nkappa = 2.2\n")
    config = load_config(path)
    assert config.library()["sio2"].kappa == 2.2


def test_load_config_material_unknown_field(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[materials.sio2]\ncolour = blue\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_load_config_mesh_refinement(tmp_path):
    text = BASE_CONFIG.replace("resolution = 4nm", "resolution = 4nm\nrefine.hfo2 = 0.5nm")
    config = load_config(write_config(tmp_path, text))
    assert config.mesh_refinement == {"hfo2": 0.5}


def test_load_config_missing_referenced_file(tmp_path):
    path = write_config(tmp_path,
                        BASE_CONFIG + "\n[experiment]\nparasitic_netlist = gone.sp\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


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


def test_config_error_exits_two(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[device]\nwibble = 3\n")
    rc = cli.main(["extract", path, "--design", "2tier", "--out", str(tmp_path / "o")])
    assert rc == 2


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


def test_cmd_thermal_matches_direct_solve(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "th"
    assert cli.main(["thermal", path, "--device", "0:p", "--out", str(out)]) == 0
    summary = read_summary(out)

    config = cli.load_config(path)
    grid = cli.build_inverter_grid(config, "2tier")[0]
    ctx = cli._she_context(config, grid, 0).prepare()
    src = ctx.heat_source(float(summary["power_W"]))
    fld = thermal.solve_steady(ctx.operator, src, tol=1e-12)
    _, _, rel = thermal.energy_balance(ctx.operator, fld, src)
    assert float(summary["delta_t_max_K"]) == pytest.approx(thermal.delta_t_max(fld), rel=1e-6)
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
    for pol, tier, bias in (("n", n_tier, vdd), ("p", p_tier, -vdd)):
        params, _ = cli.calibrated_params(config, pol)
        op = device.she_operating_point(params, bias, bias, cli._she_context(config, grid, tier),
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
