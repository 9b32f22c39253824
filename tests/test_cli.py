import csv
import math
import os

import numpy as np
import pytest

from cyl.cli import EX_USAGE, main
from cyl.config import RunConfig, load_config
from cyl.reports import RunManifest, fmt, write_csv, write_plot_data


def test_config_defaults_and_validation(tmp_path):
    cfg = RunConfig()
    assert 1.0 > cfg.omega > cfg.alpha > 0.5
    with pytest.raises(ValueError):
        RunConfig(alpha=0.75, omega=0.7)
    p = tmp_path / "run.cfg"
    p.write_text("""
# comment
scenario = smoke
delta = 0.025
epsilon = 2e-4
t_grid = 0.5, 1.0, 2.0   # inline comment
mu_points = 11
""")
    cfg = load_config(str(p))
    assert cfg.scenario == "smoke"
    assert cfg.t_grid == (0.5, 1.0, 2.0)
    assert cfg.mu_points == 11
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    with pytest.raises(ValueError):
        load_config(str(bad))


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    cfg = RunConfig()
    monkeypatch.setenv("CYL_OUT_DIR", str(tmp_path / "envout"))
    assert cfg.resolve_out_dir() == str(tmp_path / "envout")
    assert cfg.resolve_out_dir(str(tmp_path / "cli")) == str(tmp_path / "cli")


def test_fmt_and_csv_determinism(tmp_path):
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(True) == "1"
    rows = [(1.0 / 3.0, "a"), (2.0, "b")]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(str(p1), ["x", "s"], rows)
    write_csv(str(p2), ["x", "s"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    write_plot_data(str(tmp_path / "p.dat"), [1.0], [2.0], [0.1])
    assert (tmp_path / "p.dat").read_text().startswith("1 2 0.1")


def test_cli_constants(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "constants"])
    assert rc == 0
    outtxt = capsys.readouterr().out
    assert "10.2603986412949" in outtxt
    assert "B/S4" in outtxt
    body1 = (tmp_path / "constants.csv").read_bytes()
    rc = main(["--out", str(tmp_path), "constants"])
    assert rc == 0
    assert (tmp_path / "constants.csv").read_bytes() == body1


def test_cli_cnc_and_gauge(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "cnc-verify"]) == 0
    assert (tmp_path / "cnc.csv").exists()
    assert main(["--out", str(tmp_path), "gauge-verify"]) == 0
    assert (tmp_path / "gauge.csv").exists()


def test_cli_interaction_sweep_small(tmp_path, capsys):
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("t_grid = 0.5, 2.0, 8.0\nrel_tol = 1e-9\n")
    rc = main(["--config", str(cfgfile), "--out", str(tmp_path),
               "interaction-sweep"])
    assert rc == 0
    text = (tmp_path / "interaction.csv").read_text()
    assert text.splitlines()[0].startswith("t,a,b,c,f")
    assert "slope_grad" in text
    out = capsys.readouterr().out
    assert "bracket: PASS" in out
    assert "monotonicity" in out


def test_cli_green_sweep_small(tmp_path, capsys):
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("green_t_grid = 0.04, 0.02\ngreen_delta = 0.8\n")
    rc = main(["--config", str(cfgfile), "--out", str(tmp_path), "green-sweep"])
    assert rc == 0
    text = (tmp_path / "green.csv").read_text()
    assert "flat-cone" in text and "football" in text
    assert "parametrix-exponent" in text
    out = capsys.readouterr().out
    assert "parametrix exponent" in out


def test_cli_accept_subset(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "accept", "--only", "1,12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[ 1] PASS" in out
    assert "[12] PASS" in out
    assert (tmp_path / "acceptance.csv").exists()


@pytest.mark.parametrize("only", ["13", "0", "1,13", "x"])
def test_cli_accept_rejects_unknown_criteria(tmp_path, capsys, only):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "accept", "--only", only])
    # a code no criterion index (1..12) can take
    assert exc.value.code == EX_USAGE == 64
    assert "1..12" in capsys.readouterr().err
    assert not (tmp_path / "acceptance.csv").exists()


def test_cli_has_no_threads_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "--out", str(tmp_path), "constants"])
    assert exc.value.code == EX_USAGE
    assert not (tmp_path / "constants.csv").exists()


def test_config_has_no_threads_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("threads = 2\n")
    with pytest.raises(ValueError, match="unknown key 'threads'"):
        load_config(str(p))


def test_config_has_no_seed_key(tmp_path):
    # gauge-verify, its only reader, samples criterion 7's points
    p = tmp_path / "run.cfg"
    p.write_text("seed = 1\n")
    with pytest.raises(ValueError, match="unknown key 'seed'"):
        load_config(str(p))


def test_gauge_verify_samples_criterion_7_points(tmp_path):
    from cyl.geometry.links import sphere_points, verify_first_order_identity
    from cyl.acceptance import gauge_example
    assert main(["--out", str(tmp_path), "gauge-verify"]) == 0
    rows = (tmp_path / "gauge.csv").read_text().splitlines()[1:]
    f, fam, gauge, pts = gauge_example()
    assert np.array_equal(pts, sphere_points(8, 2))
    for row in rows:
        h, r, rg = (float(x) for x in row.split(","))
        assert r == verify_first_order_identity(f, fam, h, points=pts)
        assert rg == verify_first_order_identity(f, gauge, h, points=pts)


def test_interaction_csv_carries_every_error(tmp_path):
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("t_grid = 0.5, 2.0, 8.0\n")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path),
                 "interaction-sweep"]) == 0
    lines = (tmp_path / "interaction.csv").read_text().splitlines()
    header = lines[0].split(",")
    for name in ("a", "b", "c", "f", "a_prime", "c_prime"):
        assert f"{name}_err" in header
    for line in lines[1:4]:
        row = dict(zip(header, line.split(",")))
        for name in ("a", "b", "c", "a_prime", "c_prime"):
            err = float(row[f"{name}_err"])
            assert 0.0 < err <= 1e-6 * abs(float(row[name]))


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_cli_rejects_a_bad_tol_scale(tmp_path, capsys, scale):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--tol-scale", scale, "--out", str(out), "constants"])
    assert exc.value.code == EX_USAGE
    assert "--tol-scale" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", ["bogus = 1\n", None])
def test_cli_rejects_a_config_that_does_not_load(tmp_path, capsys, config):
    # an unknown key, and a path that does not exist
    path = tmp_path / "run.cfg"
    if config is not None:
        path.write_text(config)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--out", str(out), "constants"])
    assert exc.value.code == EX_USAGE
    assert "run.cfg" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_config_rejects_non_finite_tolerances(tol):
    with pytest.raises(ValueError, match="finite"):
        RunConfig(rel_tol=tol)
    with pytest.raises(ValueError, match="finite"):
        RunConfig(abs_tol=tol)


@pytest.mark.parametrize("key", ["t_grid", "green_t_grid"])
@pytest.mark.parametrize("entry", ["nan", "inf", "0", "-0.03"])
def test_config_rejects_a_bad_t_grid_entry(key, entry):
    with pytest.raises(ValueError, match="green_t_grid entry must be finite"):
        RunConfig(**{key: (0.1, float(entry))})


def test_cli_rejects_a_nan_t_grid_entry(tmp_path, capsys):
    # without the check the sweep wrote a NaN no-conv row and exited 0
    path = tmp_path / "run.cfg"
    path.write_text("t_grid = 0.1, nan\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--out", str(out), "interaction-sweep"])
    assert exc.value.code == EX_USAGE
    assert "t_grid" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_path_the_config_cannot_build(tmp_path, capsys):
    # PathConfig's checks run at load: eps^alpha = 0.25 is not below
    # delta/4, so no command starts
    path = tmp_path / "run.cfg"
    path.write_text("epsilon = 0.1\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--out", str(out), "constants"])
    assert exc.value.code == EX_USAGE
    assert "eps^alpha < delta/4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", ["green_t_grid = 0.3\n",
                                    "green_t_grid = 0.04, 0.2\n",
                                    "green_delta = 0.1\ngreen_t_grid = 0.025\n"])
def test_cli_rejects_a_pole_the_mass_sweeps_cannot_place(tmp_path, capsys,
                                                         config):
    # a pole at or beyond football_delta/4 = min(green_delta, 0.8)/4 once
    # died in GreenProblem with exit 1, after the output directory was made
    path = tmp_path / "run.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), "--out", str(out), "green-sweep"])
    assert exc.value.code == EX_USAGE
    assert "football_delta/4" in capsys.readouterr().err
    assert not out.exists()


def test_config_places_the_football_ball():
    assert RunConfig().football_delta == 0.8
    assert RunConfig(green_delta=0.5, green_t_grid=(0.1,)).football_delta == 0.5


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_every_csv_row_has_the_width_of_its_header(tmp_path):
    # criterion 2's name holds a comma, which once gave its acceptance.csv
    # row 6 fields under a 5-field header; criteria 4 and 8 return numpy
    # bools, which once read True where the others read 1
    cfgfile = tmp_path / "cfg"
    cfgfile.write_text("t_grid = 0.5, 2.0, 8.0\ngreen_t_grid = 0.04, 0.02\n"
                       "green_delta = 0.8\n")
    out = tmp_path / "out"
    for command in (["constants"], ["cnc-verify"], ["gauge-verify"],
                    ["interaction-sweep"], ["green-sweep"],
                    ["accept", "--only", "1,2,4,8"]):
        assert main(["--config", str(cfgfile), "--out", str(out),
                     *command]) == 0
    paths = sorted(out.glob("*.csv"))
    assert len(paths) == 6
    for path in paths:
        header, *rows = _read_csv(path)
        assert rows and all(len(row) == len(header) for row in rows), path.name
    header, *rows = _read_csv(out / "acceptance.csv")
    assert [row[header.index("passed")] for row in rows] == ["1"] * 4
    assert rows[1][header.index("name")] == \
        "double-bubble quotient bracket (6*S4, 6*sqrt(2)*S4)"


def test_a_raising_criterion_is_a_fail_line(tmp_path, capsys, monkeypatch):
    import cyl.interaction
    from cyl.quadrature import QuadratureError

    def unconverged(self):
        raise QuadratureError("split budget exhausted")

    # criterion 2 alone reads the bracket margins
    monkeypatch.setattr(cyl.interaction.InteractionCurves, "bracket_margins",
                        unconverged)
    rc = main(["--out", str(tmp_path), "accept", "--only", "1,2,3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "split budget exhausted" in captured.err  # the traceback
    lines = captured.out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("[ 2] FAIL")
    assert "QuadratureError: split budget exhausted" in lines[1]
    assert lines[2].startswith("[ 3] PASS")
    header, *rows = _read_csv(tmp_path / "acceptance.csv")
    assert [row[header.index("passed")] for row in rows] == ["1", "0", "1"]


def test_an_uncaught_exception_exits_70_with_its_traceback(tmp_path, capsys,
                                                           monkeypatch):
    # outside a criterion body a fault of the program exits EX_SOFTWARE,
    # not 1, the code of a failed criterion 1
    from cyl import cli

    def broken(cfg, out, args):
        raise RuntimeError("constants table unavailable")

    monkeypatch.setattr(cli, "cmd_constants", broken)
    assert main(["--out", str(tmp_path), "constants"]) == 70
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: constants table unavailable" in err


def test_manifest_times_each_stage():
    manifest = RunManifest(config={})
    with manifest.stage("curves"):
        pass
    assert list(manifest.stages) == ["curves"]
    assert manifest.payload()["wall_clock_seconds"]["curves"] >= 0.0
