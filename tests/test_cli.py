import json

import pytest

from slipstokes import cli, experiments
from slipstokes.cli import main
from slipstokes.errors import SingularSystem
from slipstokes.mesh import read_mesh
from slipstokes.persistence import load_solution


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeshCommand:
    def test_writes_mesh(self, capsys, tmp_path):
        path = tmp_path / "square.mesh"
        code, out, _ = run(capsys, "mesh", "--domain", "square",
                           "--level", "4", "--out", str(path))
        assert code == 0
        info = json.loads(out)
        assert info["vertices"] == 25
        mesh = read_mesh(path)
        assert len(mesh.triangles) == info["triangles"]

    def test_bad_flag_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "mesh", "--domain", "hexagon",
                         "--out", str(tmp_path / "x.mesh"))
        assert code == 2


class TestSolveCommands:
    def test_stokes_stores_run(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve-stokes", "--level", "4",
                           "--data", "mms", "--out", str(tmp_path))
        assert code == 0
        info = json.loads(out)
        assert info["diagnostics"]["energy_residual"] <= 1e-8 * max(
            abs(info["diagnostics"]["energy_lhs"]), 1.0)
        u, p, diag = load_solution(info["path"])
        assert len(u) > 0 and len(p) > 0
        assert diag["h1_norm"] == info["diagnostics"]["h1_norm"]

    def test_frictionless_disk_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve-stokes", "--domain", "disk",
                           "--level", "1", "--alpha", "0",
                           "--data", "disk-compatible",
                           "--out", str(tmp_path))
        # disk-compatible forces compatibility_mode, so alpha=0 succeeds;
        # the plain sweep data without the mode must refuse instead.
        assert code == 0
        code, _, err = run(capsys, "solve-stokes", "--domain", "disk",
                           "--level", "1", "--alpha", "0",
                           "--data", "sweep", "--out", str(tmp_path))
        assert code == 1
        assert "kernel" in err or "compatibility_mode" in err

    def test_disk_drive_on_the_disk(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve-stokes", "--domain", "disk",
                           "--level", "1", "--data", "disk-drive",
                           "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["diagnostics"]["h1_norm"] > 0.0

    def test_disk_drive_requires_disk_domain(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve-stokes", "--data", "disk-drive",
                           "--out", str(tmp_path))
        assert code == 2
        assert "disk" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, capsys, tmp_path, alpha):
        code, _, err = run(capsys, "solve-stokes", "--level", "4",
                           "--alpha", alpha, "--out", str(tmp_path))
        assert code == 2
        assert "config error" in err and "finite" in err

    def test_zero_amplitude_is_zero_data(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve-stokes", "--level", "4",
                           "--data", "mms", "--amplitude", "0",
                           "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["diagnostics"]["h1_norm"] == 0.0

    def test_overflowing_ns_amplitude_exits_2_and_stores_nothing(
            self, capsys, tmp_path, monkeypatch):
        # The convective load would square the amplitude to inf; the data
        # rule of the experiment configs refuses it before any solve.
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(cli, "solve_navier_stokes", refuse)
        code, _, err = run(capsys, "solve-ns", "--level", "4", "--data",
                           "mms", "--amplitude", "1e200", "--out", str(tmp_path))
        assert code == 2
        assert "config error" in err and "amplitude" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["solve-stokes", "experiment"])
    def test_existing_file_as_out_exits_2(self, capsys, tmp_path, command):
        out = tmp_path / "taken"
        out.write_text("")
        argv = (["solve-stokes", "--level", "4"] if command == "solve-stokes"
                else ["experiment", "mms", "--levels", "2,3,4"])
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("config error") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_exits_2_before_solving(
            self, capsys, tmp_path, monkeypatch, amplitude):
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(cli, "solve_stokes", refuse)
        monkeypatch.setattr(experiments, "solve_stokes", refuse)
        for argv in (["solve-stokes", "--data", "mms", "--out", str(tmp_path)],
                     ["experiment", "mms", "--levels", "2,3,4"]):
            code, _, err = run(capsys, *argv, "--amplitude", amplitude)
            assert code == 2
            assert "config error" in err and "finite" in err

    def test_overflowing_stokes_amplitude_exits_2_and_stores_nothing(
            self, capsys, tmp_path, monkeypatch):
        # The right-hand side's norm would overflow, and the residual gate
        # would read inf / inf = NaN: a false solver failure.  The data
        # rule of the experiment configs refuses it before any solve.
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(cli, "solve_stokes", refuse)
        code, _, err = run(capsys, "solve-stokes", "--level", "2", "--data",
                           "mms", "--amplitude", "1e200",
                           "--out", str(tmp_path))
        assert code == 2
        assert "config error" in err and "amplitude" in err
        assert not any(tmp_path.iterdir())

    def test_amplitude_of_a_selector_without_one_exits_2_and_stores_nothing(
            self, capsys, tmp_path, monkeypatch):
        # The sweep data has no amplitude; a run stored under the flag
        # would hold the same velocity as a run without it.
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(cli, "solve_stokes", refuse)
        monkeypatch.setattr(experiments, "solve_stokes", refuse)
        for argv in (["solve-stokes", "--level", "2", "--data", "sweep",
                      "--amplitude", "5", "--out", str(tmp_path)],
                     ["experiment", "compat_disk", "--levels", "1,2,3",
                      "--amplitude", "5", "--out", str(tmp_path)]):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert "config error" in err and "amplitude" in err
        assert not any(tmp_path.iterdir())

    def test_largest_amplitude_solves(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve-stokes", "--level", "2", "--data",
                           "mms", "--amplitude", "1e100",
                           "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["diagnostics"]["linear_residual"] <= 1e-10

    def test_compat_flag_reaches_every_selector(self, capsys, tmp_path,
                                                monkeypatch):
        seen = []

        def record(mesh, data):
            seen.append(data.compatibility_mode)
            raise SingularSystem("recorded")

        monkeypatch.setattr(cli, "solve_stokes", record)
        for selector in ("sweep", "mms", "disk-drive", "disk-compatible"):
            code, _, _ = run(capsys, "solve-stokes", "--domain", "disk",
                             "--level", "1", "--data", selector, "--compat",
                             "--out", str(tmp_path))
            assert code == 1
        assert seen == [True] * 4

    def test_compat_flag_solves_the_guarded_disk_drive(self, capsys,
                                                       tmp_path):
        # Without friction the drive is zero data: compatible, and solved
        # to exactly zero under the rotation guard.
        code, out, err = run(capsys, "solve-stokes", "--domain", "disk",
                             "--level", "2", "--alpha", "0", "--data",
                             "disk-drive", "--compat", "--out", str(tmp_path))
        assert code == 0, err
        diag = json.loads(out)["diagnostics"]
        assert diag["h1_norm"] == 0.0 and diag["energy_scale"] == 0.0

    @pytest.mark.parametrize("amplitude", ["1e-300", "1e101"])
    def test_amplitude_out_of_range_exits_2_before_solving(
            self, capsys, tmp_path, monkeypatch, amplitude):
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(experiments, "solve_stokes", refuse)
        code, _, err = run(capsys, "experiment", "mms", "--levels", "2,3,4",
                           "--amplitude", amplitude, "--out", str(tmp_path))
        assert code == 2
        assert "config error" in err and "amplitude" in err

    def test_ns_solve(self, capsys, tmp_path):
        code, out, _ = run(capsys, "solve-ns", "--level", "4",
                           "--data", "mms", "--amplitude", "0.15",
                           "--out", str(tmp_path))
        assert code == 0
        info = json.loads(out)
        assert info["converged"] is True
        assert info["iterations"] <= 10

    def test_ns_divergence_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve-ns", "--level", "4",
                           "--data", "mms", "--amplitude", "1000",
                           "--max-iterations", "10",
                           "--out", str(tmp_path))
        assert code == 1
        assert "solver error" in err


class TestExperimentCommand:
    def test_report_files_written(self, capsys, tmp_path):
        code, out, _ = run(capsys, "experiment", "mms",
                           "--levels", "4,8,16", "--out", str(tmp_path))
        assert code == 0
        info = json.loads(out)
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert 1.7 < info["fits"]["velocity_h1"]["slope"] < 2.3

    def test_stdout_mode(self, capsys):
        code, out, _ = run(capsys, "experiment", "uniform_bound",
                           "--levels", "4")
        assert code == 0
        assert out.splitlines()[0].startswith("alpha")

    def test_unknown_kind_exits_2(self, capsys):
        code, _, _ = run(capsys, "experiment", "warp_drive")
        assert code == 2

    def test_negative_schedule_exits_2(self, capsys):
        code, _, err = run(capsys, "experiment", "alpha_to_zero", "--levels",
                           "4", "--alpha-schedule", "1,-1")
        assert code == 2
        assert "config error" in err and "nonnegative" in err

    def test_too_few_levels_exits_2(self, capsys):
        # Rate fits need three levels, so this is a config error.
        code, _, err = run(capsys, "experiment", "mms", "--levels", "4,8")
        assert code == 2
        assert "config error" in err

    def test_config_file_drives_run(self, capsys, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[domain]\nkind = square\nlevels = 4,8,16\n"
                       f"[output]\ndir = {tmp_path / 'out'}\n")
        code, out, _ = run(capsys, "experiment", "mms",
                           "--config", str(ini))
        assert code == 0
        assert (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("section, key", [("solver", "seed"),
                                              ("alpha", "star"),
                                              ("solver", "threads")])
    def test_removed_config_keys_exit_2(self, capsys, tmp_path, section, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[domain]\nlevels = 4,8,16\n[{section}]\n{key} = 7\n")
        code, _, err = run(capsys, "experiment", "mms", "--config", str(ini))
        assert code == 2
        assert "unknown config key" in err

    def test_seed_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "experiment", "mms", "--seed", "3")
        assert code == 2

    def test_threads_flag_exits_2(self, capsys):
        # Every study runs its solves in turn; there is no thread count.
        code, _, _ = run(capsys, "experiment", "mms", "--threads", "2")
        assert code == 2

    def test_missing_config_exits_2(self, capsys):
        code, _, _ = run(capsys, "experiment", "mms",
                         "--config", "/nope/run.ini")
        assert code == 2


class TestStudyDefaults:
    """Flags left unset reach ``ExperimentConfig.validate`` as None, which
    resolves them; the study itself is not run."""

    @pytest.fixture
    def resolved(self, monkeypatch):
        configs = []

        def validate_only(cfg):
            configs.append(cfg.validate())
            return experiments.RunReport(cfg.kind, ("level",), [], {}, {}, {},
                                         {})
        monkeypatch.setattr(cli, "run_experiment", validate_only)
        return configs

    @pytest.mark.parametrize("argv,expected", [
        (["experiment", "compat_disk"], ("disk", (1, 2, 3))),
        (["experiment", "mms", "--domain", "disk"], ("disk", (1, 2, 3))),
        (["experiment", "mms"], ("square", (8, 16, 32))),
        (["spectra", "--domain", "disk"], ("disk", (1, 2, 3))),
        (["spectra"], ("square", (8, 16, 32)))])
    def test_flags(self, capsys, resolved, argv, expected):
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert (resolved[0].domain, resolved[0].levels) == expected

    def test_disk_config_file(self, capsys, resolved, tmp_path):
        ini = tmp_path / "disk.ini"
        ini.write_text("[domain]\nkind = disk\n")
        code, _, _ = run(capsys, "experiment", "spectra_suite",
                         "--config", str(ini))
        assert code == 0
        assert (resolved[0].domain, resolved[0].levels) == ("disk", (1, 2, 3))


class TestSpectraCommand:
    def test_table_on_stdout(self, capsys):
        code, out, _ = run(capsys, "spectra", "--levels", "4,8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("level")
        assert len(lines) == 3

    def test_threads_flag_exits_2(self, capsys):
        # The suite runs its levels in turn, so the flag had no effect.
        code, _, _ = run(capsys, "spectra", "--levels", "4", "--threads", "2")
        assert code == 2
