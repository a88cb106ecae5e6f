import json

import pytest

from slipstokes import cli, experiments
from slipstokes.cli import main
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

    def test_overflowing_amplitude_exits_1(self, capsys, tmp_path):
        # The convective load squares the amplitude to inf: a solver error.
        code, _, err = run(capsys, "solve-ns", "--level", "4", "--data",
                           "mms", "--amplitude", "1e200", "--out", str(tmp_path))
        assert code == 1
        assert "non-finite" in err

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
