import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from slipstokes import experiments, fem, make_unit_square, stokes_mms
from slipstokes.errors import IncompatibleData, InvalidArgument, MaxIterations
from slipstokes.experiments import (KINDS, ExperimentConfig, fit_rate,
                                    parse_config, run_experiment,
                                    write_report)
from slipstokes.fields import (DATA_SELECTORS, ProblemData, rigid_rotation,
                               select_data)
from slipstokes.stokes import solve_friction_sweep


@pytest.fixture
def fe_builds(monkeypatch):
    """Meshes of every ``FeSystem`` constructed while the test runs."""
    builds = []

    class CountingSystem(fem.FeSystem):
        def __init__(self, mesh):
            builds.append(mesh)
            super().__init__(mesh)

    monkeypatch.setattr(fem, "FeSystem", CountingSystem)
    return builds


class TestFitRate:
    def test_exact_power_law(self):
        h = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        fit = fit_rate(h, 3.0 * h ** 2)
        assert fit["slope"] == pytest.approx(2.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit["residual_rms"] < 1e-13

    def test_drop_rule_excludes_preasymptotic(self):
        h = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        y = h ** 2
        y[0] = 50.0   # wildly off the asymptote
        fit = fit_rate(h, y)
        assert fit["points_used"] == 4
        assert fit["slope"] == pytest.approx(2.0, abs=1e-12)

    def test_fallback_keeps_last_three(self):
        h = np.array([1.0, 0.5, 0.25])
        y = np.array([1.0, 0.9, 0.85])   # nothing clears the drop factor
        fit = fit_rate(h, y)
        assert fit["points_used"] == 3

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(InvalidArgument):
            fit_rate([1.0, 0.5], [1.0, 0.25])
        with pytest.raises(InvalidArgument):
            fit_rate([1.0, 0.5, 0.25], [1.0, 0.0, 0.25])


class TestConfigs:
    def test_kind_validation(self):
        with pytest.raises(InvalidArgument, match="kind"):
            ExperimentConfig(kind="frobnicate").validate()
        for kind in KINDS:
            ExperimentConfig(kind=kind).validate()

    def test_level_validation(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="mms", levels=(8, 8, 16)).validate()
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="mms", levels=(16, 8)).validate()
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="mms", levels=()).validate()

    def test_negative_friction_rejected(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="mms", alpha=-1.0).validate()

    def test_nan_friction_rejected(self):
        with pytest.raises(InvalidArgument):
            ExperimentConfig(kind="mms", alpha=float("nan")).validate()

    @pytest.mark.parametrize("alpha,schedule", [
        (float("inf"), ()), (1.0, (1.0, float("nan"))), (1.0, (1.0, -1.0)),
        (1.0, (float("inf"),))])
    def test_non_finite_or_negative_friction_rejected(self, alpha, schedule):
        with pytest.raises(InvalidArgument, match="finite and nonnegative"):
            ExperimentConfig(kind="alpha_to_zero", alpha=alpha,
                             alpha_schedule=schedule).validate()

    @pytest.mark.parametrize("amplitude", [1e-300, -1e-101, 1e101, -1e200])
    def test_amplitude_out_of_range_rejected(self, amplitude):
        with pytest.raises(InvalidArgument, match="amplitude"):
            ExperimentConfig(kind="mms", amplitude=amplitude).validate()

    @pytest.mark.parametrize("amplitude", [0.0, 1e-100, -1.0, 1e100])
    def test_amplitude_in_range_accepted(self, amplitude):
        ExperimentConfig(kind="mms", amplitude=amplitude).validate()

    def test_parse_config_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("""
[domain]
kind = disk
levels = 1,2,3
radius = 2.0

[data]
selector = mms
amplitude = 0.25

[alpha]
value = 4.0
schedule = 0.25,0.0625

[solver]
max_iterations = 30
damping = 0.5

[output]
dir = out
""")
        cfg, outdir = parse_config(str(path), kind="mms")
        assert cfg.domain == "disk"
        assert cfg.levels == (1, 2, 3)
        assert cfg.radius == 2.0
        assert cfg.data == "mms"
        assert cfg.amplitude == 0.25
        assert cfg.alpha == 4.0
        assert cfg.alpha_schedule == (0.25, 0.0625)
        assert cfg.picard.max_iterations == 30
        assert cfg.picard.damping == 0.5
        assert outdir == "out"

    def test_parse_config_rejects_unknowns(self, tmp_path):
        bad_section = tmp_path / "a.ini"
        bad_section.write_text("[grid]\nkind = square\n")
        with pytest.raises(InvalidArgument, match="section"):
            parse_config(str(bad_section))
        bad_key = tmp_path / "b.ini"
        bad_key.write_text("[domain]\nshape = square\n")
        with pytest.raises(InvalidArgument, match="key"):
            parse_config(str(bad_key))
        threads = tmp_path / "t.ini"
        threads.write_text("[solver]\nthreads = 2\n")
        with pytest.raises(InvalidArgument, match="key 'threads'"):
            parse_config(str(threads))
        bad_value = tmp_path / "c.ini"
        bad_value.write_text("[domain]\nlevels = two,four\n")
        with pytest.raises(InvalidArgument, match="bad value"):
            parse_config(str(bad_value))

    @pytest.mark.parametrize("kind,domain,resolved", [
        ("compat_disk", None, ("disk", (1, 2, 3))),
        ("spectra_suite", None, ("square", (8, 16, 32))),
        ("mms", "disk", ("disk", (1, 2, 3))),
        ("spectra_suite", "disk", ("disk", (1, 2, 3))),
        ("compat_disk", "square", ("square", (8, 16, 32)))])
    def test_defaults_resolved_by_validate(self, kind, domain, resolved):
        cfg = ExperimentConfig(kind=kind, domain=domain).validate()
        assert (cfg.domain, cfg.levels) == resolved

    def test_explicit_levels_kept(self):
        cfg = ExperimentConfig(kind="compat_disk", levels=(0, 4)).validate()
        assert (cfg.domain, cfg.levels) == ("disk", (0, 4))

    def test_disk_config_without_levels_gets_disk_levels(self, tmp_path):
        path = tmp_path / "disk.ini"
        path.write_text("[domain]\nkind = disk\n")
        cfg, _ = parse_config(str(path), kind="spectra_suite")
        assert cfg.validate().levels == (1, 2, 3)

    def test_parse_config_missing_file(self):
        with pytest.raises(InvalidArgument, match="not found"):
            parse_config("/nonexistent/run.ini")


class TestReports:
    def run_small_mms(self):
        return run_experiment(ExperimentConfig(kind="mms", levels=(4, 8, 16)))

    def test_mms_report_contents(self):
        report = self.run_small_mms()
        assert report.kind == "mms"
        assert "level" in report.columns
        assert len(report.rows) == 3
        assert 1.7 < report.fits["velocity_h1"]["slope"] < 2.3
        assert report.config_echo["levels"] == [4, 8, 16]
        assert "numpy" in report.environment

    def test_csv_bytes_deterministic(self):
        a = self.run_small_mms().to_csv()
        b = self.run_small_mms().to_csv()
        assert a == b
        assert a.endswith("\n")

    def test_ns_mms_csv_bytes_deterministic(self, tmp_path):
        written = []
        for k in range(2):
            cfg = ExperimentConfig(kind="ns_mms", levels=(4, 8, 16))
            csv_path, _ = write_report(run_experiment(cfg),
                                       str(tmp_path / str(k)))
            written.append(Path(csv_path).read_bytes())
        assert written[0] == written[1]

    def test_threads_share_one_system_on_one_mesh(self, fe_builds):
        run_experiment(ExperimentConfig(kind="alpha_to_zero", levels=(8,)))
        # One system for the run, shared by every solve of the sweep.
        assert len(fe_builds) == 1

    @pytest.mark.parametrize("kind", ["spectra_suite", "compat_disk"])
    def test_one_system_per_level(self, fe_builds, kind):
        # Three levels: the compatibility study fits a rate.
        run_experiment(ExperimentConfig(kind=kind, domain="disk",
                                        levels=(0, 1, 2)))
        assert len(fe_builds) == 3

    def test_write_report_files(self, tmp_path):
        report = self.run_small_mms()
        csv_path, json_path = write_report(report, str(tmp_path / "out"))
        assert Path(csv_path).read_text(encoding="ascii") == report.to_csv()
        manifest = json.loads(Path(json_path).read_text(encoding="ascii"))
        assert manifest["kind"] == "mms"
        assert manifest["config"]["levels"] == [4, 8, 16]
        assert "fits" in manifest and "wall_times_s" in manifest

    def test_compat_disk_flags_exact_zero(self):
        cfg = ExperimentConfig(kind="compat_disk", domain="disk",
                               levels=(1, 2, 3))
        report = run_experiment(cfg)
        circ = [row[report.columns.index("boundary_circulation")]
                for row in report.rows]
        assert report.fits["machine_zero"] == (max(circ) <= 1e-13)

    @pytest.mark.parametrize("kind", ["alpha_to_zero", "alpha_to_infinity",
                                      "uniform_bound"])
    def test_sweep_iterations_in_manifest_only(self, tmp_path, kind):
        report = run_experiment(ExperimentConfig(kind=kind, levels=(8,)))
        csv_path, json_path = write_report(report, str(tmp_path))
        counts = json.loads(Path(json_path).read_text())["krylov_iterations"]
        # Row by row; the smallest friction is factored, the rest by GMRES.
        assert len(counts) == len(report.rows)
        smallest = min(range(len(counts)), key=lambda k: report.rows[k][0])
        assert counts[smallest] is None
        assert any(isinstance(c, int) and c > 0 for c in counts)
        assert "krylov" not in Path(csv_path).read_text()

    def test_default_sweeps_run_no_capped_cycle(self, monkeypatch):
        # Square 32.  Each capped cycle of these sweeps came right after
        # a 27-iteration solve, so those systems are refactored up front:
        # the same ones a missed cycle refactored, with the same counts.
        gmres, missed = spla.gmres, []

        def recording(*args, **kwargs):
            z, info = gmres(*args, **kwargs)
            missed.append(info != 0)
            return z, info
        monkeypatch.setattr(spla, "gmres", recording)
        expected = {
            "alpha_to_zero": [5, 4, 4, 4, 3, 3, 3, 3, 2, 2, 2, None],
            "alpha_to_infinity": [None, 12, 27, None, 14, 16, 16],
            "uniform_bound": [None, 3, 7, 27, None, 8],
        }
        for kind, counts in expected.items():
            assert run_experiment(ExperimentConfig(kind=kind)).krylov == counts
        assert missed == [False] * 20

    def test_other_kinds_write_no_iterations(self, tmp_path):
        _, json_path = write_report(self.run_small_mms(), str(tmp_path))
        assert "krylov_iterations" not in json.loads(Path(json_path).read_text())

    def test_uniform_bound_ratio(self):
        cfg = ExperimentConfig(kind="uniform_bound", levels=(8,))
        report = run_experiment(cfg)
        assert report.fits["uniformity"]["max_over_min"] < 10.0


def test_ns_limits_refuses_non_finite_friction(monkeypatch):
    # A malformed schedule is refused before anything is solved, not
    # recorded as a non-converged row.
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the schedule was checked")

    for name in ("solve_navier_stokes", "solve_stokes", "solve_friction_sweep"):
        monkeypatch.setattr(f"slipstokes.experiments.{name}", refuse)
    cfg = ExperimentConfig(kind="ns_limits", levels=(4,),
                           alpha_schedule=(1.0, float("nan")))
    with pytest.raises(InvalidArgument, match="finite"):
        run_experiment(cfg)


def test_ns_limits_propagates_programming_errors(monkeypatch):
    # Only solver failures become "not converged" rows.
    def broken(*args, **kwargs):
        raise TypeError("broken solver")

    monkeypatch.setattr("slipstokes.experiments.solve_navier_stokes", broken)
    cfg = ExperimentConfig(kind="ns_limits", levels=(4,), alpha_schedule=(1.0,))
    with pytest.raises(TypeError, match="broken solver"):
        run_experiment(cfg)


def test_ns_limits_records_a_failed_solve(monkeypatch):
    # A solver failure becomes a "not converged" row: NaN distances, zero
    # iterations, and False in report.csv.
    solve = experiments.solve_navier_stokes

    def failing_at_10(mesh, data, **kwargs):
        if data.alpha == 10.0:
            raise MaxIterations("no contraction")
        return solve(mesh, data, **kwargs)

    monkeypatch.setattr(experiments, "solve_navier_stokes", failing_at_10)
    cfg = ExperimentConfig(kind="ns_limits", levels=(2,),
                           alpha_schedule=(1.0, 10.0))
    report = run_experiment(cfg)
    assert report.rows[0][4] is True
    assert report.rows[1][0] == 10.0 and report.rows[1][3:] == (0, False)
    assert np.isnan(report.rows[1][1]) and np.isnan(report.rows[1][2])
    assert report.to_csv().splitlines()[2] == "10,nan,nan,0,False"
    assert report.fits["achieved_range"]["max"] == 1.0


@pytest.mark.parametrize("amplitude", [1.0, 1e-12])
def test_compat_disk_refuses_incompatible_data(monkeypatch, amplitude):
    # The guarded solve's relative rule: a load along the rotation is
    # refused at any scale, before anything is solved.
    def refuse(*args, **kwargs):
        raise AssertionError("solved incompatible data")

    def along_rotation(p):
        return amplitude * rigid_rotation().value(p)

    monkeypatch.setattr(experiments, "disk_compatible_forcing",
                        lambda alpha: ProblemData(f=along_rotation, alpha=alpha))
    monkeypatch.setattr(experiments, "solve_stokes", refuse)
    with pytest.raises(IncompatibleData, match="rotation pairing"):
        run_experiment(ExperimentConfig(kind="compat_disk", domain="disk",
                                        levels=(1,)))


def test_sweep_mms_selector():
    # The manufactured data replaces the sweep forcing.
    rows = {data: run_experiment(ExperimentConfig(
        kind="uniform_bound", levels=(4,), alpha=2.0, data=data,
        alpha_schedule=(1.0, 2.0))).rows for data in ("default", "mms")}
    assert rows["mms"] != rows["default"]
    case = stokes_mms(alpha=2.0)["data"]
    expected = solve_friction_sweep(make_unit_square(4), case, [1.0, 2.0])[0]
    assert [r[2] for r in rows["mms"]] == [
        s.diagnostics["h1_norm"] for s in expected]


def test_sweep_mms_selector_honours_amplitude():
    # The amplitude reaches the manufactured sweep data, as on the CLI.
    rows = {amp: run_experiment(ExperimentConfig(
        kind="uniform_bound", levels=(4,), alpha=2.0, data="mms",
        amplitude=amp, alpha_schedule=(1.0, 2.0))).rows
        for amp in (None, 4.0)}
    case = stokes_mms(alpha=2.0, amplitude=4.0)["data"]
    expected = solve_friction_sweep(make_unit_square(4), case, [1.0, 2.0])[0]
    assert [r[2] for r in rows[4.0]] == [
        s.diagnostics["h1_norm"] for s in expected]
    assert [r[2] for r in rows[4.0]] == pytest.approx(
        [4.0 * r[2] for r in rows[None]], rel=1e-12)


def test_disk_selectors_need_the_disk():
    cfg = ExperimentConfig(kind="uniform_bound", levels=(4,),
                           data="disk-drive")
    with pytest.raises(InvalidArgument, match="needs the disk domain"):
        run_experiment(cfg)


def test_ns_limits_zero_amplitude_has_no_relative_gap():
    # Zero data: the clamped reference is zero, so the gap has no scale.
    cfg = ExperimentConfig(kind="ns_limits", levels=(2,), amplitude=0.0,
                           alpha_schedule=(1.0,))
    gap = run_experiment(cfg).fits["achieved_range"]
    assert gap["reference_h1"] == 0.0
    assert np.isnan(gap["final_relative_gap"])


@pytest.mark.parametrize("selector", [s for s in DATA_SELECTORS if s != "mms"])
def test_selectors_without_an_amplitude_refuse_one(selector):
    # Only the manufactured data scales with an amplitude; every other
    # selector would ignore it without a word.
    select_data(selector, "disk", 1.0)
    for amplitude in (5.0, 1.0, 0.0):
        with pytest.raises(InvalidArgument, match="takes no amplitude"):
            select_data(selector, "disk", 1.0, amplitude)
    assert select_data("mms", "disk", 1.0, 5.0) is not None


@pytest.mark.parametrize("kind", ["compat_disk", "spectra_suite"])
def test_kinds_without_an_amplitude_refuse_one(kind):
    ExperimentConfig(kind=kind).validate()
    with pytest.raises(InvalidArgument, match="takes no amplitude"):
        ExperimentConfig(kind=kind, amplitude=2.0).validate()


@pytest.mark.parametrize("kind", ["mms", "ns_mms", "spectra_suite",
                                  "ns_limits"])
def test_kinds_that_read_no_data_refuse_a_selector(kind):
    # These studies fix their own data, so a selector would be ignored
    # without a word.
    ExperimentConfig(kind=kind).validate()
    for selector in DATA_SELECTORS:
        with pytest.raises(InvalidArgument, match="takes no data selector"):
            ExperimentConfig(kind=kind, data=selector).validate()


def test_compat_disk_honours_the_data_selector():
    # The asymmetric force, made compatible on each mesh: the pairing is
    # rounding, the velocity is not zero, and the circulation decays.
    report = run_experiment(ExperimentConfig(
        kind="compat_disk", levels=(1, 2, 3), data="asymmetric"))
    defect, circulation, h1 = (
        [row[report.columns.index(name)] for row in report.rows]
        for name in ("compatibility_defect", "boundary_circulation",
                     "h1_norm"))
    assert max(abs(d) for d in defect) <= 1e-15
    assert all(0.19 < n < 0.21 for n in h1)
    assert circulation[0] > 1e-4 and circulation[-1] < 1e-6
    assert not report.fits["machine_zero"]
