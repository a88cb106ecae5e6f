import sys
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from slipstokes import (beta_inequality_checks, experiments, fem, forms,
                        infsup_constant, korn_quotient_min, make_disk,
                        make_unit_square, run_experiment, spectra)
from slipstokes.constraints import build_constraint_plan
from slipstokes.errors import InvalidArgument
from slipstokes.experiments import ExperimentConfig
from slipstokes.fields import ProblemData
from slipstokes.mesh import TriMesh
from slipstokes.saddle import symmetric_lu


def _mesh(domain, level):
    return make_disk(level) if domain == "disk" else make_unit_square(level)


def _same_random_state(a, b):
    return a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2:] == b[2:]


def _dense_smallest(A, M):
    """Dense oracle: smallest eigenvalue of the pencil (A, M), A dense."""
    vals = scipy.linalg.eigh(A, M.toarray(), eigvals_only=True,
                             subset_by_index=[0, 0])
    return float(vals[0])


def _counting_lu(calls):
    def wrapper(mat):
        calls.append(mat.shape)
        return symmetric_lu(mat)
    return wrapper


def _counting_solves(solves):
    """``symmetric_lu`` whose factors record each solve in ``solves``."""
    def wrapper(mat):
        lu = symmetric_lu(mat)

        def solve(b):
            solves.append(b.shape)
            return lu.solve(b)
        return types.SimpleNamespace(solve=solve)
    return wrapper


class TestKorn:
    def test_square_frictionless_is_coercive(self):
        constants = [korn_quotient_min(make_unit_square(n)).constant
                     for n in (4, 8, 16)]
        assert all(c >= 1e-3 for c in constants)
        # Stable under refinement, not just positive.
        assert max(constants) / min(constants) < 1.05

    def test_disk_frictionless_kernel(self):
        # The interpolated rigid rotation satisfies every constraint
        # exactly, so the quotient floor snaps the constant to zero.
        for level in (0, 1, 2, 3):
            rep = korn_quotient_min(make_disk(level))
            assert rep.constant == 0.0
            assert rep.detail["raw_eigenvalue"] < rep.floor

    def test_disk_friction_restores_coercivity(self):
        for level in (1, 2, 3):
            rep = korn_quotient_min(make_disk(level), alpha=1.0)
            assert rep.constant >= 1e-3

    def test_report_fields(self):
        rep = korn_quotient_min(make_unit_square(4), alpha=2.0)
        assert rep.n_dofs > 0
        assert rep.mesh_size > 0.0
        assert rep.alpha_descriptor == "2"
        assert set(rep.detail) == {"raw_eigenvalue", "shift", "below_shift",
                                   "lanczos_solves"}


class TestInfSup:
    def test_stable_under_refinement(self):
        constants = [infsup_constant(make_unit_square(n)).constant
                     for n in (4, 8, 16)]
        lo, hi = min(constants), max(constants)
        assert (hi - lo) / hi < 0.10
        assert lo > 0.1

    def test_independent_of_alpha(self):
        base = infsup_constant(make_unit_square(4), alpha=0.0).constant
        for alpha in (1e-2, 1.0, 1e2, 1e4, 1e6):
            other = infsup_constant(make_unit_square(4), alpha=alpha).constant
            assert abs(other - base) <= 1e-10 * base

    def test_dense_cross_check(self):
        rep = infsup_constant(make_unit_square(4), cross_check=True)
        assert abs(rep.detail["dense_oracle"] - rep.constant) <= 1e-8

    @pytest.mark.parametrize("domain,level", [
        ("square", 1), ("square", 2), ("square", 8), ("disk", 0), ("disk", 3)])
    def test_lanczos_matches_dense_oracle(self, domain, level):
        # The deflated Lanczos minimum is the dense pencil's smallest
        # eigenvalue above the hydrostatic zero.
        rep = infsup_constant(_mesh(domain, level), cross_check=True)
        assert abs(rep.detail["dense_oracle"] - rep.constant) <= 1e-10 * rep.constant
        assert rep.detail["zero_modes"] == 1

    def test_refuses_constant_pressure_outside_kernel(self):
        # Rim vertices moved along the circle to unequal edges: the nodal
        # impermeability constraints no longer make the mean flux vanish,
        # so B^T 1 != 0 and the deflation would not be exact.
        disk = make_disk(2)
        vertices = disk.vertices.copy()
        rim = disk.boundary_edges[:, 0]
        theta = np.arctan2(vertices[rim, 1], vertices[rim, 0])
        theta += 0.08 * np.sin(3 * theta)
        vertices[rim] = np.column_stack([np.cos(theta), np.sin(theta)])
        mids = vertices[disk.boundary_edges].mean(axis=1)
        mesh = TriMesh(vertices, disk.triangles, disk.boundary_edges,
                       disk.boundary_markers,
                       mids / np.hypot(mids[:, 0], mids[:, 1])[:, None],
                       disk.boundary_kappa, disk.domain_tag)
        with pytest.raises(InvalidArgument):
            infsup_constant(mesh)

    def test_minimum_below_floor_snaps_to_zero(self, monkeypatch):
        monkeypatch.setattr(spectra, "_smallest_eig", lambda M, solve, *shift: (
            0.5 * spectra._zero_floor(M.shape[0]), 0))
        rep = infsup_constant(make_unit_square(2))
        assert rep.constant == 0.0
        assert rep.detail["zero_modes"] == 2

    def test_disk_also_stable(self):
        c1 = infsup_constant(make_disk(1)).constant
        c2 = infsup_constant(make_disk(2)).constant
        assert c1 > 0.1 and c2 > 0.1
        assert abs(c1 - c2) / max(c1, c2) < 0.15


class TestBetaInequalities:
    def test_disk_only(self):
        with pytest.raises(InvalidArgument):
            beta_inequality_checks(make_unit_square(3))

    def test_constants_positive_and_stable(self):
        reports = {}
        for level in (1, 2):
            reports[level] = beta_inequality_checks(make_disk(level))
            for name in ("volume", "boundary"):
                assert reports[level][name].constant > 1e-2
        for name in ("volume", "boundary"):
            a = reports[1][name].constant
            b = reports[2][name].constant
            assert abs(a - b) / max(a, b) < 0.2

    def test_optimal_constant_is_reciprocal(self):
        rep = beta_inequality_checks(make_disk(1))["volume"]
        assert rep.detail["optimal_inequality_constant"] == pytest.approx(
            1.0 / rep.constant, rel=1e-12)


class TestShiftInvertPaths:
    """Shift-invert constants against dense ``eigh`` on the same reduced pencils.

    The smallest reachable systems (square level 1, n = 6; disk level 0,
    n = 26) go through shift-invert like every other size.
    """

    @pytest.mark.parametrize("friction", [False, True])
    @pytest.mark.parametrize("domain,level", [
        ("square", 8), ("disk", 2), ("disk", 3),
        ("square", 1), ("disk", 0), ("disk", 1)])
    def test_korn_matches_dense(self, domain, level, friction):
        mesh = _mesh(domain, level)
        alpha = 1.0 if friction else 0.0
        fe = fem.build_taylor_hood(mesh)
        plan = build_constraint_plan(fe, ProblemData(alpha=alpha))
        A = forms.assemble_viscous(fe)
        if friction:
            A = A + forms.assemble_friction(fe, alpha)
        expected = _dense_smallest(plan.reduce(A).toarray(),
                                   plan.reduce(forms.assemble_velocity_h1(fe)))
        state = np.random.get_state()
        rep = korn_quotient_min(mesh, alpha=alpha)
        assert _same_random_state(state, np.random.get_state())
        if domain == "disk" and not friction:
            assert abs(expected) < rep.floor
            assert rep.constant == 0.0
            assert rep.detail["raw_eigenvalue"] < rep.floor
        else:
            assert abs(rep.constant - expected) <= 1e-10 * expected

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_beta_matches_dense(self, level):
        mesh = make_disk(level)
        fe = fem.build_taylor_hood(mesh)
        plan = build_constraint_plan(fe, ProblemData(alpha=0.0))
        P = plan.basis
        A_half = 0.5 * plan.reduce(forms.assemble_viscous(fe)).toarray()
        M_l2 = plan.reduce(forms.assemble_velocity_mass(fe))
        # The volume moment int u.beta by the order-6 rule, independent
        # of the order-4 mass matrix the checks use.
        rule = fem.quadrature(6)
        x = fe.quad_coords(rule)                          # (nq, nt, 2)
        beta = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        local = np.einsum("qt,qtc,qi->tci", fe.weights(rule), beta,
                          fem.p2_values(rule.tri_points))
        dofs = np.hstack([fe.tri_vnodes, fe.tri_vnodes + fe.num_velocity_nodes])
        moment = np.bincount(dofs.ravel(), local.ravel(),
                             minlength=fe.num_velocity_dofs)
        functionals = {
            "volume": P.T @ moment,
            "boundary": P.T @ forms.boundary_rotation_functional(fe)}
        state = np.random.get_state()
        reports = beta_inequality_checks(mesh)
        assert _same_random_state(state, np.random.get_state())
        for name, g in functionals.items():
            expected = _dense_smallest(A_half + np.outer(g, g), M_l2)
            assert abs(reports[name].constant - expected) <= 1e-10 * expected


class TestFactorizations:
    """Every sparse factorization goes through ``symmetric_lu``, once per operator."""

    def test_beta_factors_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectra, "symmetric_lu", _counting_lu(calls))
        beta_inequality_checks(make_disk(3))
        assert len(calls) == 1

    def test_korn_and_infsup_factor_once_each(self, monkeypatch):
        # ARPACK must not factor the shifted matrix itself: its own splu
        # binding refuses to run.
        def refuse(*args, **kwargs):
            raise AssertionError("eigsh factored internally")

        calls = []
        monkeypatch.setattr(sys.modules[spla.eigsh.__module__], "splu", refuse)
        monkeypatch.setattr(spectra, "symmetric_lu", _counting_lu(calls))
        mesh = make_disk(2)
        korn_quotient_min(mesh)
        assert len(calls) == 1
        infsup_constant(mesh)
        assert len(calls) == 2


def _all_constants(mesh):
    out = {"korn_no_friction": korn_quotient_min(mesh).constant,
           "korn_with_friction": korn_quotient_min(mesh, alpha=1.0).constant,
           "infsup": infsup_constant(mesh).constant}
    if mesh.domain_tag == "disk":
        for name, rep in beta_inequality_checks(mesh).items():
            out[name] = rep.constant
    return out


class TestStoppingRule:
    """Lanczos stops at a residual of ``LANCZOS_RTOL``, not machine epsilon.

    The Ritz value's error is quadratic in the residual, so a constant
    whose eigenvalue is separated is the one a run to ARPACK's default
    tolerance (``tol=0``) finds; inside a cluster it is within the tolerance.
    """

    @pytest.mark.parametrize("domain,level", [
        ("square", 8), ("square", 16), ("disk", 1), ("disk", 2), ("disk", 3)])
    def test_constants_match_full_convergence(self, monkeypatch, domain, level):
        mesh = _mesh(domain, level)
        stopped = _all_constants(mesh)
        monkeypatch.setattr(spectra, "LANCZOS_RTOL", 0.0)
        converged = _all_constants(mesh)
        for name, value in converged.items():
            assert abs(stopped[name] - value) <= 1e-13 * abs(value), name
        if domain == "disk":
            # The kernel still snaps to exactly zero.
            assert stopped["korn_no_friction"] == 0.0

    def test_cluster_resolved_to_the_tolerance(self, monkeypatch):
        # Disk 5's smallest inf-sup eigenvalues lie within 1e-8 relative of
        # each other, below the stopping residual, so the run may end inside
        # the cluster: above the minimum, by at most the tolerance.
        mesh = make_disk(5)
        tol = spectra.LANCZOS_RTOL
        stopped = infsup_constant(mesh).constant
        monkeypatch.setattr(spectra, "LANCZOS_RTOL", 0.0)
        converged = infsup_constant(mesh).constant
        assert converged <= stopped <= (1.0 + tol) * converged

    @pytest.mark.parametrize("constant,mesh,budget", [
        (lambda m: korn_quotient_min(m, alpha=1.0), make_unit_square(16), 81),
        (infsup_constant, make_disk(3), 51)], ids=["korn-square16", "infsup-disk3"])
    def test_solve_budget(self, monkeypatch, constant, mesh, budget):
        # ARPACK's default tolerance spends 141 and 81 solves on these.
        solves = []
        monkeypatch.setattr(spectra, "symmetric_lu", _counting_solves(solves))
        constant(mesh)
        assert 0 < len(solves) <= budget


# Eigenvalues below a near shift: none for Korn, the constant pressure for
# inf-sup.  The frictionless disk adds its rigid rotation to any positive
# shift.
KNOWN = {"korn_no_friction": 0, "korn_with_friction": 0, "infsup": 1}
LADDERS = {"square": (2, 4, 8, 16, 32, 64), "disk": (0, 1, 2, 3, 4, 5)}


def _recording_factors(monkeypatch):
    """``perm_r``, ``perm_c`` and U's diagonal of each factor ``spectra`` makes."""
    factors = []

    def wrapper(mat):
        lu = symmetric_lu(mat)
        factors.append((lu.perm_r, lu.perm_c, lu.U.diagonal()))
        return lu
    monkeypatch.setattr(spectra, "symmetric_lu", wrapper)
    return factors


def _suite(domain, levels):
    """Rows of ``spectra_suite`` and ``{level: {column: (report, factors)}}``."""
    calls = []
    cfg = ExperimentConfig(kind="spectra_suite", domain=domain, levels=levels,
                           alpha=1.0)
    with pytest.MonkeyPatch.context() as mp:
        factors = _recording_factors(mp)

        def recorded(constant):
            def wrapper(*args, **kwargs):
                start = len(factors)
                rep = constant(*args, **kwargs)
                calls.append((rep, factors[start:]))
                return rep
            return wrapper

        mp.setattr(experiments, "korn_quotient_min", recorded(korn_quotient_min))
        mp.setattr(experiments, "infsup_constant", recorded(infsup_constant))
        rows = run_experiment(cfg).rows
    return rows, {level: dict(zip(KNOWN, calls[3 * i:3 * i + 3]))
                  for i, level in enumerate(levels)}


@pytest.fixture(scope="module")
def suites():
    return {domain: _suite(domain, levels) for domain, levels in LADDERS.items()}


def _count(column, factor, n_vel):
    """Eigenvalues below the shift, read from the factor's inertia."""
    perm_r, perm_c, pivots = factor
    assert np.array_equal(perm_r, perm_c)        # static diagonal pivots
    if column == "infsup":
        return int((pivots > 0).sum()) - n_vel
    return int((pivots < 0).sum())


def _constant(mesh, column, estimate=None):
    if column == "infsup":
        return infsup_constant(mesh, estimate=estimate)
    return korn_quotient_min(mesh, alpha=float(column == "korn_with_friction"),
                             estimate=estimate)


class TestSpectrumSlicing:
    """Each suite level shifts just below the coarser level's constant, and
    the inertia of the shifted factor certifies that nothing lies below."""

    @pytest.mark.parametrize("domain,level", [
        *(("square", n) for n in (4, 8, 16, 32)),
        *(("disk", n) for n in range(6))])
    def test_count_equals_known_modes(self, suites, monkeypatch, domain,
                                      level):
        mesh = _mesh(domain, level)
        for column, known in KNOWN.items():
            rep, factors = suites[domain][1][level][column]
            if rep.detail["below_shift"] is None:
                # Disk 0 opens its ladder at SIGMA: shift below its own
                # constant.  The disk kernel (constant 0) stays at SIGMA;
                # shift to 1e-3 to count its rotation.
                factors = _recording_factors(monkeypatch)
                rep = _constant(mesh, column, rep.constant or 1e-3)
            kernel = rep.constant == 0.0
            assert _count(column, factors[0], rep.n_dofs) == known + kernel
            assert len(factors) == 1 + kernel     # the kernel refactors
            assert rep.detail["below_shift"] == (None if kernel else known)
            # Every sign is read far above rounding.
            pivots = np.abs(factors[0][2])
            assert pivots.min() >= 1e-13 * pivots.max(), column

    @pytest.mark.parametrize("domain,first", [("square", 2), ("disk", 1)])
    def test_constants_match_full_convergence(self, suites, monkeypatch,
                                              domain, first):
        # Squares 8-64 and disks 1-5, disk 5's inf-sup cluster included.
        rows = {row[0]: row for row in suites[domain][0]}
        monkeypatch.setattr(spectra, "LANCZOS_RTOL", 0.0)
        levels = LADDERS[domain][first:]
        cfg = ExperimentConfig(kind="spectra_suite", domain=domain,
                               levels=levels, alpha=1.0)
        for row in run_experiment(cfg).rows:
            for stopped, value in zip(rows[row[0]][2:5], row[2:5]):
                assert abs(stopped - value) <= 1e-12 * abs(value), row[0]

    @pytest.mark.parametrize("column", list(KNOWN))
    def test_high_estimate_falls_back_to_sigma(self, monkeypatch,
                                               factors_alive, column):
        mesh = make_unit_square(8)
        lone = _constant(mesh, column)
        factors = _recording_factors(monkeypatch)
        alive = factors_alive(spectra)
        high = _constant(mesh, column, 2.0 * lone.constant)
        assert len(factors) == 2
        # The rejected factor, with its cached L and U, is gone before
        # the SIGMA factorization starts.
        assert alive == [[], [False]]
        assert _count(column, factors[0], high.n_dofs) > KNOWN[column]
        assert high.detail["shift"] == spectra.SIGMA
        assert high.detail["below_shift"] is None
        assert high.constant == lone.constant
        assert high.detail == lone.detail

    def test_solve_budget_of_the_benchmark_suites(self, monkeypatch):
        # The two suites of the disk_kernel workload; every run at SIGMA
        # with ARPACK's default Krylov space spends 870 solves.
        solves = []
        smallest = spectra._smallest_eig

        def counting(*args):
            value, count = smallest(*args)
            solves.append(count)
            return value, count
        monkeypatch.setattr(spectra, "_smallest_eig", counting)
        for domain, levels in (("disk", (1, 2, 3, 4)), ("square", (8, 16, 32))):
            run_experiment(ExperimentConfig(kind="spectra_suite", domain=domain,
                                            levels=levels, alpha=1.0))
        assert len(solves) == 21
        assert sum(solves) <= 460

    def test_rotation_moments_at_sigma_on_a_small_space(self):
        for rep in beta_inequality_checks(make_disk(3)).values():
            assert rep.detail["shift"] == spectra.SIGMA
            assert rep.detail["below_shift"] is None
            assert 0 < rep.detail["lanczos_solves"] <= 12
