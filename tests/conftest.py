"""Fixtures shared by the test modules."""

import weakref

import numpy as np
import pytest
import scipy.linalg

from slipstokes import fem, forms


class _Factor:
    """A factor behind a proxy, so that a test can hold a weak reference."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)


@pytest.fixture
def factors_alive(monkeypatch):
    """``watch(module)`` wraps ``module.symmetric_lu`` and returns a list
    with one entry per call, filled as the call is entered: for each
    factor made before it, whether that factor is still alive.

    SuperLU objects take no weak references; the proxies around them do.
    """
    def watch(module):
        symmetric_lu, made, alive = module.symmetric_lu, [], []

        def proxied(matrix):
            alive.append([ref() is not None for ref in made])
            factor = _Factor(symmetric_lu(matrix))
            made.append(weakref.ref(factor))
            return factor
        monkeypatch.setattr(module, "symmetric_lu", proxied)
        return alive
    return watch


@pytest.fixture
def dense_infsup():
    """``oracle(mesh)``: the dense inf-sup constant, the square root of the
    smallest eigenvalue of the pencil ``(B K^{-1} B^T, M_p)`` above the rank
    floor ``100 n_p eps``, and the number of eigenvalues below that floor
    (the hydrostatic zero)."""
    def oracle(mesh):
        fe = fem.build_taylor_hood(mesh)
        plan = fe.slip_plan()
        K = plan.reduce(forms.assemble_velocity_h1(fe)).toarray()
        B = (forms.assemble_divergence(fe) @ plan.basis).toarray()
        S = B @ scipy.linalg.solve(K, B.T, assume_a="pos")
        vals = scipy.linalg.eigh(S, forms.assemble_pressure_mass(fe).toarray(),
                                 eigvals_only=True)
        floor = 100.0 * len(vals) * np.finfo(float).eps
        return float(np.sqrt(vals[vals > floor][0])), int((vals <= floor).sum())
    return oracle
