"""Fixtures shared by the test modules."""

import weakref

import pytest


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
