"""Shared fixtures for the tier-1 suite."""

from contextlib import contextmanager

import pytest

from repro.linalg import kernels


@pytest.fixture
def python_kernel(monkeypatch):
    """A context manager that runs its block on the pure-python oracle.

    The vectorized kernels are on whenever numpy imports, and the library
    offers no switch; parity tests need the oracle's answer next to the
    fast one.  Inside ``with python_kernel():`` the private
    ``kernels._vectorized`` flag is pinned to ``False``; it is restored on
    exit.  The patch reaches this process only — spawned pool workers
    would not see it — so oracle-side engines run with ``workers=1``.
    """

    @contextmanager
    def oracle():
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_vectorized", False)
            yield

    return oracle
