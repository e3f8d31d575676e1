import pytest

from crosshinge import beam_fem


@pytest.fixture
def tight_newton(monkeypatch):
    """Newton tolerance 1e-13 * max(1, EA) for the test; that is 1e-13 for
    every model the tests build, whose EA = w h stays below 1."""
    monkeypatch.setattr(beam_fem, "NEWTON_TOL_FACTOR", 1e-13)
