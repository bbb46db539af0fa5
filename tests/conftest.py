import pytest

from rigged import configuration, identities


@pytest.fixture(params=["1"], ids=["RIGGED_DEBUG=1"])
def rigged_debug(request, monkeypatch):
    """Run a test with the library's RIGGED_DEBUG double computations switched on.

    The forward-map cache is emptied first, so that no image built while the switch was off is read unchecked.
    """
    monkeypatch.setattr(configuration, "_DEBUG", True)
    identities._iota.cache_clear()
    return request.param


@pytest.fixture
def debug_off(monkeypatch):
    """Run a test with the RIGGED_DEBUG double computations switched off, whatever the environment set at import."""
    monkeypatch.setattr(configuration, "_DEBUG", False)
