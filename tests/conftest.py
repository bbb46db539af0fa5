import pytest


@pytest.fixture(params=["1"], ids=["RIGGED_DEBUG=1"])
def rigged_debug(request, monkeypatch):
    """Run a test with the library's RIGGED_DEBUG double computations switched on."""
    monkeypatch.setenv("RIGGED_DEBUG", request.param)
    return request.param
