import pytest

from subquant import solver


@pytest.fixture
def rotation_calls(monkeypatch):
    """(dim, seed) of every random rotation computed while the test runs."""
    calls = []
    rotation = solver.random_orthogonal

    def counting(d, seed):
        calls.append((d, seed))
        return rotation(d, seed)

    monkeypatch.setattr(solver, "random_orthogonal", counting)
    return calls
