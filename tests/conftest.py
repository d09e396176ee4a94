import pytest

from subquant import solver


@pytest.fixture
def rotation_calls(monkeypatch):
    """(dim, key) of every random rotation computed while the test runs, the
    key being the (seed, role, index) that names its stream (`linalg.stream`).
    The rotation cache is emptied before and after, so no test sees another's."""
    calls = []
    rotation = solver.random_orthogonal

    def counting(d, seed):
        calls.append((d, (seed.entropy, *seed.spawn_key)))
        return rotation(d, seed)

    monkeypatch.setattr(solver, "random_orthogonal", counting)
    solver._internal_rotation.cache_clear()
    yield calls
    solver._internal_rotation.cache_clear()
