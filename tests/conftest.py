import pytest

from empathica import (
    EmpathyMatrix,
    anti_coordination_game,
    coordination_game,
    matching_pennies,
    prisoners_dilemma,
)
from empathica import games, hierarchy


@pytest.fixture
def pd():
    return prisoners_dilemma()


@pytest.fixture
def mp():
    return matching_pennies()


@pytest.fixture
def coord():
    return coordination_game()


@pytest.fixture
def anti():
    return anti_coordination_game()


@pytest.fixture
def products(monkeypatch):
    """Every matrix product formed during the test, one entry each: the
    products of the power walk ``games._powers`` (each power after the
    first), in every module that looks the walk up, and every
    ``EmpathyMatrix`` product."""
    formed = []
    matmul = EmpathyMatrix.__matmul__
    walk = games._powers

    def counting(self, other):
        formed.append(other)
        return matmul(self, other)

    def counting_walk(lam, k_max):
        powers = walk(lam, k_max)
        yield next(powers)
        for power in powers:
            formed.append(power)
            yield power

    monkeypatch.setattr(EmpathyMatrix, "__matmul__", counting)
    for module in (games, hierarchy):
        monkeypatch.setattr(module, "_powers", counting_walk)
    return formed
