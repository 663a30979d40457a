import pytest

from empathica import (
    EmpathyMatrix,
    anti_coordination_game,
    coordination_game,
    matching_pennies,
    prisoners_dilemma,
)
from empathica import hierarchy


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
    products of the hierarchy's power walk (each power after the first) and
    every ``EmpathyMatrix`` product."""
    formed = []
    matmul = EmpathyMatrix.__matmul__
    walk = hierarchy._powers

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
    monkeypatch.setattr(hierarchy, "_powers", counting_walk)
    return formed
