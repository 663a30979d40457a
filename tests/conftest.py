import pytest

from empathica import (
    EmpathyMatrix,
    anti_coordination_game,
    coordination_game,
    matching_pennies,
    prisoners_dilemma,
)


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
    """Every EmpathyMatrix product formed during the test, one entry each."""
    formed = []
    matmul = EmpathyMatrix.__matmul__

    def counting(self, other):
        formed.append(other)
        return matmul(self, other)

    monkeypatch.setattr(EmpathyMatrix, "__matmul__", counting)
    return formed
