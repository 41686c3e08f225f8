import numpy as np
import pytest

import bmstab.measures as measures_module
from bmstab.measures import make_measure
from bmstab.sphere import build_grid


@pytest.fixture(scope="session")
def grid2():
    return build_grid(2, 160)


@pytest.fixture(scope="session")
def grid2_small():
    return build_grid(2, 96)


@pytest.fixture(scope="session")
def grid3():
    return build_grid(3, 16)


@pytest.fixture(scope="session")
def grid4():
    return build_grid(4, 10)


@pytest.fixture(scope="session")
def lebesgue():
    return make_measure(kind="lebesgue")


@pytest.fixture(scope="session")
def gaussian():
    return make_measure(kind="gaussian")


@pytest.fixture(scope="session")
def exp1():
    return make_measure(kind="exp_power", p=1)


@pytest.fixture(scope="session")
def exp3():
    return make_measure(kind="exp_power", p=3)


@pytest.fixture
def gk_widths(monkeypatch):
    """The batch width of every adaptive_gk call made during the test."""
    widths, real = [], measures_module.adaptive_gk

    def counting(fvec, a, b):
        widths.append(fvec(np.array([0.5])).shape[1])
        return real(fvec, a, b)

    monkeypatch.setattr(measures_module, "adaptive_gk", counting)
    return widths
