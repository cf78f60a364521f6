import pytest
from hypothesis import settings

from lbmlab.equilibrium import build_equilibrium
from lbmlab.lattice import build_moment_matrix, build_velocity_set

settings.register_profile("default", max_examples=50, deadline=None,
                          derandomize=True)
settings.load_profile("default")


@pytest.fixture(scope="session")
def d2q9():
    vs = build_velocity_set("d2q9")
    mm = build_moment_matrix(vs, 1.0)
    model = build_equilibrium(vs, 1.0)
    return vs, mm, model


@pytest.fixture(scope="session")
def d1q3():
    vs = build_velocity_set("d1q3")
    mm = build_moment_matrix(vs, 1.0)
    model = build_equilibrium(vs, 1.0)
    return vs, mm, model
