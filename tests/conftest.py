import pytest

from ovoidlab import (ExtFieldCtx, SymplecticForm, build_geometry,
                      common_tangent_spread, elliptic_quadric,
                      polarity_from_ovoid, singer_context, t_orbit_fibration,
                      tits_ovoid)


@pytest.fixture(scope="session")
def geo1():
    return build_geometry(1)


@pytest.fixture(scope="session")
def geo2():
    return build_geometry(2)


@pytest.fixture(scope="session")
def geo3():
    return build_geometry(3)


@pytest.fixture(scope="session")
def ext2():
    return ExtFieldCtx.build(2)


@pytest.fixture(scope="session")
def ext3():
    return ExtFieldCtx.build(3)


@pytest.fixture(scope="session")
def sc2(geo2, ext2):
    return singer_context(geo2, ext2)


@pytest.fixture(scope="session")
def sc3(geo3, ext3):
    return singer_context(geo3, ext3)


@pytest.fixture(scope="session")
def fib2(sc2):
    return t_orbit_fibration(sc2)


@pytest.fixture(scope="session")
def fib3(sc3):
    return t_orbit_fibration(sc3)


@pytest.fixture(scope="session")
def spread2(fib2, geo2):
    return common_tangent_spread(fib2, geo2)


@pytest.fixture(scope="session")
def spread3(fib3, geo3):
    return common_tangent_spread(fib3, geo3)


@pytest.fixture(scope="session")
def form2(fib2, geo2):
    return polarity_from_ovoid(fib2.members[0], geo2)


@pytest.fixture(scope="session")
def form3(fib3, geo3):
    return polarity_from_ovoid(fib3.members[0], geo3)


@pytest.fixture(scope="session")
def hyperbolic_form():
    """The form <x,y> = x1 y4 + x2 y3 + x3 y2 + x4 y1, over every GF(q)."""
    return SymplecticForm(gram=(
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    ))


@pytest.fixture(scope="session")
def quadric2(geo2):
    return elliptic_quadric(geo2)


@pytest.fixture(scope="session")
def quadric3(geo3):
    return elliptic_quadric(geo3)


@pytest.fixture(scope="session")
def tits3(geo3):
    return tits_ovoid(geo3)
