import pytest

from voacert.graded_fock import (build_model, heisenberg_spec, lattice_spec,
                                 virasoro_spec)


@pytest.fixture(scope="session")
def heis6():
    return build_model(heisenberg_spec(1, 6))


@pytest.fixture(scope="session")
def heis8():
    return build_model(heisenberg_spec(1, 8))


@pytest.fixture(scope="session")
def heis12():
    return build_model(heisenberg_spec(1, 12))


@pytest.fixture(scope="session")
def ising8():
    return build_model(virasoro_spec("1/2", 8))


@pytest.fixture(scope="session")
def c1_8():
    return build_model(virasoro_spec(1, 8))


@pytest.fixture(scope="session")
def lat2_6():
    return build_model(lattice_spec(2, 6))


@pytest.fixture(scope="session")
def lat2_8():
    return build_model(lattice_spec(2, 8))
