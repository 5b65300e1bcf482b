import pytest


def pytest_addoption(parser):
    parser.addoption("--seed", type=int, default=20240815,
                     help="seed of test_poly.py::test_ring_laws_bulk; the "
                          "Hypothesis tests take --hypothesis-seed")


@pytest.fixture
def rng_seed(request):
    return request.config.getoption("--seed")
