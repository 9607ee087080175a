import pytest

from pbna import kernels


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # run the kernels once, outside any timed section
    kernels.warmup()


@pytest.fixture()
def fourbyfour():
    from gen import fourbyfour_net

    return fourbyfour_net()
