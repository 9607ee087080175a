import pytest


@pytest.fixture()
def fourbyfour():
    from gen import fourbyfour_net

    return fourbyfour_net()
