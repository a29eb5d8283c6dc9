import pytest

from goldennugget.games import Universe


@pytest.fixture
def u():
    return Universe()
