import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from usolib.core import Orientation
from usolib.enumeration import census, uso_stack


@pytest.fixture(scope="session")
def all_usos_3():
    return [Orientation(3, row) for row in uso_stack(3)]


@pytest.fixture(scope="session")
def all_usos_2():
    return [Orientation(2, row) for row in uso_stack(2)]


@pytest.fixture(scope="session")
def census_3():
    return census(3)
