import sys
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ineqprove import Precision

# Assertion arithmetic in the tests runs at a generous ambient precision.
# The library never reads it: it computes in contexts of its own, one per
# precision (ineqprove.precision.context).
mpmath.mp.dps = 60


@pytest.fixture(scope="session")
def p50():
    return Precision(50)


@pytest.fixture(scope="session")
def p35():
    return Precision(35)


@pytest.fixture(scope="session")
def p30():
    return Precision(30)
