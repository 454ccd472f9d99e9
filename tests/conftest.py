import decimal
import math

import pytest

import blochpulse as bp


@pytest.fixture(scope="session")
def example1():
    """Two-switch half turn: m=2, r=0.39."""
    return bp.synthesize(2.0, bp.PulseTarget(0.39, math.pi))


@pytest.fixture(scope="session")
def example2():
    """One-switch quarter turn: m=2, r=0.61."""
    return bp.synthesize(2.0, bp.PulseTarget(0.61, math.pi / 2))


@pytest.fixture(scope="session")
def example3():
    """Two-switch quarter turn below unit bound: m=0.95, r=0.2."""
    return bp.synthesize(0.95, bp.PulseTarget(0.2, math.pi / 2))


@pytest.fixture(scope="session")
def unbounded_quarter():
    """Unlimited amplitude, r=0.6 quarter turn."""
    return bp.synthesize(math.inf, bp.PulseTarget(0.6, math.pi / 2))


@pytest.fixture(scope="session")
def example1_trajectory(example1):
    return example1.simulate()


@pytest.fixture(scope="session")
def example2_trajectory(example2):
    return example2.simulate()


@pytest.fixture(scope="session")
def example3_trajectory(example3):
    return example3.simulate()


@pytest.fixture(scope="session")
def decimal_cos():
    """cos of a double as a 60-digit Decimal, by its Taylor series.

    The doubles nearest pi/2 and pi are the axes, where the package takes
    the cosine as exactly 0 and -1.
    """

    def cos(theta):
        if theta == math.pi / 2:
            return decimal.Decimal(0)
        if theta == math.pi:
            return decimal.Decimal(-1)
        with decimal.localcontext(decimal.Context(prec=80)):
            x2 = decimal.Decimal(theta) ** 2
            term = total = decimal.Decimal(1)
            n = 0
            while abs(term) > decimal.Decimal("1e-80"):
                n += 2
                term *= -x2 / (n * (n - 1))
                total += term
        with decimal.localcontext(decimal.Context(prec=60)):
            return +total

    return cos
