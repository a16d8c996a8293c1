"""The orbit-time helper against closed forms, without ``integrate``."""

import math

import pytest

from orbit_time import apex_escape_time, escape_time, orbit_time


@pytest.mark.parametrize("theta", [10.0**k for k in range(-9, 10)])
def test_escape_time_from_the_apex_is_the_closed_form(theta):
    escape = apex_escape_time(theta, 1.0)
    assert abs(escape_time(theta, (0.0, 1.0)) - escape) <= 1e-13 * escape


@pytest.mark.parametrize("theta", [1e-9, 1e-3, 0.5, 5.0, 1e3, 1e9])
def test_orbit_time_on_the_left_separatrix_branch(theta):
    # On H = 0, x < 0: y^3 = -1.5*theta*x^2 and dx/dt = (1.5*theta)^(2/3)*|x|^(4/3),
    # so t = 3*(|x1|^(-1/3) - |x0|^(-1/3)) / (1.5*theta)^(2/3). Samples near the
    # cusp have tiny y^3, which the quadrature takes from the sample itself.
    c = (1.5 * theta) ** (2.0 / 3.0)
    for x0 in (-1e3, -2.0, -1e-3):
        for x1 in (0.5 * x0, 1e-3 * x0, 1e-6 * x0):
            p0, p1 = [(x, -((1.5 * theta * x * x) ** (1.0 / 3.0))) for x in (x0, x1)]
            exact = 3.0 * (abs(x1) ** (-1.0 / 3.0) - abs(x0) ** (-1.0 / 3.0)) / c
            assert abs(orbit_time(theta, p0, p1) - exact) <= 1e-13 * exact
            assert orbit_time(theta, p1, p0) == orbit_time(theta, p0, p1)
