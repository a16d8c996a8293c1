import decimal
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from archflow import ArchSystem, Mat2, Point2, Window
from archflow.systems import _arch_separatrix_reach, _level


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point2(0.0, math.inf)
    with pytest.raises(ValueError):
        Mat2(1.0, 2.0, math.nan, 4.0)


def test_point_distance():
    p, q = Point2(0.0, 0.0), Point2(3.0, 4.0)
    assert math.hypot(q.x - p.x, q.y - p.y) == 5.0


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        Window(0.0, 1.0, 2.0, -2.0)
    with pytest.raises(ValueError):
        Window(0.0, math.inf, 0.0, 1.0)


def test_window_contains_and_inflated():
    w = Window(-4.0, 4.0, -2.0, 2.0)
    assert w.contains(4.0, 2.0)
    assert not w.contains(4.0001, 0.0)
    assert w.contains(4.0001, 0.0, pad=1e-3)
    grown = w.inflated(0.05)
    assert grown.x_min == -4.2 and grown.x_max == 4.2
    assert grown.y_min == pytest.approx(-2.1) and grown.y_max == pytest.approx(2.1)
    with pytest.raises(ValueError):
        w.inflated(-0.1)


def test_window_inflated_past_the_float_range_raises():
    big = sys.float_info.max
    # an infinite width, then a finite width whose grown bound overflows
    for w in (Window(-1e308, 1e308, -1.0, 1.0), Window(-1.0, 1.0, 0.0, big)):
        with pytest.raises(ValueError, match=r"grown by fraction 0\.05 leaves the float range$"):
            w.inflated(0.05)
    # a grown bound next to the largest float keeps the plain formula's bits
    w = Window(-big / 2, big / 2, -1.0, 1.0)
    grown = w.inflated(0.05)
    assert grown.x_min == w.x_min - 0.5 * 0.05 * w.width
    assert grown.x_max == w.x_max + 0.5 * 0.05 * w.width


def test_arch_system_rejects_bad_theta():
    for theta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ArchSystem(theta)


def test_arch_field_values():
    s = ArchSystem(0.5)
    assert s.field_at(0.0, 1.0) == (1.0, 0.0)
    assert s.field_at(2.0, -1.0) == (1.0, -1.0)
    assert s.field_at(-2.0, 3.0) == (9.0, 1.0)


def test_arch_jacobian_analytic():
    s = ArchSystem(0.5)
    j = s.jacobian(Point2(0.5, 2.0))
    assert (j.a11, j.a12, j.a21, j.a22) == (0.0, 4.0, -0.5, 0.0)
    j0 = s.jacobian(Point2(0.0, 0.0))
    assert (j0.a11, j0.a12, j0.a21, j0.a22) == (0.0, 0.0, -0.5, 0.0)


def test_arch_system_has_no_instance_dict():
    assert not hasattr(ArchSystem(0.5), "__dict__")


def test_first_integral_values():
    assert ArchSystem(0.5).first_integral(Point2(0.0, 1.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ArchSystem(0.5).first_integral(Point2(1.0, 1.0)) == pytest.approx(7.0 / 12.0, abs=1e-15)
    assert ArchSystem(2.0).first_integral(Point2(1.0, -1.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_first_integral_constant_along_exact_level_set():
    # points generated from the level equation y^3 = 3H - 1.5*theta*x^2
    theta, big_h = 0.7, 0.4
    system = ArchSystem(theta)
    for x in [-1.0 + 2.0 * i / 10 for i in range(11)]:
        y = math.copysign(abs(3.0 * big_h - 1.5 * theta * x * x) ** (1.0 / 3.0),
                          3.0 * big_h - 1.5 * theta * x * x)
        assert system.first_integral(Point2(x, y)) == pytest.approx(big_h, abs=1e-13)


def test_separatrix_height_frozen_values():
    # independent bisection solve of y^3/3 = -theta*x^2/2 gave -0.9085602964160697
    assert ArchSystem(0.5).separatrix_height(1.0) == pytest.approx(-0.9085602964160697, abs=1e-12)
    assert ArchSystem(5.0).separatrix_height(2.0) == pytest.approx(-3.1072325059538586, abs=1e-12)
    assert ArchSystem(0.5).separatrix_height(-1.0) == ArchSystem(0.5).separatrix_height(1.0)
    assert ArchSystem(3.0).separatrix_height(0.0) == 0.0


def test_separatrix_height_zeroes_first_integral():
    worst = 0.0
    for theta in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        system = ArchSystem(theta)
        for x in [-10.0 + 20.0 * i / 80 for i in range(81)]:
            y = system.separatrix_height(x)
            worst = max(worst, abs(system.first_integral(Point2(x, y))))
    assert worst <= 1e-10


def test_separatrix_reach_inverts_separatrix_height():
    for theta in (1e-3, 0.5, 5.0, 1e3):
        system = ArchSystem(theta)
        for y in (-10.0, -1.0, -1e-3):
            reach = _arch_separatrix_reach(theta, y)
            assert system.separatrix_height(reach) == pytest.approx(y, rel=1e-12)
            assert system.separatrix_height(-reach) == pytest.approx(y, rel=1e-12)
        assert _arch_separatrix_reach(theta, 0.0) == 0.0
        assert _arch_separatrix_reach(theta, 2.0) == 0.0


@pytest.mark.parametrize("theta", [1.1e308, 1.7e308, sys.float_info.max])
def test_separatrix_near_the_largest_theta_stays_finite(theta):
    # 3*theta overflows here, and 1.5*theta too above about 1.2e308; the curve
    # itself does not, and it still passes through the origin (inf * 0 would
    # give nan there). The height is checked against a 40-digit cube root: the
    # float formula -1.5**(1/3) * theta**(1/3) * x**(2/3) is itself off by
    # about 1.3e-14 here, since the exponent 1/3 is inexact.
    system = ArchSystem(theta)
    assert system.separatrix_height(0.0) == 0.0
    for x in (1e-300, 1e-100, 1.0, 4.0, 1e100):
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            cube = Decimal(1.5) * Decimal(theta) * Decimal(x) ** 2
            exact = -float(cube ** (Decimal(1) / 3))
        assert system.separatrix_height(x) == pytest.approx(exact, rel=1e-14)
    for y in (-4.0, -1.0, -1e-3):
        reach = _arch_separatrix_reach(theta, y)
        assert 0.0 < reach and system.separatrix_height(reach) == pytest.approx(y, rel=1e-12)


@pytest.mark.parametrize("theta", [1e-9, 0.5, 1e9, sys.float_info.max])
@pytest.mark.parametrize("x", [1e-160, 1e-200, 1e-300, 5e-324])
def test_separatrix_height_of_a_tiny_x_lies_on_the_zero_level_set(theta, x):
    # 1.5*theta*x*x is subnormal or 0 here, or inf at the largest theta, while
    # the height is a normal float. Checked exactly, in fractions: a float
    # oracle such as v ** (1/3) is itself off by about 1e-14 at v ~ 1e-300.
    y = ArchSystem(theta).separatrix_height(x)
    assert y < 0.0
    drop = Fraction(theta) * Fraction(x) ** 2 / 2
    assert abs(drop - abs(Fraction(y)) ** 3 / 3) <= Fraction(1e-12) * drop


def test_level_has_the_sign_of_h_across_the_float_range():
    # H = h * 2^(6K) against H in exact fractions, over points whose coordinates
    # run from 1e-320 to 1e300 and theta from 1e-300 to 1.7e308: the sign is
    # exact, and where H is a normal float h is within a few of its ulps.
    rng = random.Random(36)
    for _ in range(4000):
        theta = 10.0 ** rng.uniform(-300.0, math.log10(1.7e308))
        x, y = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 300.0) for _ in range(2))
        exact = Fraction(theta) * Fraction(x) ** 2 / 2 + Fraction(y) ** 3 / 3
        h, k = _level(theta, x, y)
        scaled = Fraction(h) * Fraction(2) ** (6 * k)
        assert (scaled > 0) == (exact > 0) and (scaled < 0) == (exact < 0), (theta, x, y)
        if sys.float_info.min <= abs(exact) <= sys.float_info.max:
            ulp = Fraction(math.ulp(float(exact)))
            assert abs(scaled - exact) <= 4 * ulp, (theta, x, y)


def test_separatrix_height_rejects_bad_input():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x must be finite"):
            ArchSystem(0.5).separatrix_height(x)


def test_arch_convenience_methods():
    s = ArchSystem(0.5)
    assert repr(s) == "ArchSystem(theta=0.5)"
