"""``sector_census``'s closed form against a sampled census of H's signs.

``sampled_census`` is the census ``sector_census`` used to compute: the signs
of the first integral at ``samples`` equal angles on a circle about the cusp,
with ``|H| <= 1e-3 * r**3`` counted as on the level set. A sector begins
wherever a sign follows a different label, and a separatrix lies at each sign
flip of the cyclic list with the on-level labels dropped. It is kept here as
the reference: at sample counts divisible by 4 a sample lies on the negative
y axis, inside the negative arc, so it sees the cusp at every theta and radius.

The arc itself is solved for by bisection: its ends are the two points where
the separatrix crosses the circle.
"""

import math

import pytest

from archflow import ArchSystem, Point2, sector_census

THETAS = [10.0**k for k in range(-9, 10)] + [1e31, 1e100, 1e300]
RADII = [1e-6, 0.01, 0.5, 2.0, 1e3]

_QUARTER_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))  # (cos, sin) of k*pi/2


def sampled_census(system, radius, samples):
    """(hyperbolic, separatrices) from the signs of H at ``samples`` angles."""
    band = 1e-3 * radius**3
    labels = []
    for k in range(samples):
        quarter, rest = divmod(4 * k, samples)
        if rest:
            phi = 2.0 * math.pi * k / samples
            c, s = math.cos(phi), math.sin(phi)
        else:  # cos and sin of a rounded multiple of pi/2 miss their exact 0
            c, s = _QUARTER_TURNS[quarter]
        h = system.first_integral(Point2(radius * c, radius * s))
        labels.append(0 if abs(h) <= band else 1 if h > 0.0 else -1)
    hyperbolic = sum(1 for i, lab in enumerate(labels) if lab and lab != labels[i - 1])
    signs = [lab for lab in labels if lab]
    if hyperbolic == 0 and signs:
        hyperbolic = 1
    separatrices = sum(1 for i, lab in enumerate(signs) if lab != signs[i - 1])
    return hyperbolic, separatrices


def negative_arc_half_width(system, radius):
    """Half-width a of the arc about the negative y axis where H < 0.

    H at (r*sin(a), -r*cos(a)) is r**2 * (theta*sin(a)**2/2 - r*cos(a)**3/3),
    which rises from -r**3/3 at a = 0 to r**2*theta/2 at a = pi/2; bisection
    runs until the bracket stops shrinking. In terms of u = sin(phi) on the
    circle, the root of H's cubic is u* = -cos(a) and a = asin(u*) + pi/2.
    Bisecting on a rather than on u keeps the arc when 1 + u* falls below the
    float spacing at -1, which it does once theta/radius passes about 1e15.
    """
    lo, hi = 0.0, 0.5 * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        p = Point2(radius * math.sin(mid), -radius * math.cos(mid))
        if system.first_integral(p) < 0.0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("samples", [8, 12, 100, 360])
@pytest.mark.parametrize("radius", RADII)
def test_sampled_census_agrees_with_the_closed_form(radius, samples):
    for theta in THETAS:
        system = ArchSystem(theta)
        census = sector_census(system)
        assert census.is_cusp
        assert sampled_census(system, radius, samples) == (
            census.hyperbolic, census.separatrices
        ), (theta, radius, samples)


@pytest.mark.parametrize("theta, radius, samples", [
    (0.5, 0.01, 9), (0.5, 0.01, 10), (5.0, 0.5, 10), (1e3, 0.01, 359), (1e9, 0.5, 361),
])
def test_sampled_census_misses_a_narrow_arc_between_samples(theta, radius, samples):
    # No sample falls on the negative arc: one sector, no separatrix.
    system = ArchSystem(theta)
    assert sampled_census(system, radius, samples) == (1, 0)
    assert sector_census(system).is_cusp


@pytest.mark.parametrize("radius", RADII)
def test_negative_arc_ends_lie_on_the_separatrix(radius):
    for theta in THETAS:
        system = ArchSystem(theta)
        a = negative_arc_half_width(system, radius)
        x, y = radius * math.sin(a), -radius * math.cos(a)
        for end in (x, -x):
            assert abs(system.separatrix_height(end) - y) <= 1e-12 * radius, (theta, end)
        # The arc narrows like 2*sqrt(2r/(3*theta)), with a relative correction
        # of about 0.39*r/theta, so the width is checked where that is < 1e-3.
        if theta >= 1e3 * radius:
            assert 2.0 * a == pytest.approx(2.0 * math.sqrt(2.0 * radius / (3.0 * theta)), rel=1e-3)


def test_negative_arc_at_unit_scale():
    # theta = r = 0.5: the root of H's cubic is u* = -0.5934..., an arc of 72.50 degrees.
    a = negative_arc_half_width(ArchSystem(0.5), 0.5)
    assert math.degrees(2.0 * a) == pytest.approx(72.50, abs=0.005)
