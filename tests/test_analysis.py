import math
import random
import sys

import pytest

from archflow import (
    ArchSystem,
    IntegratorConfig,
    Mat2,
    Point2,
    SectorCensus,
    Trajectory,
    Window,
    classify_arch,
    crossing,
    find_equilibria,
    integrate,
    opening_angle,
    sector_census,
    trace_separatrix,
)
from orbit_time import closed_form_angle


def test_find_equilibria_arch_reports_origin():
    for theta in (0.001, 0.5, 5.0):
        eqs = find_equilibria(ArchSystem(theta), Window(-4.0, 4.0, -4.0, 4.0))
        assert len(eqs) == 1
        eq = eqs[0]
        assert eq.location == Point2(0.0, 0.0)
        assert eq.jacobian == Mat2(0.0, 0.0, -theta, 0.0)
        assert eq.eigen.kind == "real_repeated"
        assert eq.eigen.values == (0j, 0j)
        assert eq.classification == "degenerate_nonhyperbolic"


def test_find_equilibria_respects_window():
    eqs = find_equilibria(ArchSystem(0.5), Window(1.0, 2.0, 1.0, 2.0))
    assert eqs == []


def _circle_sign_flips(system, radius, samples=360):
    """Sign flips of H, cyclically, at ``samples`` equal angles on a circle about the origin."""
    signs = []
    for k in range(samples):
        phi = 2.0 * math.pi * k / samples
        h = system.first_integral(Point2(radius * math.cos(phi), radius * math.sin(phi)))
        if h != 0.0:
            signs.append(h > 0.0)
    return sum(1 for i, sign in enumerate(signs) if sign != signs[i - 1])


def test_sector_census_cusp_at_multiple_radii():
    # The census holds at every radius: each circle about the origin meets
    # the separatrix at the census's two ends of the negative arc.
    s = ArchSystem(0.5)
    census = sector_census(s)
    assert census.hyperbolic == 2
    assert census.elliptic == 0
    assert census.parabolic == 0
    assert census.is_cusp
    for radius in (0.1, 0.5, 2.0):
        assert _circle_sign_flips(s, radius) == census.separatrices == 2


def test_sector_census_all_presets():
    for theta in (0.001, 0.5, 5.0):
        census = sector_census(ArchSystem(theta))
        assert census == SectorCensus(2, 0, 0, 2)
        assert census.is_cusp


@pytest.mark.parametrize("theta, radius", [(0.5, 0.01), (5.0, 0.5), (1e3, 0.01), (1e9, 0.5)])
def test_sector_census_finds_the_cusp_where_sampling_missed_the_arc(theta, radius):
    # A 360-sample sign census missed the negative arc at these (theta, radius)
    # pairs whenever the sample count was not a multiple of 4. The arc is
    # there: H < 0 on the negative y axis and H > 0 on the x axis.
    s = ArchSystem(theta)
    assert s.first_integral(Point2(0.0, -radius)) < 0.0
    assert s.first_integral(Point2(radius, 0.0)) > 0.0
    assert s.first_integral(Point2(-radius, 0.0)) > 0.0
    assert sector_census(s) == SectorCensus(2, 0, 0, 2)


def test_sector_census_validation():
    with pytest.raises(TypeError, match="needs an ArchSystem"):
        sector_census(object())


def test_sector_census_is_defined_about_the_cusp_only():
    # The census is the origin's: it is the field's one equilibrium, and no
    # other centre can be asked for.
    s = ArchSystem(0.5)
    (eq,) = find_equilibria(s, Window(-4.0, 4.0, -4.0, 4.0))
    assert eq.location == Point2(0.0, 0.0)
    assert sector_census(s).is_cusp
    for center in (Point2(1.0, -2.0), Point2(0.0, 1e-300)):
        assert center != eq.location
        with pytest.raises(TypeError):
            sector_census(s, center)


def test_sector_census_takes_no_sample_count():
    # Nor a centre or a radius: the census is the cusp's at every radius.
    s = ArchSystem(0.5)
    for args, kwargs in [((), {"samples": 360}), ((Point2(0.0, 0.0),), {}),
                         ((), {"equilibrium": Point2(0.0, 0.0)}), ((), {"radius": 0.5})]:
        with pytest.raises(TypeError):
            sector_census(s, *args, **kwargs)


def test_sector_signs_match_trajectory_side():
    # the H-sign census is honest: a trajectory seeded in the positive
    # region crosses the vertical axis above the origin, the negative
    # region below, checked on a seed lattice away from the border
    s = ArchSystem(0.5)
    lattice = [-5.0 + 10.0 * i / 11 for i in range(12)]
    for x0 in lattice:
        for y0 in lattice:
            h0 = s.first_integral(Point2(x0, y0))
            if abs(h0) <= 1e-6:
                continue
            if x0 < 0:
                cfg = IntegratorConfig(stop_box=Window(-6.0, 0.2, -1e3, 1e3),
                                       max_steps=500_000)
            else:
                cfg = IntegratorConfig(stop_box=Window(-0.2, 6.0, -1e3, 1e3),
                                       direction="backward", max_steps=500_000)
            traj = integrate(s, Point2(x0, y0), cfg)
            p = crossing(s, traj, "vertical", 0.0)
            assert (p.y > 0) == (h0 > 0)
            assert abs(p.y ** 3 / 3.0 - h0) <= 1e-6


def test_trace_separatrix_shape_and_values():
    (lx, ly), (rx, ry) = trace_separatrix(0.5, Window(-4.0, 4.0, -4.0, 4.0), resolution=100)
    assert all(type(c) is tuple and len(c) == 101 for c in (lx, ly, rx, ry))
    # Flow order: the left branch runs into the origin, the right one out of it,
    # and x never falls along either, as dx/dt = y^2.
    assert list(lx) == sorted(lx) and list(rx) == sorted(rx)
    assert lx[0] == -4.0
    assert (lx[-1], ly[-1]) == (0.0, 0.0)
    assert rx[-1] == 4.0
    assert (rx[0], ry[0]) == (0.0, 0.0)
    # vertex lands exactly on the sample grid
    assert rx[25] == 1.0
    assert ry[25] == pytest.approx(-0.9085602964160697, abs=1e-12)
    assert lx[25] == -3.0
    assert ly[25] == pytest.approx(-1.8898815748423097, abs=1e-12)


def test_trace_separatrix_level_set_residual():
    for theta in (0.001, 0.5, 5.0):
        system = ArchSystem(theta)
        (lx, ly), (rx, ry) = trace_separatrix(
            theta, Window(-4.0, 4.0, -4.0, 4.0), resolution=100)
        for x, y in zip(lx + rx, ly + ry):
            assert abs(system.first_integral(Point2(x, y))) <= 1e-10


def test_trace_separatrix_clips_to_bottom_edge():
    w = Window(-4.0, 4.0, -4.0, 4.0)
    (lx, ly), (rx, ry) = trace_separatrix(5.0, w, resolution=50)
    cap = math.sqrt(2.0 * 4.0 ** 3 / (3.0 * 5.0))
    assert lx[0] == pytest.approx(-cap, abs=1e-12)
    assert ly[0] == pytest.approx(-4.0, abs=1e-12)
    assert rx[-1] == pytest.approx(cap, abs=1e-12)
    for x, y in zip(lx + rx, ly + ry):
        assert w.contains(x, y, pad=1e-9)


@pytest.mark.parametrize("theta", [1e-9, 1e-3, 0.5, 5.0, 1e9])
@pytest.mark.parametrize("exit_edge", ["side", "bottom"])
def test_trace_separatrix_vertices_are_the_separatrix_height(theta, exit_edge):
    # The curve meets x = 4 at edge_y; a bottom below that lets both branches
    # leave through the sides, one above it clips them at the bottom edge.
    system = ArchSystem(theta)
    edge_y = system.separatrix_height(4.0)
    window = Window(-3.0, 4.0, 2.0 * edge_y if exit_edge == "side" else 0.5 * edge_y, 1.0)
    (lx, ly), (rx, ry) = trace_separatrix(theta, window, resolution=64)
    if exit_edge == "side":
        assert (lx[0], rx[-1]) == (-3.0, 4.0)
    else:
        assert -3.0 < lx[0] and rx[-1] < 4.0
        assert ry[-1] == pytest.approx(window.y_min, rel=1e-12)
    for x, y in zip(lx + rx, ly + ry):
        # Bit for bit; the vertex at the origin is stored as +0.0.
        assert y.hex() == (system.separatrix_height(x) + 0.0).hex()


def test_trace_separatrix_reaches_the_bottom_edge_past_the_cube_range():
    # |y|**3 overflows at y = -1e100, yet the curve leaves through the bottom
    # edge at |x| = 1e100 * sqrt(2e100 / 3e-9).
    (lx, ly), (rx, ry) = trace_separatrix(1e-9, Window(-1e200, 1e200, -1e100, 1.0))
    assert rx[-1] == pytest.approx(2.581988897471611e154, rel=1e-12)
    assert lx[0] == -rx[-1]
    assert ly[0] == ry[-1] == pytest.approx(-1e100, rel=1e-12)


def test_trace_separatrix_height_past_the_square_range():
    # 1.5 * theta * x * x overflows at x = 1e200, the height (1.5)**(1/3) * 1e200**(2/3)
    # does not.
    (lx, ly), (rx, ry) = trace_separatrix(1.0, Window(-1e200, 1e200, -1e200, 1e200))
    assert (lx[0], rx[-1]) == (-1e200, 1e200)
    assert ly[0] == ry[-1] == pytest.approx(-2.4662120743304e133, rel=1e-12)
    for y in ly + ry:
        assert y <= 0.0 and math.isfinite(y)


def test_trace_separatrix_validation():
    with pytest.raises(ValueError):
        trace_separatrix(0.5, Window(1.0, 2.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        trace_separatrix(0.5, Window(-1.0, 1.0, -1.0, 1.0), resolution=0)
    with pytest.raises(TypeError, match=r"^resolution must be an integer, got 2.5$"):
        trace_separatrix(0.5, Window(-1.0, 1.0, -1.0, 1.0), 2.5)
    with pytest.raises(ValueError):
        trace_separatrix(-1.0, Window(-1.0, 1.0, -1.0, 1.0))
    # The curve sinks past the largest float before it leaves the window: on
    # both sides, and on the right only, where the branch ends at its outer vertex.
    big = sys.float_info.max
    for x_min in (-big, -1.0):
        with pytest.raises(ValueError, match=r"^separatrix height must be finite, got -inf$"):
            trace_separatrix(big, Window(x_min, big, -big, big))


def test_opening_angle_frozen_values():
    assert opening_angle(0.001) == pytest.approx(168.96365389897124, abs=1e-6)
    assert opening_angle(0.5) == pytest.approx(49.67978493002934, abs=1e-6)
    assert opening_angle(5.0) == pytest.approx(16.65618618135406, abs=1e-6)


@pytest.mark.parametrize(
    "theta, apex, tol",
    [
        (1e-9, 1e-6, 1e-6),
        (0.5, 1e-5, 1e-6),
        (1e3, 1e-8, 1e-6),
        (1e9, 1e-10, 1e-6),
        (1e-9, 1e-10, 1e-4),
    ],
)
def test_opening_angle_matches_closed_form_at_extreme_scales(theta, apex, tol):
    angle, exact = opening_angle(theta, apex=apex), closed_form_angle(theta, apex)
    assert angle == pytest.approx(exact, abs=tol)
    # at (1e9, 1e-10) the whole angle is 1.2e-8 degrees, below any useful abs bound
    assert angle == pytest.approx(exact, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("theta", [1e-9, 1e-3, 0.5, 5.0, 1e3, 1e9])
@pytest.mark.parametrize("apex", [0.5, 1.0, 2.0, 1e-50, 1e50])
@pytest.mark.parametrize("fraction", [1 - 1e-8, 1 - 1e-6])
def test_opening_angle_just_below_the_apex_is_the_closed_form(theta, apex, fraction):
    # So close to the apex the distance to the box edge rounds to 0 over a
    # stretch of the last step; a locator iterate that lands there must not
    # leave the exit at the bracket's far end.
    angle = opening_angle(theta, apex=apex, fraction=fraction)
    assert angle == pytest.approx(closed_form_angle(theta, apex, fraction), abs=1e-6)


def test_opening_angle_one_rounding_below_the_apex_is_the_closed_form():
    fraction = 1.0 - 2.0**-53  # the largest float below 1
    angle = opening_angle(0.5, 1.0, fraction)
    assert angle == pytest.approx(closed_form_angle(0.5, 1.0, fraction), abs=1e-6)


@pytest.mark.parametrize("theta", [1e-9, 0.5, 1e9])
@pytest.mark.parametrize("fraction", [1e-12, 1e-17, 1e-20, 1e-170, 1e-300, 5e-324])
def test_opening_angle_at_a_vanishing_fraction_is_zero(theta, fraction):
    # Near the base of the apex's level set the flanks turn vertical, and the
    # closed form reads 0 at every fraction here. Below about 1e-17 the exit
    # lands on y == 0, where the slope is taken as infinite, not divided by 0.
    assert opening_angle(theta, fraction=fraction) == closed_form_angle(theta, 1.0, fraction)
    assert opening_angle(theta, fraction=fraction) == 0.0
    assert classify_arch(theta, fraction=fraction).opening_angle_deg == 0.0


def test_opening_angle_raises_when_a_flank_has_no_box_exit(monkeypatch):
    # a flank that stops where it started, as a run whose first step
    # underflows does, must not be read as a slope of 0
    def stalled(system, start, config):
        return Trajectory((0.0,), (start.x,), (start.y,), "step_underflow")

    monkeypatch.setattr("archflow.analysis.integrate", stalled)
    with pytest.raises(ValueError, match="forward flank stopped by step_underflow"):
        opening_angle(1.0, apex=1e100)


@pytest.mark.parametrize("theta", [1.0, 0.5, 1e-9])
def test_opening_angle_at_a_huge_apex_is_the_closed_form(theta):
    # The step floor follows the run's own time scale, about 1e-50 here, so
    # both flanks reach the line; theta/apex near 1e-100 makes the ridge flat.
    fraction, apex = 0.5, 1e100
    closed = closed_form_angle(theta, apex, fraction)
    assert opening_angle(theta, apex=apex, fraction=fraction) == pytest.approx(closed, abs=1e-9)


def test_opening_angle_flanks_are_exact_mirrors():
    # (x, t) -> (-x, -t) maps the field onto itself, so the backward flank
    # must replay the forward one bit for bit with x and t negated
    rng = random.Random(7)
    big = sys.float_info.max
    for _ in range(200):
        theta = 10.0 ** rng.uniform(-9.0, 9.0)
        apex = 10.0 ** rng.uniform(-10.0, 5.0)
        fraction = rng.uniform(0.05, 0.95)
        forward, backward = [
            integrate(
                ArchSystem(theta),
                Point2(0.0, apex),
                IntegratorConfig(
                    rel_tol=1e-12,
                    abs_tol=1e-12 * apex,
                    direction=direction,
                    stop_box=Window(-big, big, fraction * apex, big),
                ),
            )
            for direction in ("forward", "backward")
        ]
        assert forward.stop_reason == backward.stop_reason == "box_exit"
        assert len(backward) == len(forward)
        assert backward.samples == tuple((-t, Point2(-p.x, p.y)) for t, p in forward.samples)


def _two_flank_angle(theta, apex, fraction):
    # The paper's construction: both flanks integrated, 180 - a_fwd - a_bwd.
    big = sys.float_info.max
    angles = []
    for direction in ("forward", "backward"):
        traj = integrate(
            ArchSystem(theta),
            Point2(0.0, apex),
            IntegratorConfig(
                rel_tol=1e-12,
                abs_tol=1e-12 * apex,
                direction=direction,
                stop_box=Window(-big, big, fraction * apex, big),
            ),
        )
        assert traj.stop_reason == "box_exit"
        exit_point = traj.samples[-1][1]
        x, y = exit_point.x, exit_point.y
        slope = theta * abs(x) / (y * y) if y * y else math.inf
        angles.append(math.degrees(math.atan(slope)))
    return 180.0 - angles[0] - angles[1]


def test_opening_angle_is_the_two_flank_angle_bit_for_bit():
    rng = random.Random(34)
    cases = [
        (10.0 ** rng.uniform(-9.0, 9.0), 10.0 ** rng.uniform(-10.0, 5.0), rng.uniform(0.01, 0.99))
        for _ in range(100)
    ]
    cases += [(0.5, 1.0, 1e-20), (1e-9, 1.0, 1e-20), (0.5, 1e100, 0.5), (1e-9, 1e100, 0.5)]
    for theta, apex, fraction in cases:
        assert repr(opening_angle(theta, apex, fraction)) == repr(
            _two_flank_angle(theta, apex, fraction)
        ), (theta, apex, fraction)


def test_opening_angle_validation():
    with pytest.raises(ValueError):
        opening_angle(0.0)
    with pytest.raises(ValueError):
        opening_angle(0.5, apex=-1.0)
    with pytest.raises(ValueError):
        opening_angle(0.5, fraction=1.0)
    with pytest.raises(ValueError):
        opening_angle(0.5, fraction=0.0)
    # apex**3 overflows to inf or underflows below the smallest normal float
    for apex in (1e200, 1e-200):
        with pytest.raises(ValueError, match="apex"):
            opening_angle(1.0, apex=apex)


def test_classify_arch_thresholds():
    assert classify_arch(0.001).category == "plain"
    assert classify_arch(0.5).category == "tented"
    assert classify_arch(5.0).category == "strong"
    # boundary values belong to the upper class
    assert classify_arch(0.1).category == "tented"
    assert classify_arch(2.0).category == "strong"
    # apex and fraction are keyword-only, so no positional call can mean something else
    with pytest.raises(TypeError):
        classify_arch(0.5, 1.0)


def test_classify_arch_carries_angle():
    result = classify_arch(0.5)
    assert result.opening_angle_deg == pytest.approx(49.68, abs=0.01)
