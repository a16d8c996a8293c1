import math
import random
import sys
from fractions import Fraction

import pytest

from archflow import (
    ArchSystem,
    CrossingNotFound,
    IntegratorConfig,
    Point2,
    Trajectory,
    Window,
    crossing,
    integrate,
)
from archflow.integrate import FIRST_STEP
from orbit_time import apex_escape_time, escape_time, orbit_time

BOX = Window(-4.0, 4.0, -4.0, 4.0)


def _overriding(func):
    """An ArchSystem whose ``field_at`` is ``func(x, y)``; integrate calls it per stage."""

    class Field(ArchSystem):
        def field_at(self, x, y):
            return func(x, y)

    return Field(1.0)


def test_a_config_without_stop_conditions_still_ends():
    # Forward from (0, 1) the orbit escapes in finite time; the cusp's zero
    # field grows the step until it is cut at the largest float.
    config = IntegratorConfig()
    escape = integrate(ArchSystem(0.5), Point2(0.0, 1.0), config)
    assert (escape.stop_reason, len(escape)) == ("step_underflow", 5005)
    cusp = integrate(ArchSystem(0.5), Point2(0.0, 0.0), config)
    assert (cusp.stop_reason, len(cusp)) == ("time_horizon", 446)
    assert cusp.final_time == sys.float_info.max


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1e-10, stop_time=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0, stop_time=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(direction="sideways", stop_time=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(stop_time=-2.0)


def test_trajectory_validation():
    p = Point2(0.0, 0.0)
    with pytest.raises(ValueError):
        Trajectory((), "time_horizon")
    with pytest.raises(ValueError):
        Trajectory(((0.0, p),), "because")
    with pytest.raises(ValueError):
        Trajectory(((0.0, p), (0.0, p)), "time_horizon")
    with pytest.raises(ValueError):
        Trajectory(((0.0, p), (1.0, p), (0.5, p)), "time_horizon")
    backward = Trajectory(((0.0, p), (-1.0, p)), "time_horizon")
    assert backward.times == (0.0, -1.0)


def _final_point_run(reason, direction, rng):
    """A seeded run of the arch field at theta 0.5 that stops for ``reason``."""
    start = Point2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    if reason == "box_exit":
        cfg = IntegratorConfig(stop_box=BOX, direction=direction)
    elif reason == "time_horizon":
        cfg = IntegratorConfig(stop_time=rng.uniform(0.05, 0.3), direction=direction)
    elif reason == "max_steps":
        cfg = IntegratorConfig(stop_box=BOX, max_steps=rng.randint(1, 5), direction=direction)
    elif reason == "step_underflow":  # the finite-time escape from the apex
        start = Point2(0.0, rng.uniform(0.5, 1.5))
        cfg = IntegratorConfig(stop_time=1e3, direction=direction)
    else:  # a start outside the box: one sample, stopped at once
        start = Point2(rng.choice((-1.0, 1.0)) * rng.uniform(4.5, 6.0), rng.uniform(-2.0, 2.0))
        cfg = IntegratorConfig(stop_box=BOX, direction=direction)
        reason = "box_exit"
    run = integrate(ArchSystem(0.5), start, cfg)
    assert run.stop_reason == reason
    return run


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize(
    "reason", ["box_exit", "time_horizon", "max_steps", "step_underflow", "outside"]
)
def test_final_point_is_the_last_sample_without_building_samples(reason, direction):
    rng = random.Random(f"final-point-{reason}-{direction}")
    for _ in range(5):
        run = _final_point_run(reason, direction, rng)
        assert (len(run) == 1) == (reason == "outside")
        end = run.final_point
        last = run.samples[-1][1]
        assert (end.x.hex(), end.y.hex()) == (last.x.hex(), last.y.hex())


def _one_step(start, h):
    cfg = IntegratorConfig(stop_time=abs(h), direction="forward" if h > 0 else "backward")
    t = integrate(ArchSystem(0.5), start, cfg)
    assert (t.stop_reason, t.times) == ("time_horizon", (0.0, h))
    return t.final_point


def test_backward_step_reverses_a_forward_step():
    forward = _one_step(Point2(0.0, 1.0), 0.01)
    back = _one_step(forward, -0.01)
    assert back.x == pytest.approx(0.0, abs=1e-12)
    assert back.y == pytest.approx(1.0, abs=1e-12)


def test_first_accepted_step_obeys_the_controller():
    # The first accepted step of a run: at most the first step tried, a next
    # step within the controller's [0.2, 5] clamp, and H kept.
    cfg = IntegratorConfig(max_steps=2, stop_time=1.0)
    (_, _), (t1, p1), (t2, _) = integrate(ArchSystem(5.0), Point2(0.0, 1.0), cfg).samples
    assert 0.0 < t1 <= FIRST_STEP
    assert 0.2 * t1 <= t2 - t1 <= 5.0 * t1
    drift = abs(ArchSystem(5.0).first_integral(p1) - 1.0 / 3.0)
    assert drift <= 1e-9


def test_every_run_tries_the_first_step_first():
    # The first step is a constant of the module, not a setting: a run that
    # accepts it lands its first sample on +-FIRST_STEP in either direction.
    for direction, sign in (("forward", 1.0), ("backward", -1.0)):
        cfg = IntegratorConfig(max_steps=1, stop_time=1.0, direction=direction)
        assert integrate(ArchSystem(0.5), Point2(0.0, 1.0), cfg).times == (0.0, sign * FIRST_STEP)


def test_a_positional_config_starts_at_rel_tol():
    config = IntegratorConfig(1e-8, 1e-9, 50, "backward", BOX, 3.0)
    assert (config.rel_tol, config.abs_tol, config.max_steps) == (1e-8, 1e-9, 50)
    assert (config.direction, config.stop_box, config.stop_time) == ("backward", BOX, 3.0)
    with pytest.raises(TypeError, match="takes from 1 to 7 positional arguments but 8 were given"):
        IntegratorConfig(0.01, 1e-8, 1e-9, 50, "backward", BOX, 3.0)


def test_config_messages_name_the_bad_tolerance():
    with pytest.raises(ValueError, match="rel_tol must be finite and > 0, got 0.0"):
        IntegratorConfig(rel_tol=0.0, stop_time=1.0)


def test_time_horizon_lands_exactly():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_time=1.0))
    assert t.stop_reason == "time_horizon"
    assert t.final_time == 1.0
    assert t.times[0] == 0.0
    assert all(b > a for a, b in zip(t.times, t.times[1:]))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_seeded_horizons_from_1e_minus_15_to_1e3_end_exactly_on_them(direction):
    # (x, y, t) -> (s^3 x, s^2 y, t/s) maps runs to runs, so each start is
    # scaled to escape long after its horizon; the step that would pass the
    # horizon is cut to end on it, however short the horizon is.
    rng = random.Random(27)
    sign = 1.0 if direction == "forward" else -1.0
    for _ in range(40):
        theta, stop_time = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-15.0, 3.0)
        s = 0.1 / (stop_time * math.sqrt(theta))
        start = Point2(s**3 * rng.uniform(-1.0, 1.0), s**2 * rng.uniform(-1.0, 1.0))
        run = integrate(ArchSystem(theta), start, IntegratorConfig(
            abs_tol=1e-10 * min(s**2, s**3), direction=direction, stop_time=stop_time))
        assert run.stop_reason == "time_horizon", (theta, stop_time, start)
        assert run.final_time == sign * stop_time and len(run) >= 2


def test_a_run_from_apex_1e100_ends_exactly_on_half_its_escape_time():
    # The whole run lasts about 3.6e-50, far below any absolute time tolerance.
    theta, apex = 0.5, 1e100
    half = apex_escape_time(theta, apex) / 2.0
    s = ArchSystem(theta)
    run = integrate(s, Point2(0.0, apex), IntegratorConfig(
        rel_tol=1e-12, abs_tol=1e-88, stop_time=half))
    assert run.stop_reason == "time_horizon" and run.final_time == half and len(run) > 100
    h0 = s.first_integral(Point2(0.0, apex))
    assert max(abs(s.first_integral(p) - h0) for p in run.points) <= 1e-10 * h0


def test_a_non_finite_start_field_raises_at_any_horizon():
    nan_at_start = _overriding(lambda x, y: (math.nan, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        integrate(nan_at_start, Point2(0.0, 1.0), IntegratorConfig(stop_time=1e-300))


def test_box_exit_lands_just_outside():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX))
    assert t.stop_reason == "box_exit"
    final = t.final_point
    assert not BOX.contains_point(final)
    assert BOX.contains_point(final, pad=1e-6)
    assert final.x >= 3.0
    for p in t.points[:-1]:
        assert BOX.contains_point(p)


def test_box_exit_at_start_is_single_sample():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(10.0, 0.0), IntegratorConfig(stop_box=BOX))
    assert t.stop_reason == "box_exit"
    assert len(t) == 1


def test_a_box_exit_whose_time_rounds_onto_the_last_sample_ends_one_ulp_later():
    # Near its escape time the run from (0, 1) takes steps of about one ulp
    # of t. A box edge at the x of its second-to-last sample is crossed on
    # such a step, and t + s*h rounds back onto that sample's time, so the
    # exit is put one ulp later: the times stay strictly increasing.
    s, start = ArchSystem(0.5), Point2(0.0, 1.0)
    free = integrate(s, start, IntegratorConfig(stop_time=100.0))
    assert free.stop_reason == "step_underflow"
    j = len(free) - 2
    t_j, x_j = free.times[j], free.points[j].x
    assert free.times[j + 1] - t_j < 1e-15 * t_j
    box = Window(-1e300, x_j, -1e300, 1e300)
    run = integrate(s, start, IntegratorConfig(stop_time=100.0, stop_box=box))
    assert run.stop_reason == "box_exit"
    assert run.times[:-1] == free.times[:j + 1]
    assert run.final_time == math.nextafter(t_j, math.inf)
    assert run.final_point.x > x_j


def test_a_box_exit_located_past_the_float_range_raises():
    # The field moves y at unit speed and kicks x at 1e308 only where y >= 1.
    # Below that line every step's error is 0, so the steps grow fivefold, and
    # the step of 1.25 that crosses it ends at a finite x, about 5.7e307, with
    # a finite error. But the interpolant's quartic term weighs the kicked
    # stages by factors up to about 5.7, which overflow, so the located exit
    # is not finite, and the run names that instead of storing it.
    class Kick(ArchSystem):
        __slots__ = ()

        def field_at(self, x, y):
            return (1e308 if y >= 1.0 else 0.0), 1.0

    config = IntegratorConfig(rel_tol=0.1, stop_box=Window(-1.0, 1.0, -10.0, 10.0))
    with pytest.raises(ValueError, match="Point2 coordinates must be finite, got nan"):
        integrate(Kick(1.0), Point2(0.0, 0.0), config)


def test_max_steps_stop():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(max_steps=5, stop_time=1e6))
    assert t.stop_reason == "max_steps"
    assert len(t) == 6


ZERO_FIELD_RUNS = {
    # The zero field at the cusp gives every step an error of exactly 0, so
    # the step grows fivefold per step; at theta = 1e-9, y*y underflows to 0.
    "cusp_forward": (0.5, Point2(0.0, 0.0), IntegratorConfig(stop_box=Window(-1, 1, -1, 1))),
    "cusp_backward": (0.5, Point2(0.0, 0.0), IntegratorConfig(
        direction="backward", stop_box=Window(-1, 1, -1, 1))),
    "underflowing_field": (1e-9, Point2(0.0, 1e-300), IntegratorConfig(
        rel_tol=1e-12, abs_tol=1e-312, stop_box=Window(-1e300, 1e300, 5e-301, 1e300))),
}


@pytest.mark.parametrize("case", ZERO_FIELD_RUNS)
def test_a_run_on_a_zero_field_ends_on_the_largest_float(case):
    theta, start, config = ZERO_FIELD_RUNS[case]
    run = integrate(ArchSystem(theta), start, config)
    sign = -1.0 if config.direction == "backward" else 1.0
    assert run.stop_reason == "time_horizon"
    assert run.final_time == sign * sys.float_info.max and len(run) == 446
    assert all(map(math.isfinite, run.times))
    assert all(sign * (b - a) > 0.0 for a, b in zip(run.times, run.times[1:]))
    assert set(run.points) == {start}


def test_a_zero_field_run_cut_by_max_steps_keeps_growing_its_step():
    run = integrate(ArchSystem(0.5), Point2(0.0, 0.0), IntegratorConfig(
        max_steps=400, stop_box=Window(-1, 1, -1, 1)))
    assert run.stop_reason == "max_steps" and len(run) == 401
    assert repr(run.final_time) == "9.681479787123288e+276"
    assert set(run.points) == {Point2(0.0, 0.0)}


def test_backward_times_decrease():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(1.0, 1.0), IntegratorConfig(stop_time=1.0, direction="backward"))
    assert t.stop_reason == "time_horizon"
    assert t.final_time == -1.0
    assert all(b < a for a, b in zip(t.times, t.times[1:]))


def test_backward_retraces_forward():
    s = ArchSystem(0.5)
    start = Point2(-1.0, 0.5)
    fwd = integrate(s, start, IntegratorConfig(stop_time=2.0))
    back = integrate(s, fwd.final_point, IntegratorConfig(stop_time=2.0, direction="backward"))
    assert back.final_point.x == pytest.approx(start.x, abs=1e-9)
    assert back.final_point.y == pytest.approx(start.y, abs=1e-9)


def test_x_is_nondecreasing_forward():
    # dx/dt = y^2 >= 0, so x never falls as recorded time rises, both ways.
    s = ArchSystem(0.5)
    for direction in ("forward", "backward"):
        for start in (Point2(-2.0, -1.0), Point2(0.0, 1.0), Point2(-3.0, 2.0)):
            t = integrate(s, start, IntegratorConfig(stop_box=BOX, direction=direction))
            assert len(t) > 2
            in_time = sorted(t.samples, key=lambda sample: sample[0])
            for (_, a), (_, b) in zip(in_time, in_time[1:]):
                assert b.x >= a.x - 1e-12


def test_conservation_along_trajectory():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX))
    h0 = s.first_integral(t.points[0])
    drift = max(abs(s.first_integral(p) - h0) for p in t.points)
    assert drift <= 1e-8


@pytest.mark.parametrize("theta", [1e-9, 0.5, 1e9])
def test_run_from_a_huge_apex_steps_at_its_own_time_scale(theta):
    # From (0, 1e100) the flow moves on a time scale near 1e-50, far below the
    # unit-scale floor of 1e-12; the floor follows it, so the run reaches the
    # line y = apex/2 at the orbit graph's time.
    apex, big = 1e100, 1.7e308
    run = integrate(ArchSystem(theta), Point2(0.0, apex), IntegratorConfig(
        rel_tol=1e-12, abs_tol=1e-12 * apex, stop_box=Window(-big, big, 0.5 * apex, big)))
    assert run.stop_reason == "box_exit" and len(run) > 100
    end = run.final_point
    exact = orbit_time(theta, (0.0, apex), (end.x, end.y))
    assert run.final_time == pytest.approx(exact, rel=1e-12)


def test_step_underflow_on_discontinuity():
    jump = _overriding(lambda x, y: (1.0, 0.0) if x < 1.0 else (1e12, 0.0))
    t = integrate(jump, Point2(0.0, 0.0), IntegratorConfig(stop_time=10.0))
    assert t.stop_reason == "step_underflow"
    assert t.final_point.x == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_rk45_non_finite_field_at_start_raises(direction):
    nan_at_start = _overriding(lambda x, y: (math.nan, 1.0))
    start = Point2(0.25, -1.0)
    cfg = IntegratorConfig(stop_time=1.0, direction=direction)
    with pytest.raises(ValueError) as info:
        integrate(nan_at_start, start, cfg)
    assert str(info.value) == "field is non-finite at (0.25, -1.0)"


def test_rk45_rejects_steps_into_a_non_finite_field_until_underflow():
    # Every step that reaches x > 0.5 sees a NaN stage and is rejected, so no
    # non-finite value is ever accepted or handed on as the next first stage.
    nan_beyond = _overriding(lambda x, y: (1.0, math.nan if x > 0.5 else 0.0))
    t = integrate(nan_beyond, Point2(0.0, 0.0), IntegratorConfig(stop_time=1.0))
    assert t.stop_reason == "step_underflow"
    assert len(t) == 33
    assert all(math.isfinite(p.x) and math.isfinite(p.y) for p in t.points)
    assert t.final_point.x == pytest.approx(0.5, abs=1e-9)
    assert t.final_point.y == 0.0


def test_crossing_exact_sample_returned_as_is():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX))
    assert crossing(s, t, "vertical", 0.0) == Point2(0.0, 1.0)


def test_crossing_horizontal_matches_level_set():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX))
    p = crossing(s, t, "horizontal", 0.5)
    assert p.y == pytest.approx(0.5, abs=1e-9)
    assert p.x == pytest.approx(math.sqrt(7.0 / 6.0), abs=1e-8)

    s5 = ArchSystem(5.0)
    t5 = integrate(s5, Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX))
    p5 = crossing(s5, t5, "horizontal", 0.5)
    assert p5.x == pytest.approx(math.sqrt(7.0 / 60.0), abs=1e-8)


def test_crossing_vertical_matches_level_set():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX))
    p = crossing(s, t, "vertical", 1.0)
    assert p.x == pytest.approx(1.0, abs=1e-9)
    assert p.y == pytest.approx(0.25 ** (1.0 / 3.0), abs=1e-8)


def test_crossing_on_backward_trajectory():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(1.0, 0.5), IntegratorConfig(stop_time=3.0, direction="backward"))
    p = crossing(s, t, "vertical", 0.0)
    assert p.x == pytest.approx(0.0, abs=1e-9)
    # same level set as the forward run from (0,1): H = 1/3
    assert s.first_integral(Point2(1.0, 0.5)) == pytest.approx(s.first_integral(p), abs=1e-8)


def test_crossing_not_found():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX))
    with pytest.raises(CrossingNotFound):
        crossing(s, t, "horizontal", 5.0)
    with pytest.raises(ValueError):
        crossing(s, t, "diagonal", 0.0)
    # samples that bracket y = 0 although the flow from (0, 1) barely descends
    # in 0.1: the orbit through (0, 1) still meets the line, at x = sqrt(4/3)
    forged = Trajectory(((0.0, Point2(0.0, 1.0)), (0.1, Point2(0.0, -1.0))), "time_horizon")
    p = crossing(s, forged, "horizontal", 0.0)
    assert p.y == 0.0 and p.x == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-15)
    # a bracket above the apex of the orbit through its left sample
    forged = Trajectory(((0.0, Point2(0.0, 1.0)), (0.1, Point2(0.0, 3.0))), "time_horizon")
    with pytest.raises(CrossingNotFound, match="misses the horizontal line at 2.0"):
        crossing(s, forged, "horizontal", 2.0)


def test_crossing_returns_a_later_sample_lying_on_the_line():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX))
    _, p5 = t.samples[5]
    p = crossing(s, t, "vertical", p5.x)
    assert (p.x.hex(), p.y.hex()) == (p5.x.hex(), p5.y.hex())


def test_crossing_from_the_separatrix_stops_short_of_the_cusp():
    # At theta = 2/3, H(-1, -1) is exactly 0: the orbit through (-1, -1) is the
    # separatrix branch that only tends to the cusp, so it meets no line at or
    # past it, whatever forged samples bracket.
    s = ArchSystem(2.0 / 3.0)
    assert s.first_integral(Point2(-1.0, -1.0)) == 0.0
    level = Trajectory(((0.0, Point2(-1.0, -1.0)), (1.0, Point2(1.0, -1.0))), "time_horizon")
    with pytest.raises(CrossingNotFound, match="misses the vertical line at 0.5"):
        crossing(s, level, "vertical", 0.5)
    with pytest.raises(CrossingNotFound, match="misses the vertical line at 0.0"):
        crossing(s, level, "vertical", 0.0)
    rising = Trajectory(((0.0, Point2(-1.0, -1.0)), (1.0, Point2(1.0, 1.0))), "time_horizon")
    with pytest.raises(CrossingNotFound, match="misses the horizontal line at 0.0"):
        crossing(s, rising, "horizontal", 0.0)
    # a line between the left sample and the cusp is still met
    p = crossing(s, level, "vertical", -0.5)
    assert p.x == -0.5 and p.y == pytest.approx(-(0.25 ** (1.0 / 3.0)), rel=1e-15)
    p = crossing(s, rising, "horizontal", -0.5)
    assert p.y == -0.5 and p.x == pytest.approx(-math.sqrt(0.125), rel=1e-15)


def test_crossing_tests_for_the_separatrix_at_the_left_sample_s_own_scale():
    # At theta = 1, H(-1e-200, 1e-110) is about 3e-331 > 0: the orbit passes just
    # above the cusp and meets x = 1 where H = 1/2 + y^3/3 = 0. At the joint scale
    # of the sample and the line, H(p0) underflows to 0 and would read as the
    # separatrix, which never gets past the cusp.
    s = ArchSystem(1.0)
    forged = Trajectory(((0.0, Point2(-1e-200, 1e-110)), (1.0, Point2(2.0, -1.0))), "time_horizon")
    p = crossing(s, forged, "vertical", 1.0)
    assert (p.x, p.y) == (1.0, -1.1447142425533319)
    assert p.y == -(1.5 ** (1.0 / 3.0))


@pytest.mark.parametrize("theta", [1e-300, 1.0, 1e300])
def test_crossing_keeps_its_level_set_at_an_extreme_theta(theta):
    # H(p0) is about 1e-57 here, inside the band where it is taken unscaled;
    # 2H/theta would underflow at theta = 1e300, so the root is split.
    y0 = 2.0**-63
    x0 = -math.sqrt(2.0 * y0**3 / 3.0) / math.sqrt(theta)
    bracket = Trajectory(((0.0, Point2(x0, y0)), (1.0, Point2(-x0, 0.5 * y0))), "time_horizon")
    p = crossing(ArchSystem(theta), bracket, "horizontal", 0.75 * y0)

    def level(q):
        return Fraction(theta) * Fraction(q.x) ** 2 / 2 + Fraction(q.y) ** 3 / 3

    assert p.y == 0.75 * y0 and p.x > 0.0
    assert abs(level(p) - level(Point2(x0, y0))) <= Fraction(1e-15) * level(Point2(x0, y0))


def _inline_and_called_runs(seed, count):
    """Per seeded case: theta, start, config, the ArchSystem run, the run of the same
    field through a subclass's override, and that run's field call count."""
    rng = random.Random(seed)
    for _ in range(count):
        theta = 10.0 ** rng.uniform(-3.0, 2.0)
        start = Point2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        cfg = IntegratorConfig(
            rel_tol=rng.choice((1e-8, 1e-10, 1e-12)),
            abs_tol=rng.choice((1e-8, 1e-10, 1e-12)),
            direction=rng.choice(("forward", "backward")),
            stop_box=rng.choice((BOX, Window(-1.0, 3.0, -2.0, 1.5))),
            stop_time=rng.uniform(0.05, 3.0),
        )
        calls = 0

        class Called(ArchSystem):
            def field_at(self, x, y):
                nonlocal calls
                calls += 1
                return y * y, -self.theta * x

        called = integrate(Called(theta), start, cfg)
        yield theta, start, cfg, integrate(ArchSystem(theta), start, cfg), called, calls


def test_inline_arch_stages_match_the_called_field_bit_for_bit():
    reasons = set()
    for *_, inline, called, _ in _inline_and_called_runs(20, 120):
        assert inline.stop_reason == called.stop_reason
        assert repr(inline.samples) == repr(called.samples)
        reasons.add(inline.stop_reason)
    assert {"box_exit", "time_horizon"} <= reasons


def test_an_overridden_or_patched_arch_field_is_called_as_often_as_the_generic_one(monkeypatch):
    counted = []

    class Overridden(ArchSystem):
        def field_at(self, x, y):
            counted.append(None)
            return super().field_at(x, y)

    original = ArchSystem.field_at

    def patched(self, x, y):
        counted.append(None)
        return original(self, x, y)

    for theta, start, cfg, inline, _, calls in _inline_and_called_runs(21, 20):
        counted.clear()
        run = integrate(Overridden(theta), start, cfg)
        assert len(counted) == calls
        assert repr(run.samples) == repr(inline.samples)
        with monkeypatch.context() as patch:
            patch.setattr(ArchSystem, "field_at", patched)
            counted.clear()
            run = integrate(ArchSystem(theta), start, cfg)
        assert len(counted) == calls
        assert repr(run.samples) == repr(inline.samples)


def test_seeded_random_conservation_short_runs():
    rng = random.Random(7)
    s = ArchSystem(1.3)
    for _ in range(10):
        start = Point2(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        t = integrate(s, start, IntegratorConfig(stop_time=0.5))
        h0 = s.first_integral(start)
        assert max(abs(s.first_integral(p) - h0) for p in t.points) <= 1e-9


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
def test_box_exits_lie_on_the_exact_orbit(rel_tol):
    # Every orbit is the graph y = cbrt(3*H0 - 1.5*theta*x^2), so a box exit
    # has an exact location: y from the graph on a vertical edge, and
    # x = +-sqrt(2*(H0 - c^3/3)/theta) on the edge y = c. The integrator keeps
    # H to about rel_tol of the scale |theta*x^2/2| + |y^3/3|; the graph turns
    # that into an error in y of dH/y^2 and in x of dH/(theta*|x|), which the
    # tolerance follows so that exits where y or x nears 0 are judged fairly.
    rng = random.Random(4)
    span = BOX.x_max - BOX.x_min
    for _ in range(200):
        theta = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        start = Point2(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        system = ArchSystem(theta)
        h0 = system.first_integral(start)
        for direction in ("forward", "backward"):
            cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol, stop_box=BOX,
                                   direction=direction)
            traj = integrate(system, start, cfg)
            assert traj.stop_reason == "box_exit"
            p = traj.final_point
            beyond = {
                "left": BOX.x_min - p.x, "right": p.x - BOX.x_max,
                "bottom": BOX.y_min - p.y, "top": p.y - BOX.y_max,
            }
            edge = max(beyond, key=beyond.get)
            assert 0.0 < beyond[edge] <= 1e-12 * span
            # x never falls as time runs forward, so no run leaves behind itself.
            assert edge != ("left" if direction == "forward" else "right")
            scale = abs(0.5 * theta * p.x * p.x) + abs(p.y**3 / 3.0)
            if edge in ("left", "right"):
                level = 3.0 * h0 - 1.5 * theta * p.x * p.x
                y = math.copysign(abs(level) ** (1.0 / 3.0), level)
                assert abs(p.y - y) <= 10.0 * rel_tol * scale / (y * y)
            else:
                x = math.copysign(math.sqrt(2.0 * (h0 - p.y**3 / 3.0) / theta), p.x)
                assert abs(p.x - x) <= 10.0 * rel_tol * scale / (theta * abs(x))


@pytest.mark.parametrize("theta", [10.0**k for k in range(-9, 10)])
def test_forward_run_ends_at_the_closed_form_escape_time(theta):
    # The orbit through (0, 1) reaches infinity at the closed-form time T*. No
    # box and a horizon of 10*T* leave only the escape to end the run; only its
    # time is pinned here.
    escape = apex_escape_time(theta, 1.0)
    config = IntegratorConfig(stop_time=10.0 * escape)
    traj = integrate(ArchSystem(theta), Point2(0.0, 1.0), config)
    assert abs(traj.final_time - escape) <= 1e-9 * escape


def _seeded_starts(seed, count):
    """(theta, start): theta log-uniform in 1e-3..1e3, starts in [-3, 3]^2."""
    rng = random.Random(seed)
    return [
        (math.exp(rng.uniform(math.log(1e-3), math.log(1e3))),
         (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)))
        for _ in range(count)
    ]


RUN_TIME_CASES = [
    pytest.param([(theta, start, direction) for theta, start in _seeded_starts(18, 100)
                  for direction in ("forward", "backward")], id="seeded"),
] + [
    pytest.param([(theta, (0.5, 1.0), direction)], id=f"{direction}-{theta}")
    for direction in ("forward", "backward") for theta in (0.001, 0.5, 5.0)
]


@pytest.mark.parametrize("runs", RUN_TIME_CASES)
def test_run_times_match_the_orbit_graph(runs):
    # A box exit, and the end of a time_horizon run to half the exit time, each
    # lie at the time the orbit graph gives for the way from the start to them.
    # With the exit just outside the box and on the start's level of H, that
    # pins the exit point too.
    for theta, start, direction in runs:
        system = ArchSystem(theta)
        config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, stop_box=BOX,
                                  direction=direction)
        exit_run = integrate(system, Point2(*start), config)
        assert exit_run.stop_reason == "box_exit"
        end = exit_run.final_point
        assert BOX.contains_point(end, pad=1e-12 * BOX.width) and not BOX.contains_point(end)
        scale = abs(0.5 * theta * end.x * end.x) + abs(end.y**3 / 3.0)
        h0 = system.first_integral(Point2(*start))
        assert abs(system.first_integral(end) - h0) <= 1e-10 * scale
        half = config._replace(stop_box=None, stop_time=abs(exit_run.final_time) / 2.0)
        half_run = integrate(system, Point2(*start), half)
        assert half_run.stop_reason == "time_horizon"
        for t, p in (exit_run.samples[-1], half_run.samples[-1]):
            assert abs(abs(t) - orbit_time(theta, start, (p.x, p.y))) <= 1e-10 * abs(t)


def test_escapes_from_seeded_starts_match_the_orbit_graph():
    # Every forward run reaches x = +inf in finite time, from any start.
    for theta, start in _seeded_starts(19, 20):
        escape = escape_time(theta, start)
        config = IntegratorConfig(stop_time=10.0 * escape)
        traj = integrate(ArchSystem(theta), Point2(*start), config)
        assert abs(traj.final_time - escape) <= 1e-9 * escape


def test_runs_agree_with_their_scaled_images_at_theta_one():
    # The field is quasi-homogeneous: x = a*X, y = b*Y, t = c*T with
    # a = sqrt(b^3/theta) and c = 1/sqrt(theta*b) map the flow at theta onto
    # theta = 1. With b = 1, a = c = theta^(-1/2); start, box and horizon map
    # through those scales, and abs_tol through the smaller of a and b.
    rng = random.Random(12)
    reference = ArchSystem(1.0)
    for _ in range(200):
        theta = math.exp(rng.uniform(math.log(1e-9), math.log(1e9)))
        a = c = theta**-0.5
        start = Point2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        direction = rng.choice(("forward", "backward"))
        horizon = rng.uniform(0.5, 5.0)
        image = integrate(reference, start, IntegratorConfig(
            abs_tol=1e-10, direction=direction,
            stop_box=BOX, stop_time=horizon,
        ))
        run = integrate(ArchSystem(theta), Point2(a * start.x, start.y), IntegratorConfig(
            abs_tol=1e-10 * min(a, 1.0), direction=direction,
            stop_box=Window(a * BOX.x_min, a * BOX.x_max, BOX.y_min, BOX.y_max),
            stop_time=horizon * c,
        ))
        assert run.stop_reason == image.stop_reason
        end, image_end = run.final_point, image.final_point
        assert abs(end.x / a - image_end.x) <= 1e-8 * BOX.x_max
        assert abs(end.y - image_end.y) <= 1e-8 * BOX.y_max
        assert abs(run.final_time / c - image.final_time) <= 1e-8 * abs(image.final_time)


def test_relative_h_drift_stays_small_from_theta_1e_minus_9_to_1e9():
    # The same scales as above, at the default tolerances: every sample keeps
    # H to 1e-8 of the size of its two terms.
    rng = random.Random(13)
    for _ in range(200):
        theta = math.exp(rng.uniform(math.log(1e-9), math.log(1e9)))
        a = theta**-0.5
        system = ArchSystem(theta)
        start = Point2(rng.uniform(-3.0, 3.0) * a, rng.uniform(-3.0, 3.0))
        h0 = system.first_integral(start)
        for direction in ("forward", "backward"):
            run = integrate(system, start, IntegratorConfig(
                abs_tol=1e-10 * min(a, 1.0), direction=direction,
                stop_box=Window(-4.0 * a, 4.0 * a, -4.0, 4.0),
            ))
            assert run.stop_reason == "box_exit"
            for p in run.points:
                scale = abs(theta * p.x * p.x / 2.0) + abs(p.y**3 / 3.0)
                assert abs(system.first_integral(p) - h0) <= 1e-8 * scale


LEVEL_SET_CASES = [
    pytest.param((0.0, 1.0), theta, direction, value, id=f"{value}-{direction}-{theta}")
    for value in (0.5, -1.0) for direction in ("forward", "backward") for theta in (0.5, 5.0, 1e3)
] + [
    pytest.param((0.5, 1.0), theta, direction, value,
                 id=f"off-axis-{value}-{direction}-{theta}")
    for value in (0.5, 0.0) for direction in ("forward", "backward") for theta in (0.5, 5.0)
]


@pytest.mark.parametrize("start, theta, direction, value", LEVEL_SET_CASES)
def test_crossing_lies_on_the_level_set(start, theta, direction, value):
    s = ArchSystem(theta)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, stop_box=BOX, direction=direction)
    p = crossing(s, integrate(s, Point2(*start), cfg), "horizontal", value)
    h0 = s.first_integral(Point2(*start))
    x_level = math.sqrt(2.0 * (h0 - value**3 / 3.0) / theta)
    assert p.y == pytest.approx(value, abs=1e-9)
    assert p.x == pytest.approx(x_level if direction == "forward" else -x_level, abs=1e-9)


def test_crossing_beyond_a_bracket_that_runs_ahead_of_the_flow():
    # Each sample sits 2e-4 ahead in x of where the flow from the one before
    # it is 0.5 later, as a coarse fixed-step run's samples can, so the line
    # just short of sample 8 is bracketed by samples 7 and 8 while the flow
    # from sample 7 only reaches it after the bracket's duration.
    s = ArchSystem(0.5)
    cfg = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-13, stop_time=0.5)
    samples = [(0.0, Point2(0.0, 1.0))]
    for i in range(1, 9):
        p = integrate(s, samples[-1][1], cfg).final_point
        samples.append((0.5 * i, Point2(p.x + 2e-4, p.y)))
    traj = Trajectory(samples, "time_horizon")
    value = traj.samples[8][1].x - 5e-5
    assert integrate(s, traj.samples[7][1], cfg).final_point.x < value
    p = crossing(s, traj, "vertical", value)
    assert p.x == pytest.approx(value, abs=1e-9)
    h0 = s.first_integral(traj.samples[7][1])
    y_level = -((3.0 * (0.25 * value**2 - h0)) ** (1.0 / 3.0))
    assert p.y == pytest.approx(y_level, abs=1e-9)


@pytest.mark.parametrize("apex", [1e-4, 1e-6, 1e-8])
def test_crossing_accuracy_scales_with_the_coordinates(apex):
    # At the default absolute tolerance these trajectories are coarse; the
    # crossing must still sit on the level set through the bracket's left
    # sample to a relative 1e-12, however small the coordinates are.
    s = ArchSystem(1.0)
    box = Window(-10 * apex, 10 * apex, -10 * apex, 10 * apex)
    traj = integrate(s, Point2(0.0, apex), IntegratorConfig(stop_box=box))
    value = 0.5 * apex
    p = crossing(s, traj, "horizontal", value)
    left = next(p0 for (_, p0), (_, p1) in zip(traj.samples, traj.samples[1:])
                if (p0.y > value) != (p1.y > value))
    x_level = math.sqrt(2.0 * (s.first_integral(left) - value**3 / 3.0))
    assert p.y == pytest.approx(value, rel=1e-12, abs=0.0)
    assert p.x == pytest.approx(x_level, rel=1e-12, abs=0.0)


def _scaled_h(theta, p, k):
    """H(p)/2^(6k), from p at the scale (x/2^(3k), y/2^(2k)), and its terms' size."""
    x, y = math.ldexp(p.x, -3 * k), math.ldexp(p.y, -2 * k)
    return theta * x * x / 2.0 + y**3 / 3.0, theta * x * x / 2.0 + abs(y) ** 3 / 3.0


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("apex", [1e-150, 1e-60, 1.0, 1e60, 1e150])
@pytest.mark.parametrize("theta", [1e-9, 1.0, 1e9])
def test_crossings_at_extreme_scales_lie_on_the_left_samples_level_set(theta, apex, direction):
    # Two runs on the orbit with apex (0, apex): one from y = -apex on the side
    # where the flow rises, crossing every line below, and one from the apex,
    # where it falls. Unscaled, H overflows beyond apex ~1e102 and loses its
    # bits below ~1e-102.
    s, sign = ArchSystem(theta), 1.0 if direction == "forward" else -1.0
    reach = math.sqrt(4.0 / (3.0 * theta)) * apex**1.5  # |x| at y = -apex
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12 * min(reach, apex), direction=direction,
                           stop_box=Window(-2.0 * reach, 2.0 * reach, -2.0 * apex, 2.0 * apex))
    rising = integrate(s, Point2(-sign * reach, -apex), cfg)
    falling = integrate(s, Point2(0.0, apex), cfg)
    k = math.frexp(math.sqrt(apex))[1]
    lines = [(rising, "horizontal", v * apex, -sign) for v in (-0.5, 0.5)]
    lines += [(falling, "horizontal", v * apex, sign) for v in (-0.5, 0.5)]
    lines += [(rising, "vertical", v * reach, 0.0) for v in (-0.5, 0.0, 0.5)]
    for run, axis, value, side in lines:
        p = crossing(s, run, axis, value)
        coord = (lambda q: q.y) if axis == "horizontal" else (lambda q: q.x)
        left = next(p0 for (_, p0), (_, p1) in zip(run.samples, run.samples[1:])
                    if (coord(p0) > value) != (coord(p1) > value))
        h, size = _scaled_h(theta, p, k)
        h0, size0 = _scaled_h(theta, left, k)
        assert coord(p) == value
        assert abs(h - h0) <= 1e-12 * size0, (axis, value)
        assert side * p.x >= 0.0, (axis, value)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("rising", [True, False])
def test_crossing_from_a_left_sample_within_rounding_of_the_line(direction, rising):
    # The left sample lies one ulp from the line, at the crossing, so comparing
    # its x with the two roots could not tell which one comes next; the
    # bracket's direction in y and in time does.
    s, value, dt = ArchSystem(1.0), 0.5, 0.1 if direction == "forward" else -0.1
    y0 = math.nextafter(value, -math.inf if rising else math.inf)
    x0 = math.sqrt(2.0 / 3.0 * (1.0 - y0**3)) * (-1.0 if rising == (dt > 0) else 1.0)
    y1 = value + (0.01 if rising else -0.01)
    bracket = Trajectory(((0.0, Point2(x0, y0)), (dt, Point2(x0 + dt, y1))), "time_horizon")
    p = crossing(s, bracket, "horizontal", value)
    assert p.y == value and p.x == pytest.approx(x0, rel=1e-12)
    # a left sample one ulp from a vertical line, on the level set H = +-1/3
    x0 = math.nextafter(value, -math.inf if dt > 0 else math.inf)
    c = (1.0 if rising else -1.0) - 1.5 * x0 * x0
    y0 = math.copysign(abs(c) ** (1 / 3), c)
    bracket = Trajectory(((0.0, Point2(x0, y0)), (dt, Point2(x0 + dt, y0))), "time_horizon")
    p = crossing(s, bracket, "vertical", value)
    assert p.x == value and p.y == pytest.approx(y0, rel=1e-12)
