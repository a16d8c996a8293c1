"""Trajectory integration by the adaptive Dormand-Prince 5(4) pair.

The integrator follows the standard embedded-pair recipe: the fifth order
solution propagates, the fourth order solution supplies the error estimate,
and the step size is rescaled by ``0.9 * (err / TARGET)**(-1/5)`` clamped to
[0.2, 5.0]. Steps are accepted whenever the scaled error is at most 1, but
the controller aims the estimate at TARGET = 0.05 of the tolerance scale:
conserved quantities of the flow are cubic in the state, so their gradient
amplifies per-step error roughly twentyfold near the frame edges, and the
tighter aim keeps first-integral drift within the package's conservation
promise at the default tolerances. The last stage of an accepted step is
the field at its new point, so it serves as the next step's first stage
(FSAL): six field evaluations per accepted step.

As in DOPRI5 (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4-II.5), the
step is written out in ``integrate``'s own loop: the stages, the retry of a
rejected step, the error norm and the step-size factor are locals there, and
the stages are gathered for the continuous extension only when a step
leaves the box. A backward run takes signed steps h < 0 through the same
loop, as DOPRI5 does; its times are negative, and the time horizon compares
|t| with ``stop_time``, which is the largest float when not given.

When ``field_at`` is ``ArchSystem``'s own, each stage evaluates it inline as
``(y*y, (-theta)*x)``, with the same bits as the method; a subclass's
override or a patched method is called once per stage.
Accepted samples go into three float lists, which become the
``Trajectory``'s ``times``, ``xs`` and ``ys``; no ``Point2`` is built per sample.

Events are located inside the one step where they fire, on that step's
continuous extension (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6), the
free fourth order dopri5 interpolant. A box exit is solved there by Illinois
iteration. A time horizon needs no search: the step that would pass it is
cut to end on it, as in DOPRI5. ``crossing`` integrates nothing, since the
first integral H gives the point where an orbit meets a line.
"""

from __future__ import annotations

import math
import operator
from typing import Literal

from .systems import (
    ArchSystem, Point2, Window, _Record, _level, _require_finite, _require_integer,
    _require_positive, _size,
)

STOP_REASONS = (
    "time_horizon",
    "box_exit",
    "max_steps",
    "step_underflow",
)

SAFETY = 0.9
GROW_MIN = 0.2
GROW_MAX = 5.0
FIRST_STEP = 0.01
MIN_STEP = 1e-12
TARGET = 0.05

_ARCH_FIELD_AT = ArchSystem.field_at  # as defined, before anything patches it


def _abs_tol(tol: float, scale: float) -> float:
    """``tol`` scaled down below size 1, so small runs keep unit-scale accuracy; 0 keeps it."""
    return tol * min(1.0, scale) or tol


class CrossingNotFound(LookupError):
    """Raised when a trajectory never brackets the requested line."""


class IntegratorConfig(_Record):
    """Integration settings; with no ``stop_time``, the horizon is the largest float."""

    __slots__ = ("rel_tol", "abs_tol", "max_steps", "direction", "stop_box", "stop_time")

    def __init__(
        self, rel_tol: float = 1e-10, abs_tol: float = 1e-10, max_steps: int = 200_000,
        direction: Literal["forward", "backward"] = "forward",
        stop_box: Window | None = None, stop_time: float | None = None,
    ) -> None:
        _require_positive("rel_tol", rel_tol)
        _require_positive("abs_tol", abs_tol)
        _require_integer("max_steps", max_steps)
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if direction not in ("forward", "backward"):
            raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
        if stop_time is not None:
            _require_positive("stop_time", stop_time)
        self._store(locals())


class Trajectory(_Record):
    """Recorded samples, one float per sample in each of ``times``, ``xs`` and
    ``ys``, with the reason integration stopped.

    ``samples`` and ``points`` build their ``Point2``s from the floats on each
    read; ``final_time``, ``final_point`` and ``len`` build none per sample.
    """

    __slots__ = ("times", "xs", "ys", "stop_reason")

    def __init__(
        self, times: tuple[float, ...], xs: tuple[float, ...], ys: tuple[float, ...],
        stop_reason: str,
    ) -> None:
        if stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop_reason {stop_reason!r}")
        times, xs, ys = tuple(times), tuple(xs), tuple(ys)
        if not times:
            raise ValueError("a trajectory needs at least one sample")
        if not len(times) == len(xs) == len(ys):
            raise ValueError(
                f"times, xs and ys must have equal lengths, got {len(times)}, {len(xs)}, {len(ys)}"
            )
        # Any inf or nan makes a float sum non-finite; a sum that overflows takes the slow path.
        if not math.isfinite(sum(times) + sum(xs) + sum(ys)):
            _require_finite("sample time", *times)
            _require_finite("sample coordinates", *xs, *ys)
        before = operator.lt if len(times) < 2 or times[1] > times[0] else operator.gt
        if not all(map(before, times, times[1:])):
            raise ValueError("sample times must be strictly monotone")
        self._store(locals())

    @property
    def samples(self) -> tuple[tuple[float, Point2], ...]:
        return tuple([(t, Point2(x, y)) for t, x, y in zip(self.times, self.xs, self.ys)])

    @property
    def points(self) -> tuple[Point2, ...]:
        return tuple([Point2(x, y) for x, y in zip(self.xs, self.ys)])

    @property
    def final_time(self) -> float:
        return self.times[-1]

    @property
    def final_point(self) -> Point2:
        return Point2(self.xs[-1], self.ys[-1])

    def __len__(self) -> int:
        return len(self.times)


# Dormand-Prince 5(4) tableau.
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# Difference between the 5th and 4th order weights, for the error estimate.
_E1 = 71.0 / 57600.0
_E3 = -71.0 / 16695.0
_E4 = 71.0 / 1920.0
_E5 = -17253.0 / 339200.0
_E6 = 22.0 / 525.0
_E7 = -1.0 / 40.0
# dopri5 continuous extension (``contd5``): weights of the quartic term that
# lifts the step's cubic Hermite interpolant to fourth order.
_D1 = -12715105075.0 / 11282082432.0
_D3 = 87487479700.0 / 32700410799.0
_D4 = -10690763975.0 / 1880347072.0
_D5 = 701980252875.0 / 199316789632.0
_D6 = -1453857185.0 / 822651844.0
_D7 = 69997945.0 / 29380423.0


def _locate_box_exit(
    box: Window,
    x: float,
    y: float,
    nx: float,
    ny: float,
    h: float,
    k: tuple[float, ...],
) -> tuple[float, float, float]:
    """Where a step from (x, y) inside the box to (nx, ny) outside leaves it.

    ``k`` holds the step's stages k1, k3, ..., k7 flattened to (k1x, k1y,
    k3x, ...); k2 has no weight in the interpolant. The step is replaced by
    its dopri5 continuous extension u(s) = u0 + s*(d + (1-s)*(a + s*(b +
    (1-s)*q))) on the step fraction s: the cubic Hermite through both end
    points with end slopes k1 and k7, plus the quartic term q. The event
    function, the distance to the nearest box edge (negative outside), is
    solved by Illinois: regula falsi that halves the end value kept twice in
    a row. An iterate that lands exactly on an edge, where the distance
    rounds to 0, becomes the inside end; regula falsi from an end value of 0
    returns that end, so the step after such a landing bisects instead. It
    stops once the bracket spans at most 1e-13 of the step, which is
    1e-13*|h| of time. Returns (s, x, y) at the bracket's outside end.
    """
    k1x, k1y, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y = k
    dx, dy = nx - x, ny - y
    ax, ay = h * k1x - dx, h * k1y - dy
    bx, by = dx - h * k7x - ax, dy - h * k7y - ay
    qx = h * (_D1 * k1x + _D3 * k3x + _D4 * k4x + _D5 * k5x + _D6 * k6x + _D7 * k7x)
    qy = h * (_D1 * k1y + _D3 * k3y + _D4 * k4y + _D5 * k5y + _D6 * k6y + _D7 * k7y)

    def inside(px: float, py: float) -> float:
        return min(px - box.x_min, box.x_max - px, py - box.y_min, box.y_max - py)

    lo, g_lo = 0.0, inside(x, y)
    hi, g_hi = 1.0, inside(nx, ny)
    kept = 0
    for _ in range(100):
        if hi - lo <= 1e-13:
            break
        # Step at least half the target width inside the bracket: once the
        # iterate sits on the root, the next one lands across it and closes
        # the bracket instead of creeping toward it from one side.
        s = lo - g_lo * (hi - lo) / (g_hi - g_lo) if g_lo or kept != -1 else 0.5 * (lo + hi)
        s = min(max(s, lo + 5e-14), hi - 5e-14)
        r = 1.0 - s
        px = x + s * (dx + r * (ax + s * (bx + r * qx)))
        py = y + s * (dy + r * (ay + s * (by + r * qy)))
        g = inside(px, py)
        if g >= 0.0:
            lo, g_lo = s, g
            if kept == -1:
                g_hi *= 0.5
            kept = -1
        else:
            hi, g_hi, nx, ny = s, g, px, py
            if kept == 1:
                g_lo *= 0.5
            kept = 1
    return hi, nx, ny


def integrate(system: ArchSystem, start: Point2, config: IntegratorConfig) -> Trajectory:
    """Integrate from ``start`` until a stop condition fires.

    Parameters
    ----------
    system : ArchSystem
        The field to flow along; a backward run steps with h < 0.
    start : Point2
        Initial state, recorded at time 0.
    config : IntegratorConfig
        Tolerances, direction and stop conditions; the first step is ``FIRST_STEP``.

    Returns
    -------
    Trajectory
        Samples with strictly monotone times (decreasing for backward runs)
        and the ``stop_reason`` of the first condition hit. Stop conditions
        already satisfied at ``start`` yield a single-sample trajectory. A
        box exit ends on the located exit point, just outside the box.

    Raises
    ------
    ValueError
        If the field at a ``start`` inside the stop box, or a located box exit, is not finite.
    """
    # The arch field's stages are computed inline, as (y*y, (-theta)*x), which
    # has the bits of ArchSystem.field_at. A subclass's override or a patched
    # method is called instead, and may count the calls.
    arch = type(system).field_at is _ARCH_FIELD_AT
    mth = -system.theta
    field_at = system.field_at
    sign = -1.0 if config.direction == "backward" else 1.0
    box = config.stop_box
    # No box is the whole plane; no horizon is the largest float, which ends
    # a run whose steps grow without bound (as on a zero field). sign*t is |t|.
    inf = math.inf
    horizon = math.nextafter(inf, 0.0) if config.stop_time is None else config.stop_time
    x_min, x_max, y_min, y_max = (
        (-inf, inf, -inf, inf) if box is None else (box.x_min, box.x_max, box.y_min, box.y_max)
    )
    rel_tol, abs_tol = config.rel_tol, config.abs_tol

    x, y = start.x, start.y
    ts, xs, ys = [0.0], [x], [y]
    t_append, x_append, y_append = ts.append, xs.append, ys.append

    if not (x_min <= x <= x_max and y_min <= y <= y_max):
        return Trajectory(ts, xs, ys, "box_exit")

    # A run from (x, y) moves on the time scale 1/(sqrt(theta)*sigma). Where
    # that scale is below 1 the step floor is MIN_STEP of it.
    root_theta = math.sqrt(system.theta)
    sigma = _size(system.theta, x, y)
    min_step = MIN_STEP / root_theta / sigma if root_theta * sigma > 1.0 else MIN_STEP

    t = 0.0
    h = sign * FIRST_STEP
    if arch:
        k1x, k1y = y * y, mth * x
    else:
        k1x, k1y = field_at(x, y)
    # Checked once: a later first stage is the last stage of an accepted step,
    # whose error estimate it feeds, so a non-finite one is always rejected.
    if not (math.isfinite(k1x) and math.isfinite(k1y)):
        raise ValueError(f"field is non-finite at ({x}, {y})")
    reason = "max_steps"

    for _ in range(config.max_steps):
        # A step that would pass the horizon is cut to end on it (the cut is
        # never 0: a run stops once |t| reaches the horizon).
        h_try = h
        h_last = sign * (horizon - sign * t)
        if abs(h_try) > abs(h_last):
            h_try = h_last
        # One DP5(4) step, retried with h times its factor until its error is at
        # most 1 or h falls below min_step. (sx, sy) is each stage's point.
        while True:
            sx = x + h_try * _A21 * k1x
            sy = y + h_try * _A21 * k1y
            if arch:
                k2x, k2y = sy * sy, mth * sx
            else:
                k2x, k2y = field_at(sx, sy)
            sx = x + h_try * (_A31 * k1x + _A32 * k2x)
            sy = y + h_try * (_A31 * k1y + _A32 * k2y)
            if arch:
                k3x, k3y = sy * sy, mth * sx
            else:
                k3x, k3y = field_at(sx, sy)
            sx = x + h_try * (_A41 * k1x + _A42 * k2x + _A43 * k3x)
            sy = y + h_try * (_A41 * k1y + _A42 * k2y + _A43 * k3y)
            if arch:
                k4x, k4y = sy * sy, mth * sx
            else:
                k4x, k4y = field_at(sx, sy)
            sx = x + h_try * (_A51 * k1x + _A52 * k2x + _A53 * k3x + _A54 * k4x)
            sy = y + h_try * (_A51 * k1y + _A52 * k2y + _A53 * k3y + _A54 * k4y)
            if arch:
                k5x, k5y = sy * sy, mth * sx
            else:
                k5x, k5y = field_at(sx, sy)
            sx = x + h_try * (_A61 * k1x + _A62 * k2x + _A63 * k3x + _A64 * k4x + _A65 * k5x)
            sy = y + h_try * (_A61 * k1y + _A62 * k2y + _A63 * k3y + _A64 * k4y + _A65 * k5y)
            if arch:
                k6x, k6y = sy * sy, mth * sx
            else:
                k6x, k6y = field_at(sx, sy)
            nx = x + h_try * (_B1 * k1x + _B3 * k3x + _B4 * k4x + _B5 * k5x + _B6 * k6x)
            ny = y + h_try * (_B1 * k1y + _B3 * k3y + _B4 * k4y + _B5 * k5y + _B6 * k6y)
            if arch:
                k7x, k7y = ny * ny, mth * nx
            else:
                k7x, k7y = field_at(nx, ny)
            err_x = h_try * (
                _E1 * k1x + _E3 * k3x + _E4 * k4x + _E5 * k5x + _E6 * k6x + _E7 * k7x
            )
            err_y = h_try * (
                _E1 * k1y + _E3 * k3y + _E4 * k4y + _E5 * k5y + _E6 * k6y + _E7 * k7y
            )
            finite = math.isfinite(nx) and math.isfinite(ny)
            if finite and math.isfinite(err_x) and math.isfinite(err_y):
                # The larger scaled component, as max() picks it.
                err = abs(err_x) / (abs_tol + rel_tol * abs(nx))
                err_y = abs(err_y) / (abs_tol + rel_tol * abs(ny))
                if err_y > err:
                    err = err_y
            else:
                err = inf
            factor = SAFETY * (err / TARGET) ** -0.2 if err > 0.0 else GROW_MAX
            if factor > GROW_MAX:
                factor = GROW_MAX
            elif factor < GROW_MIN:
                factor = GROW_MIN
            if err <= 1.0:
                break
            h_try *= factor
            if abs(h_try) < min_step:
                break
        if err > 1.0:
            reason = "step_underflow"
            break
        h_next = h_try * factor

        if not (x_min <= nx <= x_max and y_min <= ny <= y_max):
            k = (k1x, k1y, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y)
            s, ex, ey = _locate_box_exit(box, x, y, nx, ny, h_try, k)
            if not (math.isfinite(ex) and math.isfinite(ey)):
                _require_finite("Point2 coordinates", ex, ey)
            t_exit = t + s * h_try
            if t_exit == t:
                t_exit = math.nextafter(t, sign * math.inf)
            t_append(t_exit)
            x_append(ex)
            y_append(ey)
            reason = "box_exit"
            break

        # The cut step, accepted unshrunk, lands on the horizon exactly. A
        # shorter step cannot round past it, as h_last is |horizon - t| rounded.
        t_new = sign * horizon if h_try == h_last else t + h_try
        if t_new == t:
            reason = "step_underflow"
            break
        # The error norm is finite, so the accepted point is too.
        t_append(t_new)
        x_append(nx)
        y_append(ny)
        x, y, t, h = nx, ny, t_new, h_next
        k1x, k1y = k7x, k7y

        if sign * t >= horizon:
            reason = "time_horizon"
            break

    return Trajectory(ts, xs, ys, reason)


def crossing(
    system: ArchSystem,
    trajectory: Trajectory,
    axis: Literal["horizontal", "vertical"],
    value: float,
) -> Point2:
    """Locate where a trajectory crosses the line y=value or x=value.

    For the first sample lying exactly on the line, an equal ``Point2`` is
    returned. Otherwise the result is where the orbit through the left
    sample p0 of the first bracketing pair, the level set H = H(p0), next
    meets the line: ``y = cbrt(3H - 1.5*theta*value^2)`` on x = value, and
    ``x = -+sqrt(2(H - value^3/3)/theta)`` on y = value. As dy/dt = -theta*x,
    the flow rises through that line where x < 0 going forward and where
    x > 0 going backward, so the sign comes from the bracket's direction in
    y and in time. Both take H from ``systems._level`` at the joint exact scale
    of p0 and the line, where it stays finite and keeps its relative accuracy;
    whether H(p0) = 0, at p0's own, where H cannot underflow.

    Raises
    ------
    CrossingNotFound
        If no sample pair brackets the line, or the orbit from p0 misses it: the
        line is above its apex, behind p0, or (H(p0) = 0) at or past the cusp.
    """
    if axis not in ("horizontal", "vertical"):
        raise ValueError(f"axis must be 'horizontal' or 'vertical', got {axis!r}")
    _require_finite("line value", value)
    horizontal = axis == "horizontal"

    ts, xs, ys = trajectory.times, trajectory.xs, trajectory.ys
    cs = ys if horizontal else xs
    for i, c in enumerate(cs):
        if c == value:
            return Point2(xs[i], ys[i])
        if i and (cs[i - 1] > value) != (c > value):
            break
    else:
        raise CrossingNotFound(f"trajectory never brackets the {axis} line at {value}")

    x0, y0 = xs[i - 1], ys[i - 1]
    theta, forward, rising = system.theta, ts[i] > ts[i - 1], cs[i - 1] < value
    lx, ly = (0.0, value) if horizontal else (value, 0.0)

    h0, k0 = _level(theta, x0, y0)
    past_cusp = h0 == 0.0 and (value >= 0.0 if horizontal else value * x0 <= 0.0)
    h1, k1 = _level(theta, lx, ly)
    # H(p0) - H(lx, ly) at the joint scale: theta*x^2/2 on a horizontal line, y^3/3 on a vertical.
    k = _level(theta, max(abs(x0), abs(lx)), max(abs(y0), abs(ly)))[1]
    h = math.ldexp(h0, 6 * (k0 - k)) - math.ldexp(h1, 6 * (k1 - k))
    if horizontal:
        left = rising == forward
        if h >= 0.0 and not past_cusp and (not rising or (x0 < 0.0) == left):
            x = math.ldexp(math.sqrt(2.0 * h) / math.sqrt(theta), 3 * k)
            return Point2(-x if left else x, value)
    elif rising == forward and not past_cusp:  # x grows going forward
        return Point2(value, math.ldexp(math.copysign(abs(3.0 * h) ** (1 / 3), h), 2 * k))
    raise CrossingNotFound(f"the orbit from ({x0}, {y0}) misses the {axis} line at {value}")
