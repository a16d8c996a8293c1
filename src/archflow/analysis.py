"""The cusp equilibrium with its linear data and sector census, and arch geometry."""

from __future__ import annotations

import math
import sys

from .integrate import CrossingNotFound, IntegratorConfig, integrate
from .systems import (
    ArchSystem,
    Mat2,
    Point2,
    Window,
    _Record,
    _arch_separatrix_depth,
    _arch_separatrix_reach,
    _require_finite,
    _require_integer,
    _require_positive,
)

PLAIN_MAX = 0.1  # classify_arch: theta below this is plain
STRONG_MIN = 2.0  # classify_arch: theta at or above this is strong


class EigenPair(_Record):
    """Eigenvalues of a 2x2 matrix with their structural kind (real_repeated at the cusp)."""

    __slots__ = ("kind", "values")

    def __init__(self, kind: str, values: tuple[complex, complex]) -> None:
        self._store(locals())


class Equilibrium(_Record):
    """An equilibrium with its local linear data."""

    __slots__ = ("location", "jacobian", "eigen", "classification")

    def __init__(
        self, location: Point2, jacobian: Mat2, eigen: EigenPair, classification: str
    ) -> None:
        self._store(locals())


class SectorCensus(_Record):
    """Counts of local sector types around an equilibrium."""

    __slots__ = ("hyperbolic", "elliptic", "parabolic", "separatrices")

    def __init__(self, hyperbolic: int, elliptic: int, parabolic: int, separatrices: int) -> None:
        self._store(locals())

    @property
    def is_cusp(self) -> bool:
        return (
            self.hyperbolic == 2
            and self.elliptic == 0
            and self.parabolic == 0
            and self.separatrices == 2
        )


class ArchCategory(_Record):
    """Arch class for a stiffness value, with the measured opening angle."""

    __slots__ = ("category", "opening_angle_deg")

    def __init__(self, category: str, opening_angle_deg: float) -> None:
        self._store(locals())


def find_equilibria(system: ArchSystem, window: Window) -> list[Equilibrium]:
    """Equilibria of ``system`` inside ``window`` with their linear data.

    The field's one equilibrium is the origin. Its Jacobian [[0, 0], [-theta,
    0]] is nilpotent for every theta, so both eigenvalues are 0: the point is
    not hyperbolic, and ``sector_census`` settles its type.
    """
    if not window.contains(0.0, 0.0):
        return []
    origin = Point2(0.0, 0.0)
    return [Equilibrium(origin, system.jacobian(origin), EigenPair("real_repeated", (0j, 0j)),
                        "degenerate_nonhyperbolic")]


def sector_census(system: ArchSystem) -> SectorCensus:
    """Census of local sectors around the cusp at the origin: always a cusp.

    On the circle of radius r about the origin, H = r^2 * (theta*cos^2(phi)/2
    + r*sin^3(phi)/3). With u = sin(phi), H has the sign of the cubic
    f(u) = (r/3)*u^3 - (theta/2)*u^2 + theta/2, and for every theta, r > 0:

    - f(-1) = -r/3 < 0 and f(0) = theta/2 > 0;
    - f'(u) = u*(r*u - theta) > 0 on (-1, 0), so f has exactly one root u*
      there;
    - f > 0 on [0, 1]: its minimum there is f(1) = r/3, or theta/2 -
      theta^3/(6*r^2) > theta/3 at u = theta/r when theta < r.

    So H < 0 on exactly one arc, of width 2*(asin(u*) + pi/2) about the
    negative y axis, and H > 0 on the rest of the circle: the two ends of that
    arc are where the separatrix H = 0 crosses it, and they split the
    neighbourhood into two sectors. Every other orbit lies on a level set
    H = c != 0, which keeps away from the origin, so only the separatrices
    tend to it. Neither sector is then elliptic or parabolic; both are
    hyperbolic. Hence 2 hyperbolic sectors, 0 elliptic, 0 parabolic and 2
    separatrices: a cusp (Perko, *Differential Equations and Dynamical
    Systems*, 2.11). The proof holds at every radius, which is why the
    function takes none.

    Raises TypeError unless ``system`` is an ``ArchSystem``.
    """
    if not isinstance(system, ArchSystem):
        raise TypeError(f"sector_census needs an ArchSystem, got {type(system).__name__}")
    return SectorCensus(2, 0, 0, 2)


def _separatrix_branches(
    theta: float, window: Window, resolution: int
) -> list[tuple[list[float], list[float]]]:
    """``trace_separatrix``'s (left, right) branches as (xs, ys) float lists."""
    theta = ArchSystem(theta).theta
    _require_integer("resolution", resolution)
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if not window.contains(0.0, 0.0):
        raise ValueError("window must contain the origin")

    vertical_cap = _arch_separatrix_reach(theta, window.y_min)
    branches = []
    for extent, side in ((min(-window.x_min, vertical_cap), -1.0),
                         (min(window.x_max, vertical_cap), 1.0)):
        # "+ 0.0" turns the origin's -0.0 into 0.0.
        xs = [side * extent * (1.0 - i / resolution) for i in range(resolution + 1)]
        ys = [-_arch_separatrix_depth(theta, x) + 0.0 for x in xs]
        # |y| grows with |x|, so only the first vertex can overflow.
        _require_finite("Point2 coordinates", ys[0])
        branches.append((xs, ys))
    return branches


def trace_separatrix(
    theta: float, window: Window, resolution: int = 256
) -> tuple[tuple[Point2, ...], tuple[Point2, ...]]:
    """Sample the two separatrix branches inside ``window``.

    Returns (left, right); each branch has resolution+1 vertices on the
    curve y = -(3*theta*x^2/2)^(1/3), ends at the origin, and extends as far
    in x as the window permits, shrunk when the curve leaves through the
    bottom edge first.
    """
    (lx, ly), (rx, ry) = _separatrix_branches(theta, window, resolution)
    return tuple(map(Point2, lx, ly)), tuple(map(Point2, rx, ry))


def opening_angle(theta: float, apex: float = 1.0, fraction: float = 0.5) -> float:
    """Interior angle in degrees between the ridge flanks through (0, apex).

    The trajectory through the apex is integrated forward only, stopped by
    the half-plane y >= fraction * apex, and the slope m at its located box
    exit gives the angle 180 - 2*atan(m). The field is reversible under
    (x, t) -> (-x, -t), and DP5(4) steps and that half-plane are symmetric
    under x -> -x in floating point, so the backward flank is the forward one
    mirrored bit for bit and has the same slope. Decreases strictly with
    theta: obtuse for small stiffness, acute for large. Raises
    CrossingNotFound when the flank stops for another reason.
    """
    system = ArchSystem(theta)
    _require_positive("apex", apex)
    # apex*apex*apex gives inf where apex**3 raises OverflowError; a cube that
    # underflows leaves no level set to integrate along.
    apex_cubed = apex * apex * apex
    if not (math.isfinite(apex_cubed) and apex_cubed >= sys.float_info.min):
        raise ValueError(f"apex**3 must be a finite normal float, got apex={apex!r}")
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction!r}")

    y_target = fraction * apex
    big = sys.float_info.max
    cfg = IntegratorConfig(
        rel_tol=1e-12, abs_tol=1e-12 * apex, stop_box=Window(-big, big, y_target, big)
    )
    traj = integrate(system, Point2(0.0, apex), cfg)
    if traj.stop_reason != "box_exit":
        raise CrossingNotFound(
            f"forward flank stopped by {traj.stop_reason} above y = {y_target}"
        )
    # An exit on y = 0, which a fraction below about 1e-17 can give, is the
    # limit of an infinite slope.
    yy = traj._y[-1] * traj._y[-1]
    a = math.degrees(math.atan(theta * abs(traj._x[-1]) / yy if yy else math.inf))
    # Not 180 - 2*a, which can round differently from the two-flank sum.
    return 180.0 - a - a


def classify_arch(theta: float, *, apex: float = 1.0, fraction: float = 0.5) -> ArchCategory:
    """Arch category by stiffness, carrying the measured opening angle.

    theta below PLAIN_MAX (0.1) is plain, below STRONG_MIN (2.0) tented, and
    strong from there on; ``apex`` and ``fraction`` go to ``opening_angle``.
    """
    angle = opening_angle(theta, apex=apex, fraction=fraction)
    if theta < PLAIN_MAX:
        category = "plain"
    elif theta < STRONG_MIN:
        category = "tented"
    else:
        category = "strong"
    return ArchCategory(category, angle)
