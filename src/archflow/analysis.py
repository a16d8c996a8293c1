"""Equilibrium location, linear classification, sector census, and arch geometry."""

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
    _arch_separatrix_reach,
    _require_finite,
    _require_integer,
    _require_positive,
    _set,
)

CLASSIFICATIONS = (
    "saddle",
    "stable_node",
    "unstable_node",
    "stable_focus",
    "unstable_focus",
    "center_linear",
    "degenerate_nonhyperbolic",
)

ARCH_CATEGORIES = ("plain", "tented", "strong")
PLAIN_MAX = 0.1  # classify_arch: theta below this is plain
STRONG_MIN = 2.0  # classify_arch: theta at or above this is strong


class EigenPair(_Record):
    """Eigenvalues of a 2x2 matrix with their structural kind."""

    __slots__ = ("kind", "values")

    def __init__(self, kind: str, values: tuple[complex, complex]) -> None:
        _set(self, "kind", kind)  # real_distinct | real_repeated | complex_conjugate
        _set(self, "values", values)


class Equilibrium(_Record):
    """An equilibrium with its local linear data."""

    __slots__ = ("location", "jacobian", "eigen", "classification")

    def __init__(
        self, location: Point2, jacobian: Mat2, eigen: EigenPair, classification: str
    ) -> None:
        _set(self, "location", location)
        _set(self, "jacobian", jacobian)
        _set(self, "eigen", eigen)
        _set(self, "classification", classification)


class SectorCensus(_Record):
    """Counts of local sector types around an equilibrium."""

    __slots__ = ("hyperbolic", "elliptic", "parabolic", "separatrices")

    def __init__(self, hyperbolic: int, elliptic: int, parabolic: int, separatrices: int) -> None:
        _set(self, "hyperbolic", hyperbolic)
        _set(self, "elliptic", elliptic)
        _set(self, "parabolic", parabolic)
        _set(self, "separatrices", separatrices)

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
        _set(self, "category", category)
        _set(self, "opening_angle_deg", opening_angle_deg)


def eigen_2x2(m: Mat2) -> EigenPair:
    """Eigenvalues via the numerically stable quadratic formula.

    Real eigenvalues are ordered ascending. The larger-magnitude root is
    computed first and the second recovered from the determinant, which
    avoids the cancellation of the textbook formula.
    """
    tr, det = m.trace, m.det
    disc = tr * tr - 4.0 * det
    if disc > 0.0:
        sq = math.sqrt(disc)
        q = 0.5 * (tr + math.copysign(sq, tr))
        if q == 0.0:  # tr == 0 with +0.0 sign handling
            l1, l2 = -0.5 * sq, 0.5 * sq
        else:
            l1, l2 = q, det / q
        lo, hi = (l1, l2) if l1 <= l2 else (l2, l1)
        return EigenPair("real_distinct", (complex(lo), complex(hi)))
    if disc == 0.0:
        lam = 0.5 * tr
        return EigenPair("real_repeated", (complex(lam), complex(lam)))
    im = 0.5 * math.sqrt(-disc)
    re = 0.5 * tr
    return EigenPair("complex_conjugate", (complex(re, im), complex(re, -im)))


def classify_linear(pair: EigenPair) -> str:
    """Classify a linearization by its eigenvalues.

    Any zero real part on a real eigenvalue means hyperbolicity fails and
    the label is degenerate_nonhyperbolic; purely imaginary pairs report
    center_linear since the linearization alone cannot settle the type.
    """
    l1, l2 = pair.values
    if pair.kind == "complex_conjugate":
        if l1.real == 0.0:
            return "center_linear"
        return "stable_focus" if l1.real < 0.0 else "unstable_focus"
    a, b = l1.real, l2.real
    if a == 0.0 or b == 0.0:
        return "degenerate_nonhyperbolic"
    if (a < 0.0) != (b < 0.0):
        return "saddle"
    return "stable_node" if a < 0.0 else "unstable_node"


def find_equilibria(system: ArchSystem, window: Window) -> list[Equilibrium]:
    """Equilibria of ``system`` inside ``window`` with their linear data.

    One ``Equilibrium`` per point of ``system.analytic_equilibria()`` that
    the window holds, labelled from the analytic Jacobian there.
    """
    result = []
    for p in system.analytic_equilibria():
        if window.contains_point(p):
            jac = system.jacobian(p)
            pair = eigen_2x2(jac)
            result.append(Equilibrium(p, jac, pair, classify_linear(pair)))
    return result


_QUARTER_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))  # (cos, sin) of k*pi/2


def sector_census(
    system: ArchSystem,
    equilibrium: Point2 | Equilibrium,
    radius: float = 0.5,
    samples: int = 360,
) -> SectorCensus:
    """Census of local sectors from first-integral signs on a probe circle.

    The conserved quantity is sampled on a circle around the equilibrium.
    Each maximal same-sign arc is one hyperbolic sector and each sign change
    is one separatrix crossing; samples with |H - H(center)| <= 1e-3 * r^3
    are treated as on-separatrix and attributed to a crossing only when
    flanked by opposite signs. A sign census cannot surface elliptic or
    parabolic sectors, which is faithful here: the level sets of the arch
    integral through any probe circle are unbounded, so every same-sign arc
    really is hyperbolic.

    The samples sit at ``samples`` equal angles, so an arc narrower than
    ``2*pi/samples`` can be missed. The arch field's negative arc narrows like
    ``sqrt(radius/theta)`` around the negative y axis. A sample at a whole
    quarter turn lies exactly on its axis, so a count divisible by 4, such as
    the default 360, catches that arc at any theta.
    """
    center = equilibrium.location if isinstance(equilibrium, Equilibrium) else equilibrium
    _require_positive("radius", radius)
    _require_integer("samples", samples)
    if samples < 8:
        raise ValueError(f"samples must be >= 8, got {samples}")
    integral = getattr(system, "first_integral", None)
    if integral is None:
        raise TypeError(
            "sector_census needs a system with a first_integral method"
        )
    h0 = integral(center)
    band = 1e-3 * radius**3
    labels: list[int] = []
    for k in range(samples):
        quarter, rest = divmod(4 * k, samples)
        if rest:
            phi = 2.0 * math.pi * k / samples
            c, s = math.cos(phi), math.sin(phi)
        else:  # cos and sin of a rounded multiple of pi/2 miss their exact 0
            c, s = _QUARTER_TURNS[quarter]
        p = Point2(center.x + radius * c, center.y + radius * s)
        hv = integral(p) - h0
        if abs(hv) <= band:
            labels.append(0)
        elif hv > 0.0:
            labels.append(1)
        else:
            labels.append(-1)

    # A sector begins wherever a nonzero sign follows a different label; a
    # circle of one sign has no such start but is still one sector.
    hyperbolic = sum(1 for i, lab in enumerate(labels) if lab and lab != labels[i - 1])
    signs = [lab for lab in labels if lab]
    if hyperbolic == 0 and signs:
        hyperbolic = 1
    separatrices = sum(1 for i, lab in enumerate(signs) if lab != signs[i - 1])
    return SectorCensus(hyperbolic, 0, 0, separatrices)


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
        # separatrix_height inline: its cube root's argument is never negative.
        # "+ 0.0" turns the origin's -0.0 into 0.0.
        xs = [side * extent * (1.0 - i / resolution) for i in range(resolution + 1)]
        ys = [-(1.5 * theta * x * x) ** (1.0 / 3.0) + 0.0 for x in xs]
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

    The trajectory through the apex is integrated both ways, each run
    stopped by the half-plane y >= fraction * apex; the flank slopes at the
    located box exits give the angle 180 - atan(m_left) - atan(m_right).
    Decreases strictly with theta: obtuse for small stiffness, acute for
    large. Raises CrossingNotFound when a flank stops for another reason.
    """
    _require_positive("theta", theta)
    _require_positive("apex", apex)
    # apex*apex*apex gives inf where apex**3 raises OverflowError; a cube that
    # underflows leaves no level set to integrate along.
    apex_cubed = apex * apex * apex
    if not (math.isfinite(apex_cubed) and apex_cubed >= sys.float_info.min):
        raise ValueError(f"apex**3 must be a finite normal float, got apex={apex!r}")
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction!r}")

    system = ArchSystem(theta)
    y_target = fraction * apex
    big = sys.float_info.max
    above = Window(-big, big, y_target, big)
    start = Point2(0.0, apex)

    def flank_slope(direction: str) -> float:
        cfg = IntegratorConfig(
            rel_tol=1e-12,
            abs_tol=1e-12 * apex,
            direction=direction,  # type: ignore[arg-type]
            stop_box=above,
        )
        traj = integrate(system, start, cfg)
        if traj.stop_reason != "box_exit":
            raise CrossingNotFound(
                f"{direction} flank stopped by {traj.stop_reason} above y = {y_target}"
            )
        # An exit on y = 0, which a fraction below about 1e-17 can give, is
        # the limit of an infinite slope.
        yy = traj._y[-1] * traj._y[-1]
        return theta * abs(traj._x[-1]) / yy if yy else math.inf

    return 180.0 - math.degrees(math.atan(flank_slope("forward"))) - math.degrees(
        math.atan(flank_slope("backward"))
    )


def classify_arch(theta: float, *, apex: float = 1.0, fraction: float = 0.5) -> ArchCategory:
    """Arch category by stiffness, carrying the measured opening angle.

    theta below PLAIN_MAX (0.1) is plain, below STRONG_MIN (2.0) tented, and
    strong from there on; ``apex`` and ``fraction`` go to ``opening_angle``.
    """
    _require_positive("theta", theta)
    angle = opening_angle(theta, apex=apex, fraction=fraction)
    if theta < PLAIN_MAX:
        category = "plain"
    elif theta < STRONG_MIN:
        category = "tented"
    else:
        category = "strong"
    return ArchCategory(category, angle)
