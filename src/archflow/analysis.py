"""Equilibrium location, linear classification, sector census, and arch geometry."""

from __future__ import annotations

import math
import sys

from .integrate import CrossingNotFound, IntegratorConfig, integrate
from .systems import (
    ArchSystem,
    Mat2,
    Point2,
    VectorField2D,
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
SEED_GRID = 20  # find_equilibria: seeds per window side on the generic path


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


def _pinv_2x2(m: Mat2) -> tuple[float, float, float, float]:
    """Moore-Penrose pseudo-inverse of ``m``, row major.

    As ``numpy.linalg.pinv(m, rcond=1e-12)``, a singular value at or below
    1e-12 times the largest counts as zero. The singular values follow from
    sigma1^2 + sigma2^2 = ||m||_F^2 and sigma1 * sigma2 = |det m|; the entries
    are first scaled by their largest magnitude so no square overflows or
    underflows. Full rank gives adj(m) / det, rank one m^T / ||m||_F^2, and
    the zero matrix zero.
    """
    scale = max(abs(m.a11), abs(m.a12), abs(m.a21), abs(m.a22))
    if scale == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    a, b, c, d = m.a11 / scale, m.a12 / scale, m.a21 / scale, m.a22 / scale
    fro2 = a * a + b * b + c * c + d * d
    det = a * d - b * c
    gap = (fro2 - 2.0 * abs(det)) * (fro2 + 2.0 * abs(det))
    s1_sq = 0.5 * (fro2 + math.sqrt(max(gap, 0.0)))
    if abs(det) > 1e-12 * s1_sq:  # sigma2 / sigma1 = |det| / sigma1^2
        k = det * scale
        return d / k, -b / k, -c / k, a / k
    k = fro2 * scale
    return a / k, c / k, b / k, d / k


def _cell(px: float, py: float) -> tuple[float, float]:
    """The 1e-6 grid cell of (px, py): a root's 3 x 3 cells cover its dedup radius."""
    return round(px * 1e6, 0), round(py * 1e6, 0)


def _refine_root(
    system: VectorField2D, px: float, py: float, known: set[tuple[float, float]]
) -> tuple[float, float] | None:
    """Damped Gauss-Newton root polish; ``_pinv_2x2`` tolerates singular Jacobians.

    Iteration stops once the Gauss-Newton step falls to 1e-14 of the point's
    scale, not on a small residual: at a multiple root the residual is tiny
    long before the point is, and a residual stop would leave seeds from
    either side a few 1e-7 apart.

    ``known`` holds the cells (``_cell``) around each root polished so far and
    those a polish toward it passed through. A seed whose iterate enters one
    gives None at once, since from there it would polish to a root already
    found, slowly so at a multiple root; the cells it passed join ``known``.
    """
    fx, fy = system.field_at(px, py)
    if not (math.isfinite(fx) and math.isfinite(fy)):
        return None
    cost = fx * fx + fy * fy
    path = []
    for _ in range(80):
        cell = _cell(px, py)
        if cell in known:
            known.update(path)
            return None
        path.append(cell)
        i11, i12, i21, i22 = _pinv_2x2(system.jacobian(Point2(px, py)))
        dx = -(i11 * fx + i12 * fy)
        dy = -(i21 * fx + i22 * fy)
        if not (math.isfinite(dx) and math.isfinite(dy)):
            break
        if max(abs(dx), abs(dy)) <= 1e-14 * (1.0 + max(abs(px), abs(py))):
            break
        alpha = 1.0
        improved = False
        while alpha >= 1e-12:
            qx, qy = px + alpha * dx, py + alpha * dy
            gx, gy = system.field_at(qx, qy)
            if math.isfinite(gx) and math.isfinite(gy):
                cq = gx * gx + gy * gy
                if cq < cost:
                    px, py, fx, fy, cost = qx, qy, gx, gy, cq
                    improved = True
                    break
            alpha *= 0.5
        if not improved:
            break
    if max(abs(fx), abs(fy)) <= 1e-10:
        cx, cy = _cell(px, py)
        known.update(path)
        known.update((cx + i, cy + j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0))
        return px, py
    return None


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced values from lo to hi, as ``numpy.linspace`` gives them."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def find_equilibria(system: VectorField2D, window: Window) -> list[Equilibrium]:
    """Equilibria of ``system`` inside ``window`` with their linear data.

    Systems that know their equilibria exactly report them directly; other
    fields are searched by Gauss-Newton refinement from a SEED_GRID x
    SEED_GRID seed lattice spanning the window, deduplicated at 1e-6. Such a
    root is polished only to about 1e-7 at a double root, so its Jacobian
    counts as singular, and the root as degenerate_nonhyperbolic, once
    ``|det J| <= 1e-10 * ||J||_F^2``.
    """
    analytic = system.analytic_equilibria()
    if analytic is not None:
        points = [p for p in analytic if window.contains_point(p)]
    else:
        found: list[tuple[float, float]] = []
        known: set[tuple[float, float]] = set()
        for sx in _grid(window.x_min, window.x_max, SEED_GRID):
            for sy in _grid(window.y_min, window.y_max, SEED_GRID):
                root = _refine_root(system, sx, sy, known)
                if root is None:
                    continue
                if not window.contains(root[0], root[1]):
                    continue
                if all(math.hypot(root[0] - fx, root[1] - fy) > 1e-6 for fx, fy in found):
                    found.append(root)
        points = [Point2(fx, fy) for fx, fy in sorted(found)]

    result = []
    for p in points:
        jac = system.jacobian(p)
        pair = eigen_2x2(jac)
        label = classify_linear(pair)
        if analytic is None:
            fro2 = jac.a11 * jac.a11 + jac.a12 * jac.a12 + jac.a21 * jac.a21 + jac.a22 * jac.a22
            if abs(jac.det) <= 1e-10 * fro2:
                label = "degenerate_nonhyperbolic"
        result.append(Equilibrium(p, jac, pair, label))
    return result


_QUARTER_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))  # (cos, sin) of k*pi/2


def sector_census(
    system: VectorField2D,
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
