"""Phase-portrait assembly and SVG rendering."""

from __future__ import annotations

import math

from .analysis import _separatrix_branches
from .integrate import FIRST_STEP, IntegratorConfig, Trajectory, _abs_tol, integrate
from .systems import (
    ArchSystem, Point2, Window, _Record, _arch_separatrix_reach, _require_integer,
    _require_positive, _set,
)

# Stroke (color, width) of each path role.
_STYLE = {
    "separatrix": ("#cc0000", 2.4),
    "upper_sector": ("#1a7f1a", 1.2),
    "lower_sector": ("#8b5a2b", 1.2),
}


class StyledPath(_Record):
    """A flow-ordered polyline; its role sets its stroke.

    The path keeps its coordinates as two float lists, and ``points`` builds
    its ``Point2``s from them on each read.
    """

    __slots__ = ("role", "_x", "_y")

    def __init__(self, role: str, points: tuple[Point2, ...]) -> None:
        if role not in _STYLE:
            raise ValueError(f"unknown path role {role!r}")
        points = tuple(points)  # read more than once
        if len(points) < 2:
            raise ValueError("a styled path needs at least 2 points")
        _set(self, "role", role)
        _set(self, "_x", [p.x for p in points])
        _set(self, "_y", [p.y for p in points])

    @classmethod
    def _flat(cls, role: str, xs: list[float], ys: list[float]) -> StyledPath:
        """A path over at least 2 finite points from ``integrate`` or the separatrix."""
        self = object.__new__(cls)
        _set(self, "role", role)
        _set(self, "_x", xs)
        _set(self, "_y", ys)
        return self

    @property
    def points(self) -> tuple[Point2, ...]:
        # Via a list, not tuple(map(...)), which grew a long portrait loop's peak RSS.
        return tuple([Point2(x, y) for x, y in zip(self._x, self._y)])

    @property
    def color(self) -> str:
        return _STYLE[self.role][0]

    @property
    def width(self) -> float:
        return _STYLE[self.role][1]


class Scene(_Record):
    """Everything a renderer needs: the spec it was built from and its styled paths."""

    __slots__ = ("spec", "paths")

    def __init__(self, spec: PortraitSpec, paths: tuple[StyledPath, ...]) -> None:
        paths = tuple(paths)
        self._store(locals())


class PortraitSpec(_Record):
    """Settings for one phase portrait; seed runs take ``tol`` as ``trace`` does, at the
    window's half-side: as rel_tol, and as abs_tol scaled down below a half-side of 1."""

    __slots__ = (
        "system", "window", "seeds_above", "seeds_below", "seed_inset",
        "tol", "arrowheads", "separatrix_resolution",
    )

    def __init__(
        self, system: ArchSystem, window: Window = Window(-4.0, 4.0, -4.0, 4.0),
        seeds_above: int = 8, seeds_below: int = 4, seed_inset: float = 0.05,
        tol: float = 1e-10, arrowheads: bool = True, separatrix_resolution: int = 256,
    ) -> None:
        _require_integer("seeds_above", seeds_above)
        _require_integer("seeds_below", seeds_below)
        _require_integer("separatrix_resolution", separatrix_resolution)
        _require_positive("tol", tol)
        if seeds_above < 0 or seeds_below < 0:
            raise ValueError("seed counts must be >= 0")
        if not (0.0 <= seed_inset < 0.5):
            raise ValueError(f"seed_inset must lie in [0, 0.5), got {seed_inset!r}")
        if separatrix_resolution < 1:
            raise ValueError("separatrix_resolution must be >= 1")
        self._store(locals())


def _spread(x0: float, y0: float, y1: float, x1: float, count: int, inset: float) -> list[Point2]:
    """Midpoint-rule positions, inset at both ends, on the path from (x0, y0)
    up to (x0, y1) and then right to (x1, y1).

    Both legs are measured at the exact scale 2**-k, k the exponent of the
    longer, so the sum stays finite where the legs together pass the largest
    float and each seed, placed at full scale, keeps a full-scale measure's bits.
    """
    k = -math.frexp(max(y1 - y0, x1 - x0))[1]
    up, right = math.ldexp(y1 - y0, k), math.ldexp(x1 - x0, k)
    total = up + right
    if total == 0.0 or count == 0:
        return []
    out = []
    for i in range(count):
        s = total * (inset + (1.0 - 2.0 * inset) * (i + 0.5) / count)
        if s <= up:
            out.append(Point2(x0, y0 + s / up * (y1 - y0)))
        else:
            out.append(Point2(x0 + min(1.0, (s - up) / right) * (x1 - x0), y1))
    return out


def seed_points(spec: PortraitSpec) -> list[tuple[Point2, str]]:
    """Window-edge seeds for the two sectors, each set spread along one corner path.

    Upper seeds run up the left edge from the separatrix, or from the lower
    corner, and then right along the top edge. Lower seeds run up the left
    edge to the separatrix when it exits that edge, otherwise along the
    bottom-edge span between its two crossings (large theta pushes it there).
    """
    w = spec.window
    sep_left = spec.system.separatrix_height(w.x_min)
    y_lo = min(max(sep_left, w.y_min), w.y_max)
    upper = _spread(w.x_min, y_lo, w.y_max, w.x_max, spec.seeds_above, spec.seed_inset)
    if sep_left > w.y_min:
        lower = _spread(w.x_min, w.y_min, sep_left, w.x_min, spec.seeds_below, spec.seed_inset)
    else:
        cap = _arch_separatrix_reach(spec.system.theta, w.y_min)
        lo, hi = max(w.x_min, -cap), min(w.x_max, cap)
        lower = _spread(lo, w.y_min, w.y_min, max(lo, hi), spec.seeds_below, spec.seed_inset)
    return [(p, "upper_sector") for p in upper] + [(p, "lower_sector") for p in lower]


def build_portrait(spec: PortraitSpec) -> Scene:
    """Assemble the scene: separatrix branches first, then seeded flow lines.

    Every path is flow ordered; each seed is run both ways, with no time limit,
    until it leaves the window inflated by 5 percent, and the halves are joined
    at the seed. Raises ValueError naming a seed whose run the floats cannot
    carry, and naming one, with both stop reasons, whose half stops in the box.
    """
    system, w = spec.system, spec.window
    box = w.inflated(0.05)

    (lx, ly), (rx, ry) = _separatrix_branches(system.theta, box, spec.separatrix_resolution)
    paths = [
        StyledPath._flat("separatrix", lx, ly),
        StyledPath._flat("separatrix", rx[::-1], ry[::-1]),  # flow order: out of the origin
    ]

    abs_tol = _abs_tol(spec.tol, max(w.width, w.height) / 2.0)
    configs = [IntegratorConfig(rel_tol=spec.tol, abs_tol=abs_tol, direction=d, stop_box=box)
               for d in ("backward", "forward")]
    for index, (seed, role) in enumerate(seed_points(spec)):
        try:
            backward, forward = [integrate(system, seed, half) for half in configs]
        except ValueError as exc:
            raise ValueError(
                f"seed {index} ({role}) at ({seed.x}, {seed.y}) diverged: {exc}"
            ) from exc
        if backward.stop_reason != "box_exit" or forward.stop_reason != "box_exit":
            raise ValueError(
                f"seed {index} ({role}) at ({seed.x}, {seed.y}) did not leave the box: "
                f"backward {backward.stop_reason}, forward {forward.stop_reason}"
            )
        # The halves share the seed; the backward half is reversed to flow order.
        paths.append(StyledPath._flat(
            role, backward._x[::-1] + forward._x[1:], backward._y[::-1] + forward._y[1:]
        ))
    return Scene(spec, paths)


def render_svg(scene: Scene, width_px: int = 800, height_px: int = 800) -> str:
    """Serialize a scene to a standalone SVG document.

    Purely a function of its inputs, so identical scenes give identical
    bytes. One polyline per path; arrowheads (when the spec asks for them)
    are small triangles at each path's middle vertex, oriented by vertex
    order.
    """
    if not (1 <= width_px < math.inf and 1 <= height_px < math.inf):
        raise ValueError("pixel dimensions must be >= 1")
    spec = scene.spec
    w = spec.window
    sx = width_px / w.width
    sy = height_px / w.height

    left, top = w.x_min, w.y_max

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        # Numbers and fixed words only, so the description needs no escaping.
        f"<desc>theta={spec.system.theta!r}; "
        f"window=[{w.x_min}, {w.x_max}] x [{w.y_min}, {w.y_max}]; "
        f"seeds={spec.seeds_above} upper / {spec.seeds_below} lower; "
        f"integrator=rk45 step={FIRST_STEP} rel_tol={spec.tol} "
        f"abs_tol={_abs_tol(spec.tol, max(w.width, w.height) / 2.0)}; "
        f"arrowheads={'true' if spec.arrowheads else 'false'}</desc>",
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" '
        f'fill="#ffffff" stroke="#333333" stroke-width="1"/>',
    ]
    for path in scene.paths:
        n = len(path._x)
        xy = [0.0] * (2 * n)
        xy[0::2] = [(x - left) * sx for x in path._x]
        xy[1::2] = [(top - y) * sy for y in path._y]
        xy = tuple(xy)
        pts = ("%.2f,%.2f " * n)[:-1] % xy
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{path.color}" '
            f'stroke-width="{path.width}"/>'
        )
        if spec.arrowheads:
            glyph = _arrow_glyph(path, xy)
            if glyph is not None:
                lines.append(glyph)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _arrow_glyph(path: StyledPath, xy: tuple[float, ...]) -> str | None:
    n = len(xy) // 2
    mid = n // 2
    ax, ay, mx, my = xy[2 * mid - 2:2 * mid + 2]
    b = 2 * min(mid + 1, n - 1)
    bx, by = xy[b], xy[b + 1]
    dx, dy = bx - ax, by - ay
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return None
    ux, uy = dx / norm, dy / norm
    px, py = -uy, ux
    size = 4.0 + path.width
    tip = (mx + 1.6 * size * ux, my + 1.6 * size * uy)
    base1 = (mx - 0.4 * size * ux + 0.8 * size * px, my - 0.4 * size * uy + 0.8 * size * py)
    base2 = (mx - 0.4 * size * ux - 0.8 * size * px, my - 0.4 * size * uy - 0.8 * size * py)
    return (
        f'<path d="M {tip[0]:.2f} {tip[1]:.2f} L {base1[0]:.2f} {base1[1]:.2f} '
        f'L {base2[0]:.2f} {base2[1]:.2f} Z" fill="{path.color}"/>'
    )


def export_trajectory_csv(trajectory: Trajectory, theta: float) -> str:
    """CSV text with header t,x,y,H and one row per sample, 17 digits.

    Rows are formatted from the trajectory's float lists, so no ``Point2``
    is built. H is ``ArchSystem.first_integral``'s formula written inline,
    which gives its bits.
    """
    theta = ArchSystem(theta).theta
    rows = [
        "%.17g,%.17g,%.17g,%.17g\n" % (t, x, y, 0.5 * theta * x * x + y**3 / 3.0)
        for t, x, y in zip(trajectory._t, trajectory._x, trajectory._y)
    ]
    return "t,x,y,H\n" + "".join(rows)
