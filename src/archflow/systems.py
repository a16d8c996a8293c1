"""Planar vector fields and the arch ridge-flow system."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable


def _require_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} must be finite, got {v!r}")


def _require_positive(label: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{label} must be finite and > 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class Point2:
    """A point (x, y) in the phase plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite("Point2 coordinates", self.x, self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class Vec2:
    """A field value (dx/dt, dy/dt)."""

    dx: float
    dy: float

    def __post_init__(self) -> None:
        _require_finite("Vec2 components", self.dx, self.dy)

    @property
    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)


@dataclass(frozen=True, slots=True)
class Mat2:
    """A 2x2 real matrix, row major."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self) -> None:
        _require_finite("Mat2 entries", self.a11, self.a12, self.a21, self.a22)

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21


@dataclass(frozen=True, slots=True)
class Window:
    """Axis-aligned rectangle in the phase plane."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        _require_finite("Window bounds", self.x_min, self.x_max, self.y_min, self.y_max)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"Window requires x_min < x_max and y_min < y_max, got "
                f"[{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, x: float, y: float, pad: float = 0.0) -> bool:
        """Whether (x, y) lies in the window, boundary inclusive, optionally padded."""
        return (
            self.x_min - pad <= x <= self.x_max + pad
            and self.y_min - pad <= y <= self.y_max + pad
        )

    def contains_point(self, p: Point2, pad: float = 0.0) -> bool:
        return self.contains(p.x, p.y, pad)

    def inflated(self, fraction: float) -> "Window":
        """A window grown by `fraction` of each extent, centered on the same spot."""
        if fraction < 0:
            raise ValueError(f"inflation fraction must be >= 0, got {fraction}")
        px = 0.5 * fraction * self.width
        py = 0.5 * fraction * self.height
        return Window(self.x_min - px, self.x_max + px, self.y_min - py, self.y_max + py)


class VectorField2D(ABC):
    """An autonomous planar vector field.

    Subclasses implement ``field_at`` on raw floats; the object interface
    (``field``, ``jacobian``, ``analytic_equilibria``) is layered on top so
    integrator inner loops can stay allocation free.
    """

    @abstractmethod
    def field_at(self, x: float, y: float) -> tuple[float, float]:
        """Field components (dx/dt, dy/dt) at (x, y)."""

    def field(self, p: Point2) -> Vec2:
        dx, dy = self.field_at(p.x, p.y)
        return Vec2(dx, dy)

    def jacobian(self, p: Point2) -> Mat2:
        """Jacobian at p; numeric central differences unless overridden."""
        return numeric_jacobian(self, p)

    def analytic_equilibria(self) -> tuple[Point2, ...] | None:
        """Exact equilibria when the subclass knows them, else None."""
        return None


class CallableField(VectorField2D):
    """Adapter wrapping a plain ``f(x, y) -> (dx, dy)`` callable."""

    def __init__(
        self,
        func: Callable[[float, float], tuple[float, float]],
        jac: Callable[[float, float], Mat2] | None = None,
    ) -> None:
        self._func = func
        self._jac = jac

    def field_at(self, x: float, y: float) -> tuple[float, float]:
        dx, dy = self._func(x, y)
        return float(dx), float(dy)

    def jacobian(self, p: Point2) -> Mat2:
        if self._jac is not None:
            return self._jac(p.x, p.y)
        return numeric_jacobian(self, p)


def numeric_jacobian(system: VectorField2D, p: Point2) -> Mat2:
    """Central-difference Jacobian with per-coordinate relative steps."""
    hx = max(1e-6, 1e-6 * abs(p.x))
    hy = max(1e-6, 1e-6 * abs(p.y))
    fxp = system.field_at(p.x + hx, p.y)
    fxm = system.field_at(p.x - hx, p.y)
    fyp = system.field_at(p.x, p.y + hy)
    fym = system.field_at(p.x, p.y - hy)
    return Mat2(
        (fxp[0] - fxm[0]) / (2.0 * hx),
        (fyp[0] - fym[0]) / (2.0 * hy),
        (fxp[1] - fxm[1]) / (2.0 * hx),
        (fyp[1] - fym[1]) / (2.0 * hy),
    )


class ArchSystem(VectorField2D):
    """The arch ridge-flow field dx/dt = y**2, dy/dt = -theta * x with theta > 0."""

    def __init__(self, theta: float) -> None:
        _require_positive("theta", theta)
        self.theta = float(theta)

    def __repr__(self) -> str:
        return f"ArchSystem(theta={self.theta!r})"

    def field_at(self, x: float, y: float) -> tuple[float, float]:
        return y * y, -self.theta * x

    def jacobian(self, p: Point2) -> Mat2:
        return Mat2(0.0, 2.0 * p.y, -self.theta, 0.0)

    def analytic_equilibria(self) -> tuple[Point2, ...]:
        return (Point2(0.0, 0.0),)

    def first_integral(self, p: Point2) -> float:
        return arch_first_integral(self.theta, p)

    def separatrix_height(self, x: float) -> float:
        return arch_separatrix_height(self.theta, x)


def arch_first_integral(theta: float, p: Point2) -> float:
    """Conserved quantity H(x, y) = theta*x^2/2 + y^3/3 of the arch field."""
    _require_positive("theta", theta)
    return 0.5 * theta * p.x * p.x + p.y ** 3 / 3.0


def _cbrt(v: float) -> float:
    """Real cube root preserving sign (math.cbrt arrives in 3.11)."""
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def arch_separatrix_height(theta: float, x: float) -> float:
    """Height y = -(3*theta*x^2/2)^(1/3) of the zero level set of H at x."""
    _require_positive("theta", theta)
    _require_finite("x", x)
    return -_cbrt(1.5 * theta * x * x)
