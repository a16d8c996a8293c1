"""The arch ridge-flow system and the records it works in."""

from __future__ import annotations

import math
import operator

_set = object.__setattr__  # how a record stores a field past its own __setattr__


def _require_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} must be finite, got {v!r}")


def _require_positive(label: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{label} must be finite and > 0, got {value!r}")


def _require_integer(label: str, value: object) -> None:
    """Accept any integer type (numpy's too) but no float, not even a whole one."""
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{label} must be an integer, got {value!r}") from None


class _Record:
    """Immutable record whose fields are its constructor's parameters, in order.

    A record's ``__init__`` validates its arguments, rebinds any it normalises
    (``theta = float(theta)``) and ends with ``self._store(locals())``. ``repr``,
    equality within the type, hashing, copying, pickling and ``_replace`` read
    the fields and rebuild the record through that same ``__init__``. A
    subclass without an ``__init__`` keeps its base's fields; one that calls
    ``super().__init__`` must store the fields it adds. Frozen dataclasses give
    the same behaviour, but importing ``dataclasses`` (or ``inspect``) and
    generating each class's methods was most of archflow's cold import time.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _store(self, values: dict) -> None:
        """Store each field found in ``values``, an ``__init__``'s locals(); skip the rest."""
        for name in self._fields:
            if name in values:
                _set(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A new record with the named fields changed, validated like any other."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class Point2(_Record):
    """A point (x, y) in the phase plane."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            _require_finite("Point2 coordinates", x, y)
        self._store(locals())


class Mat2(_Record):
    """A 2x2 real matrix, row major."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: float, a12: float, a21: float, a22: float) -> None:
        _require_finite("Mat2 entries", a11, a12, a21, a22)
        self._store(locals())


class Window(_Record):
    """Axis-aligned rectangle in the phase plane."""

    __slots__ = ("x_min", "x_max", "y_min", "y_max")

    def __init__(self, x_min: float, x_max: float, y_min: float, y_max: float) -> None:
        _require_finite("Window bounds", x_min, x_max, y_min, y_max)
        if not (x_min < x_max and y_min < y_max):
            raise ValueError(
                f"Window requires x_min < x_max and y_min < y_max, got "
                f"[{x_min}, {x_max}] x [{y_min}, {y_max}]"
            )
        self._store(locals())

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
        bounds = (self.x_min - px, self.x_max + px, self.y_min - py, self.y_max + py)
        if not all(map(math.isfinite, bounds)):  # an extent or a bound past the largest float
            raise ValueError(f"{self!r} grown by fraction {fraction} leaves the float range")
        return Window(*bounds)


class ArchSystem(_Record):
    """The arch ridge-flow field dx/dt = y**2, dy/dt = -theta * x with theta > 0."""

    __slots__ = ("theta",)

    def __init__(self, theta: float) -> None:
        _require_positive("theta", theta)
        theta = float(theta)
        self._store(locals())

    def field_at(self, x: float, y: float) -> tuple[float, float]:
        """Field components (dx/dt, dy/dt) at (x, y)."""
        return y * y, -self.theta * x

    def jacobian(self, p: Point2) -> Mat2:
        return Mat2(0.0, 2.0 * p.y, -self.theta, 0.0)

    def first_integral(self, p: Point2) -> float:
        """Conserved quantity H(x, y) = theta*x^2/2 + y^3/3 at p."""
        return 0.5 * self.theta * p.x * p.x + p.y ** 3 / 3.0

    def separatrix_height(self, x: float) -> float:
        """Height y = -(3*theta*x^2/2)^(1/3) of the zero level set of H at x."""
        if not math.isfinite(x):
            _require_finite("x", x)
        return -_arch_separatrix_depth(self.theta, x)


_B = 64  # sigma's band is [2^-_B, 2^_B), where K is 0
_LOW, _HIGH = 2.0 ** (-6 * _B), 2.0 ** (6 * _B)  # the band of sigma^6, about |H|


def _size(theta: float, x: float, y: float) -> float:
    """Size sigma of (x, y), which the map of runs (x, y, t) -> (s^3 x, s^2 y, t/s) scales by s."""
    return max(theta ** (1 / 6) * abs(x) ** (1 / 3), abs(y) ** 0.5)  # each root alone: finite


def _level(theta: float, x: float, y: float) -> tuple[float, int]:
    """(h, K) with H(x, y) = h * 2^(6K): K is frexp(sigma)[1], or 0 in the band, and h
    is H at (x/2^(3K), y/2^(2K)), an exact map, where it neither overflows nor underflows."""
    k = math.frexp(_size(theta, x, y))[1]
    k = 0 if -_B < k <= _B else k
    x, y = math.ldexp(x, -3 * k), math.ldexp(y, -2 * k)
    return 0.5 * theta * x * x + y ** 3 / 3.0, k


def _arch_separatrix_depth(theta: float, x: float) -> float:
    """(3*theta*x^2/2)^(1/3), the separatrix's depth below the x axis at x."""
    v = 1.5 * theta * x * x
    if _LOW <= v <= _HIGH:
        return v ** (1.0 / 3.0)
    h, k = _level(theta, x, 0.0)  # out of the band: (3h)^(1/3) * s^2, s = 2^K
    s = 2.0 ** k  # so that a depth past the largest float is inf, where ldexp raises
    return (3.0 * h) ** (1.0 / 3.0) * s * s


def _arch_separatrix_reach(theta: float, y: float) -> float:
    """Largest |x| whose separatrix height is at or above y; 0 when y >= 0."""
    if y >= 0.0:
        return 0.0
    q = 2.0 * abs(y) / (3.0 * theta)
    if _LOW <= q <= _HIGH:
        return abs(y) * math.sqrt(q)
    h, k = _level(theta, 0.0, y)  # out of the band: theta*x^2/2 = -H(0, y) at s = 2^K
    s = 2.0 ** k
    return math.sqrt(-2.0 * h) / math.sqrt(theta) * s * s * s
