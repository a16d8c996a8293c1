"""Times along the arch field's orbits from the orbit graph, without integrating.

``H = theta*x^2/2 + y^3/3`` is conserved, so every orbit is the graph
``y = cbrt(3H - 1.5*theta*x^2)``, and since ``dx/dt = y^2`` the time between
two of its points is ``t = integral dx / y(x)^2``. The x-interval is cut at
each zero ``x = +-sqrt(2H/theta)`` of y when H > 0, where the integrand has
an integrable ``|x - x_z|^(-2/3)`` end singularity, and at ``x = 0`` when
H < 0, where the poles at ``+-i*sqrt(2|H|/theta)`` can lie close to the real
axis. Each piece is summed by tanh-sinh quadrature (Takahasi & Mori, *Double
exponential formulas for numerical integration*, 1974).

Cut points and samples are anchors at ``x_a`` with ``c_a = y_a^3``. A node
at distance D from the nearer end of its piece takes
``y^3 = c_a - 1.5*theta*D*(2*x_a + D)`` from that end, so y^3 keeps its
relative accuracy however close the node is to a zero. Each zero takes H from
the nearer sample: a sample's own H places the zero beside it consistently
with the sign of its y. ``apex_escape_time`` is the closed form the quadrature
and the integrator are both checked against, and ``closed_form_angle`` the
one ``opening_angle`` is.
"""

import math

_H = 1.0 / 64.0
# Tanh-sinh nodes on [0, 1] as (u, 1 - u, weight); both u and 1 - u are exact
# to rounding however close the node lies to an end.
_NODES = [(0.5, 0.5, math.pi * _H / 4.0)]
for _k in range(1, 391):
    _d = 1.0 / (1.0 + math.exp(math.pi * math.sinh(_k * _H)))
    _w = math.pi * _H * math.cosh(_k * _H) * _d * (1.0 - _d)
    _NODES += [(_d, 1.0 - _d, _w), (1.0 - _d, _d, _w)]


def orbit_time(theta, p0, p1):
    """|t| between two samples ``(x, y)`` of one run of the arch field."""
    left, right = sorted([p0, p1])
    anchors = [_anchor(left), *_cuts(1.5 * theta, left, right), _anchor(right)]
    return sum(_piece(1.5 * theta, a, b) for a, b in zip(anchors, anchors[1:]))


def escape_time(theta, p0):
    """Forward time from the sample ``(x, y)`` to ``x = +inf``."""
    anchors = [_anchor(p0), *_cuts(1.5 * theta, p0, None)]
    pieces = sum(_piece(1.5 * theta, a, b) for a, b in zip(anchors, anchors[1:]))
    return pieces + _tail(1.5 * theta, anchors[-1])


def apex_escape_time(theta, apex):
    """Closed-form escape time from ``(0, apex)``, apex > 0.

    Along ``x = 0`` the field gives ``y'' = -theta*y^2``, so the orbit reaches
    infinity at ``T* = sqrt(3/(2*theta*apex)) * (B(1/3, 1/2) + B(1/3, 1/6)) / 3``.
    """
    beta_sum = _beta(1.0 / 3.0, 0.5) + _beta(1.0 / 3.0, 1.0 / 6.0)
    return math.sqrt(3.0 / (2.0 * theta * apex)) * beta_sum / 3.0


def closed_form_angle(theta, apex=1.0, fraction=0.5):
    """Angle in degrees between the flanks through ``(0, apex)`` at ``y = fraction*apex``.

    The apex's orbit meets that line where ``theta*x^2/2 = apex^3*(1 - f^3)/3``,
    and its slope ``|dy/dx| = theta*|x|/y^2`` there is
    ``m = sqrt(2*theta*(1 - f^3)/(3*apex)) / f^2``, so the angle is
    ``180 - 2*atan(m)``. ``1 - f^3`` is taken as ``(1 - f)*(1 + f + f^2)``,
    which keeps its relative accuracy as f nears 1. Where ``f*f`` underflows
    to 0 the slope is taken as infinite, which gives 0 degrees.
    """
    f = fraction
    m = math.sqrt(2.0 * theta * (1.0 - f) * (1.0 + f + f * f) / (3.0 * apex))
    m = m / (f * f) if f * f else math.inf
    return 180.0 - 2.0 * math.degrees(math.atan(m))


def _beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


# An anchor is (base, offset, y^3) at x = base + offset, where base is a
# sample's x: a piece between anchors of one base then has its exact length,
# however short it is next to the sum base + offset rounded to a double.
def _anchor(p):
    return p[0], 0.0, p[1] ** 3


def _cuts(k, left, right):
    """Anchors strictly between two samples (right None: x = +inf), in x order."""
    samples = [left] if right is None else [left, right]
    xr, yr = (math.inf, -1.0) if right is None else right
    if max(x * x + y**3 / k for x, y in samples) <= 0.0:  # H <= 0: y < 0 throughout
        x, y = min(samples, key=lambda s: abs(s[0]))
        return [(0.0, 0.0, k * x * x + y**3)] if left[0] < 0.0 < xr else []
    # The arcs of an orbit with H > 0: 0 left of -x_z, 1 between the zeros, 2 right of +x_z.
    arc_l, arc_r = [1 if y > 0.0 else (0 if x < 0.0 else 2) for x, y in (left, (xr, yr))]
    signs = [sign for sign, cut in ((-1.0, arc_l == 0 < arc_r), (1.0, arc_l < 2 == arc_r)) if cut]
    return [_zero(k, sign, samples) for sign in signs]


def _zero(k, sign, samples):
    """The zero of y at ``sign*sqrt(2H/theta)``, with H from the nearer sample."""
    found = []
    for x, y in samples:
        reach = x * x + y**3 / k  # 2H/theta from this sample's own H
        if reach > 0.0:
            root = math.sqrt(reach)
            # On the zero's own side, its gap from the sample, free of cancellation.
            gap = sign * y**3 / (k * (root + abs(x))) if sign * x > 0.0 else sign * root - x
            found.append((abs(gap), (x, gap, 0.0)))
    return min(found)[1]


def _piece(k, a, b):
    """Time from anchor a to anchor b on their orbit, a left of b."""
    xa, xb = a[0] + a[1], b[0] + b[1]
    ca, cb = a[2], b[2]
    length = (b[0] - a[0]) + (b[1] - a[1])
    total = 0.0
    for u, v, w in _NODES:
        if u <= v:
            d = length * u
            y3 = ca - k * d * (2.0 * xa + d)
        else:
            d = length * v
            y3 = cb + k * d * (2.0 * xb - d)
        if y3:  # zero only where an end node's y^3 underflows; its weight is ~1e-300
            total += w * abs(y3) ** (-2.0 / 3.0)
    return length * total


def _tail(k, a):
    """Time from anchor a to ``x = +inf``, by ``x = x_a + u/(1 - u)``.

    With ``v = 1 - u``, ``v^2 * y^3 = c_a*v^2 - k*u*(2*x_a*v + u)`` and the
    integrand ``dx/du / y^2`` is ``|v * v^2 * y^3|^(-2/3)``.
    """
    xa, ca = a[0] + a[1], a[2]
    total = 0.0
    for u, v, w in _NODES:
        scaled = v * (ca * v * v - k * u * (2.0 * xa * v + u))
        if scaled:
            total += w * abs(scaled) ** (-2.0 / 3.0)
    return total
