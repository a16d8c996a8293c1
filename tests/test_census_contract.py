"""Contract of ``sector_census`` on chosen sign patterns of the probe circle.

A synthetic system hands the census any cyclic list of first-integral signs:
its ``first_integral`` is ``H0`` at the centre and ``H0 + label`` at the
probe sample of angle 2*pi*k/n, where k is recovered with ``atan2``. A
label of 0 lands inside the on-level band. ``H0`` is nonzero so the band
must be measured from H(center), not from zero.

Hand-picked patterns pin the counts; every sign list of length 8 is checked
against the run-length algorithm below, kept as the reference.
"""

import itertools
import math

import pytest

from archflow import Point2, sector_census

CENTER = Point2(1.0, -2.0)
H0 = 5.0


class SignCircle:
    """A system whose first integral takes chosen signs on the probe circle."""

    def __init__(self, labels, offset=1.0):
        self.labels = labels
        self.offset = offset

    def first_integral(self, p):
        if p == CENTER:
            return H0
        n = len(self.labels)
        k = round(math.atan2(p.y - CENTER.y, p.x - CENTER.x) * n / (2.0 * math.pi)) % n
        return H0 + self.offset * self.labels[k]


def census(labels, offset=1.0):
    c = sector_census(SignCircle(labels, offset), CENTER, samples=len(labels))
    return c.hyperbolic, c.elliptic, c.parabolic, c.separatrices


def _cyclic_runs(labels):
    n = len(labels)
    start = 0
    for i in range(n):
        if labels[i] != labels[i - 1]:
            start = i
            break
    else:
        return [(labels[0], n)]
    runs = []
    cur = labels[start]
    count = 0
    for k in range(n):
        lab = labels[(start + k) % n]
        if lab == cur:
            count += 1
        else:
            runs.append((cur, count))
            cur, count = lab, 1
    runs.append((cur, count))
    return runs


def reference(labels):
    """(hyperbolic, separatrices) by maximal cyclic runs of equal labels.

    Each nonzero run is one sector. A sign change between two nonzero runs
    is one separatrix, whether the runs touch or a run of zeros lies between.
    """
    runs = _cyclic_runs(labels)
    if len(runs) == 1:
        return (1 if runs[0][0] != 0 else 0), 0
    hyperbolic = sum(1 for lab, _ in runs if lab != 0)
    separatrices = 0
    m = len(runs)
    for i, (lab, _) in enumerate(runs):
        nxt = runs[(i + 1) % m][0]
        if lab != 0:
            if nxt != 0 and nxt != lab:
                separatrices += 1
        else:
            prev = runs[i - 1][0]
            if prev != 0 and nxt != 0 and prev != nxt:
                separatrices += 1
    return hyperbolic, separatrices


PATTERNS = {
    "positive everywhere": ([1] * 8, (1, 0)),
    "negative everywhere": ([-1] * 12, (1, 0)),
    "all on-level": ([0] * 8, (0, 0)),
    "+0+0: sectors without separatrix": ([1, 0] * 4, (4, 0)),
    "+0-0: each zero a separatrix": ([1, 0, -1, 0] * 2, (4, 4)),
    "alternating signs": ([1, -1] * 4, (8, 8)),
    "alternating signs, odd length wraps": ([1, -1] * 4 + [1], (8, 8)),
    "cusp with zeros straddling index 0": ([0, 0, 1, 1, 1, -1, -1, 0], (2, 2)),
    "one sign, zeros straddling index 0": ([0, 1, 1, 1, 1, 1, 1, 0], (1, 0)),
    "sign run straddling index 0": ([-1, -1, 1, 1, 1, 1, -1, -1], (2, 2)),
    "single flipped sample": ([1] * 7 + [-1], (2, 2)),
    "single nonzero sample": ([0] * 8 + [-1], (1, 0)),
    "same sign split by zeros, then a flip": ([1, 0, 1, 1, 0, -1, -1, 0, 0], (3, 2)),
}


@pytest.mark.parametrize("labels, expected", PATTERNS.values(), ids=PATTERNS.keys())
def test_pinned_patterns(labels, expected):
    hyperbolic, separatrices = expected
    assert census(labels) == (hyperbolic, 0, 0, separatrices)
    assert reference(labels) == expected


def test_every_length_8_sequence_matches_the_run_length_reference():
    for labels in itertools.product((1, 0, -1), repeat=8):
        hyperbolic, separatrices = reference(labels)
        assert census(list(labels)) == (hyperbolic, 0, 0, separatrices), labels


def test_band_is_measured_from_the_centre_value():
    band = 1e-3 * 0.5**3  # default radius 0.5
    pattern = [1, 1, -1, -1, 1, 1, -1, -1]
    assert census(pattern, offset=0.9 * band) == (0, 0, 0, 0)
    assert census(pattern, offset=1.1 * band) == (4, 0, 0, 4)
