"""Frozen DP5(4) trajectories: the event engine must not move a sample.

Each case integrates the arch field with the adaptive method and compares the
``repr`` of every (time, x, y) sample, through a digest, with the values the
engine gave when these pins were taken. A box exit's final sample is located
inside the last step, so it is pinned by value instead: it must lie outside
the box and within 1e-9 of the pinned sample.
"""

import hashlib

import pytest

from archflow import ArchSystem, IntegratorConfig, Point2, Window, integrate

BOX = Window(-4.0, 4.0, -4.0, 4.0)
# Step budget of the "separatrix" case. The run along the left separatrix
# branch heads for the cusp but never reaches it, so max_steps ends it; with
# the start sample it records the pinned count.
SEPARATRIX_STEPS = {0.001: 114, 0.5: 167, 5.0: 220}


def _cases(theta):
    s = ArchSystem(theta)
    return {
        "forward_time": (Point2(-1.0, 0.5), IntegratorConfig(stop_time=2.0)),
        "backward_time": (
            Point2(1.0, 0.5),
            IntegratorConfig(stop_time=2.0, direction="backward"),
        ),
        "forward_box": (Point2(0.0, 1.0), IntegratorConfig(stop_box=BOX)),
        "backward_box": (
            Point2(0.5, 1.0),
            IntegratorConfig(stop_box=BOX, direction="backward"),
        ),
        "forward_box_tight": (
            Point2(0.0, 1.0),
            IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, stop_box=BOX),
        ),
        "separatrix": (
            Point2(-2.0, s.separatrix_height(-2.0)),
            IntegratorConfig(max_steps=SEPARATRIX_STEPS[theta], stop_box=BOX),
        ),
    }


def _digest(samples):
    text = "\n".join(f"{t!r} {p.x!r} {p.y!r}" for t, p in samples)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (theta, case) -> (stop reason, sample count, digest of the pinned samples,
# final sample of a box exit as (t, x, y) or None)
PINS = {
    (0.001, "forward_time"): ("time_horizon", 8, "8be6b75269de5b4d", None),
    (0.001, "backward_time"): ("time_horizon", 8, "d4b88bd640790b8c", None),
    (0.001, "forward_box"): (
        "box_exit", 17, "6902b9e7038e957c",
        (4.021593302282747, 4.0000000000000275, 0.9919351327684481),
    ),
    (0.001, "backward_box"): (
        "box_exit", 19, "5c88d2a7a9bb745f",
        (-4.520496714200393, -4.00000000000006, 0.9920621573738528),
    ),
    (0.001, "forward_box_tight"): (
        "box_exit", 36, "199f87e0148a401c",
        (4.021593302283429, 4.000000000000056, 0.9919351327684626),
    ),
    (0.001, "separatrix"): ("max_steps", 115, "3a0864e6acc62d36", None),
    (0.5, "forward_time"): ("time_horizon", 84, "dbc2f1e6716c64d8", None),
    (0.5, "backward_time"): ("time_horizon", 84, "1bd035a8673dd036", None),
    (0.5, "forward_box"): (
        "box_exit", 188, "64cb1ddd41331808",
        (4.977637386123811, 4.000000000000139, -2.223980090460189),
    ),
    (0.5, "backward_box"): (
        "box_exit", 208, "ac7d243b393c552c",
        (-5.231100233058632, -4.000000000000251, -2.2112713554589516),
    ),
    (0.5, "forward_box_tight"): (
        "box_exit", 470, "345d74c0e57e62ef",
        (4.977637386132221, 4.000000000000059, -2.2239800905693414),
    ),
    (0.5, "separatrix"): ("max_steps", 168, "ca193781627e9938", None),
    (5.0, "forward_time"): ("time_horizon", 534, "637c5a9a26cbe4b8", None),
    (5.0, "backward_time"): ("time_horizon", 534, "5e27db4fd2b62086", None),
    (5.0, "forward_box"): (
        "box_exit", 216, "2b6d20515051c2aa",
        (1.756905223110024, 2.94392028877849, -4.000000000000085),
    ),
    (5.0, "backward_box"): (
        "box_exit", 244, "22c6cae49d2bbc25",
        (-1.6905118566679447, -2.986078811201612, -4.000000000000746),
    ),
    (5.0, "forward_box_tight"): (
        "box_exit", 543, "b0fd19430b8c7025",
        (1.7569052231086897, 2.9439202887780036, -4.0000000000008304),
    ),
    (5.0, "separatrix"): ("max_steps", 221, "eae0e56bf9869271", None),
}


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_rk45_samples_are_pinned(key):
    theta, case = key
    reason, count, digest, final = PINS[key]
    start, cfg = _cases(theta)[case]
    traj = integrate(ArchSystem(theta), start, cfg)
    assert traj.stop_reason == reason
    assert len(traj) == count
    if final is None:
        assert _digest(traj.samples) == digest
        return
    assert _digest(traj.samples[:-1]) == digest
    t, p = traj.samples[-1]
    assert not BOX.contains_point(p)
    assert t == pytest.approx(final[0], abs=1e-9)
    assert p.x == pytest.approx(final[1], abs=1e-9)
    assert p.y == pytest.approx(final[2], abs=1e-9)
