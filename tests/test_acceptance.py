"""End-to-end checks for the arch flow engine.

Each test prints one `acceptance <name>: PASS` or `FAIL` line so a plain
pytest run doubles as a checklist. Expected numbers come from closed forms
written out in this file or in the tests' shared oracle module ``orbit_time``,
never from the code under test.
"""

import math
import random
import subprocess
import sys
from pathlib import Path

from archflow import (
    ArchSystem,
    IntegratorConfig,
    Point2,
    PortraitSpec,
    Window,
    build_portrait,
    classify_arch,
    find_equilibria,
    integrate,
    opening_angle,
    render_svg,
    sector_census,
    trace_separatrix,
)
from orbit_time import closed_form_angle

PRESET_THETAS = {"plain": 0.001, "tented": 0.5, "strong": 5.0}
GOLDEN = Path(__file__).parent / "golden"


def report(name):
    class Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"acceptance {name}: {verdict}")
            return False

    return Reporter()


def test_equilibrium_analysis_matches_hand_linearization():
    with report("equilibrium analysis"):
        for theta in PRESET_THETAS.values():
            system = ArchSystem(theta)
            equilibria = find_equilibria(system, Window(-4, 4, -4, 4))
            assert len(equilibria) == 1
            eq = equilibria[0]
            assert math.hypot(eq.location.x, eq.location.y) <= 1e-10
            j = eq.jacobian
            assert (j.a11, j.a12, j.a21, j.a22) == (0.0, 0.0, -theta, 0.0)
            assert all(abs(v) <= 1e-12 for v in eq.eigen.values)
            assert eq.classification == "degenerate_nonhyperbolic"
            census = sector_census(system)
            assert (
                census.hyperbolic,
                census.elliptic,
                census.parabolic,
                census.separatrices,
            ) == (2, 0, 0, 2)
            assert census.is_cusp


def test_first_integral_conserved_along_random_trajectories():
    with report("conservation oracle"):
        box = Window(-4.0, 4.0, -4.0, 4.0)
        for stream, theta in zip((11, 12, 13), PRESET_THETAS.values()):
            system = ArchSystem(theta)
            rng = random.Random(stream)
            cfg = IntegratorConfig(
                rel_tol=1e-10, abs_tol=1e-10, stop_box=box, max_steps=500_000
            )
            for _ in range(50):
                start = Point2(rng.uniform(-3, 3), rng.uniform(-3, 3))
                trajectory = integrate(system, start, cfg)
                assert trajectory.stop_reason == "box_exit"
                h0 = system.first_integral(start)
                drift = max(
                    abs(system.first_integral(p) - h0)
                    for p in trajectory.points
                )
                assert drift <= 1e-8


def test_adaptive_error_is_proportional_to_the_tolerance():
    # A DP5(4) run's global error follows its tolerance: each decade of
    # tolerance cuts the end-point error about tenfold. At theta = 0.001 the
    # error already sits at roundoff, so that preset is left out.
    with report("convergence order"):
        start = Point2(0.0, 1.0)
        for theta in (0.5, 5.0):
            system = ArchSystem(theta)
            reference = integrate(
                system,
                start,
                IntegratorConfig(rel_tol=1e-13, abs_tol=1e-13, stop_time=1.0),
            ).final_point
            errors = []
            for tol in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
                end = integrate(
                    system,
                    start,
                    IntegratorConfig(rel_tol=tol, abs_tol=tol, stop_time=1.0),
                ).final_point
                errors.append(math.hypot(end.x - reference.x, end.y - reference.y))
            for coarse, fine in zip(errors, errors[1:]):
                assert 5.0 <= coarse / fine <= 20.0


def test_separatrix_matches_closed_form_and_feeds_the_origin():
    with report("separatrix correctness"):
        window = Window(-4.0, 4.0, -4.0, 4.0)
        for theta in PRESET_THETAS.values():
            system = ArchSystem(theta)
            left, right = trace_separatrix(theta, window, resolution=99)
            assert all(len(column) == 100 for column in left + right)
            for xs, ys in (left, right):
                for x, y in zip(xs, ys):
                    assert abs(system.first_integral(Point2(x, y))) <= 1e-10
                    expected = -((1.5 * theta * x * x) ** (1.0 / 3.0))
                    assert abs(y - expected) <= 1e-10
            # On the left branch dx/dt = y^2 = c*|x|^(4/3), so |x|^(-1/3) grows
            # as |x0|^(-1/3) + c*t/3: the flow feeds the origin but never
            # reaches it. Run until the closed form puts |x| at r.
            c = (1.5 * theta) ** (2.0 / 3.0)
            start = Point2(-2.0, -((1.5 * theta * 4.0) ** (1.0 / 3.0)))
            for r in (1e-1, 1e-2, 1e-3):
                stop_time = 3.0 * (r ** (-1.0 / 3.0) - 2.0 ** (-1.0 / 3.0)) / c
                trajectory = integrate(
                    system,
                    start,
                    IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, stop_time=stop_time),
                )
                assert trajectory.stop_reason == "time_horizon"
                t, end = trajectory.samples[-1]
                x_closed_form = -((2.0 ** (-1.0 / 3.0) + c * t / 3.0) ** -3.0)
                assert abs(end.x - x_closed_form) <= 1e-10


def test_opening_angle_regimes_and_monotonicity():
    with report("angle regimes"):
        assert opening_angle(0.001) > 150.0
        assert opening_angle(5.0) < 30.0
        sweep = (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
        angles = [opening_angle(t) for t in sweep]
        for theta, angle in zip(sweep, angles):
            assert abs(angle - closed_form_angle(theta)) <= 1e-4
        for wide, narrow in zip(angles, angles[1:]):
            assert wide > narrow


def test_category_presets():
    with report("category presets"):
        assert classify_arch(0.001).category == "plain"
        assert classify_arch(0.5).category == "tented"
        assert classify_arch(5.0).category == "strong"


def test_portrait_structure_and_byte_stability():
    with report("portrait fidelity"):
        for name, theta in PRESET_THETAS.items():
            system = ArchSystem(theta)
            scene = build_portrait(PortraitSpec(system=system))
            roles = [p.role for p in scene.paths]
            assert roles == (
                ["separatrix"] * 2 + ["upper_sector"] * 8 + ["lower_sector"] * 4
            )
            for path in scene.paths:
                for p in path.points:
                    h = system.first_integral(p)
                    if path.role == "separatrix":
                        assert abs(h) <= 1e-10
                    elif path.role == "upper_sector":
                        assert h > -1e-9
                    else:
                        assert h < 1e-9
            for path in scene.paths:
                if path.role != "upper_sector":
                    continue
                ys = [p.y for p in path.points]
                xs = [abs(p.x) for p in path.points]
                assert abs(ys.index(max(ys)) - xs.index(min(xs))) <= 1
            svg = render_svg(scene)
            again = render_svg(build_portrait(PortraitSpec(system=ArchSystem(theta))))
            assert svg == again
            assert svg == (GOLDEN / f"{name}.svg").read_text()


def test_mirrored_flow_reverses_time():
    with report("reversal symmetry"):
        system = ArchSystem(0.5)
        rng = random.Random(1)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10, stop_time=1.0)
        for _ in range(20):
            start = Point2(rng.uniform(-2, 2), rng.uniform(-2, 2))
            end = integrate(system, start, cfg).final_point
            back = integrate(system, Point2(-end.x, end.y), cfg).final_point
            assert abs(back.x - (-start.x)) <= 1e-6
            assert abs(back.y - start.y) <= 1e-6


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "archflow", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_cli_black_box_contract(tmp_path):
    with report("cli black box"):
        for name in PRESET_THETAS:
            analyze = run_cli("analyze", "--preset", name, "--format", "machine")
            assert analyze.returncode == 0
            assert analyze.stdout == (GOLDEN / f"{name}_analyze.txt").read_text()
            classify = run_cli("classify", "--preset", name, "--format", "machine")
            assert classify.returncode == 0
            assert classify.stdout == (GOLDEN / f"{name}_classify.txt").read_text()
        ok = run_cli(
            "trace", "--theta", "1", "--tmax", "1", "--out", "t.csv", cwd=tmp_path
        )
        assert ok.returncode == 0
        runtime = run_cli(
            "trace", "--theta", "1", "--out", "no/dir/t.csv", cwd=tmp_path
        )
        assert runtime.returncode == 1 and runtime.stderr.strip()
        assert "no/dir/t.csv" in runtime.stderr
        usage = run_cli("classify", "--theta", "-3")
        assert usage.returncode == 2 and usage.stderr.strip()
