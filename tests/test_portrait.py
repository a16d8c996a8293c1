import hashlib
import math
import random
from fractions import Fraction

import pytest

from archflow import (
    ArchSystem,
    IntegratorConfig,
    Point2,
    PortraitSpec,
    Scene,
    StyledPath,
    Trajectory,
    Window,
    build_portrait,
    export_trajectory_csv,
    integrate,
    render_svg,
    seed_points,
    trace_separatrix,
)

PRESETS = (0.001, 0.5, 5.0)


def test_styled_path_validation():
    points = (Point2(0.0, 0.0), Point2(1.0, 1.0))
    StyledPath("separatrix", points)
    with pytest.raises(ValueError):
        StyledPath("separatrix", points[:1])
    with pytest.raises(ValueError):
        StyledPath("decoration", points)


def test_portrait_spec_validation():
    system = ArchSystem(0.5)
    with pytest.raises(ValueError):
        PortraitSpec(system=system, seeds_above=-1)
    with pytest.raises(ValueError):
        PortraitSpec(system=system, seed_inset=0.5)
    with pytest.raises(ValueError):
        PortraitSpec(system=system, separatrix_resolution=0)


def test_portrait_palette_is_fixed():
    # The spec holds no palette, so nothing reachable from it can drop a role.
    spec = PortraitSpec(system=ArchSystem(0.5), seeds_above=1, seeds_below=1)
    assert not hasattr(spec, "style")
    with pytest.raises(TypeError):
        PortraitSpec(system=ArchSystem(0.5), style={})
    strokes = {(path.role, path.color, path.width) for path in build_portrait(spec).paths}
    assert strokes == {
        ("separatrix", "#cc0000", 2.4),
        ("upper_sector", "#1a7f1a", 1.2),
        ("lower_sector", "#8b5a2b", 1.2),
    }


def test_seed_points_counts_and_sides():
    for theta in PRESETS:
        spec = PortraitSpec(system=ArchSystem(theta))
        seeds = seed_points(spec)
        uppers = [p for p, role in seeds if role == "upper_sector"]
        lowers = [p for p, role in seeds if role == "lower_sector"]
        assert len(uppers) == 8 and len(lowers) == 4
        for p in uppers:
            assert spec.system.first_integral(p) > 0.0
        for p in lowers:
            assert spec.system.first_integral(p) < 0.0


def test_seed_points_edge_placement():
    # moderate stiffness: lower seeds on the left edge
    seeds = seed_points(PortraitSpec(system=ArchSystem(0.5)))
    lowers = [p for p, role in seeds if role == "lower_sector"]
    assert all(p.x == -4.0 for p in lowers)
    assert all(-4.0 < p.y < ArchSystem(0.5).separatrix_height(-4.0) for p in lowers)
    # strong stiffness: the separatrix leaves through the bottom, so the
    # lower seeds move to the bottom edge between its two crossings
    seeds = seed_points(PortraitSpec(system=ArchSystem(5.0)))
    lowers = [p for p, role in seeds if role == "lower_sector"]
    cap = math.sqrt(2.0 * 4.0 ** 3 / (3.0 * 5.0))
    assert all(p.y == -4.0 for p in lowers)
    assert all(-cap < p.x < cap for p in lowers)


def test_seed_counts_zero():
    spec = PortraitSpec(system=ArchSystem(0.5), seeds_above=0, seeds_below=0)
    assert seed_points(spec) == []
    scene = build_portrait(spec)
    assert len(scene.paths) == 2


def test_seeds_of_a_window_where_the_separatrix_square_underflows_lie_in_their_sectors():
    # In +-1e-200, 1.5*theta*x^2 underflows to 0, but the separatrix lies 4.2e-134
    # deep: it leaves through the bottom edge, between x = +-1.15e-300, and the
    # lower seeds sit on that span, where H < 0, not up the left edge, where H > 0.
    theta, s = 0.5, 1e-200
    spec = PortraitSpec(system=ArchSystem(theta), window=Window(-s, s, -s, s))
    seeds = seed_points(spec)
    lower = [p for p, role in seeds if role == "lower_sector"]
    assert len(lower) == 4 and all(p.y == -s for p in lower)
    for p, role in seeds:
        h = Fraction(theta) * Fraction(p.x) ** 2 / 2 + Fraction(p.y) ** 3 / 3
        assert (h < 0) == (role == "lower_sector") and h != 0, (p, role)
    left, right = trace_separatrix(theta, spec.window)
    assert left[0].y == right[0].y == -s
    assert right[0].x == pytest.approx(math.sqrt(4.0 / 3.0) * 1e-300, rel=1e-12)


def test_a_window_above_the_separatrix_gets_no_lower_seeds():
    # The separatrix leaves Window(0, 4, 0, 4) only at its corner, the cusp.
    spec = PortraitSpec(system=ArchSystem(0.5), window=Window(0.0, 4.0, 0.0, 4.0))
    assert [role for _, role in seed_points(spec)] == ["upper_sector"] * 8
    scene = build_portrait(spec)
    assert [p.role for p in scene.paths] == ["separatrix"] * 2 + ["upper_sector"] * 8
    assert render_svg(scene).count("<polyline") == 10


def test_seed_points_are_pinned():
    # 5000 specs with theta log-uniform in 1e-9..1e9 and windows at scales
    # 1e-300..1e300, half of them square about the origin and half with
    # random bounds, so every branch of the seed layout shows: an upper path
    # with and without its left leg, lower seeds on the left edge, on the
    # bottom span, and none. A change of layout or arithmetic that moves any
    # seed by one bit changes a digest. Windows of scale 1e-50 and up have one
    # digest: their seeds kept their bits when the separatrix moved to exact
    # scaling. The smaller ones have another, since 1.5*theta*x^2 underflowed
    # or left the band there, and the separatrix with it.
    rng = random.Random(20260531)
    digests = {True: hashlib.sha256(), False: hashlib.sha256()}
    for _ in range(5000):
        theta = 10.0 ** rng.uniform(-9.0, 9.0)
        s = 10.0 ** rng.uniform(-300.0, 300.0)
        if rng.random() < 0.5:
            window = Window(-s, s, -s, s)
        else:
            xs = sorted(s * rng.uniform(-1.0, 1.0) for _ in range(2))
            ys = sorted(s * rng.uniform(-1.0, 1.0) for _ in range(2))
            window = Window(xs[0], xs[1], ys[0], ys[1])
        spec = PortraitSpec(
            system=ArchSystem(theta), window=window, seeds_above=rng.randint(0, 12),
            seeds_below=rng.randint(0, 6), seed_inset=rng.choice((0.0, 0.05, 0.3, 0.49)),
        )
        for p, role in seed_points(spec):
            digests[s >= 1e-50].update(repr((p.x, p.y, role)).encode())
    assert digests[True].hexdigest() == (
        "8e21dfceb05cda08338d20ccd9514803258cd4e094afcb90e3b28106bc10daf7")
    assert digests[False].hexdigest() == (
        "13e9edee8cdc353948734d7cf23a8324f0fe600df840b022aad03d2a5217d090")


def test_upper_seeds_follow_the_corner_path_where_its_length_passes_the_largest_float():
    # The left edge above the separatrix and the top edge together are about
    # 2.4e308 long: the seeds still run up the left edge and then right along
    # the top, in order and evenly spaced, and none lands on the far corner.
    w = Window(-8e307, 8e307, -8e307, 8e307)
    y0 = ArchSystem(1.0).separatrix_height(w.x_min)
    seeds = seed_points(PortraitSpec(ArchSystem(1.0), w))
    uppers = [p for p, role in seeds if role == "upper_sector"]
    assert len(uppers) == 8

    def arc(p):  # distance along the path at half scale, where every sum is finite
        if p.x == w.x_min:
            return 0.5 * p.y - 0.5 * y0
        assert p.y == w.y_max
        return 0.5 * w.y_max - 0.5 * y0 + (0.5 * p.x - 0.5 * w.x_min)

    assert [p.x == w.x_min for p in uppers] == [True] * 3 + [False] * 5
    assert (uppers[0].x, uppers[0].y) == (-8e307, 2.55e307)
    assert all((p.x, p.y) != (w.x_max, w.y_max) for p in uppers)
    total = 0.5 * w.y_max - 0.5 * y0 + 0.5 * w.width
    arcs = [arc(p) for p in uppers]
    assert arcs[0] == pytest.approx(total * (0.05 + 0.9 / 16), rel=1e-12)
    for a, b in zip(arcs, arcs[1:]):
        assert b - a == pytest.approx(total * 0.9 / 8, rel=1e-12)


def test_build_portrait_structure():
    for theta in PRESETS:
        scene = build_portrait(PortraitSpec(system=ArchSystem(theta)))
        roles = [p.role for p in scene.paths]
        assert roles == ["separatrix"] * 2 + ["upper_sector"] * 8 + ["lower_sector"] * 4
        for p in scene.paths:
            if p.role == "separatrix":
                assert (p.color, p.width) == ("#cc0000", 2.4)
            elif p.role == "upper_sector":
                assert (p.color, p.width) == ("#1a7f1a", 1.2)
            else:
                assert (p.color, p.width) == ("#8b5a2b", 1.2)


def test_build_portrait_containment():
    for theta in PRESETS:
        scene = build_portrait(PortraitSpec(system=ArchSystem(theta)))
        box = scene.spec.window.inflated(0.05)
        for path in scene.paths:
            for p in path.points:
                assert box.contains_point(p, pad=1e-6)


def test_build_portrait_sign_coherence():
    for theta in PRESETS:
        system = ArchSystem(theta)
        scene = build_portrait(PortraitSpec(system=system))
        for path in scene.paths:
            for p in path.points:
                h = system.first_integral(p)
                if path.role == "separatrix":
                    assert abs(h) <= 1e-10
                elif path.role == "upper_sector":
                    assert h > -1e-9
                else:
                    assert h < 1e-9


def test_build_portrait_paths_are_flow_ordered():
    for theta in PRESETS:
        system = ArchSystem(theta)
        scene = build_portrait(PortraitSpec(system=system))
        for path in scene.paths:
            for a, b in zip(path.points, path.points[1:]):
                fx, fy = system.field_at(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
                assert (b.x - a.x) * fx + (b.y - a.y) * fy > 0.0


def test_upper_paths_peak_on_vertical_axis():
    for theta in PRESETS:
        scene = build_portrait(PortraitSpec(system=ArchSystem(theta)))
        for path in scene.paths:
            if path.role != "upper_sector":
                continue
            ys = [p.y for p in path.points]
            xs = [abs(p.x) for p in path.points]
            assert abs(ys.index(max(ys)) - xs.index(min(xs))) <= 1


def test_plain_arch_upper_paths_nearly_flat():
    scene = build_portrait(PortraitSpec(system=ArchSystem(0.001)))
    for path in scene.paths:
        if path.role != "upper_sector":
            continue
        ys = [p.y for p in path.points]
        assert max(ys) - ys[0] < 0.05


def test_build_portrait_deterministic():
    spec_a = PortraitSpec(system=ArchSystem(0.5))
    spec_b = PortraitSpec(system=ArchSystem(0.5))
    scene_a = build_portrait(spec_a)
    scene_b = build_portrait(spec_b)
    assert scene_a.paths == scene_b.paths
    assert render_svg(scene_a) == render_svg(scene_b)


def test_build_portrait_names_a_seed_whose_halves_both_stall(stalled_at_seeds):
    spec = PortraitSpec(system=stalled_at_seeds(0.5))
    (seed, role), *_ = seed_points(spec)
    message = (
        f"seed 0 ({role}) at ({seed.x}, {seed.y}) did not leave the box: "
        "backward step_underflow, forward step_underflow"
    )
    with pytest.raises(ValueError) as info:
        build_portrait(spec)
    assert str(info.value) == message


def test_build_portrait_rejects_a_window_whose_field_underflows():
    # At a half-side of 1e-320 both y*y and theta*x round to 0, so no seed
    # moves and both halves end at the time horizon inside the box: a stub
    # must not pass for a flow line.
    spec = PortraitSpec(system=ArchSystem(1e-9), window=Window(-1e-320, 1e-320, -1e-320, 1e-320))
    (seed, role), *_ = seed_points(spec)
    message = (
        f"seed 0 ({role}) at ({seed.x}, {seed.y}) did not leave the box: "
        "backward time_horizon, forward time_horizon"
    )
    with pytest.raises(ValueError) as info:
        build_portrait(spec)
    assert str(info.value) == message


def test_build_portrait_names_a_seed_with_one_half_short_of_the_box(monkeypatch):
    # A half that advanced but stopped inside the box is not a flow line
    # either, even when the other half left it.
    def short_backward(system, start, config):
        traj = integrate(system, start, config)
        if config.direction == "forward":
            return traj
        return Trajectory(traj.samples[:2], "max_steps")

    monkeypatch.setattr("archflow.portrait.integrate", short_backward)
    spec = PortraitSpec(system=ArchSystem(0.5))
    (seed, role), *_ = seed_points(spec)
    message = (
        f"seed 0 ({role}) at ({seed.x}, {seed.y}) did not leave the box: "
        "backward max_steps, forward box_exit"
    )
    with pytest.raises(ValueError) as info:
        build_portrait(spec)
    assert str(info.value) == message


def test_build_portrait_names_the_seed_of_a_box_exit_past_the_float_range():
    # Above y = 1 the field kicks x at 1e308, so the step that crosses that
    # line locates a box exit that is not finite; the error names its seed.
    class Kick(ArchSystem):
        __slots__ = ()

        def field_at(self, x, y):
            return (1e308 if y >= 1.0 else 0.0), 1.0

    with pytest.raises(ValueError) as info:
        build_portrait(PortraitSpec(Kick(1.0), tol=0.1))
    assert str(info.value).startswith(
        "seed 0 (upper_sector) at (-4.0, -1.3030211069244921) diverged: "
        "Point2 coordinates must be finite, got nan"
    )


def test_build_portrait_steps_at_the_seeds_own_time_scale():
    # At |x| near 1e159 the flow changes on a time scale near 1e-47, far below
    # the unit-scale step floor; the floor follows that scale, so every seed
    # advances and each half leaves the box.
    spec = PortraitSpec(system=ArchSystem(1e-9), window=Window(-1e160, 1e160, -1e10, 1.0))
    scene = build_portrait(spec)
    assert len(scene.paths) == 14
    assert all(len(path.points) > 2 for path in scene.paths)


def test_render_svg_document_shape():
    scene = build_portrait(PortraitSpec(system=ArchSystem(0.5)))
    svg = render_svg(scene)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 14
    assert svg.count('<path d="M') == 14  # one arrowhead per path
    assert 'viewBox="0 0 800 800"' in svg
    assert "#cc0000" in svg and "#1a7f1a" in svg and "#8b5a2b" in svg


def test_render_svg_respects_size_and_arrows_flag():
    spec = PortraitSpec(system=ArchSystem(0.5), arrowheads=False)
    svg = render_svg(build_portrait(spec), width_px=400, height_px=300)
    assert 'width="400" height="300"' in svg
    assert 'viewBox="0 0 400 300"' in svg
    assert '<path d="M' not in svg
    scene = build_portrait(spec)
    for size in (0, math.nan, math.inf):
        for width_px, height_px in ((size, 800), (800, size)):
            with pytest.raises(ValueError, match="pixel dimensions must be >= 1"):
                render_svg(scene, width_px, height_px)


def test_scene_reads_window_description_and_arrows_from_its_spec():
    spec = PortraitSpec(system=ArchSystem(0.5), seeds_above=1, seeds_below=1)
    scene = build_portrait(spec)
    assert scene.spec is spec
    assert hash(scene) == hash(build_portrait(spec))
    svg = render_svg(scene)
    assert (
        "<desc>theta=0.5; window=[-4.0, 4.0] x [-4.0, 4.0]; seeds=1 upper / 1 lower; "
        "integrator=rk45 step=0.01 rel_tol=1e-10 abs_tol=1e-10; arrowheads=true</desc>"
    ) in svg
    assert svg.count('<path d="M') == len(scene.paths)
    plain = render_svg(Scene(spec._replace(arrowheads=False), scene.paths))
    assert '<path d="M' not in plain and "arrowheads=false</desc>" in plain


@pytest.mark.parametrize("s", [1e-4, 0.5, 1.0])
def test_the_description_prints_the_seed_runs_abs_tol(s, monkeypatch):
    used = set()

    def recording(system, start, config):
        used.add((config.rel_tol, config.abs_tol))
        return integrate(system, start, config)

    monkeypatch.setattr("archflow.portrait.integrate", recording)
    spec = PortraitSpec(ArchSystem(0.5), window=Window(-s, s, -s, s), seeds_above=1, seeds_below=1)
    svg = render_svg(build_portrait(spec))
    # The absolute tolerance follows the window's half-side below 1, as trace's does.
    [(rel_tol, abs_tol)] = used
    assert (rel_tol, abs_tol) == (1e-10, 1e-10 * min(1.0, s))
    assert f"rel_tol=1e-10 abs_tol={abs_tol};" in svg


@pytest.mark.parametrize("theta, s", [(1e-9, 1e-12), (0.5, 1e-30)])
def test_seeded_paths_cross_a_tiny_window(theta, s):
    # Seed runs stop only at their box, however long they take to leave it,
    # so no seeded path starts or ends inside the window.
    spec = PortraitSpec(ArchSystem(theta), window=Window(-s, s, -s, s))
    paths = build_portrait(spec).paths[2:]
    assert len(paths) == 12
    for path in paths:
        points = path.points
        assert not spec.window.contains_point(points[0])
        assert not spec.window.contains_point(points[-1])


@pytest.mark.parametrize("theta", PRESETS)
def test_a_small_window_keeps_a_unit_window_drift(theta):
    # The largest |H - H(seed)| along a seeded path, relative to H's size
    # theta*s^2/2 + s^3/3 on a window of half-side s. With the absolute
    # tolerance left at tol it read 1e-8 to 8e-8 here, and 1e-15 to 3e-12 at s = 4.
    s = 1e-4
    system = ArchSystem(theta)
    spec = PortraitSpec(system, window=Window(-s, s, -s, s))
    paths = build_portrait(spec).paths[2:]
    drift = max(
        abs(system.first_integral(p) - system.first_integral(seed))
        for (seed, _), path in zip(seed_points(spec), paths) for p in path.points
    )
    assert drift / (theta * s * s / 2.0 + s**3 / 3.0) <= 1e-9


def test_a_path_without_a_direction_at_its_middle_gets_no_arrowhead():
    spec = PortraitSpec(system=ArchSystem(0.5))
    still = StyledPath("upper_sector", (Point2(0.0, 1.0), Point2(0.5, 1.0), Point2(0.0, 1.0)))
    moving = StyledPath("upper_sector", (Point2(0.0, 1.0), Point2(0.5, 1.0), Point2(1.0, 1.0)))
    assert '<path d="M' not in render_svg(Scene(spec, (still,)))
    assert render_svg(Scene(spec, (still, moving))).count('<path d="M') == 1


def test_render_svg_bytes_are_pinned():
    # 24 specs drawn as the portrait-render benchmark draws them (theta
    # log-uniform in 1e-3..10, a square window of half-width 4*s with s in
    # 0.5..2, 4-16 seeds above and 2-8 below), one without arrowheads and one
    # at 640x480: a change of integrator or renderer that moves any vertex
    # by a hundredth of a pixel changes this digest.
    rng = random.Random(20201014)
    specs = []
    for _ in range(24):
        theta = 10.0 ** rng.uniform(-3.0, 1.0)
        s = 4.0 * rng.uniform(0.5, 2.0)
        specs.append(PortraitSpec(
            system=ArchSystem(theta), window=Window(-s, s, -s, s),
            seeds_above=rng.randint(4, 16), seeds_below=rng.randint(2, 8),
        ))
    svgs = [render_svg(build_portrait(spec)) for spec in specs]
    svgs.append(render_svg(build_portrait(specs[0]._replace(arrowheads=False))))
    svgs.append(render_svg(build_portrait(specs[1]), width_px=640, height_px=480))
    digest = hashlib.sha256()
    for svg in svgs:
        digest.update(svg.encode())
    assert digest.hexdigest() == "22ce7a04a7d1ef0264cc6c6947cb90ac28b735e04114ac6e9e2a5cb0d677bc6a"


def test_export_trajectory_csv_round_trip():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.0, 1.0), IntegratorConfig(stop_time=1.0))
    text = export_trajectory_csv(t, 0.5)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,y,H"
    assert len(lines) == len(t) + 1
    for (time, p), line in zip(t.samples, lines[1:]):
        st, sx, sy, sh = line.split(",")
        assert float(st) == time
        assert float(sx) == p.x
        assert float(sy) == p.y
        assert float(sh) == s.first_integral(p)
    with pytest.raises(ValueError):
        export_trajectory_csv(t, -0.5)


def _reference_csv(trajectory, theta):
    """The export written through ``Trajectory.samples`` and ``first_integral``."""
    system = ArchSystem(theta)
    rows = ["t,x,y,H"]
    for t, p in trajectory.samples:
        rows.append(f"{t:.17g},{p.x:.17g},{p.y:.17g},{system.first_integral(p):.17g}")
    return "\n".join(rows) + "\n"


def _csv_runs():
    rng = random.Random(21)
    for kind in ("boxed", "horizon", "backward"):
        for _ in range(4):
            theta = 10.0 ** rng.uniform(-3.0, 1.0)
            start = Point2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            cfg = {
                "boxed": IntegratorConfig(stop_box=Window(-4, 4, -4, 4)),
                "horizon": IntegratorConfig(stop_time=rng.uniform(0.1, 0.5)),
                "backward": IntegratorConfig(stop_box=Window(-4, 4, -4, 4), direction="backward"),
            }[kind]
            yield kind, theta, integrate(ArchSystem(theta), start, cfg)
    # The default `trace --theta 0.5` run, with the CLI's settings.
    default = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10, stop_time=10.0)
    yield "default trace", 0.5, integrate(ArchSystem(0.5), Point2(0.0, 1.0), default)


def test_export_trajectory_csv_matches_the_samples_reference():
    runs = list(_csv_runs())
    assert len(runs[-1][2]) == 5005
    for kind, theta, run in runs:
        text = export_trajectory_csv(run, theta)
        assert text == _reference_csv(run, theta), kind


def test_export_trajectory_csv_conserves_h_column():
    s = ArchSystem(0.5)
    t = integrate(s, Point2(0.5, 0.5), IntegratorConfig(stop_box=Window(-4, 4, -4, 4)))
    rows = export_trajectory_csv(t, 0.5).strip().split("\n")[1:]
    h_values = [float(r.split(",")[3]) for r in rows]
    assert max(abs(h - h_values[0]) for h in h_values) <= 1e-8


@pytest.mark.parametrize("exit_edge", ["side", "bottom"])
@pytest.mark.parametrize("theta", [float(f"1e{k}") for k in range(-9, 10)])
def test_portrait_separatrix_paths_are_the_traced_separatrix(theta, exit_edge):
    # The curve sinks to -depth at x = 4. A bottom at twice that lets both
    # branches leave the inflated box through its sides; one at half of it
    # clips both at the bottom edge.
    depth = -ArchSystem(theta).separatrix_height(4.0)
    bottom = -2.0 * depth if exit_edge == "side" else -0.5 * depth
    window = Window(-3.0, 4.0, bottom, depth)
    spec = PortraitSpec(ArchSystem(theta), window=window, seeds_above=0, seeds_below=0)
    box = window.inflated(0.05)
    left, right = trace_separatrix(theta, box, spec.separatrix_resolution)
    if exit_edge == "side":
        assert (left[0].x, right[0].x) == (box.x_min, box.x_max)
    else:
        assert box.x_min < left[0].x and right[0].x < box.x_max

    def bits(points):
        return [(p.x.hex(), p.y.hex()) for p in points]

    first, second = build_portrait(spec).paths
    assert (first.role, second.role) == ("separatrix", "separatrix")
    assert bits(first.points) == bits(left)
    assert bits(second.points) == bits(reversed(right))
