"""CLI behaviour, run in-process through ``archflow.cli.main``.

Only ``--help`` starts a real ``python -m archflow`` child; the black-box
subprocess checks live in ``test_acceptance.py``.
"""

import cmath
import subprocess
import sys
from types import SimpleNamespace

import pytest

from archflow import Trajectory
from archflow.cli import main
from orbit_time import apex_escape_time, orbit_time


@pytest.fixture
def run_cli(capsys):
    """Run ``main(args)`` and return its exit code and captured output.

    An argparse failure raises ``SystemExit(2)``; its code is returned like
    any other.
    """

    def run(*args):
        try:
            returncode = main(list(args))
        except SystemExit as exc:
            returncode = exc.code
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=returncode, stdout=out, stderr=err)

    return run


def parse_machine(text):
    out = {}
    for line in text.strip().split("\n"):
        key, value = line.split("=", 1)
        out[key] = value
    return out


def test_analyze_machine_output(run_cli):
    result = run_cli("analyze", "--preset", "tented", "--format", "machine")
    assert result.returncode == 0
    got = parse_machine(result.stdout)
    assert got["theta"] == "0.5"
    assert got["equilibria"] == "1"
    assert got["equilibrium_x"] == "0"
    assert got["equilibrium_y"] == "0"
    assert (got["j11"], got["j12"], got["j21"], got["j22"]) == ("0", "0", "-0.5", "0")
    assert got["eigen_kind"] == "real_repeated"
    assert got["eigenvalue_1"] == "0"
    assert got["eigenvalue_2"] == "0"
    assert got["classification"] == "degenerate_nonhyperbolic"
    assert (got["hyperbolic"], got["elliptic"], got["parabolic"]) == ("2", "0", "0")
    assert got["separatrices"] == "2"
    assert got["is_cusp"] == "true"


def test_analyze_human_output_mentions_cusp(run_cli):
    result = run_cli("analyze", "--theta", "5")
    assert result.returncode == 0
    assert "cusp: yes" in result.stdout
    assert "degenerate_nonhyperbolic" in result.stdout


def test_analyze_empty_window(run_cli):
    result = run_cli(
        "analyze", "--theta", "1", "--window", "2,3,2,3", "--format", "machine"
    )
    assert result.returncode == 0
    assert parse_machine(result.stdout)["equilibria"] == "0"


def test_classify_presets(run_cli):
    expected = {"plain": "plain", "tented": "tented", "strong": "strong"}
    for preset, category in expected.items():
        result = run_cli("classify", "--preset", preset, "--format", "machine")
        assert result.returncode == 0
        got = parse_machine(result.stdout)
        assert got["category"] == category


def test_classify_angle_value(run_cli):
    result = run_cli("classify", "--theta", "0.5", "--format", "machine")
    got = parse_machine(result.stdout)
    assert got["opening_angle_deg"] == "49.6798"


def test_trace_writes_csv(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli(
        "trace", "--theta", "0.5", "--tmax", "2", "--out", "run.csv",
        "--format", "machine",
    )
    assert result.returncode == 0
    got = parse_machine(result.stdout)
    assert got["out"] == "run.csv"
    assert got["stop_reason"] == "time_horizon"
    lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x,y,H"
    assert len(lines) == int(got["samples"]) + 1
    assert lines[1].startswith("0,0,1,")


def test_trace_with_a_horizon_below_1e_minus_12_takes_its_one_step(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli(
        "trace", "--theta", "0.5", "--tmax", "1e-13", "--out", "run.csv", "--format", "machine",
    )
    assert result.returncode == 0
    got = parse_machine(result.stdout)
    assert (got["samples"], got["stop_reason"]) == ("2", "time_horizon")
    assert (tmp_path / "run.csv").read_text().splitlines()[-1].startswith("1e-13,")


def test_trace_box_stop(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli(
        "trace", "--theta", "0.5", "--start", "0,1", "--tmax", "100",
        "--window=-2,2,-2,2", "--out", "run.csv", "--format", "machine",
    )
    assert result.returncode == 0
    assert parse_machine(result.stdout)["stop_reason"] == "box_exit"


def test_portrait_writes_svg(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli(
        "portrait", "--preset", "tented", "--out", "p.svg", "--format", "machine",
    )
    assert result.returncode == 0
    got = parse_machine(result.stdout)
    assert got == {"out": "p.svg", "paths": "14"}
    svg = (tmp_path / "p.svg").read_text()
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert svg.count("<polyline") == 14


def test_portrait_deterministic_bytes(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("a.svg", "b.svg"):
        result = run_cli(
            "portrait", "--theta", "5", "--out", name,
        )
        assert result.returncode == 0
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_portrait_seed_and_arrow_flags(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli(
        "portrait", "--theta", "0.5", "--seeds-above", "2", "--seeds-below", "1",
        "--no-arrows", "--out", "p.svg", "--format", "machine",
    )
    assert result.returncode == 0
    assert parse_machine(result.stdout)["paths"] == "5"
    assert '<path d="M' not in (tmp_path / "p.svg").read_text()


def test_sweep_rows(run_cli):
    result = run_cli(
        "sweep", "--theta-from", "0.001", "--theta-to", "5", "--steps", "5",
        "--format", "machine",
    )
    assert result.returncode == 0
    rows = result.stdout.strip().split("\n")
    assert len(rows) == 5
    first = dict(part.split("=") for part in rows[0].split())
    last = dict(part.split("=") for part in rows[-1].split())
    assert first["theta"] == "0.001" and first["category"] == "plain"
    assert last["theta"] == "5" and last["category"] == "strong"
    angles = [float(dict(p.split("=") for p in r.split())["opening_angle_deg"]) for r in rows]
    assert angles == sorted(angles, reverse=True)


@pytest.mark.parametrize("command", ["classify", "sweep"])
def test_vanishing_fraction_prints_a_zero_angle(run_cli, command):
    # The flank's exit lands on y == 0: an angle of 0, not a ZeroDivisionError.
    if command == "classify":
        theta = ("--theta", "0.5")
    else:
        theta = ("--theta-from", "0.25", "--theta-to", "0.5", "--steps", "2")
    result = run_cli(command, *theta, "--fraction", "1e-20", "--format", "machine")
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.strip().split("\n")
    assert len(lines) == (3 if command == "classify" else 2)
    angles = [line for line in lines if "opening_angle_deg=" in line]
    assert len(angles) == (1 if command == "classify" else 2)
    assert all(line.endswith("opening_angle_deg=0.0000") for line in angles)


def test_config_file_supplies_defaults(run_cli, tmp_path):
    cfg = tmp_path / "arch.cfg"
    cfg.write_text("# sample run\npreset = strong\nformat = machine\nfraction = 0.5\n")
    result = run_cli("classify", "--config", str(cfg))
    assert result.returncode == 0
    got = parse_machine(result.stdout)
    assert got["theta"] == "5"
    assert got["category"] == "strong"


@pytest.mark.parametrize("text, drawn", [
    ("yes", True), ("on", True), ("1", True), ("true", True), ("no", False), ("off", False),
])
def test_config_arrows_matches_the_flag(run_cli, tmp_path, monkeypatch, text, drawn):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arch.cfg").write_text(f"theta = 0.5\narrows = {text}\n")
    assert run_cli("portrait", "--config", "arch.cfg", "--out", "cfg.svg").returncode == 0
    flag = "--arrows" if drawn else "--no-arrows"
    assert run_cli("portrait", "--theta", "0.5", flag, "--out", "flag.svg").returncode == 0
    svg = (tmp_path / "cfg.svg").read_text()
    assert svg == (tmp_path / "flag.svg").read_text()
    assert svg.count('<path d="M') == (14 if drawn else 0)


def test_flags_override_config(run_cli, tmp_path):
    cfg = tmp_path / "arch.cfg"
    cfg.write_text("theta = 5\n")
    result = run_cli("classify", "--config", str(cfg), "--theta", "0.5",
                     "--format", "machine")
    assert result.returncode == 0
    assert parse_machine(result.stdout)["theta"] == "0.5"


def test_config_rejects_unknown_key(run_cli, tmp_path):
    cfg = tmp_path / "arch.cfg"
    cfg.write_text("theta = 1\nwarp = 9\n")
    result = run_cli("classify", "--config", str(cfg))
    assert result.returncode == 2
    assert "warp" in result.stderr


def test_config_rejects_theta_and_preset(run_cli, tmp_path):
    cfg = tmp_path / "arch.cfg"
    cfg.write_text("theta = 1\npreset = tented\n")
    result = run_cli("classify", "--config", str(cfg))
    assert result.returncode == 2
    assert result.stderr.strip()


def test_missing_config_file(run_cli):
    result = run_cli("classify", "--config", "no/such/file.cfg")
    assert result.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("classify",),  # no theta anywhere
        ("classify", "--theta", "-1"),
        ("classify", "--theta", "0.5", "--fraction", "1.5"),
        ("analyze", "--theta", "1", "--census-samples", "4"),
        ("portrait", "--theta", "1", "--inset", "0.9"),
        ("sweep", "--steps", "0"),
        ("trace", "--theta", "1", "--method", "rk4"),  # the method knob is retired
        ("portrait", "--theta", "1", "--method=rk45"),
        # flags are spelled in full: no prefix stands for a longer flag
        ("trace", "--theta", "1", "--tm", "3"),
        ("portrait", "--theta", "1", "--seeds-a", "3"),
        ("classify", "--th", "1"),
        # the first-step and census settings are retired
        ("trace", "--theta", "1", "--step", "0.1"),
        ("portrait", "--theta", "1", "--step=0.02"),
        ("analyze", "--theta", "1", "--census-samples", "8"),
        ("analyze", "--theta", "1", "--census-radius", "0.5"),
    ],
)
def test_usage_errors_exit_2(run_cli, args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stderr.strip()


def test_bad_window_string_exits_2(run_cli):
    result = run_cli("analyze", "--theta", "1", "--window", "1,2,3")
    assert result.returncode == 2


def test_theta_preset_conflict_exits_2(run_cli):
    result = run_cli("classify", "--theta", "1", "--preset", "tented")
    assert result.returncode == 2


def test_unknown_flag_exits_2(run_cli):
    result = run_cli("classify", "--theta", "1", "--frobnicate")
    assert result.returncode == 2


def test_unwritable_output_exits_1(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli(
        "trace", "--theta", "1", "--out", "missing/dir/run.csv",
    )
    assert result.returncode == 1
    assert result.stderr.strip()
    assert "missing/dir/run.csv" in result.stderr


def test_help_exits_0():
    result = subprocess.run(
        [sys.executable, "-m", "archflow", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for sub in ("analyze", "trace", "portrait", "classify", "sweep"):
        assert sub in result.stdout


@pytest.mark.parametrize("apex", ["1e200", "1e-200"])
def test_extreme_apex_exits_1(run_cli, apex):
    # the cube overflows to inf or underflows to 0: a clean error, no traceback
    result = run_cli("classify", "--theta", "1", "--apex", apex)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "apex" in result.stderr


def test_flank_without_box_exit_exits_1(run_cli, monkeypatch):
    # a flank that stops where it started: a clean error, no traceback
    def stalled(system, start, config):
        return Trajectory(((0.0, start),), "step_underflow")

    monkeypatch.setattr("archflow.analysis.integrate", stalled)
    result = run_cli("classify", "--theta", "1", "--apex", "1e100")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: forward flank stopped by step_underflow above y = 5e+99\n"


@pytest.mark.parametrize("theta", ["0.5", "1"])
def test_classify_at_a_huge_apex_prints_180_degrees(run_cli, theta):
    # the step floor follows the flank's own time scale, so both flanks reach the line
    result = run_cli("classify", "--theta", theta, "--apex", "1e100")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"theta {theta}: tented arch, opening angle 180.00 degrees\n"


@pytest.mark.parametrize("args, message", [
    (("trace", "--theta", "1", "--start", "0,1e150", "--out", "t.csv"),
     "error: numeric overflow"),
    (("portrait", "--theta", "1", "--window=-1e200,1e200,-1e200,1e200", "--out", "p.svg"),
     "error: seed 0 (upper_sector) at (-1e+200, 3.1875000000000003e+199) diverged: "
     "field is non-finite"),
    # theta*x at the first seed; the separatrix's 1.5*theta overflows too, but not its height
    (("portrait", "--theta", "1.7e308", "--out", "p.svg"),
     "error: seed 0 (upper_sector) at (-4.0, -2.3) diverged: field is non-finite at (-4.0, -2.3)"),
], ids=["trace", "portrait", "portrait_theta"])
def test_numeric_overflow_exits_1(run_cli, tmp_path, monkeypatch, args, message):
    # A float power leaves the double range: H at the trace's start point, the
    # field y*y at the portrait's first seed. A clean error, no traceback.
    monkeypatch.chdir(tmp_path)
    result = run_cli(*args)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith(message) and result.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_portrait_of_a_window_without_the_origin_exits_1(run_cli, tmp_path, monkeypatch):
    # The separatrix starts at the origin, so a portrait window must hold it;
    # analyze takes the same window.
    monkeypatch.chdir(tmp_path)
    window = "--window=1,2,1,2"
    result = run_cli("portrait", "--theta", "0.5", window, "--out", "o.svg")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: window must contain the origin\n"
    assert list(tmp_path.iterdir()) == []
    assert run_cli("analyze", "--theta", "0.5", window).returncode == 0


@pytest.mark.parametrize("command", ["trace", "portrait"])
def test_window_whose_inflation_overflows_exits_1(run_cli, tmp_path, monkeypatch,
                                                  command):
    # The window is finite, but its width, and so its 5 percent inflation, is not.
    monkeypatch.chdir(tmp_path)
    result = run_cli(command, "--theta", "1", "--window=-1e308,1e308,-1,1", "--out", "o")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "error: Window(x_min=-1e+308, x_max=1e+308, y_min=-1.0, y_max=1.0) "
        "grown by fraction 0.05 leaves the float range\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_portrait_seed_that_cannot_step_exits_1(run_cli, tmp_path, monkeypatch,
                                                stalled_at_seeds):
    # Every step off a seed is rejected until it falls below the step floor,
    # so no step is accepted: the error names the stalled seed and why both
    # halves stopped.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("archflow.cli.ArchSystem", stalled_at_seeds)
    result = run_cli("portrait", "--theta", "0.5", "--out", "p.svg")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: seed 0 (upper_sector) at (-4.0, -0.7711767085640806) did not leave the box: "
        "backward step_underflow, forward step_underflow\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_portrait_at_a_huge_scale_draws_every_path(run_cli, tmp_path, monkeypatch):
    # At |x| near 1e159 the flow changes on a time scale far below the
    # unit-scale step floor of 1e-12; the floor follows each seed's own scale.
    monkeypatch.chdir(tmp_path)
    result = run_cli("portrait", "--theta", "1e-9", "--window=-1e160,1e160,-1e10,1",
                     "--out", "p.svg")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "wrote p.svg: 14 paths\n"
    assert (tmp_path / "p.svg").read_text().count("<polyline") == 14


def test_portrait_separatrix_below_the_cube_range_reaches_the_seeds(run_cli, tmp_path, monkeypatch):
    # |y|**3 overflows at the bottom edge y = -1e100, but the separatrix leaves
    # through it at a finite |x| near 2.6e154; the seeds then step on their own
    # time scale, so the portrait is drawn.
    monkeypatch.chdir(tmp_path)
    result = run_cli("portrait", "--theta", "1e-9", "--window=-1e200,1e200,-1e100,1",
                     "--out", "p.svg", "--format", "machine")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "out=p.svg\npaths=14\n"
    svg = (tmp_path / "p.svg").read_text()
    assert svg.count('stroke="#cc0000"') == 2  # both separatrix branches


def _assert_printed_numbers_are_finite(stdout):
    for token in stdout.split():
        key, value = token.split("=", 1)
        if key == "out":
            continue
        try:
            number = complex(value[:-1] + "j") if value.endswith("i") else float(value)
        except ValueError:
            assert value.isidentifier(), token  # a word: a category, kind or stop reason
            continue
        assert cmath.isfinite(number), token


EXTREME_THETAS = [f"1e{k}" for k in range(-9, 10)]


@pytest.mark.parametrize("command", ["analyze", "classify", "trace", "portrait", "sweep"])
def test_every_subcommand_at_extreme_theta(run_cli, tmp_path, command):
    for theta in EXTREME_THETAS:
        args = {
            "analyze": ("analyze", "--theta", theta),
            "classify": ("classify", "--theta", theta),
            "trace": ("trace", "--theta", theta, "--out", str(tmp_path / "t.csv")),
            "portrait": ("portrait", "--theta", theta, "--seeds-above", "2", "--seeds-below", "1",
                         "--out", str(tmp_path / "p.svg")),
            "sweep": ("sweep", "--theta-from", theta, "--theta-to", theta, "--steps", "1"),
        }[command]
        result = run_cli(*args, "--format", "machine")
        assert result.returncode in (0, 1, 2), (theta, result.stderr)
        _assert_printed_numbers_are_finite(result.stdout)
        if command == "analyze":
            # the default census finds the cusp's two sectors at every theta
            got = parse_machine(result.stdout)
            assert (got["hyperbolic"], got["separatrices"], got["is_cusp"]) == ("2", "2", "true")


@pytest.mark.parametrize("theta", ["1e31", "1e100", "1e300"])
def test_analyze_finds_the_cusp_beyond_the_tested_theta_range(run_cli, theta):
    # The negative arc narrows like sqrt(r/theta); only the census sample
    # exactly on the negative y axis still lands in it.
    result = run_cli("analyze", "--theta", theta, "--format", "machine")
    assert result.returncode == 0, result.stderr
    got = parse_machine(result.stdout)
    assert (got["hyperbolic"], got["separatrices"], got["is_cusp"]) == ("2", "2", "true")


def test_trace_from_a_small_start_ends_at_the_escape_time(run_cli, tmp_path):
    # From (0, 1e-3) every coordinate sits below unit scale, where an absolute
    # tolerance equal to --tol would govern the error; trace scales it by the
    # start, so the run still ends at the closed-form escape time.
    out = tmp_path / "t.csv"
    for k in range(-2, 10):
        theta = 10.0**k
        escape = apex_escape_time(theta, 1e-3)
        result = run_cli("trace", "--theta", repr(theta), "--start", "0,0.001",
                         "--tmax", repr(10.0 * escape), "--out", str(out))
        assert result.returncode == 0, result.stderr
        end = float(out.read_text().splitlines()[-1].split(",")[0])
        assert abs(end - escape) <= 1e-10 * escape, (theta, end, escape)


def test_trace_in_a_small_window_exits_at_the_orbit_graph_time(run_cli, tmp_path):
    # With --window the scale is the window's half side: the box exit from
    # (0, 1e-3) in a box of half side 2e-3 lies at the orbit graph's time.
    out = tmp_path / "t.csv"
    for k in range(-2, 10):
        theta = 10.0**k
        result = run_cli("trace", "--theta", repr(theta), "--start", "0,0.001", "--tmax", "1e12",
                         "--window=-0.002,0.002,-0.002,0.002", "--out", str(out))
        assert result.returncode == 0, result.stderr
        t, x, y, _ = map(float, out.read_text().splitlines()[-1].split(","))
        assert abs(t - orbit_time(theta, (0.0, 0.001), (x, y))) <= 1e-9 * t, theta


# The default (human) output, byte for byte. The machine lines are pinned by
# the golden files and the tests above; these pin the lines a person reads.

def _analyze_human(theta):
    return (
        f"theta {theta}\n"
        "equilibrium at (0, 0)\n"
        f"jacobian [[0, 0], [-{theta}, 0]]\n"
        "eigenvalues 0, 0 (real_repeated)\n"
        "classification degenerate_nonhyperbolic\n"
        "sectors: 2 hyperbolic, 0 elliptic, 0 parabolic; 2 separatrices\n"
        "cusp: yes\n"
    )


@pytest.mark.parametrize("preset, theta", [("plain", "0.001"), ("tented", "0.5"), ("strong", "5")])
def test_analyze_human_output_is_pinned(run_cli, preset, theta):
    result = run_cli("analyze", "--preset", preset)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == _analyze_human(theta)


@pytest.mark.parametrize("fmt, stdout", [
    ("human", "theta 1\nno equilibria inside the window\n"),
    ("machine", "theta=1\nequilibria=0\n"),
])
def test_analyze_empty_window_output_is_pinned(run_cli, fmt, stdout):
    result = run_cli("analyze", "--theta", "1", "--window=1,2,1,2", "--format", fmt)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", stdout)


@pytest.mark.parametrize("preset, stdout", [
    ("plain", "theta 0.001: plain arch, opening angle 168.96 degrees\n"),
    ("tented", "theta 0.5: tented arch, opening angle 49.68 degrees\n"),
    ("strong", "theta 5: strong arch, opening angle 16.66 degrees\n"),
])
def test_classify_human_output_is_pinned(run_cli, preset, stdout):
    result = run_cli("classify", "--preset", preset)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", stdout)


def test_sweep_human_output_is_pinned(run_cli):
    result = run_cli("sweep", "--steps", "3")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (
        "theta 0.001: plain, 168.96 deg\n"
        "theta 2.5005: strong, 23.39 deg\n"
        "theta 5: strong, 16.66 deg\n"
    )


@pytest.mark.parametrize("args, stdout", [
    (("--tmax", "2"), "wrote t.csv: 80 samples, stopped by time_horizon\n"),
    ((), "wrote t.csv: 5005 samples, stopped by step_underflow\n"),
], ids=["time_horizon", "default"])
def test_trace_human_output_is_pinned(run_cli, tmp_path, monkeypatch, args, stdout):
    monkeypatch.chdir(tmp_path)
    result = run_cli("trace", "--theta", "0.5", *args, "--out", "t.csv")
    assert (result.returncode, result.stderr, result.stdout) == (0, "", stdout)


def test_portrait_human_output_is_pinned(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli("portrait", "--preset", "tented", "--out", "p.svg")
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "wrote p.svg: 14 paths\n")
