"""Command line front end."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Any, Callable

from .analysis import classify_arch, find_equilibria, sector_census
from .integrate import IntegratorConfig, _abs_tol, integrate
from .portrait import PortraitSpec, build_portrait, export_trajectory_csv, render_svg
from .systems import ArchSystem, Point2, Window, _Record

PRESETS = {"plain": 0.001, "tented": 0.5, "strong": 5.0}


class UsageError(Exception):
    """Bad flag/config combination; maps to exit code 2."""


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _to_numbers(text: str, count: int, needs: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"{needs}, got {text!r}")
    return [float(p) for p in parts]


def _to_window(text: str) -> Window:
    return Window(*_to_numbers(text, 4, "window needs four numbers x0,x1,y0,y1"))


def _to_point(text: str) -> Point2:
    return Point2(*_to_numbers(text, 2, "point needs two numbers x,y"))


def _to_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _to_format(text: str) -> str:
    if text not in ("human", "machine"):
        raise ValueError(f"format must be human or machine, got {text!r}")
    return text


class Option(_Record):
    """One subcommand option: flag ``--key-with-hyphens`` and config key ``key``."""

    __slots__ = ("key", "convert", "default", "check", "metavar", "help")

    def __init__(
        self, key: str, convert: Callable[[str], Any], default: Any,
        check: tuple[Callable[[Any], bool], str] | None = None,  # (predicate, requirement)
        metavar: str | None = None, help: str | None = None,
    ) -> None:
        self._store(locals())


class Command(_Record):
    """One subcommand: its help line, its option rows and the function that runs it."""

    __slots__ = ("help", "options", "run")

    def __init__(self, help: str, options: tuple[Option, ...], run: Callable[[dict], int]) -> None:
        self._store(locals())


def _add_flag(parser: argparse.ArgumentParser, option: Option) -> None:
    flag = "--" + option.key.replace("_", "-")
    # --preset, theta's named spelling, shares a group with --theta: at most one is given.
    target = parser.add_mutually_exclusive_group() if option is _THETA else parser
    if option.convert is _to_bool:
        target.add_argument(flag, action=argparse.BooleanOptionalAction, help=option.help)
    else:
        target.add_argument(flag, type=option.convert, metavar=option.metavar, help=option.help)
    if option is _THETA:
        target.add_argument("--preset", choices=sorted(PRESETS),
                            help="named stiffness: plain, tented, strong")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archflow",
        description="Analyze, trace, and draw the planar arch ridge-flow system.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key=value file; flags override it")
        for option in (_FORMAT, *command.options):
            _add_flag(p, option)
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    cfg: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {number}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def parse_invocation(argv: list[str] | None = None) -> tuple[str, dict]:
    """Parse flags plus optional config file into (subcommand, options)."""
    ns = _build_parser().parse_args(argv)
    cfg = _load_config(ns.config) if ns.config else {}
    command = COMMANDS[ns.command]
    options = (_FORMAT, *command.options)
    takes_theta = _THETA in command.options

    known = {option.key for option in options} | ({"preset"} if takes_theta else set())
    for key in cfg:
        if key not in known:
            raise UsageError(f"unknown config key {key!r} for {ns.command}")

    # A --preset flag sets theta; with no theta flag, a config preset is the config's theta.
    if takes_theta and ns.preset is not None:
        ns.theta = PRESETS[ns.preset]
    elif "preset" in cfg and ns.theta is None:
        if "theta" in cfg:
            raise UsageError("config sets both theta and preset")
        if cfg["preset"] not in PRESETS:
            raise UsageError(f"unknown preset {cfg['preset']!r} in config")
        ns.theta = PRESETS[cfg["preset"]]

    opts: dict = {}
    for option in options:
        value = getattr(ns, option.key)
        if value is None and option.key in cfg:
            try:
                value = option.convert(cfg[option.key])
            except ValueError as exc:
                raise UsageError(f"config {option.key}: {exc}") from exc
        opts[option.key] = option.default if value is None else value

    if takes_theta and opts["theta"] is None:
        raise UsageError("theta is required: pass --theta or --preset")

    for option in options:
        if option.check is not None:
            holds, requirement = option.check
            if not holds(opts[option.key]):
                raise UsageError(f"{option.key} {requirement}, got {opts[option.key]}")
    return ns.command, opts


def _say(o: dict, machine: str, human: str) -> None:
    """Print the rendering that ``--format`` asks for; the one format switch."""
    print(machine if o["format"] == "machine" else human)


def _run_analyze(o: dict) -> int:
    system = ArchSystem(o["theta"])
    equilibria = find_equilibria(system, o["window"])
    # One ordered table: its items are the machine lines, its values fill the human ones.
    v = {"theta": _fmt(o["theta"]), "equilibria": len(equilibria)}
    human = ["theta {theta}"]
    if not equilibria:
        human.append("no equilibria inside the window")
    else:
        eq = equilibria[0]
        census = sector_census(system)
        j = eq.jacobian
        l1, l2 = eq.eigen.values
        v.update(
            equilibrium_x=_fmt(eq.location.x), equilibrium_y=_fmt(eq.location.y),
            j11=_fmt(j.a11), j12=_fmt(j.a12), j21=_fmt(j.a21), j22=_fmt(j.a22),
            eigen_kind=eq.eigen.kind,
            eigenvalue_1=_fmt(l1.real), eigenvalue_2=_fmt(l2.real),
            classification=eq.classification,
            hyperbolic=census.hyperbolic, elliptic=census.elliptic,
            parabolic=census.parabolic, separatrices=census.separatrices,
            is_cusp="true" if census.is_cusp else "false",
        )
        human += [
            "equilibrium at ({equilibrium_x}, {equilibrium_y})",
            "jacobian [[{j11}, {j12}], [{j21}, {j22}]]",
            "eigenvalues {eigenvalue_1}, {eigenvalue_2} ({eigen_kind})",
            "classification {classification}",
            "sectors: {hyperbolic} hyperbolic, {elliptic} elliptic, {parabolic} parabolic; "
            "{separatrices} separatrices",
            "cusp: " + ("yes" if census.is_cusp else "no"),
        ]
    _say(o, "\n".join(f"{key}={value}" for key, value in v.items()),
         "\n".join(human).format(**v))
    return 0


def _run_classify(o: dict) -> int:
    theta = _fmt(o["theta"])
    result = classify_arch(o["theta"], apex=o["apex"], fraction=o["fraction"])
    category, angle = result.category, result.opening_angle_deg
    _say(o, f"theta={theta}\ncategory={category}\nopening_angle_deg={angle:.4f}",
         f"theta {theta}: {category} arch, opening angle {angle:.2f} degrees")
    return 0


def _run_trace(o: dict) -> int:
    window, start, tol, out = o["window"], o["start"], o["tol"], o["out"]
    if window is None:
        stop_box, scale = None, max(abs(start.x), abs(start.y))
    else:
        stop_box, scale = window.inflated(0.05), max(window.width, window.height) / 2.0
    cfg = IntegratorConfig(rel_tol=tol, abs_tol=_abs_tol(tol, scale), stop_time=o["tmax"],
                           stop_box=stop_box)
    trajectory = integrate(ArchSystem(o["theta"]), start, cfg)
    Path(out).write_text(export_trajectory_csv(trajectory, o["theta"]))
    n, reason = len(trajectory), trajectory.stop_reason
    _say(o, f"out={out}\nsamples={n}\nstop_reason={reason}",
         f"wrote {out}: {n} samples, stopped by {reason}")
    return 0


def _run_portrait(o: dict) -> int:
    spec = PortraitSpec(
        system=ArchSystem(o["theta"]),
        window=o["window"],
        seeds_above=o["seeds_above"],
        seeds_below=o["seeds_below"],
        seed_inset=o["inset"],
        tol=o["tol"],
        arrowheads=o["arrows"],
        separatrix_resolution=o["resolution"],
    )
    scene = build_portrait(spec)
    Path(o["out"]).write_text(render_svg(scene, o["width"], o["height"]))
    n = len(scene.paths)
    _say(o, f"out={o['out']}\npaths={n}", f"wrote {o['out']}: {n} paths")
    return 0


def _run_sweep(o: dict) -> int:
    lo, hi, steps = o["theta_from"], o["theta_to"], o["steps"]
    thetas = [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    for theta in thetas:
        result = classify_arch(theta, apex=o["apex"], fraction=o["fraction"])
        category, angle = result.category, result.opening_angle_deg
        _say(o, f"theta={_fmt(theta)} category={category} opening_angle_deg={angle:.4f}",
             f"theta {_fmt(theta)}: {category}, {angle:.2f} deg")
    return 0


def _at_least(n: int) -> tuple[Callable[[Any], bool], str]:
    return (lambda v: v >= n, f"must be >= {n}")


_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")

# Shared by every subcommand; its flag and config key come before the command's own.
_FORMAT = Option("format", _to_format, "human", help="human or machine")

# Also spelled by name: the --preset flag and config key pick a value from PRESETS.
_THETA = Option("theta", float, None, _POSITIVE, help="stiffness parameter, > 0")

_WINDOW = Option("window", _to_window, Window(-4.0, 4.0, -4.0, 4.0), metavar="X0,X1,Y0,Y1")

_TOL = Option("tol", float, 1e-10, _POSITIVE)

_APEX_FRACTION = (
    Option("apex", float, 1.0, _POSITIVE),
    Option("fraction", float, 0.5, (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")),
)

# One entry per subcommand; each option row is the only declaration of its
# flag, config key, default and range check.
COMMANDS: dict[str, Command] = {
    "analyze": Command("equilibrium, eigenvalues, sector census", (_THETA, _WINDOW), _run_analyze),
    "trace": Command("integrate one trajectory to CSV", (
        _THETA,
        Option("start", _to_point, Point2(0.0, 1.0), metavar="X,Y"),
        Option("tmax", float, 10.0, _POSITIVE),
        _TOL,
        _WINDOW._replace(default=None, help="optional stop box (inflated 5 percent)"),
        Option("out", str, "trace.csv"),
    ), _run_trace),
    "portrait": Command("render a styled phase portrait to SVG", (
        _THETA,
        _WINDOW,
        Option("seeds_above", int, 8, _at_least(0)),
        Option("seeds_below", int, 4, _at_least(0)),
        Option("inset", float, 0.05, (lambda v: 0.0 <= v < 0.5, "must lie in [0, 0.5)")),
        _TOL,
        Option("width", int, 800, _at_least(1)),
        Option("height", int, 800, _at_least(1)),
        Option("arrows", _to_bool, True),
        Option("resolution", int, 256, _at_least(1), help="separatrix segments per branch"),
        Option("out", str, "portrait.svg"),
    ), _run_portrait),
    "classify": Command("arch category and opening angle", (_THETA, *_APEX_FRACTION),
                        _run_classify),
    "sweep": Command("classify a range of stiffness values", (
        Option("theta_from", float, 0.001, _POSITIVE),
        Option("theta_to", float, 5.0, _POSITIVE),
        Option("steps", int, 5, _at_least(1)),
        *_APEX_FRACTION,
    ), _run_sweep),
}


def main(argv: list[str] | None = None) -> int:
    try:
        command, opts = parse_invocation(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[command].run(opts)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # a float power past the double range, e.g. H far out
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 1
