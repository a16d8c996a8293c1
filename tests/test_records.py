"""Contract of archflow's immutable records, the CLI's option rows included.

For every record: the exact ``repr``, equality within the type only,
hashing, immutability, ``copy``/``deepcopy``/``pickle`` round-trips,
positional and keyword construction in field order, the defaults, and the
text of every validation error. The README "Library" snippet, which prints
record reprs, is run and its output compared line by line.
"""

import contextlib
import copy
import io
import math
import pickle
import re
from pathlib import Path

import pytest

from archflow import (
    ArchCategory,
    ArchSystem,
    EigenPair,
    Equilibrium,
    IntegratorConfig,
    Mat2,
    Point2,
    PortraitSpec,
    Scene,
    SectorCensus,
    StyledPath,
    Trajectory,
    Window,
    build_portrait,
    classify_arch,
    crossing,
    export_trajectory_csv,
    integrate,
    render_svg,
)
from archflow.cli import Command, Option, main
from archflow.systems import _Record

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"

P = Point2(1.0, 2.0)
Q = Point2(3.0, 4.0)
W = Window(-1.0, 1.0, -2.0, 2.0)
M = Mat2(0.0, 2.0, -0.5, 0.0)
E = EigenPair("complex_conjugate", (1j, -1j))
SYSTEM = ArchSystem(0.5)
PATH = StyledPath("separatrix", (P, Q))

P_REPR = "Point2(x=1.0, y=2.0)"
Q_REPR = "Point2(x=3.0, y=4.0)"
W_REPR = "Window(x_min=-1.0, x_max=1.0, y_min=-2.0, y_max=2.0)"
M_REPR = "Mat2(a11=0.0, a12=2.0, a21=-0.5, a22=0.0)"
E_REPR = "EigenPair(kind='complex_conjugate', values=(1j, (-0-1j)))"
PATH_REPR = f"StyledPath(role='separatrix', points=({P_REPR}, {Q_REPR}))"
CONFIG = IntegratorConfig(1e-8, 1e-9, 50, "backward", W, 3.0)
CONFIG_REPR = (
    "IntegratorConfig(rel_tol=1e-08, abs_tol=1e-09, max_steps=50, "
    f"direction='backward', stop_box={W_REPR}, stop_time=3.0)"
)
SPEC = PortraitSpec(SYSTEM, W, 3, 2, 0.1, 1e-08, False, 64)
SPEC_REPR = (
    f"PortraitSpec(system=ArchSystem(theta=0.5), window={W_REPR}, seeds_above=3, "
    "seeds_below=2, seed_inset=0.1, tol=1e-08, arrowheads=False, "
    "separatrix_resolution=64)"
)
# Builtins stand for an option's callables, so the reprs are stable and the rows pickle.
OPTION = Option("tol", float, 1e-10, (math.isfinite, "must be finite"), "TOL", "tolerance")
OPTION_REPR = (
    "Option(key='tol', convert=<class 'float'>, default=1e-10, "
    "check=(<built-in function isfinite>, 'must be finite'), metavar='TOL', help='tolerance')"
)

# (record, field names in order, positional values, repr, hashable)
RECORDS = [
    (Point2, "x y", (1.0, 2.0), P_REPR, True),
    (Mat2, "a11 a12 a21 a22", (0.0, 2.0, -0.5, 0.0), M_REPR, True),
    (Window, "x_min x_max y_min y_max", (-1.0, 1.0, -2.0, 2.0), W_REPR, True),
    (
        IntegratorConfig,
        "rel_tol abs_tol max_steps direction stop_box stop_time",
        (1e-8, 1e-9, 50, "backward", W, 3.0),
        CONFIG_REPR,
        True,
    ),
    (
        Trajectory,
        "samples stop_reason",
        (((0.0, P), (0.5, Q)), "box_exit"),
        f"Trajectory(samples=((0.0, {P_REPR}), (0.5, {Q_REPR})), stop_reason='box_exit')",
        True,
    ),
    (EigenPair, "kind values", ("complex_conjugate", (1j, -1j)), E_REPR, True),
    (
        Equilibrium,
        "location jacobian eigen classification",
        (P, M, E, "center_linear"),
        f"Equilibrium(location={P_REPR}, jacobian={M_REPR}, eigen={E_REPR}, "
        "classification='center_linear')",
        True,
    ),
    (
        SectorCensus,
        "hyperbolic elliptic parabolic separatrices",
        (2, 0, 0, 2),
        "SectorCensus(hyperbolic=2, elliptic=0, parabolic=0, separatrices=2)",
        True,
    ),
    (
        ArchCategory,
        "category opening_angle_deg",
        ("tented", 49.5),
        "ArchCategory(category='tented', opening_angle_deg=49.5)",
        True,
    ),
    (StyledPath, "role points", ("separatrix", (P, Q)), PATH_REPR, True),
    (Scene, "spec paths", (SPEC, (PATH,)), f"Scene(spec={SPEC_REPR}, paths=({PATH_REPR},))", True),
    (
        PortraitSpec,
        "system window seeds_above seeds_below seed_inset tol arrowheads separatrix_resolution",
        (SYSTEM, W, 3, 2, 0.1, 1e-08, False, 64),
        SPEC_REPR,
        True,
    ),
    (ArchSystem, "theta", (0.5,), "ArchSystem(theta=0.5)", True),
    (
        Option,
        "key convert default check metavar help",
        ("tol", float, 1e-10, (math.isfinite, "must be finite"), "TOL", "tolerance"),
        OPTION_REPR,
        True,
    ),
    (
        Command,
        "help options run",
        ("count the options", (OPTION,), len),
        f"Command(help='count the options', options=({OPTION_REPR},), "
        "run=<built-in function len>)",
        True,
    ),
]

CASES = [pytest.param(*case, id=case[0].__name__) for case in RECORDS]


def _package_records(base=_Record):
    for cls in base.__subclasses__():
        if cls.__module__.split(".")[0] == "archflow":
            yield cls
        yield from _package_records(cls)


def test_every_record_is_covered():
    assert {case[0] for case in RECORDS} == set(_package_records())


@pytest.mark.parametrize("cls, names, values, text, hashable", CASES)
def test_repr(cls, names, values, text, hashable):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, text, hashable", CASES)
def test_positional_and_keyword_construction(cls, names, values, text, hashable):
    fields = names.split()
    assert len(fields) == len(values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_keyword == cls(*values)
    for name, value in zip(fields, values):
        assert getattr(by_keyword, name) == value
    with pytest.raises(TypeError):
        cls(*values, values[-1])


@pytest.mark.parametrize("cls, names, values, text, hashable", CASES)
def test_equality_is_within_the_type(cls, names, values, text, hashable):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a.__eq__(tuple(values)) is NotImplemented
    assert a != tuple(values)


@pytest.mark.parametrize("cls, names, values, text, hashable", CASES)
def test_hash(cls, names, values, text, hashable):
    a, b = cls(*values), cls(*values)
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, names, values, text, hashable", CASES)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text, hashable):
    record = cls(*values)
    for name in names.split():
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("cls, names, values, text, hashable", CASES)
def test_copy_deepcopy_and_pickle(cls, names, values, text, hashable):
    record = cls(*values)
    assert copy.copy(record) == record
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert repr(clone) == text
        assert clone == record


class _DoubledField(ArchSystem):
    """A subclass that overrides the field and declares no slot of its own."""

    __slots__ = ()

    def field_at(self, x, y):
        return y * y, -2.0 * self.theta * x


class _TaggedPoint(Point2):
    """A subclass that adds one field and one private slot."""

    __slots__ = ("tag", "_note")

    def __init__(self, x, y, tag):
        super().__init__(x, y)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_note", None)


def test_a_subclass_keeps_its_bases_fields():
    a, b = _DoubledField(0.5), _DoubledField(2.0)
    assert repr(a) == "_DoubledField(theta=0.5)"
    assert a == _DoubledField(0.5) and hash(a) == hash(_DoubledField(0.5))
    assert a != b and hash(a) != hash(b)
    assert a != ArchSystem(0.5)
    assert a._replace(theta=2.0) == b
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is _DoubledField and clone == a
        assert clone.field_at(1.0, 0.0) == (0.0, -1.0)
    tagged = _TaggedPoint(1.0, 2.0, "apex")
    assert repr(tagged) == "_TaggedPoint(x=1.0, y=2.0, tag='apex')"
    assert tagged != _TaggedPoint(1.0, 2.0, "foot")
    for clone in (copy.copy(tagged), copy.deepcopy(tagged), pickle.loads(pickle.dumps(tagged))):
        assert type(clone) is _TaggedPoint and clone == tagged


class _LabelledPoint(Point2):
    """A subclass that normalises the field it adds and stores it as its base does."""

    __slots__ = ("label",)

    def __init__(self, x, y, label):
        super().__init__(x, y)
        label = str(label)
        self._store(locals())


def test_a_subclass_that_calls_its_base_stores_both_fields():
    point = _LabelledPoint(1.0, 2.0, 7)
    assert (point.x, point.y, point.label) == (1.0, 2.0, "7")
    assert repr(point) == "_LabelledPoint(x=1.0, y=2.0, label='7')"
    assert point._replace(y=3.0) == _LabelledPoint(1.0, 3.0, "7")


def test_a_rebound_parameter_is_what_gets_stored():
    assert type(ArchSystem(1).theta) is float
    assert repr(ArchSystem(1)) == "ArchSystem(theta=1.0)"
    assert type(Scene(SPEC, [PATH]).paths) is tuple


def test_integrator_config_defaults():
    config = IntegratorConfig(stop_time=1.0)
    assert (config.rel_tol, config.abs_tol) == (1e-10, 1e-10)
    assert (config.max_steps, config.direction) == (200_000, "forward")
    assert (config.stop_box, config.stop_time) == (None, 1.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'step'"):
        IntegratorConfig(step=0.01, stop_time=1.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'method'"):
        IntegratorConfig(method="rk45", stop_time=1.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'equilibrium_radius'"):
        IntegratorConfig(equilibrium_radius=0.1, stop_time=1.0)


def test_portrait_spec_defaults():
    spec = PortraitSpec(system=SYSTEM)
    assert spec.window == Window(-4.0, 4.0, -4.0, 4.0)
    assert (spec.seeds_above, spec.seeds_below, spec.seed_inset) == (8, 4, 0.05)
    assert spec.tol == 1e-10
    assert (spec.arrowheads, spec.separatrix_resolution) == (True, 256)
    with pytest.raises(TypeError, match="unexpected keyword argument 'integrator'"):
        PortraitSpec(SYSTEM, integrator=IntegratorConfig(stop_time=1.0))


def test_trajectory_keeps_its_own_samples():
    samples = [(0.0, P), (0.5, Q)]
    trajectory = Trajectory(samples, "box_exit")
    samples.append((0.25, P))
    assert trajectory.times == (0.0, 0.5)
    assert hash(trajectory) == hash(Trajectory(((0.0, P), (0.5, Q)), "box_exit"))


def test_styled_path_keeps_its_own_points():
    points = [P, Q]
    path = StyledPath("separatrix", points)
    points.append(P)
    assert path.points == (P, Q)
    assert hash(path) == hash(PATH)


def test_scene_keeps_its_own_paths():
    paths = [PATH]
    scene = Scene(SPEC, paths)
    paths.append(PATH)
    assert scene.paths == (PATH,)
    assert hash(scene) == hash(Scene(SPEC, (PATH,)))


def _lazy_and_built_records():
    """Factories of records built over float lists by ``integrate`` and
    ``build_portrait``, and their twins built through the public constructors
    from the same floats; each factory call gives a record nothing has read yet."""
    start, config = Point2(0.2, 1.0), IntegratorConfig(stop_box=W, direction="backward")
    trajectory = lambda: integrate(SYSTEM, start, config)  # noqa: E731
    run = trajectory()
    samples = tuple((t, Point2(x, y)) for t, x, y in zip(run._t, run._x, run._y))
    spec = PortraitSpec(SYSTEM, seeds_above=2, seeds_below=1)
    path = lambda: build_portrait(spec).paths[2]  # noqa: E731
    flat = path()
    return [
        (trajectory, Trajectory(samples, run.stop_reason), "samples",
         {"stop_reason": "time_horizon"}),
        (path, StyledPath(flat.role, tuple(map(Point2, flat._x, flat._y))), "points",
         {"role": "lower_sector"}),
    ]


@pytest.mark.parametrize("lazy, built, first, change", _lazy_and_built_records(),
                         ids=["Trajectory", "StyledPath"])
def test_lazily_built_records_match_caller_built_ones(lazy, built, first, change):
    assert lazy() == built and built == lazy()
    assert hash(lazy()) == hash(built)
    assert repr(lazy()) == repr(built)
    for clone in (copy.copy(lazy()), copy.deepcopy(lazy()), pickle.loads(pickle.dumps(lazy()))):
        assert type(clone) is type(built) and clone == built and repr(clone) == repr(built)
    assert len(getattr(lazy(), first)) == len(getattr(built, first))
    if isinstance(built, Trajectory):
        assert len(lazy()) == len(built)
        assert lazy().times == built.times and lazy().points == built.points
        assert lazy().final_point == built.final_point
        assert lazy().final_time == built.final_time
    assert lazy()._replace(**change) == built._replace(**change)
    record = lazy()
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(built, first))
    assert repr(record) == repr(built)


def _cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(args)) == 0
    return out.getvalue()


def _outputs_of_every_path():
    """What the library calls and each CLI subcommand return, print or write;
    the CLI runs write their files to the working directory."""
    run = integrate(SYSTEM, Point2(0.0, 1.0), IntegratorConfig(stop_time=10.0))
    outputs = {
        "classify_arch": repr(classify_arch(0.5)),
        "render_svg": render_svg(build_portrait(PortraitSpec(SYSTEM))),
        "export_trajectory_csv": export_trajectory_csv(run, 0.5),
        "final_point": repr(run.final_point),
        "crossing on a sample": repr(crossing(SYSTEM, run, "vertical", run._x[5])),
        "crossing in a bracket": repr(crossing(SYSTEM, run, "horizontal", 0.0)),
        "trace": _cli("trace", "--theta", "0.5", "--tmax", "2", "--out", "t.csv")
        + Path("t.csv").read_text(),
        "sweep": _cli("sweep", "--steps", "3"),
    }
    for preset in ("plain", "tented", "strong"):
        for command in ("analyze", "classify"):
            stdout = _cli(command, "--preset", preset, "--format", "machine")
            assert stdout == (GOLDEN / f"{preset}_{command}.txt").read_text()
        _cli("portrait", "--preset", preset, "--out", "p.svg")
        assert Path("p.svg").read_text() == (GOLDEN / f"{preset}.svg").read_text()
    return outputs


def test_no_library_path_reads_the_point_views(tmp_path, monkeypatch):
    # Trajectory.samples, Trajectory.points and StyledPath.points build a Point2
    # per sample on each read, for callers only: the library reads the floats.
    monkeypatch.chdir(tmp_path)
    expected = _outputs_of_every_path()

    def unread(record):
        raise AssertionError(f"a {type(record).__name__}'s Point2 view was read")

    with monkeypatch.context() as patch:
        for cls, name in ((Trajectory, "samples"), (Trajectory, "points"), (StyledPath, "points")):
            patch.setattr(cls, name, property(unread))
        with pytest.raises(AssertionError, match="a Trajectory's Point2 view was read"):
            integrate(SYSTEM, P, IntegratorConfig(stop_time=1.0)).samples
        assert _outputs_of_every_path() == expected


INVALID = [
    (lambda: Point2(math.nan, 0.0), "Point2 coordinates must be finite, got nan"),
    (lambda: Point2(0.0, math.inf), "Point2 coordinates must be finite, got inf"),
    (lambda: Mat2(0.0, 0.0, 0.0, math.nan), "Mat2 entries must be finite, got nan"),
    (lambda: Window(0.0, math.inf, 0.0, 1.0), "Window bounds must be finite, got inf"),
    (lambda: Window(1, 0, 0, 1), "Window requires x_min < x_max and y_min < y_max, got [1, 0] x [0, 1]"),
    (lambda: Window(0.0, 1.0, 2.0, 2.0),
     "Window requires x_min < x_max and y_min < y_max, got [0.0, 1.0] x [2.0, 2.0]"),
    (lambda: IntegratorConfig(rel_tol=-1.0, stop_time=1.0), "rel_tol must be finite and > 0, got -1.0"),
    (lambda: IntegratorConfig(abs_tol=math.nan, stop_time=1.0), "abs_tol must be finite and > 0, got nan"),
    (lambda: IntegratorConfig(max_steps=0, stop_time=1.0), "max_steps must be >= 1, got 0"),
    (lambda: IntegratorConfig(max_steps=2.5, stop_time=1.0), "max_steps must be an integer, got 2.5"),
    (lambda: IntegratorConfig(max_steps=math.nan, stop_time=1.0),
     "max_steps must be an integer, got nan"),
    (lambda: IntegratorConfig(direction="sideways", stop_time=1.0),
     "direction must be 'forward' or 'backward', got 'sideways'"),
    (lambda: IntegratorConfig(stop_time=0.0), "stop_time must be finite and > 0, got 0.0"),
    (lambda: Trajectory(((0.0, P),), "done"), "unknown stop_reason 'done'"),
    (lambda: Trajectory(((0.0, P),), "equilibrium_reached"),
     "unknown stop_reason 'equilibrium_reached'"),
    (lambda: Trajectory((), "box_exit"), "a trajectory needs at least one sample"),
    (lambda: Trajectory(((math.nan, P),), "box_exit"), "sample time must be finite, got nan"),
    (lambda: Trajectory(((0.0, P), (0.0, Q)), "box_exit"), "sample times must be strictly monotone"),
    (lambda: Trajectory(((0.0, P), (1.0, Q), (0.5, P)), "box_exit"),
     "sample times must be strictly monotone"),
    (lambda: StyledPath("decoration", (P, Q)), "unknown path role 'decoration'"),
    (lambda: StyledPath("separatrix", (P,)), "a styled path needs at least 2 points"),
    (lambda: PortraitSpec(SYSTEM, seeds_above=-1), "seed counts must be >= 0"),
    (lambda: PortraitSpec(SYSTEM, seeds_below=-1), "seed counts must be >= 0"),
    (lambda: PortraitSpec(SYSTEM, seed_inset=0.5), "seed_inset must lie in [0, 0.5), got 0.5"),
    (lambda: PortraitSpec(SYSTEM, separatrix_resolution=0), "separatrix_resolution must be >= 1"),
    (lambda: PortraitSpec(SYSTEM, seeds_above=2.5), "seeds_above must be an integer, got 2.5"),
    (lambda: PortraitSpec(SYSTEM, seeds_below=2.5), "seeds_below must be an integer, got 2.5"),
    (lambda: PortraitSpec(SYSTEM, separatrix_resolution=2.5),
     "separatrix_resolution must be an integer, got 2.5"),
    (lambda: PortraitSpec(SYSTEM, tol=0.0), "tol must be finite and > 0, got 0.0"),
    # Rows whose message repeats an earlier one carry their own test id, as a
    # third entry, so the ids of the rows above stay as they are.
    (lambda: Point2(1.0, math.nan), "Point2 coordinates must be finite, got nan", "nan in y"),
    (lambda: Trajectory(tuple((float(i), P) for i in range(49)) + ((math.nan, Q),), "box_exit"),
     "sample time must be finite, got nan", "nan as the last of 50 sample times"),
    (lambda: Trajectory(((0.0, P), (-1.0, Q), (0.5, P)), "box_exit"),
     "sample times must be strictly monotone", "sample times fall, then rise"),
]


@pytest.mark.parametrize(
    "build, message", [row[:2] for row in INVALID], ids=[row[-1] for row in INVALID]
)
def test_validation_messages(build, message):
    # A count field given a non-integer raises TypeError; every other row, ValueError.
    error = TypeError if "must be an integer" in message else ValueError
    with pytest.raises(error) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_readme_library_snippet(tmp_path, monkeypatch, capsys):
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(snippet, {})
    assert capsys.readouterr().out.splitlines() == [
        "box_exit Point2(x=4.0000000000000036, y=-2.223980090570263)",
        "degenerate_nonhyperbolic True",
        "ArchCategory(category='tented', opening_angle_deg=49.67978493003105)",
    ]
    assert (tmp_path / "portrait.svg").read_text().endswith("</svg>\n")


def test_readme_spelling_of_the_first_step_runs():
    # The package exports the function integrate under the module's name, so
    # only an import from the module reaches the constant.
    text = " ".join(README.read_text().split())
    sentence = r"a step of `FIRST_STEP` \((\S+)\), read with `([^`]+)`"
    step, spelling = re.search(sentence, text).groups()
    namespace = {}
    exec(spelling, namespace)
    assert namespace["FIRST_STEP"] == float(step) == 0.01


class _StringSlot(Point2):
    """A subclass that names its one slot as a plain string, which Python accepts."""

    __slots__ = "tag"

    def __init__(self, x, y, tag):
        super().__init__(x, y)
        object.__setattr__(self, "tag", tag)


def test_a_string_slot_is_one_field():
    record = _StringSlot(1.0, 2.0, "a")
    assert repr(record) == "_StringSlot(x=1.0, y=2.0, tag='a')"
    assert record == _StringSlot(1.0, 2.0, "a") and record != _StringSlot(1.0, 2.0, "b")
    assert hash(record) == hash(_StringSlot(1.0, 2.0, "a"))
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is _StringSlot and clone == record
