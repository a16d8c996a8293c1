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
TIMES, XS, YS = (0.0, 0.5), (1.0, 3.0), (2.0, 4.0)  # the samples (0.0, P) and (0.5, Q)
PATH = StyledPath("separatrix", XS, YS)

P_REPR = "Point2(x=1.0, y=2.0)"
Q_REPR = "Point2(x=3.0, y=4.0)"
W_REPR = "Window(x_min=-1.0, x_max=1.0, y_min=-2.0, y_max=2.0)"
M_REPR = "Mat2(a11=0.0, a12=2.0, a21=-0.5, a22=0.0)"
E_REPR = "EigenPair(kind='complex_conjugate', values=(1j, (-0-1j)))"
PATH_REPR = "StyledPath(role='separatrix', xs=(1.0, 3.0), ys=(2.0, 4.0))"
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
        "times xs ys stop_reason",
        (TIMES, XS, YS, "box_exit"),
        "Trajectory(times=(0.0, 0.5), xs=(1.0, 3.0), ys=(2.0, 4.0), stop_reason='box_exit')",
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
    (StyledPath, "role xs ys", ("separatrix", XS, YS), PATH_REPR, True),
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
    columns = [list(TIMES), list(XS), list(YS)]
    trajectory = Trajectory(*columns, "box_exit")
    for column in columns:
        column.append(0.25)
    assert (trajectory.times, trajectory.xs, trajectory.ys) == (TIMES, XS, YS)
    assert trajectory.samples == ((0.0, P), (0.5, Q))
    assert hash(trajectory) == hash(Trajectory(TIMES, XS, YS, "box_exit"))


def test_styled_path_keeps_its_own_points():
    xs, ys = list(XS), list(YS)
    path = StyledPath("separatrix", xs, ys)
    xs.append(5.0)
    ys.append(6.0)
    assert (path.xs, path.ys) == (XS, YS)
    assert path.points == (P, Q)
    assert hash(path) == hash(PATH)


def test_finite_columns_whose_sums_overflow_are_accepted():
    # Their float sums are inf, or nan where one column sums to inf and the
    # other to -inf, so each value is checked on its own and passes.
    big = (1e308, 1e308)
    trajectory = Trajectory((1e308, 1.5e308), big, (-1e308, -1e308), "box_exit")
    assert (trajectory.times, trajectory.xs) == ((1e308, 1.5e308), big)
    assert trajectory.final_point == Point2(1e308, -1e308)
    assert StyledPath("separatrix", big, big).points == (Point2(*big), Point2(*big))


def test_scene_keeps_its_own_paths():
    paths = [PATH]
    scene = Scene(SPEC, paths)
    paths.append(PATH)
    assert scene.paths == (PATH,)
    assert hash(scene) == hash(Scene(SPEC, (PATH,)))


LONG_RUN = (Point2(0.0, 1.0), IntegratorConfig(stop_time=10.0))  # 5005 samples at theta 0.5


def _refuse_point(self, x, y):
    raise AssertionError("a Point2 was built")


@pytest.mark.parametrize("build, twin, change", [
    (lambda: integrate(SYSTEM, *LONG_RUN),
     lambda run: Trajectory(list(run.times), list(run.xs), list(run.ys), run.stop_reason),
     {"stop_reason": "box_exit"}),
    (lambda: build_portrait(PortraitSpec(SYSTEM, seeds_above=2, seeds_below=1)).paths[2],
     lambda path: StyledPath(path.role, list(path.xs), list(path.ys)),
     {"role": "lower_sector"}),
], ids=["Trajectory", "StyledPath"])
def test_library_built_records_match_caller_built_ones(build, twin, change, monkeypatch):
    # Equality, hashing, repr, copies and pickles read the float fields, so
    # none of them builds a Point2 per sample, however long the record.
    record = build()
    monkeypatch.setattr(Point2, "__init__", _refuse_point)
    with pytest.raises(AssertionError, match="a Point2 was built"):
        record.points
    if isinstance(record, Trajectory):
        assert len(record) > 5000
        assert build() == record  # integrate itself builds none
    built = twin(record)
    assert record == built and built == record
    assert hash(record) == hash(built)
    assert repr(record) == repr(built)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)
    assert record._replace(**change) == built._replace(**change)
    with pytest.raises(AttributeError):
        record.xs = built.xs
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
        "final_time": repr(run.final_time),
        "crossing on a sample": repr(crossing(SYSTEM, run, "vertical", run.xs[5])),
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
    # per sample on each read, and Trajectory.final_point one, for callers only:
    # the library reads the float fields.
    monkeypatch.chdir(tmp_path)
    expected = _outputs_of_every_path()

    def unread(record):
        raise AssertionError(f"a {type(record).__name__}'s Point2 view was read")

    with monkeypatch.context() as patch:
        views = ((Trajectory, "samples"), (Trajectory, "points"), (Trajectory, "final_point"),
                 (StyledPath, "points"))
        for cls, name in views:
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
    (lambda: Trajectory((0.0,), (1.0,), (2.0,), "done"), "unknown stop_reason 'done'"),
    (lambda: Trajectory((0.0,), (1.0,), (2.0,), "equilibrium_reached"),
     "unknown stop_reason 'equilibrium_reached'"),
    (lambda: Trajectory((), (), (), "box_exit"), "a trajectory needs at least one sample"),
    (lambda: Trajectory((math.nan,), (1.0,), (2.0,), "box_exit"),
     "sample time must be finite, got nan"),
    (lambda: Trajectory((0.0, 0.0), XS, YS, "box_exit"), "sample times must be strictly monotone"),
    (lambda: Trajectory((0.0, 1.0, 0.5), XS + (1.0,), YS + (2.0,), "box_exit"),
     "sample times must be strictly monotone"),
    (lambda: Trajectory(TIMES, (1.0, math.inf), YS, "box_exit"),
     "sample coordinates must be finite, got inf"),
    (lambda: Trajectory(TIMES, (1.0,), YS, "box_exit"),
     "times, xs and ys must have equal lengths, got 2, 1, 2"),
    (lambda: StyledPath("decoration", XS, YS), "unknown path role 'decoration'"),
    (lambda: StyledPath("separatrix", (1.0,), (2.0,)), "a styled path needs at least 2 points"),
    (lambda: StyledPath("separatrix", XS, (2.0, -math.inf)),
     "path coordinates must be finite, got -inf"),
    (lambda: StyledPath("separatrix", XS, (2.0,)), "xs and ys must have equal lengths, got 2, 1"),
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
    (lambda: Trajectory(tuple(map(float, range(49))) + (math.nan,), (1.0,) * 50, (2.0,) * 50,
                        "box_exit"),
     "sample time must be finite, got nan", "nan as the last of 50 sample times"),
    (lambda: Trajectory((0.0, -1.0, 0.5), XS + (1.0,), YS + (2.0,), "box_exit"),
     "sample times must be strictly monotone", "sample times fall, then rise"),
    (lambda: Trajectory((math.inf,), (1.0,), (2.0,), "box_exit"),
     "sample time must be finite, got inf", "inf as a sample time"),
    (lambda: Trajectory(TIMES, XS, (2.0, math.nan), "box_exit"),
     "sample coordinates must be finite, got nan", "nan in ys"),
    (lambda: Trajectory(TIMES, (math.inf, -math.inf), YS, "box_exit"),
     "sample coordinates must be finite, got inf", "inf and -inf in one column"),
    (lambda: StyledPath("separatrix", (1.0, math.nan), YS),
     "path coordinates must be finite, got nan", "nan in a path's xs"),
    (lambda: Trajectory((0.0, 0.5, 1.0), XS, YS, "box_exit"),
     "times, xs and ys must have equal lengths, got 3, 2, 2", "more times than points"),
    (lambda: StyledPath("separatrix", (1.0, 3.0, 5.0), YS),
     "xs and ys must have equal lengths, got 3, 2", "more xs than ys"),
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
