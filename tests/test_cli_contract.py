"""The CLI option contract, pinned in-process through ``parse_invocation``.

Every (subcommand, option) pair is checked three ways: the flag form, the
config form with a hyphenated key and the config form with an underscored
key give the same options; an absent option gives its default; a value
that fails conversion or a range check exits 2 with a fixed message.
"""

import pytest

from archflow.cli import main, parse_invocation
from archflow.systems import Point2, Window

DEFAULT_WINDOW = Window(-4.0, 4.0, -4.0, 4.0)

# kind -> (argparse type name, converter message for the text "x"); "str" takes any text
KINDS = {
    "int": ("int", "invalid literal for int() with base 10: 'x'"),
    "float": ("float", "could not convert string to float: 'x'"),
    "window": ("_to_window", "window needs four numbers x0,x1,y0,y1, got 'x'"),
    "point": ("_to_point", "point needs two numbers x,y, got 'x'"),
    "format": ("_to_format", "format must be human or machine, got 'x'"),
    "bool": (None, "expected a boolean, got 'x'"),  # a flag without a value
}

# (command, key, kind, text, parsed value, default)
OPTIONS = [
    ("analyze", "window", "window", "-1,1,-2,2", Window(-1, 1, -2, 2), DEFAULT_WINDOW),
    ("trace", "start", "point", "0.5,-1", Point2(0.5, -1.0), Point2(0.0, 1.0)),
    ("trace", "tmax", "float", "3", 3.0, 10.0),
    ("trace", "tol", "float", "1e-8", 1e-8, 1e-10),
    ("trace", "window", "window", "-1,1,-1,1", Window(-1, 1, -1, 1), None),
    ("trace", "out", "str", "run.csv", "run.csv", "trace.csv"),
    ("portrait", "window", "window", "-2,2,-1,3", Window(-2, 2, -1, 3), DEFAULT_WINDOW),
    ("portrait", "seeds_above", "int", "3", 3, 8),
    ("portrait", "seeds_below", "int", "0", 0, 4),
    ("portrait", "inset", "float", "0.1", 0.1, 0.05),
    ("portrait", "tol", "float", "1e-9", 1e-9, 1e-10),
    ("portrait", "width", "int", "640", 640, 800),
    ("portrait", "height", "int", "480", 480, 800),
    ("portrait", "arrows", "bool", "false", False, True),
    ("portrait", "resolution", "int", "64", 64, 256),
    ("portrait", "out", "str", "p.svg", "p.svg", "portrait.svg"),
    ("classify", "apex", "float", "2", 2.0, 1.0),
    ("classify", "fraction", "float", "0.25", 0.25, 0.5),
    ("sweep", "theta_from", "float", "0.01", 0.01, 0.001),
    ("sweep", "theta_to", "float", "2", 2.0, 5.0),
    ("sweep", "steps", "int", "3", 3, 5),
    ("sweep", "apex", "float", "2", 2.0, 1.0),
    ("sweep", "fraction", "float", "0.75", 0.75, 0.5),
] + [
    (command, "format", "format", "machine", "machine", "human")
    for command in ("analyze", "trace", "portrait", "classify", "sweep")
]

COMMANDS = sorted({row[0] for row in OPTIONS})
BASE = {command: ["--theta", "1"] for command in COMMANDS}
BASE["sweep"] = []

# (command, key, rejected boundary text, message after "usage error: ")
REJECTED = [
    ("trace", "tmax", "0", "tmax must be finite and > 0, got 0.0"),
    ("trace", "tol", "0", "tol must be finite and > 0, got 0.0"),
    ("portrait", "tol", "nan", "tol must be finite and > 0, got nan"),
    ("portrait", "seeds_above", "-1", "seeds_above must be >= 0, got -1"),
    ("portrait", "seeds_below", "-1", "seeds_below must be >= 0, got -1"),
    ("portrait", "inset", "0.5", "inset must lie in [0, 0.5), got 0.5"),
    ("portrait", "inset", "-0.01", "inset must lie in [0, 0.5), got -0.01"),
    ("portrait", "width", "0", "width must be >= 1, got 0"),
    ("portrait", "height", "0", "height must be >= 1, got 0"),
    ("portrait", "resolution", "0", "resolution must be >= 1, got 0"),
    ("classify", "apex", "0", "apex must be finite and > 0, got 0.0"),
    ("classify", "fraction", "1", "fraction must lie in (0, 1), got 1.0"),
    ("classify", "fraction", "0", "fraction must lie in (0, 1), got 0.0"),
    ("sweep", "theta_from", "0", "theta_from must be finite and > 0, got 0.0"),
    ("sweep", "theta_to", "-inf", "theta_to must be finite and > 0, got -inf"),
    ("sweep", "steps", "0", "steps must be >= 1, got 0"),
    ("sweep", "apex", "-1", "apex must be finite and > 0, got -1.0"),
    ("sweep", "fraction", "1", "fraction must lie in (0, 1), got 1.0"),
]

# (command, key, accepted boundary text)
ACCEPTED = [
    ("portrait", "seeds_above", "0"),
    ("portrait", "inset", "0"),
    ("portrait", "width", "1"),
    ("sweep", "steps", "1"),
]


def row_id(row):
    return f"{row[0]}-{row[1]}"


def flag_argv(key, kind, text, value):
    flag = key.replace("_", "-")
    if kind == "bool":
        return [f"--{flag}" if value else f"--no-{flag}"]
    return [f"--{flag}={text}"]


def parse_with_config(tmp_path, command, line):
    cfg = tmp_path / "arch.cfg"
    cfg.write_text(f"# contract\n{line}\n")
    return parse_invocation([command, *BASE[command], "--config", str(cfg)])


def run_main(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


def test_every_option_is_declared():
    for command in COMMANDS:
        _, opts = parse_invocation([command, *BASE[command]])
        declared = {row[1] for row in OPTIONS if row[0] == command}
        if command != "sweep":
            declared.add("theta")
        assert set(opts) == declared


@pytest.mark.parametrize("row", OPTIONS, ids=row_id)
def test_flag_and_config_forms_agree(tmp_path, row):
    command, key, kind, text, value, _ = row
    _, by_flag = parse_invocation([command, *BASE[command], *flag_argv(key, kind, text, value)])
    assert by_flag[key] == value
    hyphen = key.replace("_", "-")
    for cfg_key in {hyphen, key}:
        _, by_config = parse_with_config(tmp_path, command, f"{cfg_key} = {text}")
        assert by_config == by_flag


@pytest.mark.parametrize("row", OPTIONS, ids=row_id)
def test_absent_option_gives_default(row):
    command, key, *_, default = row
    _, opts = parse_invocation([command, *BASE[command]])
    assert opts[key] == default


@pytest.mark.parametrize("row", [r for r in OPTIONS if r[2] in KINDS], ids=row_id)
def test_unconvertible_value_exits_2(tmp_path, capsys, row):
    command, key, kind, *_ = row
    type_name, config_message = KINDS[kind]
    flag = key.replace("_", "-")
    if type_name is not None:
        with pytest.raises(SystemExit) as exc:
            main([command, *BASE[command], f"--{flag}=x"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().split("\n")[-1]
        assert last == (
            f"archflow {command}: error: argument --{flag}: invalid {type_name} value: 'x'"
        )
    (tmp_path / "arch.cfg").write_text(f"{key} = x\n")
    code, err = run_main(capsys, [command, *BASE[command], "--config", str(tmp_path / "arch.cfg")])
    assert (code, err) == (2, f"usage error: config {key}: {config_message}\n")


@pytest.mark.parametrize("row", REJECTED, ids=row_id)
def test_boundary_value_rejected(tmp_path, capsys, row):
    command, key, text, message = row
    code, err = run_main(capsys, [command, *BASE[command], f"--{key.replace('_', '-')}={text}"])
    assert (code, err) == (2, f"usage error: {message}\n")
    (tmp_path / "arch.cfg").write_text(f"{key} = {text}\n")
    code, err = run_main(capsys, [command, *BASE[command], "--config", str(tmp_path / "arch.cfg")])
    assert (code, err) == (2, f"usage error: {message}\n")


@pytest.mark.parametrize("row", ACCEPTED, ids=row_id)
def test_boundary_value_accepted(row):
    command, key, text = row
    _, opts = parse_invocation([command, *BASE[command], f"--{key.replace('_', '-')}={text}"])
    assert opts[key] == int(text)


@pytest.mark.parametrize(
    "argv, config, message",
    [
        # unknown keys come first, then a config preset, then conversion in table
        # order (format, theta, the command's own keys), then a missing theta,
        # then ranges
        (["classify"], "warp = 9\napex = x", "unknown config key 'warp' for classify"),
        (["classify"], "apex = x", "config apex: could not convert string to float: 'x'"),
        (["classify", "--fraction=1"], "", "theta is required: pass --theta or --preset"),
        (["classify", "--theta=-1", "--fraction=1"], "", "theta must be finite and > 0, got -1.0"),
        (["classify"], "theta = 1\npreset = tented", "config sets both theta and preset"),
        (["classify"], "preset = soft", "unknown preset 'soft' in config"),
        (["classify"], "theta = x", "config theta: could not convert string to float: 'x'"),
        (["sweep"], "theta = 1", "unknown config key 'theta' for sweep"),
        (["classify"], "apex", "config line 1: expected key=value, got 'apex'"),
        (["trace", "--theta=1"], "method = rk45", "unknown config key 'method' for trace"),
        (["trace", "--theta=1"], "step = 0.01", "unknown config key 'step' for trace"),
        (["analyze", "--theta=1"], "census_radius = 0.5",
         "unknown config key 'census_radius' for analyze"),
        (["classify"], "theta = x\napex = x",
         "config theta: could not convert string to float: 'x'"),
        (["classify"], "preset = soft\nfraction = x", "unknown preset 'soft' in config"),
        (["classify"], "preset = tented\napex = x",
         "config apex: could not convert string to float: 'x'"),
        (["classify"], "format = bad\ntheta = x",
         "config format: format must be human or machine, got 'bad'"),
    ],
)
def test_error_order_and_theta_messages(tmp_path, capsys, argv, config, message):
    (tmp_path / "arch.cfg").write_text(config + "\n")
    code, err = run_main(capsys, [*argv, "--config", str(tmp_path / "arch.cfg")])
    assert (code, err) == (2, f"usage error: {message}\n")


@pytest.mark.parametrize(
    "flags, config, theta",
    [
        (["--theta=2"], "preset = tented", 2.0),
        (["--preset=strong"], "theta = 1", 5.0),
        # a flag leaves the config's theta and preset unread, faulty or not
        (["--theta=2"], "theta = 1\npreset = soft", 2.0),
        (["--preset=plain"], "theta = x\npreset = tented", 0.001),
    ],
)
def test_a_theta_or_preset_flag_overrides_the_config(tmp_path, flags, config, theta):
    (tmp_path / "arch.cfg").write_text(config + "\n")
    _, opts = parse_invocation(["classify", *flags, "--config", str(tmp_path / "arch.cfg")])
    assert opts["theta"] == theta
