"""The argparse structure the CLI builds, pinned action by action.

Each row is (option strings, dest, default, type name, choices, metavar,
help, action class) for one action, in the parser's order. Help text as
argparse lays it out differs between Python versions, so only the pieces it
is laid out from are pinned here.
"""

import argparse

import pytest

from archflow.cli import _build_parser

HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, None, None,
        "show this help message and exit", "_HelpAction")
CONFIG = (("--config",), "config", None, None, None, "FILE",
          "key=value file; flags override it", "_StoreAction")
FORMAT = (("--format",), "format", None, "_to_format", None, None, "human or machine",
          "_StoreAction")
THETA = (("--theta",), "theta", None, "float", None, None, "stiffness parameter, > 0",
         "_StoreAction")
PRESET = (("--preset",), "preset", None, None, ["plain", "strong", "tented"], None,
          "named stiffness: plain, tented, strong", "_StoreAction")
WINDOW = (("--window",), "window", None, "_to_window", None, "X0,X1,Y0,Y1", None, "_StoreAction")


def plain(flag, type_name, help=None):
    """A row for a value flag with no default, choices or metavar."""
    return (("--" + flag,), flag.replace("-", "_"), None, type_name, None, None, help,
            "_StoreAction")


TOP = [
    HELP,
    ((), "command", None, None, ["analyze", "trace", "portrait", "classify", "sweep"], None, None,
     "_SubParsersAction"),
]

SUBCOMMANDS = {
    "analyze": [HELP, CONFIG, FORMAT, THETA, PRESET, WINDOW],
    "trace": [
        HELP, CONFIG, FORMAT, THETA, PRESET,
        (("--start",), "start", None, "_to_point", None, "X,Y", None, "_StoreAction"),
        plain("tmax", "float"),
        plain("tol", "float"),
        WINDOW[:6] + ("optional stop box (inflated 5 percent)", "_StoreAction"),
        plain("out", "str"),
    ],
    "portrait": [
        HELP, CONFIG, FORMAT, THETA, PRESET, WINDOW,
        plain("seeds-above", "int"),
        plain("seeds-below", "int"),
        plain("inset", "float"),
        plain("tol", "float"),
        plain("width", "int"),
        plain("height", "int"),
        (("--arrows", "--no-arrows"), "arrows", None, None, None, None, None,
         "BooleanOptionalAction"),
        plain("resolution", "int", "separatrix segments per branch"),
        plain("out", "str"),
    ],
    "classify": [HELP, CONFIG, FORMAT, THETA, PRESET, plain("apex", "float"),
                 plain("fraction", "float")],
    "sweep": [
        HELP, CONFIG, FORMAT,
        plain("theta-from", "float"),
        plain("theta-to", "float"),
        plain("steps", "int"),
        plain("apex", "float"),
        plain("fraction", "float"),
    ],
}

EXCLUSIVE = {name: [("theta", "preset")] for name in SUBCOMMANDS if name != "sweep"}


def structure(parser):
    rows = [
        (
            tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", None),
            None if a.choices is None else list(a.choices), a.metavar, a.help,
            type(a).__name__,
        )
        for a in parser._actions
    ]
    groups = [tuple(a.dest for a in g._group_actions) for g in parser._mutually_exclusive_groups]
    return rows, groups


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_top_level_parser_structure():
    parser = _build_parser()
    assert (parser.prog, parser.allow_abbrev) == ("archflow", False)
    assert structure(parser) == (TOP, [])


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_parser_structure(name):
    parser = subparsers(_build_parser())[name]
    assert parser.allow_abbrev is False
    assert structure(parser) == (SUBCOMMANDS[name], EXCLUSIVE.get(name, []))
