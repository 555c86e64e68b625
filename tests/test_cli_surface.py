"""The command-line surface as a table, and the exit code of each error class.

The table pins every flag of every subcommand: its option strings, whether it
is required, its default, the argparse type that reads it and its action. The
exit-code tests make one command raise each error class in turn and read the
code and the stderr prefix dispatch gives it.
"""

import argparse

import pytest

from dolearn import cli
from dolearn.errors import DolearnError, FormatError, GraphCycleError

STORE, FLAG = argparse._StoreAction, argparse._StoreTrueAction

# Per subcommand: option string -> (required, default, type, action).
SURFACE = {
    "gen-graph": {
        "--nodes": (True, None, cli._count, STORE),
        "--in-degree": (True, None, cli._nonnegative, STORE),
        "--ccomp-size": (True, None, cli._count, STORE),
        "--alphabet": (False, 2, cli._domain, STORE),
        "--x-var": (False, 0, cli._nonnegative, STORE),
        "--seed": (False, 0, cli._nonnegative, STORE),
        "--out": (True, None, None, STORE),
    },
    "gen-model": {
        "--graph": (True, None, None, STORE),
        "--lambda": (False, 0.0, cli._smoothing, STORE),
        "--hidden-domain": (False, None, cli._domain, STORE),
        "--seed": (False, 0, cli._nonnegative, STORE),
        "--out": (True, None, None, STORE),
    },
    "sample": {
        "--model": (True, None, None, STORE),
        "--m": (True, None, cli._count, STORE),
        "--seed": (False, 0, cli._nonnegative, STORE),
        "--out": (True, None, None, STORE),
    },
    "learn-do": {
        "--graph": (True, None, None, STORE),
        "--samples": (True, None, None, STORE),
        "--x-var": (True, None, None, STORE),
        "--x-val": (True, None, int, STORE),
        "--epsilon": (False, 0.1, cli._epsilon, STORE),
        "--alpha": (False, None, cli._alpha, STORE),
        "--m": (False, None, cli._count, STORE),
        "--t": (False, None, cli._count, STORE),
        "--seed": (False, 0, cli._nonnegative, STORE),
        "--truth-model": (False, None, None, STORE),
        "--out": (True, None, None, STORE),
    },
    "eval": {
        "--learned": (True, None, None, STORE),
        "--assignment": (True, None, None, STORE),
    },
    "sample-do": {
        "--learned": (True, None, None, STORE),
        "--m": (True, None, cli._count, STORE),
        "--seed": (False, 0, cli._nonnegative, STORE),
        "--out": (True, None, None, STORE),
    },
    "marginal": {
        "--graph": (True, None, None, STORE),
        "--samples": (True, None, None, STORE),
        "--x-var": (True, None, None, STORE),
        "--x-val": (True, None, int, STORE),
        "--targets": (True, None, None, STORE),
        "--epsilon": (False, 0.1, cli._epsilon, STORE),
        "--alpha": (False, None, cli._alpha, STORE),
        "--m": (False, None, cli._count, STORE),
        "--t": (False, None, cli._count, STORE),
        "--seed": (False, 0, cli._nonnegative, STORE),
        "--via-generator": (False, False, None, FLAG),
        "--out": (True, None, None, STORE),
    },
    "tv": {
        "--dense-a": (True, None, None, STORE),
        "--dense-b": (True, None, None, STORE),
    },
    "experiment": {
        "--spec": (True, None, None, STORE),
        "--out": (True, None, None, STORE),
    },
}


def _subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_subcommand_is_in_the_table():
    assert sorted(_subparsers()) == sorted(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_flags_match_the_table(command):
    actions = [a for a in _subparsers()[command]._actions if not isinstance(a, argparse._HelpAction)]
    got = {tuple(a.option_strings): (a.required, a.default, a.type, type(a)) for a in actions}
    assert got == {(flag,): surface for flag, surface in SURFACE[command].items()}


@pytest.mark.parametrize("command, required", [
    ("learn-do", "--graph, --samples, --x-var, --x-val, --out"),
    ("marginal", "--graph, --samples, --x-var, --x-val, --targets, --out"),
])
def test_missing_flags_are_named_in_one_order(capsys, command, required):
    assert cli.dispatch([command]) == 2
    assert capsys.readouterr().err == f"usage error: the following arguments are required: {required}\n"


def _exit(monkeypatch, capsys, error) -> tuple[int, str]:
    """Exit code and stderr of a tv run whose command raises error."""
    def command(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_tv", command)
    code = cli.dispatch(["tv", "--dense-a", "a.json", "--dense-b", "b.json"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("cls", DolearnError.__subclasses__(), ids=lambda cls: cls.__name__)
def test_package_errors_exit_4_but_format_errors_exit_3(monkeypatch, capsys, cls):
    error = cls((0, 1)) if cls is GraphCycleError else cls("boom")
    expected = (3, f"input error: {error}\n") if cls is FormatError else (4, f"contract violation: {error}\n")
    assert _exit(monkeypatch, capsys, error) == expected


@pytest.mark.parametrize("error, code, prefix", [
    (FileNotFoundError(2, "No such file or directory"), 3, "input error: "),
    (OSError("disk full"), 3, "input error: "),
    (cli.UsageError("bad flag"), 2, "usage error: "),
    (RuntimeError("boom"), 5, "internal error: RuntimeError: "),
], ids=["FileNotFoundError", "OSError", "UsageError", "RuntimeError"])
def test_other_errors_exit_by_class(monkeypatch, capsys, error, code, prefix):
    assert _exit(monkeypatch, capsys, error) == (code, f"{prefix}{error}\n")


# dispatch builds the parser of the command named by argv[0] alone, and the
# full parser when argv[0] names no command. The tests below check that the
# one-command parser reads and reports exactly as the full one does. The
# handler is looked up when dispatch runs: the exit-code tests above replace
# cli._cmd_tv after import.


def _dispatched(monkeypatch, capsys, argv, full=False) -> tuple[list, int, str, str]:
    """The parsers dispatch builds for argv (or the full parser, if full), its
    exit code, stdout and stderr."""
    build, built = cli.build_parser, []

    def record(command=None):
        built.append(build(None if full else command))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", record)
        code = cli.dispatch(argv)
    out = capsys.readouterr()
    return built, code, out.out, out.err


def _choices(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _surface(parser) -> list:
    return [(a.option_strings, a.dest, a.required, a.default, a.type, type(a), a.help) for a in parser._actions]


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_the_dispatched_parser_holds_the_command_alone(monkeypatch, capsys, command):
    (parser,), _, _, _ = _dispatched(monkeypatch, capsys, [command, "--help"])
    assert list(_choices(parser)) == [command]
    assert _surface(_choices(parser)[command]) == _surface(_subparsers()[command])
    assert _choices(parser)[command].get_default("func") is _subparsers()[command].get_default("func")


@pytest.mark.parametrize("tail", [["--help"], [], ["--bogus"], ["extra"]], ids=["help", "no-flags", "unknown-flag",
                                                                                 "extra"])
@pytest.mark.parametrize("command", sorted(SURFACE))
def test_the_dispatched_parser_prints_what_the_full_one_prints(monkeypatch, capsys, command, tail):
    _, *one = _dispatched(monkeypatch, capsys, [command, *tail])
    _, *full = _dispatched(monkeypatch, capsys, [command, *tail], full=True)
    assert one == full and one[0] in (0, 2)


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["samp", "--m", "1"]],
                         ids=["none", "help", "unknown", "prefix"])
def test_without_a_command_all_nine_are_built_and_listed(monkeypatch, capsys, argv):
    (parser,), code, out, err = _dispatched(monkeypatch, capsys, argv)
    assert list(_choices(parser)) == [name for name, *_ in cli.COMMANDS] and sorted(_choices(parser)) == sorted(SURFACE)
    if argv:
        assert all(name in out + err for name in SURFACE)
    assert (code, out, err) == tuple(_dispatched(monkeypatch, capsys, argv, full=True)[1:])


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_a_valid_command_builds_one_subparser(monkeypatch, capsys, command):
    add_parser, names = argparse._SubParsersAction.add_parser, []

    def count(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", count)
    assert cli.dispatch([command, "--help"]) == 0
    assert names == [command]

