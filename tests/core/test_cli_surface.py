"""Every ``python -m repro ...`` line in CI and the docs still parses.

A flag removed from ``repro.cli`` must not leave a CI step or a
documented command behind that would now exit 2.  Each command is parsed
with :func:`repro.cli.build_parser`, never run.
"""

import contextlib
import functools
import io
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCES = [
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
#: ``repro`` followed by its arguments (not ``repro.fleet.worker`` &c.).
COMMAND = re.compile(r"python -m repro(?=[\s`]|$)(.*)")
#: Where a command ends on its line: inline code, a redirect, a pipe or
#: a background/and-list (outside quotes; ``#`` comments go too).
ENDS = "`>|&"


def logical_lines(text):
    """``(line number, line)`` with YAML ``run: >`` blocks folded and
    ``\\`` continuations joined."""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        start, line = index + 1, lines[index]
        index += 1
        if line.rstrip().endswith("run: >"):
            indent = len(line) - len(line.lstrip())
            body = []
            while index < len(lines) and (
                not lines[index].strip()
                or len(lines[index]) - len(lines[index].lstrip()) > indent
            ):
                body.append(lines[index].strip())
                index += 1
            line = " ".join(body)
        while line.endswith("\\") and index < len(lines):
            line = line[:-1] + " " + lines[index].strip()
            index += 1
        yield start, line


def arguments(rest):
    lexer = shlex.shlex(rest, posix=True, punctuation_chars=ENDS)
    lexer.whitespace_split = True
    words = []
    for token in lexer:
        if set(token) <= set(ENDS):
            break
        words.append(token)
    return words


def documented_commands():
    found = []
    for path in SOURCES:
        for number, line in logical_lines(path.read_text(encoding="utf-8")):
            for match in COMMAND.finditer(line):
                where = f"{path.relative_to(ROOT)}:{number}"
                found.append(pytest.param(arguments(match.group(1)), id=where))
    return found


COMMANDS = documented_commands()


def test_ci_and_the_docs_run_every_command_that_takes_flags():
    named = {param.values[0][0] for param in COMMANDS if param.values[0]}
    assert {"testbed", "fleet", "top", "trace", "explain", "lint"} <= named


@functools.lru_cache(maxsize=None)
def usage(command):
    """``repro COMMAND --help``: the command's exact option strings."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return text.getvalue()


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"`repro {' '.join(argv)}` no longer parses (exit {exc.code})")
    # argparse takes an unambiguous prefix of a flag: a removed flag
    # that prefixes a kept one would still parse.
    for word in argv[1:]:
        flag = word.split("=", 1)[0]
        if flag.startswith("--"):
            assert re.search(rf"{re.escape(flag)}(?![\w-])", usage(argv[0])), flag
