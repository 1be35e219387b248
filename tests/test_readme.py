"""The README's examples run as written: its Python blocks execute, and each
``knotpoly`` line of its shell blocks exits 0 and, for the commands that
print one polynomial or a verify summary, prints its comment."""

import functools
import re
import shlex
from pathlib import Path

import pytest

from knotpoly import cli, identities

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)
COMMANDS = [line for lang, body in BLOCKS if lang == "sh"
            for line in body.splitlines() if line.startswith("knotpoly ")]
# commands whose whole stdout is the line's comment
PRINTS_COMMENT = {"alexander", "homfly", "qnum", "qpnum", "chebyshev", "verify"}


def test_python_blocks_run():
    # the registry example is an entry of knotpoly.identities, so it runs
    # among that module's names
    namespace = dict(vars(identities))
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert blocks
    for body in blocks:
        exec(compile(body, "README.md", "exec"), namespace)


def test_registry_example_is_a_registry_entry():
    # the README's Identity(...) block is the registry entry of its name:
    # the same suite, start and mode, and sides equal at n = 0..10
    namespace = dict(vars(identities))
    examples = [eval(body, namespace) for lang, body in BLOCKS
                if lang == "python" and body.startswith("Identity(")]
    assert examples
    entries = {ident.name: ident for ident in identities.IDENTITIES}
    seq = functools.cache(lambda builder: builder(10))
    for example in examples:
        assert example.name in entries
        entry = entries[example.name]
        assert (example.suite, example.start, example.mode) == \
            (entry.suite, entry.start, entry.mode)
        for n in range(example.start, 11):
            assert example.lhs(seq, n) == entry.lhs(seq, n)
            assert example.rhs(seq, n) == entry.rhs(seq, n)


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split("#")[0].strip() for line in COMMANDS])
def test_shell_command_runs(line, capsys):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    if argv[0] in PRINTS_COMMENT:
        assert out == comment.strip().strip('"') + "\n"


def _named_list(heading):
    """The backticked names of the README sentence that starts with ``heading``."""
    text = re.search(rf"^{re.escape(heading)} (.*?)\.\s", README, re.M | re.S).group(1)
    return re.findall(r"`([\w-]+)`", text)


def test_lists_match_the_cli():
    assert _named_list("`table` families:") == list(cli._TABLE_FAMILIES)
    assert _named_list("`verify` suites:") == list(identities.SUITES)
    assert {shlex.split(line)[1] for line in COMMANDS} >= set(cli._MEMBER_COMMANDS)
