"""The sha256 pins and value checks of the CI workflow, checked by the
test suite.

The workflow runs the installed console script and compares output files
with sha256 digests written into its steps.  This module reads each
``coxcascade ...`` command line of the workflow that is followed by
``sha256sum`` checks, runs it in process through ``cli.main`` (a
``> file`` redirect captures stdout), and compares the same digests.  It
also runs each ``test "$(coxcascade ... | head -n 1)" = VALUE`` line (or
``tail -n 1``) and compares that line of stdout with the value.  The
digests and values live only in the workflow, so the two cannot drift.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from coxcascade.cli import main

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
SHA_CHECK = re.compile(r"""sha256sum (\S+) \| cut -d ' ' -f 1\)" = ([0-9a-f]{64})""")
VALUE_CHECK = re.compile(r"""^test "\$\(coxcascade (.+) \| (head|tail) -n 1\)" = (\S+)$""")


def pinned_commands(text: str) -> list[tuple[str, dict[str, str]]]:
    """Each command line with the digests checked after it, before the
    next command line or step."""
    pins: list[tuple[str, dict[str, str]]] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("- name:"):
            pins.append(("", {}))
        elif line.startswith("coxcascade "):
            pins.append((line.removeprefix("coxcascade "), {}))
        elif (check := SHA_CHECK.search(line)) and pins and pins[-1][0]:
            pins[-1][1][check.group(1)] = check.group(2)
    return [(command, digests) for command, digests in pins if digests]


PINS = pinned_commands(WORKFLOW.read_text())
VALUES = [check.groups() for line in WORKFLOW.read_text().splitlines()
          if (check := VALUE_CHECK.match(line.strip()))]


def test_every_pin_is_found():
    # the validate records, the parity table JSON, and t.log and o.json of
    # four reconcile runs
    assert sum(len(digests) for _, digests in PINS) == 10


@pytest.mark.parametrize("command, digests", PINS, ids=[c for c, _ in PINS])
def test_pinned_outputs(command, digests, capsys, monkeypatch, tmp_path):
    argv = shlex.split(command)
    stdout_file = None
    if ">" in argv:
        argv, (_, stdout_file) = argv[:argv.index(">")], argv[argv.index(">"):]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if stdout_file is not None:
        (tmp_path / stdout_file).write_text(out)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_every_value_check_is_found():
    assert [command.split()[0] for command, _, _ in VALUES] == ["blocksize", "cdf", "pmf",
                                                                "parity"]


@pytest.mark.parametrize("command, end, value", VALUES, ids=[c for c, _, _ in VALUES])
def test_value_checks(command, end, value, capsys):
    assert main(shlex.split(command)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0 if end == "head" else -1] == value
