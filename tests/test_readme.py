"""The README's examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from gravitunnel.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, language):
    """The first ```language block after the heading line."""
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch):
    # verify's run is TestVerifyCommand's; every other command line runs
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in _block("Command line", "sh").splitlines()]
    assert all(argv[0] == "gravitunnel" for argv in commands)
    run = [argv[1:] for argv in commands if argv[1] != "verify"]
    assert len(run) == len(commands) - 1
    for argv in run:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library example", "python"), {})
    assert float(out.getvalue()) == pytest.approx(36.5, abs=0.1)
