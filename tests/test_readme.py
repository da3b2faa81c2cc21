"""The README's code blocks run: the library quick start, and every line of the
"Command line" block through cli.main."""

import re
import shlex
from pathlib import Path

from extham import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    """The bodies of the README's fenced blocks in language, each with the heading above it."""
    out, heading = [], None
    for part in re.split(r"(^#+ [^\n]*$|^```\w*\n.*?^```$)", README, flags=re.M | re.S):
        if part.startswith("#"):
            heading = part.lstrip("#").strip()
        elif part.startswith(f"```{language}\n"):
            out.append((heading, part[len(language) + 4:-3]))
    return out


def test_the_quick_start_runs(monkeypatch, tmp_path, capsys):
    [source] = [body for heading, body in _blocks("python") if heading == "Library quick start"]
    monkeypatch.chdir(tmp_path)
    exec(compile(source, "README quick start", "exec"), {})
    assert capsys.readouterr().out


def test_every_command_line_example_exits_zero(monkeypatch, tmp_path, capsys):
    [body] = [body for heading, body in _blocks("sh") if heading == "Command line"]
    lines = [line for line in body.replace("\\\n", " ").splitlines()
             if line.strip() and not line.startswith("#")]
    assert lines and all(line.startswith("extham ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr())
        capsys.readouterr()
