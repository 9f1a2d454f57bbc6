"""The README's library quick tour runs as written, and its command line
documents only flags the parser has."""

import re
import shlex
from pathlib import Path

from fischerlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under the quick tour heading"
    return match.group(1)


def test_readme_quick_tour_runs():
    exec(compile(_quick_tour(), str(README), "exec"), {})


def test_readme_commands_parse():
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    commands = [line for line in block.splitlines() if line.startswith("fischer-lab ")]
    assert commands, "no fischer-lab commands under the command line heading"
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])  # exits 2 on an unknown flag


def test_readme_flags_exist():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.choices and a.dest == "verb")
    options = {s for p in (parser, *subparsers.choices.values())
               for a in p._actions for s in a.option_strings}
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    flags = {flag for span in re.findall(r"`([^`\n]*)`", prose)
             for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", span)}
    assert flags, "the README names no flags"
    assert flags <= options, sorted(flags - options)
