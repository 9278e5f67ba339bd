"""The README's library example runs against the current API, and its
command lines use only flags the command line takes."""

import argparse
import re
from pathlib import Path

from gcn_energy.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_snippet() -> str:
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1, "the Library use section should hold one python block"
    return blocks[0]


def test_library_use_snippet_runs(capsys):
    exec(compile(library_use_snippet(), f"{README}:Library use", "exec"), {})
    assert capsys.readouterr().out.strip().splitlines()[-1] == "True"


def subcommand_options() -> dict[str, set[str]]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in p._actions for opt in action.option_strings}
            for name, p in sub.choices.items()}


def readme_flag_uses(commands) -> list[tuple[str, str]]:
    """``(command, flag)`` for every ``gcn-energy <command> --flag`` line of a
    code block and every inline `` `<command> --flag ...` `` span of the prose."""
    text = README.read_text()
    names = "|".join(map(re.escape, commands))
    block_re = re.compile(r"^```[^\n]*\n(.*?)^```$", flags=re.S | re.M)
    spans = [m.groups() for block in block_re.findall(text)
             for m in re.finditer(rf"\bgcn-energy ({names})\b([^\n]*)", block)]
    spans += re.findall(rf"`(?:gcn-energy )?({names})( --[^`\n]*)`", block_re.sub("", text))
    return [(command, flag) for command, rest in spans
            for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", rest)]


def test_readme_flags_are_options_of_their_subcommand():
    options = subcommand_options()
    uses = readme_flag_uses(options)
    assert len({command for command, _ in uses}) >= 4, uses
    unknown = sorted({(command, flag) for command, flag in uses if flag not in options[command]})
    assert not unknown, f"README names flags its subcommand does not take: {unknown}"
