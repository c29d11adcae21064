import re
from pathlib import Path

import pytest

from advspan.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    """Every ```python block of the README runs, each in a fresh namespace;
    the second is the stage-by-stage library path."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_flag_table_matches_the_cli(capsys):
    """The flags of the README's flag table, with --function, are the flags
    `advspan verify --help` prints (without --help): no flag goes
    undocumented, and no removed flag stays documented."""
    table = re.search(r"^\| flag \| meaning \|\n((?:\|.*\n)+)", README.read_text(), flags=re.M).group(1)
    documented = {flag for row in table.splitlines() for flag in re.findall(r"`(--[a-z-]+)", row.split("|")[1])}
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    printed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert documented | {"--function"} == printed
