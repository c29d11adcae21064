import re
from pathlib import Path

import numpy as np
import pytest

from advspan import verify
from advspan.advsdp import build_witness_sdp, solve_sdp
from advspan.boolfun import load_function
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


def test_readme_figures_are_computed():
    """Each figure the README states is recomputed here, so a stale number
    fails: AND:5's 2 rank(B_G) and program-graph dimension, K, M's side
    before and after the orbit reduction, the class blocks solved and the
    inputs resolved."""
    text = " ".join(README.read_text().split())  # the sentences wrap
    graph = verify("AND:5").graph
    assert f"2 rank(B_G) ({2 * graph.rank} for AND:5, whose program graph has dimension {graph.dim})" in text
    sdps = {spec: build_witness_sdp(load_function(spec)) for spec in ("OR:5", "MAJ:5", "PARITY:5")}
    k = [sdps[spec].side for spec in ("OR:5", "MAJ:5", "PARITY:5")]
    assert f"K = max |C_{{j,c}}| ({k[0]}, {k[1]} and {k[2]} for OR:5, MAJ:5 and PARITY:5)" in text
    maj, parity = sdps["MAJ:5"], sdps["PARITY:5"]
    maj_orbits, parity_orbits = (solve_sdp(sdp).residuals["orbits"] for sdp in (maj, parity))
    assert maj_orbits["schur_side"] == parity_orbits["schur_side"]
    assert (f"its side falls from {maj_orbits['schur_side']} to {maj_orbits['reduced_side']} on MAJ:5 "
            f"and to {parity_orbits['reduced_side']} on PARITY:5") in text
    assert (f"({len(maj.classes)} of MAJ:5's {2 * maj.n} blocks, "
            f"{len(parity.classes)} of PARITY:5's)") in text
    resolved = [len(np.unique(sdp.orbits.inputs)) for sdp in (maj, parity)]
    assert f"{resolved[0]} of MAJ:5's {maj.num_inputs} inputs and {resolved[1]} of PARITY:5's" in text
