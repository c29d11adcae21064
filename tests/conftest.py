"""Shared corpus of solved functions, cached once per session."""

from __future__ import annotations

import pytest

from advspan import verify
from advspan.boolfun import BooleanFunction


def two_bit_dependent_tables() -> list[str]:
    """The ten 2-ary tables that are non-constant and depend on both inputs."""
    out = []
    for code in range(16):
        table = tuple((code >> (3 - s)) & 1 for s in range(4))
        f = BooleanFunction(2, table)
        if not f.is_constant and f.depends_on(1) and f.depends_on(2):
            out.append(f.name())
    return out


def corpus_specs() -> list[str]:
    """12 functions with n <= 2 (up to triviality) plus the three n = 3 anchors."""
    return ["01", "10"] + two_bit_dependent_tables() + ["PARITY:3", "OR:3", "MAJ:3"]


class SolvedFunction:
    """One default verify() run: its report and the objects it built."""

    def __init__(self, spec: str):
        self.spec = spec
        result = verify(spec)
        self.report = result.report
        self.solution = result.solution
        self.certificate = result.certificate
        self.program = result.program
        self.graph = result.graph
        self.f = self.program.f
        self.sdp = self.solution.sdp


@pytest.fixture(scope="session")
def solved():
    """Memoized access to fully solved functions: solved('PARITY:2')."""
    cache: dict[str, SolvedFunction] = {}

    def get(spec: str) -> SolvedFunction:
        if spec not in cache:
            cache[spec] = SolvedFunction(spec)
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def corpus(solved):
    """All corpus functions, solved."""
    return [solved(spec) for spec in corpus_specs()]
