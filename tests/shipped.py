"""The shipped fixture systems, read from the ``fixtures/*.dcs`` files."""

from __future__ import annotations

from pathlib import Path

from dcsimp.core import PrecedenceGraph
from dcsimp.fileformat import load

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = tuple(sorted(path.stem for path in FIXTURE_DIR.glob("*.dcs")))


def load_fixture(name: str) -> PrecedenceGraph:
    return load(FIXTURE_DIR / f"{name}.dcs")
