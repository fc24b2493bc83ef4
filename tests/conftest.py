from __future__ import annotations

import sys
from pathlib import Path

import pytest

from shipped import FIXTURE_DIR


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture
def replace(monkeypatch):
    """``replace(original, replacement)`` patches ``original`` by its own
    name in every dcsimp module holding it, for the rest of the test."""

    def patch(original, replacement) -> None:
        name = original.__name__
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "dcsimp" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, replacement)

    return patch
