from __future__ import annotations

from pathlib import Path

import pytest

from shipped import FIXTURE_DIR


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR
