import os
from pathlib import Path

import pytest
from helpers import BRIDGE_TEXT, M3_TEXT, THRESHOLD8_TEXT, TRIANGLE_TEXT

from mstplan import parse_graph

# pyproject's ``pythonpath`` puts src/ on this process's import path only;
# child processes the tests start (``python -m mstplan ...``) need it too.
# They also turn a warning into an error, as pyproject's ``filterwarnings``
# does in this process.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
)
os.environ["PYTHONWARNINGS"] = "error"


@pytest.fixture
def triangle():
    return parse_graph(TRIANGLE_TEXT)


@pytest.fixture
def threshold8():
    return parse_graph(THRESHOLD8_TEXT)


@pytest.fixture
def bridge4():
    return parse_graph(BRIDGE_TEXT)


@pytest.fixture
def multi3():
    return parse_graph(M3_TEXT)
