"""Every source file parses as the oldest Python pyproject.toml claims."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_source_file_parses_as_the_oldest_claimed_python():
    version = oldest_python()
    files = sorted(
        path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")
    )
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


@pytest.mark.parametrize(
    "source",
    [
        "try:\n    pass\nexcept* ValueError:\n    pass\n",  # 3.11
        "type Pair = tuple[int, int]\n",  # 3.12
    ],
    ids=["except-star", "type-alias"],
)
def test_the_check_refuses_newer_syntax(source):
    assert oldest_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=oldest_python())
