"""The check units against the README's table of checks."""

import re
from pathlib import Path

from kslogistic.checks import CHECKS

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_check_table() -> list:
    """(name, [parameter, ...]) per row of the README's check table."""
    lines = README.read_text().splitlines()
    start = lines.index("| check | parameters | what must hold |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        name, params = (cell.strip() for cell in line.split("|")[1:3])
        rows.append((name.strip("`"), re.findall(r"`([^`]+)`", params)))
    return rows


def test_readme_check_table_matches_checks():
    expected = [(name, list(unit.schema)) for name, unit in CHECKS.items()]
    assert readme_check_table() == expected
