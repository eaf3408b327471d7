"""Every value derived from a set lives in setops.store: no module of
src/sumprodlab but setops reaches into an object's __dict__ to keep one."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sumprodlab"


def test_only_setops_touches_dict():
    found = [f"{path.relative_to(SRC)}:{n}"
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "setops.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if "__dict__" in line]
    assert found == [], f"__dict__ outside setops: {found}"
