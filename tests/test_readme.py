"""README's Layout table documents the public API."""

import re
from pathlib import Path

import leoisl

README = Path(__file__).resolve().parent.parent / "README.md"


def layout_rows():
    """Each row of README's Layout table, by the module it names."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(leoisl\.\w+)` \|(.*)\|$", section, flags=re.MULTILINE)
    return dict(rows)


def test_every_exported_name_is_in_its_module_row():
    rows = layout_rows()
    missing = [
        name
        for name in leoisl.__all__
        if not re.search(rf"`{name}[`(]", rows.get(getattr(leoisl, name).__module__, ""))
    ]
    assert missing == []
