"""What the source cites, a reader of the source alone can follow.

The ROADMAP renumbers its items as they land, so a docstring or comment that
says "ROADMAP item 7" goes stale without any code changing.  Source files
name the thing itself instead.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: "ROADMAP item 7", "roadmap items 3-4", "ROADMAP (item 11)" ...
ITEM_NUMBER = re.compile(r"roadmap\W{0,3}items?\s*\d", re.IGNORECASE)


def test_no_source_file_cites_a_roadmap_item_number():
    citing = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for found in ITEM_NUMBER.finditer(text):  # a citation may wrap a line
            line = text.count("\n", 0, found.start()) + 1
            citing.append(f"{path.relative_to(SRC.parent)}:{line}: {found.group()!r}")
    assert citing == []
