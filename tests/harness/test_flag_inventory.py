"""Every ``REPRO_*`` environment variable the package reads is
documented in README's environment-variable tables, and every name
there is still read somewhere.

Names are collected from the source with :mod:`ast`: a string constant
whose *whole* value is a ``REPRO_[A-Z_]+`` name.  That catches flags
read through helpers (``_env_int("REPRO_TRACE_CHUNK_PAIRS", ...)``),
which a grep for ``os.environ`` misses, and skips docstring mentions,
which are never the whole constant.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FLAG = re.compile(r"REPRO_[A-Z_]+")
TABLE_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)


def _source_flags() -> set[str]:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and FLAG.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _readme_flags() -> set[str]:
    return set(TABLE_ROW.findall((ROOT / "README.md").read_text()))


def test_readme_tables_list_exactly_the_flags_the_source_reads():
    source = _source_flags()
    readme = _readme_flags()
    assert source, "no REPRO_* names found under src/"
    assert sorted(source - readme) == [], "read but undocumented"
    assert sorted(readme - source) == [], "documented but never read"
