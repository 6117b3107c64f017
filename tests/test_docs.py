"""The documents name only code that exists."""
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]


def _dotted_names(text: str) -> set[str]:
    """Every dotted ``repro.…`` name inside a backticked span of ``text``."""
    spans = re.findall(r"`([^`\n]+)`", text)
    return {name for span in spans for name in re.findall(r"\brepro(?:\.\w+)+", span)}


def _resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, then look up the rest."""
    parts = name.split(".")
    for n in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:n]))
        except ModuleNotFoundError:
            continue
        for attr in parts[n:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_repro_names_resolve(doc):
    names = _dotted_names((ROOT / doc).read_text())
    assert names, f"{doc} names no repro.… code"
    assert sorted(n for n in names if not _resolves(n)) == []
