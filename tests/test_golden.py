"""Golden reports: CLI output on the bundled corpus, pinned byte for byte.

Criterion 8 only compares two runs of the same code; these files compare
the current code against reports recorded earlier.  A change that alters
any of their bytes must say why in CHANGES.md, then rewrite them with

    PYTHONPATH=src python tests/test_golden.py

The reports are produced from inside the corpus directory with bare file
names, so they hold no machine-specific path.  All 16 `geometry` reports
take minutes; the two pinned here reach every evidence block (hull
witness, separator, and each falsifier with and without a violation).
"""

import io
from pathlib import Path

import pytest

import slemma
from slemma.cli import main

CORPUS = Path(slemma.__file__).parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.json")
                      if p.name != "expected_verdicts.json")
CASES = ([("classify", name, False) for name in CORPUS_FILES]
         + [("classify", "slater_fail.json", True),
            ("geometry", "slater_fail.json", False),
            ("geometry", "example3_pair.json", False)])


def _golden_path(command, name, as_json):
    suffix = "json" if as_json else "txt"
    return GOLDEN / f"{command}.{Path(name).stem}.{suffix}"


def _render(command, name, as_json):
    out = io.StringIO()
    main([command, name] + (["--json"] if as_json else []), out=out,
         err=io.StringIO())
    return out.getvalue()


@pytest.mark.parametrize(
    "command,name,as_json", CASES,
    ids=[_golden_path(*case).name for case in CASES])
def test_report_matches_golden(command, name, as_json, monkeypatch):
    monkeypatch.chdir(CORPUS)
    expected = _golden_path(command, name, as_json).read_text(
        encoding="utf-8")
    assert _render(command, name, as_json) == expected


if __name__ == "__main__":
    import os

    GOLDEN.mkdir(exist_ok=True)
    os.chdir(CORPUS)
    for case in CASES:
        _golden_path(*case).write_text(_render(*case), encoding="utf-8")
