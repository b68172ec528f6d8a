"""`--json` reports: typed values, strict JSON, and the same facts as text.

Every command that takes `--json` runs on the corpus twice, once for each
rendering.  The JSON report must parse with a loader that rejects `NaN`
and `Infinity`; a flag must be a boolean, a vector a list of numbers and
a numeric setting a number.  Formatting the parsed values back as the
text report does (a flag `true`/`false`, a float its repr, a vector its
entries' reprs in brackets) must give the text report byte for byte, so
the two renderings carry the same doubles.
"""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import slemma
from slemma.cli import main
from slemma.report import Report

CORPUS = Path(slemma.__file__).parent / "corpus"
CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.json")
                      if p.name != "expected_verdicts.json")
COMMANDS = (["validate"], ["classify"], ["certificate", "--method", "p1"],
            ["certificate", "--method", "separation"], ["counterexample"],
            ["geometry"])

CASES = ([[cmd[0], name, *cmd[1:]] for cmd in COMMANDS
          for name in CORPUS_FILES]
         + [["farkas", name]
            for name in ("farkas_affine.json", "farkas_homogeneous.json")]
         + [["verify", "slater_fail.json", "--alpha", "2e4"],
            "conjecture-scan --count 4 --dim 2 --seed 1".split()])

FLAGS = {"found", "present", "all_linear", "system_consistent", "ok"}
# the blocks whose every value is a numeric setting or count
NUMERIC_BLOCKS = {"config", "cloud"}
NON_FINITE = {"inf", "-inf", "nan"}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    assert err.getvalue() == ""
    return code, out.getvalue()


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_vector(value):
    return isinstance(value, list) and all(map(_is_number, value))


def _text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    return str(value)


def _as_text(payload):
    """The text report with the parsed JSON values formatted into it."""
    title = payload.pop("title")
    lines = [title, "=" * len(title)]

    def walk(block, pad):
        for key, value in block.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                walk(value, pad + "  ")
            elif isinstance(value, list) and not _is_vector(value):
                lines.append(f"{pad}{key}:")
                lines.extend(f"{pad}  - {item}" for item in value)
            else:
                lines.append(f"{pad}{key}: {_text(value)}")

    walk(payload, "")
    return "\n".join(lines) + "\n"


def _check_types(block, name=""):
    for key, value in block.items():
        if isinstance(value, dict):
            _check_types(value, key)
        elif key in FLAGS:
            assert isinstance(value, bool), (key, value)
        elif name in NUMERIC_BLOCKS:
            assert _is_number(value), (name, key, value)
        elif isinstance(value, str):
            # a label, never a flag, vector or finite number in disguise
            assert value not in ("true", "false"), (key, value)
            assert not value.startswith("["), (key, value)
            try:
                number = float(value)
            except ValueError:
                continue
            assert value in NON_FINITE and not math.isfinite(number), \
                (key, value)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_json_report_is_typed_and_round_trips_to_text(argv, monkeypatch):
    monkeypatch.chdir(CORPUS)
    code, text = _run(argv)
    json_code, out = _run(argv + ["--json"])
    assert json_code == code
    payload = json.loads(out, parse_constant=_reject_constant)
    _check_types(payload)
    assert _as_text(payload) == text


def test_typed_values_render_one_way_in_each_form():
    rep = Report("values")
    values = [("flag", np.bool_(True)), ("count", np.int64(3)),
              ("number", np.float64(0.1)), ("up", math.inf),
              ("down", -math.inf), ("undefined", math.nan),
              ("vector", np.array([[1.0, -0.0], [math.inf, 2.5]])),
              ("empty", np.zeros(0)), ("label", "ok"), ("notes", ["a", "b"])]
    for key, value in values:
        rep.add(key, value)
    assert rep.to_text().splitlines()[2:] == [
        "flag: true", "count: 3", "number: 0.1", "up: inf", "down: -inf",
        "undefined: nan", "vector: [1.0, -0.0, inf, 2.5]", "empty: []",
        "label: ok", "notes:", "  - a", "  - b"]
    payload = json.loads(rep.to_json(), parse_constant=_reject_constant)
    assert payload == {
        "title": "values", "flag": True, "count": 3, "number": 0.1,
        "up": "inf", "down": "-inf", "undefined": "nan",
        "vector": [1.0, -0.0, "inf", 2.5], "empty": [], "label": "ok",
        "notes": ["a", "b"]}
    assert math.copysign(1.0, payload["vector"][1]) == -1.0
