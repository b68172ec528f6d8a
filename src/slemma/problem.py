"""Problem files: JSON with n, p and p+1 function entries.

    {
      "n": 2,
      "p": 1,
      "functions": [
        {"quadratic": {"Q": [4.0, 0.0, 0.0, -2.0], "c": [0.0, 0.0], "d": 0.0}},
        {"expr": "x1 + x2"},
        {"linear": {"a": [1.0, 1.0], "b": 0.0}}
      ],
      "config": {"R": 10.0, "N": 4096, "seed": 1, "tol": 1e-9, "eta": 1e-3}
    }

Entry 0 is f0, the rest are constraints.  Q is row-major with n*n entries;
a linear entry means <a, x> - b.  Parsing is strict: unknown keys are
rejected, every number must be finite (json also reads NaN, Infinity and
1e400) and all dimensions are checked.  Each entry is checked and built
into its function in one pass, so an asymmetric Q or a bad expression
fails at load time.  `config` is optional and overrides the classifier
defaults; `SETTINGS` maps its keys to CLI flags and `ClassifyConfig`
fields, and `check_setting` checks a value from either source.
"""

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from .errors import DimensionMismatch, SlemmaError
from .quadratic import QuadraticFunction
from .systems import FunctionSystem

_TOP_KEYS = {"n", "p", "functions", "config"}
_QUAD_KEYS = {"Q", "c", "d"}
_LINEAR_KEYS = {"a", "b"}


class ParseError(SlemmaError):
    """Malformed problem file; the message names the offending field."""


# a classifier setting: its `config` key, its CLI flag (None: the file
# alone sets it), its `ClassifyConfig` field, its name in error lines,
# its type, its sign ("positive", "nonnegative" or None) and its maximum
Setting = namedtuple("Setting", "key flag field label kind sign most")
SETTINGS = (
    Setting("R", "box", "box_radius", "box radius", float, "positive", None),
    Setting("N", "samples", "samples", "samples", int, "positive", 10**6),
    Setting("seed", "seed", "seed", "seed", int, None, None),
    Setting("tol", "tol", "psd_tol", "tol", float, "nonnegative", None),
    Setting("eta", None, "eta", "eta", float, "nonnegative", None),
)


def _float(value):
    """float(value), reading an integer too large for a float as +-inf, as
    json reads an overflowing literal such as 1e400."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _echo(value):
    """repr(value) for an error line; an integer of more than 20 digits
    shows its first 12 and its digit count."""
    text = repr(value)
    digits = len(text.lstrip("-"))
    if type(value) is int and digits > 20:
        return f"{text[:len(text) - digits + 12]}... ({digits} digits)"
    return text


def check_setting(setting, value):
    """`value` in the setting's type; ParseError unless it is in range."""
    kind, sign, most = setting.kind, setting.sign, setting.most
    ok = type(value) in (int, kind)     # a bool is no int here
    if ok and kind is float:
        value = _float(value)
        ok = math.isfinite(value)
    if ok and sign:
        ok = value > 0 or (sign == "nonnegative" and value == 0)
    rule = (f"finite and {sign}" if kind is float else
            f"a {sign} integer" if sign else "an integer")
    if ok and most is not None and value > most:
        ok, rule = False, f"at most {most}"
    if not ok:
        raise ParseError(f"{setting.label} must be {rule}, got "
                         f"{_echo(value)}")
    return value


@dataclass
class ProblemFile:
    """A parsed problem: the raw `entries` (echoed by `validate`) and the
    functions built from them once, at parse time."""

    n: int
    p: int
    entries: list
    functions: tuple
    config: dict = field(default_factory=dict)
    path: str | None = None

    def system(self):
        """FunctionSystem with linear entries encoded as Q = 0 quadratics."""
        return FunctionSystem(n=self.n, f0=self.functions[0],
                              constraints=self.functions[1:])


def _require_keys(obj, allowed, required, where):
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    value = _float(value)
    if not math.isfinite(value):
        # json reads NaN, Infinity and overflowing literals such as 1e400
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    return value


def _vector(value, n, where):
    if not isinstance(value, list) or len(value) != n:
        raise ParseError(f"{where}: expected a list of {n} numbers")
    return np.array([_number(v, where) for v in value])


def _entry_function(entry, n, index):
    """Validate one function entry and build its function."""
    where = f"functions[{index}]"
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ParseError(
            f"{where}: each entry is one of 'quadratic', 'expr', 'linear'")
    kind = next(iter(entry))
    body = entry[kind]
    if kind == "quadratic":
        _require_keys(body, _QUAD_KEYS, _QUAD_KEYS, where)
        Q = _vector(body["Q"], n * n, f"{where}.Q").reshape(n, n)
        c = _vector(body["c"], n, f"{where}.c")
        d = _number(body["d"], f"{where}.d")
        try:
            return QuadraticFunction(Q, c, d)
        except DimensionMismatch as exc:
            raise ParseError(str(exc)) from exc
    if kind == "expr":
        if not isinstance(body, str):
            raise ParseError(f"{where}: 'expr' must be a string")
        try:
            return expr_mod.parse(body, n)
        except (expr_mod.ExprSyntaxError, expr_mod.UnknownIdentifier,
                expr_mod.IndexOutOfRange) as exc:
            raise ParseError(f"{where}: {exc}") from exc
    if kind == "linear":
        _require_keys(body, _LINEAR_KEYS, _LINEAR_KEYS, where)
        a = _vector(body["a"], n, f"{where}.a")
        b = _number(body["b"], f"{where}.b")
        return QuadraticFunction(np.zeros((n, n)), a, -b)
    raise ParseError(f"{where}: unknown function kind '{kind}'")


def load_problem(path):
    """Strict load; raises ParseError with the offending field."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: "
                         f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_problem(raw, path=str(path))


def parse_problem(raw, path=None):
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    _require_keys(raw, _TOP_KEYS, {"n", "p", "functions"}, "top level")
    n = raw["n"]
    p = raw["p"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}")
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise ParseError(f"p must be a nonnegative integer, got {p!r}")
    functions = raw["functions"]
    if not isinstance(functions, list) or len(functions) != p + 1:
        raise ParseError(
            f"functions must list exactly p+1 = {p + 1} entries "
            f"(f0 first, then the constraints)")
    built = tuple(_entry_function(entry, n, idx)
                  for idx, entry in enumerate(functions))
    config = raw.get("config", {})
    if not isinstance(config, dict):
        raise ParseError("config must be an object")
    _require_keys(config, {s.key for s in SETTINGS}, set(), "config")
    for setting in SETTINGS:
        if setting.key in config:
            check_setting(setting, config[setting.key])
    return ProblemFile(n=n, p=p, entries=functions, functions=built,
                       config=dict(config), path=path)
