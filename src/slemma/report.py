"""Report rendering: key/value text blocks plus a JSON mirror.

Blocks hold typed values (a bool flag, an int count, a float, a float
ndarray vector, a str label, a list of str notes) and this module alone
formats them.  JSON gets booleans, numbers and lists of numbers, and a
non-finite float, which JSON lacks, as its repr (`"inf"`, `"-inf"`,
`"nan"`).  Text formats the JSON value: a flag reads `true` or `false`, a
float its repr (the shortest form that reads back as the same double) and
a vector its entries in brackets.  Rendering is deterministic for
identical inputs and block order is fixed, so re-running a command with
the same flags reproduces its report byte for byte.
"""

import json
import math

import numpy as np

from . import farkas as farkas_mod
from .implication import UNDETERMINED


def _json(value):
    """The JSON form of one report value."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, np.ndarray):
        value = value.ravel().tolist()
    if isinstance(value, list):
        return [_json(x) for x in value]
    return value


def _text(value):
    """The text form of one report value: its JSON form, formatted."""
    value = _json(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    return repr(value) if isinstance(value, float) else str(value)


def command_line(*parts):
    """The echoed command of a run: its words, each value in text form."""
    return " ".join(map(_text, parts))


class Report:
    """Ordered key/value tree with text and JSON renderings."""

    def __init__(self, title):
        self.title = title
        self.items = []   # (key, value) or (key, Report)

    def add(self, key, value):
        self.items.append((key, value))
        return self

    def add_block(self, key, items=()):
        block = Report(key)
        block.items.extend(items)
        self.items.append((key, block))
        return block

    def _lines(self, indent=0):
        pad = "  " * indent
        out = []
        for key, value in self.items:
            if isinstance(value, Report):
                out.append(f"{pad}{key}:")
                out.extend(value._lines(indent + 1))
            elif isinstance(value, list):
                out.append(f"{pad}{key}:")
                out.extend(f"{pad}  - {_text(item)}" for item in value)
            else:
                out.append(f"{pad}{key}: {_text(value)}")
        return out

    def to_text(self):
        lines = [self.title, "=" * len(self.title)]
        lines.extend(self._lines())
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {key: value.to_dict() if isinstance(value, Report)
                else _json(value) for key, value in self.items}

    def to_json(self):
        return json.dumps({"title": self.title, **self.to_dict()},
                          indent=2, allow_nan=False) + "\n"

    def render(self, as_json=False):
        return self.to_json() if as_json else self.to_text()


def describe_instance(report, pf, system):
    report.add("file", pf.path)
    report.add("n", system.n)
    report.add("p", system.p)
    report.add("kind", system.kind)


def slater_block(parent, slater):
    block = parent.add_block("slater")
    block.add("status", slater.status)
    if slater.x0 is not None:
        block.add("x0", slater.x0)
    if slater.min_constraint_value is not None:
        block.add("min_constraint_value", slater.min_constraint_value)
    return block


def counterexample_block(parent, cex):
    block = parent.add_block("counterexample")
    found = cex is not None and cex.found
    block.add("found", found)
    if found:
        block.add("x", cex.x)
        block.add("f0", cex.f0_value)
        block.add("min_constraint", cex.min_constraint)
    elif cex is not None and cex.x is not None:
        block.add("closest_feasible_x", cex.x)
        block.add("closest_feasible_f0", cex.f0_value)
    return block


def certificate_block(parent, cert, key="certificate"):
    block = parent.add_block(key)
    if cert is None:
        block.add("present", False)
        return block
    block.add("present", True)
    block.add("alpha", cert.alpha)
    if cert.lambda_min is not None:
        block.add("lambda_min", cert.lambda_min)
    block.add("verified", cert.label)
    return block


def hull_block(parent, hull):
    block = parent.add_block("hull")
    if hull.intersects or hull.touches:
        block.add("status", "intersects" if hull.intersects
                  else "touches-closure")
        block.add("optimum", hull.optimum)
        block.add("witness", hull.witness)
    else:
        block.add("status", "sampled-disjoint")
    return block


def separator_block(parent, sep):
    block = parent.add_block("separator")
    if sep is not None:
        block.add("status", "found")
        block.add("alpha", sep.alpha)
        block.add("delta", sep.delta)
    else:
        block.add("status", "none exists on this cloud")
    return block


def violation_lines(block, v):
    """A convexity violation: its endpoints, t, midpoint and margin."""
    block.add("z1", v.z1)
    block.add("z2", v.z2)
    block.add("t", v.t)
    block.add("midpoint", v.m)
    block.add("margin", v.margin)


def falsify_block(parent, result, key):
    block = parent.add_block(key)
    if result.skipped is not None:
        block.add("status", f"skipped ({result.skipped})")
    elif result.found:
        block.add("status", "violation found (sampled evidence)")
        block.add("trials_run", result.trials_run)
        violation_lines(block, result.violation)
    else:
        block.add("status", "no violation found")
        block.add("trials_run", result.trials_run)
    return block


def evidence_block(parent, result):
    ev = result.evidence
    block = parent.add_block("geometry")
    if not ev.computed:   # an Undetermined run stopped at a stage failure
        block.add("status", "skipped (stage failure)"
                  if result.verdict == UNDETERMINED
                  else "skipped (definitive verdict)")
        return block
    block.add("cloud_size", ev.cloud_size)
    block.add("image_points_in_k", ev.k_members)
    hull_block(block, ev.hull)
    separator_block(block, ev.hull.separator)
    falsify_block(block, ev.epi_falsify, "epi_convexity_falsifier")
    falsify_block(block, ev.conical_falsify, "conical_convexity_falsifier")
    return block


def classify_report(pf, system, result, command):
    rep = Report("s-procedure classification")
    rep.add("command", command)
    describe_instance(rep, pf, system)
    rep.add("verdict", result.verdict)
    slater_block(rep, result.slater)
    counterexample_block(rep, result.counterexample)
    certificate_block(rep, result.certificate)
    if result.candidate_certificate is not None:
        certificate_block(rep, result.candidate_certificate,
                          key="candidate_certificate")
    evidence_block(rep, result)
    rep.add_block("config", result.config.items())
    if result.notes:
        rep.add("notes", list(result.notes))
    return rep


def farkas_report(pf, data, result, residuals, command):
    rep = Report("linear alternatives")
    rep.add("command", command)
    rep.add("file", pf.path)
    rep.add("n", data.n)
    rep.add("p", data.p)
    rep.add("mode", data.mode)
    rep.add("branch", result.kind)
    if result.kind == farkas_mod.MULTIPLIERS:
        rep.add("alpha", result.alpha)
    elif result.kind == farkas_mod.ALTERNATIVE:
        rep.add("x", result.x)
    rep.add("system_consistent", result.system_consistent)
    rep.add_block("verification", residuals.items())
    return rep


def conjecture_report(scan, command):
    rep = Report("upper-set convexity scan for random quadratic triples")
    rep.add("command", command)
    rep.add("count", scan.count)
    rep.add("dimension", scan.dimension)
    rep.add("seed", scan.seed)
    rep.add("candidates", len(scan.candidates))
    rep.add("note", "candidate violations are sampled evidence, not proof")
    for entry in scan.entries:
        block = rep.add_block(f"instance_{entry.index}")
        block.add("seed", entry.seed)
        block.add("trials_run", entry.trials_run)
        if entry.violation is None:
            block.add("status", "no violation found")
        else:
            block.add("status", "candidate violation (evidence, not proof)")
            violation_lines(block, entry.violation)
            for qi, (Q, c, d) in enumerate(entry.coefficients, start=1):
                qblock = block.add_block(f"q{qi}")
                qblock.add("Q", np.array(Q))
                qblock.add("c", np.array(c))
                qblock.add("d", d)
    return rep
