"""Golden reports: CLI output on the bundled corpus, pinned byte for byte.

Criterion 8 only compares two runs of the same code; these files compare
the current code against reports recorded earlier.  A change that alters
any of their bytes must say why in CHANGES.md, then rewrite them with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each golden file whose bytes changed, followed
by the report keys of the lines that moved in it (for example
`classify.convex_case.txt: min_constraint_value, x0`).

The reports are produced from inside the corpus directory with bare file
names, so they hold no machine-specific path.  `validate` is pinned on
every corpus file, since it is the one report that echoes the raw
entries.  Two `classify --json` reports pin the typed JSON encoding:
slater_fail's (Undetermined, with a separator) and example3_pair's (a
counterexample and a Slater point).  Two of the 16 `geometry` reports
are pinned: each takes under a second, but these two already reach every
evidence block (hull witness, separator, and each falsifier with and
without a violation).
One `conjecture-scan` report pins the epi falsifier at n = 2, where it
runs full 400-trial searches as well as a late violation.  The
single-stage commands (`certificate` with both its methods, `p1` and
`separation`, `counterexample`, `farkas`) are pinned on the files that
reach each of their routes; a command that exits with an error pins an
empty report.  Each case also
pins its exit code (EXIT_CODES) and its standard error: empty, or the
`error:` line named in ERRORS.
"""

import difflib
import io
from pathlib import Path

import pytest

import slemma
from slemma.cli import main

CORPUS = Path(slemma.__file__).parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.json")
                      if p.name != "expected_verdicts.json")


def _case(command, name, as_json, *flags):
    """(golden file name, argv); each flag and value joins the name, so
    `certificate x.json --method p1` is pinned in
    certificate.method.p1.x.txt."""
    suffix = "json" if as_json else "txt"
    parts = [command] + [flag.lstrip("-") for flag in flags]
    return (f"{'.'.join(parts)}.{Path(name).stem}.{suffix}",
            [command, name, *flags] + (["--json"] if as_json else []))


# the single-stage commands on files that reach each certificate route
# (Farkas, p = 0, p = 1 cutting planes) and each counterexample outcome
STAGE_FILES = ["convex_case.json", "example3_pair.json",
               "farkas_affine.json", "farkas_homogeneous.json",
               "p0_psd.json", "random_p1_01.json", "random_p1_02.json",
               "slater_fail.json"]
LINEAR_FILES = ["farkas_affine.json", "farkas_homogeneous.json"]
# a command that rejects its input: exit 1, an `error:` line, no report
BAD_INPUT = ("counterexample.samples0.example3_pair.txt",
             "counterexample example3_pair.json --samples 0".split())

CASES = ([_case("classify", name, False) for name in CORPUS_FILES]
         + [_case("validate", name, False) for name in CORPUS_FILES]
         + [_case("classify", "slater_fail.json", True),
            _case("classify", "example3_pair.json", True),
            _case("geometry", "slater_fail.json", False),
            _case("geometry", "example3_pair.json", False),
            ("conjecture-scan.count4_dim2_seed1.txt",
             "conjecture-scan --count 4 --dim 2 --seed 1".split())]
         + [_case("certificate", name, False, "--method", method)
            for method in ("p1", "separation")
            for name in STAGE_FILES]
         + [_case("counterexample", name, False) for name in STAGE_FILES]
         + [_case("farkas", name, False) for name in LINEAR_FILES]
         + [BAD_INPUT])

# the cases that end Undetermined (exit 2)
UNDETERMINED = (
    ["classify.slater_fail.txt", "classify.slater_fail.json"]
    + [f"certificate.method.{method}.{stem}.txt"
       for method in ("p1", "separation")
       for stem in ("example3_pair", "farkas_affine", "random_p1_01",
                    "slater_fail")]
    # the separator's alpha misses f0 = 2 f1 + 3 f2 by an ulp, which the
    # exact refutation at its eigenvector finds; round 1 repeats it, which
    # ends the refinement
    + ["certificate.method.separation.farkas_homogeneous.txt"]
    + [f"counterexample.{stem}.txt"
       for stem in ("convex_case", "farkas_homogeneous", "p0_psd",
                    "random_p1_02", "slater_fail")])

# exit code of each case that does not exit 0
EXIT_CODES = {BAD_INPUT[0]: 1, **dict.fromkeys(UNDETERMINED, 2)}

# standard error of each case that writes one; every other case writes
# none (an Undetermined verdict is no error)
ERRORS = {BAD_INPUT[0]: "error: samples must be a positive integer, got 0\n"}


def _render(argv):
    """(standard output, exit code, standard error) of one command."""
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return out.getvalue(), code, err.getvalue()


def moved_keys(old, new):
    """The keys of the report lines (`key: value`, or `"key": value` in a
    JSON report) that differ between two renderings, sorted; a line
    without a key stands for itself."""
    matcher = difflib.SequenceMatcher(None, old.splitlines(),
                                      new.splitlines(), autojunk=False)
    keys = set()
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            for line in matcher.a[i1:i2] + matcher.b[j1:j2]:
                keys.add(line.split(":", 1)[0].strip().strip('"'))
    return sorted(keys)


def test_moved_keys_name_the_lines_that_moved():
    old = 'verdict: V\nslater:\n  x0: [1.0]\n  status: S\n"n": 2\nend'
    new = 'verdict: V\nslater:\n  x0: [2.0]\n  status: S\n"n": 3\n'
    assert moved_keys(old, new) == ["end", "n", "x0"]
    assert moved_keys(old, old) == []


def test_exit_tables_name_only_cases():
    names = {golden for golden, _ in CASES}
    assert set(EXIT_CODES) <= names and set(ERRORS) <= names


def test_every_golden_file_has_a_case():
    # a removed or renamed case must take its pinned file with it
    names = {golden for golden, _ in CASES}
    stale = sorted(p.name for p in GOLDEN.iterdir() if p.name not in names)
    assert stale == []


@pytest.mark.parametrize("golden,argv", CASES,
                         ids=[golden for golden, _ in CASES])
def test_report_matches_golden(golden, argv, monkeypatch):
    monkeypatch.chdir(CORPUS)
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    text, code, err = _render(argv)
    assert text == expected
    assert code == EXIT_CODES.get(golden, 0)
    assert err == ERRORS.get(golden, "")


if __name__ == "__main__":
    import os

    GOLDEN.mkdir(exist_ok=True)
    os.chdir(CORPUS)
    for golden, argv in CASES:
        path = GOLDEN / golden
        text = _render(argv)[0]
        old = path.read_bytes().decode("utf-8") if path.exists() else None
        if old != text:
            path.write_text(text, encoding="utf-8")
            keys = [] if old is None else moved_keys(old, text)
            print(f"{golden}: {', '.join(keys)}" if keys else golden)
