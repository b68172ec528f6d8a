"""Golden reports: CLI output on the bundled corpus, pinned byte for byte.

Criterion 8 only compares two runs of the same code; these files compare
the current code against reports recorded earlier.  A change that alters
any of their bytes must say why in CHANGES.md, then rewrite them with

    PYTHONPATH=src python tests/test_golden.py

which prints the name of each golden file whose bytes changed.

The reports are produced from inside the corpus directory with bare file
names, so they hold no machine-specific path.  All 16 `geometry` reports
take minutes; the two pinned here reach every evidence block (hull
witness, separator, and each falsifier with and without a violation).
One `conjecture-scan` report pins the epi falsifier at n = 2, where it
runs full 400-trial searches as well as a late violation.  The
single-stage commands (`certificate` with each method, `counterexample`,
`farkas`) are pinned on the files that reach each of their routes; a
command that exits with an error pins an empty report.  Each case also
pins its exit code (EXIT_CODES) and its standard error: empty, or the
`error:` line named in ERRORS.
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
         + [_case("classify", "slater_fail.json", True),
            _case("geometry", "slater_fail.json", False),
            _case("geometry", "example3_pair.json", False),
            ("conjecture-scan.count4_dim2_seed1.txt",
             "conjecture-scan --count 4 --dim 2 --seed 1".split())]
         + [_case("certificate", name, False, "--method", method)
            for method in ("p1", "supergradient", "separation")
            for name in STAGE_FILES]
         + [_case("counterexample", name, False) for name in STAGE_FILES]
         + [_case("farkas", name, False) for name in LINEAR_FILES]
         + [BAD_INPUT])

# the cases that end Undetermined (exit 2)
UNDETERMINED = (
    ["classify.slater_fail.txt", "classify.slater_fail.json"]
    + [f"certificate.method.{method}.{stem}.txt"
       for method in ("p1", "supergradient", "separation")
       for stem in ("example3_pair", "farkas_affine", "random_p1_01",
                    "slater_fail")]
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


def test_exit_tables_name_only_cases():
    names = {golden for golden, _ in CASES}
    assert set(EXIT_CODES) <= names and set(ERRORS) <= names


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
        if not path.exists() or path.read_bytes() != text.encode("utf-8"):
            path.write_text(text, encoding="utf-8")
            print(golden)
