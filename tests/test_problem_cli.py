import io
import json
from pathlib import Path

import numpy as np
import pytest

import slemma
from slemma.cli import main
from slemma.expr import MAX_DEPTH
from slemma.farkas import linear_data
from slemma.problem import ParseError, load_problem, parse_problem

CORPUS = Path(slemma.__file__).parent / "corpus"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_load_minimal_p0(tmp_path):
    path = tmp_path / "p0.json"
    path.write_text(json.dumps({
        "n": 1, "p": 0,
        "functions": [{"quadratic": {"Q": [2.0], "c": [0.0], "d": 0.0}}],
    }))
    pf = load_problem(path)
    assert pf.p == 0
    system = pf.system()
    assert system.p == 0 and system.n == 1


def test_load_example3_matches_coefficients():
    pf = load_problem(CORPUS / "example3_pair.json")
    system = pf.system()
    q0 = system.f0
    assert q0.Q.tolist() == [[4.0, 0.0], [0.0, -2.0]]
    assert system.values([1.0, 0.0])[0] == 2.0       # 2x^2 - y^2 at (1, 0)
    assert system.values([2.0, 3.0])[1] == 5.0       # x + y


def test_wrong_q_length_rejected():
    with pytest.raises(ParseError):
        parse_problem({"n": 2, "p": 0,
                       "functions": [{"quadratic": {"Q": [1.0, 0.0, 1.0],
                                                    "c": [0.0, 0.0],
                                                    "d": 0.0}}]})


def test_unknown_keys_rejected():
    with pytest.raises(ParseError):
        parse_problem({"n": 1, "p": 0, "functions": [{"expr": "x1"}],
                       "bogus": 1})
    with pytest.raises(ParseError):
        parse_problem({"n": 1, "p": 0,
                       "functions": [{"expr": "x1", "extra": 2}]})
    with pytest.raises(ParseError):
        parse_problem({"n": 1, "p": 0, "functions": [{"expr": "x1"}],
                       "config": {"nope": 3}})


def test_function_count_must_match_p():
    with pytest.raises(ParseError):
        parse_problem({"n": 1, "p": 1, "functions": [{"expr": "x1"}]})


def test_bad_expression_rejected():
    with pytest.raises(ParseError):
        parse_problem({"n": 1, "p": 0, "functions": [{"expr": "x2"}]})


def test_linear_entries_round_trip():
    pf = load_problem(CORPUS / "farkas_affine.json")
    data = linear_data(pf.system())
    assert data.a0.tolist() == [1.0]
    assert data.b0 == 1.0
    system = pf.system()
    assert system.is_linear()
    assert system.values([2.0])[0] == 1.0           # <a0, x> - b0


_MIXED = {
    "n": 2, "p": 2,
    "functions": [
        {"expr": "x1^2 - 3*x2 + 0.5"},
        {"linear": {"a": [1.0, -2.0], "b": 0.25}},
        {"quadratic": {"Q": [2.0, 1.0, 1.0, 0.0], "c": [0.0, 1.0],
                       "d": -1.0}},
    ],
    "config": {"R": 4.0, "N": 64, "seed": 9, "tol": 1e-8, "eta": 0.01},
}


def test_mixed_entries_build_their_functions():
    pf = parse_problem(json.loads(json.dumps(_MIXED)), path="mixed.json")
    assert pf.entries == _MIXED["functions"]
    assert pf.config == _MIXED["config"]
    assert not pf.system().is_linear()
    for _ in range(2):          # the system evaluates the same every time
        system = pf.system()
        assert system.n == 2 and system.p == 2
        x = [1.5, -2.0]
        assert system.values(x)[0] == 1.5 ** 2 + 6.0 + 0.5
        assert system.values(x)[1] == 1.5 + 4.0 - 0.25     # <a, x> - b
        # 1/2 x^T Q x + c.x + d
        assert system.values(x)[2] == 0.5 * (2 * 2.25 - 6.0) - 2.0 - 1.0


def test_asymmetric_q_is_a_parse_error(tmp_path):
    raw = {"n": 2, "p": 0,
           "functions": [{"quadratic": {"Q": [1.0, 2.0, 0.0, 1.0],
                                        "c": [0.0, 0.0], "d": 0.0}}]}
    message = ("Q is not symmetric: max asymmetry 2.000e+00 exceeds the "
               "1e-12 band")
    with pytest.raises(ParseError) as exc:
        parse_problem(raw).system()
    assert str(exc.value) == message
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli("validate", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("literal, shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
    ("1e400", "inf"),
    pytest.param(str(10**400), "inf", id="10**400-inf"),
    pytest.param(str(-10**400), "-inf", id="-10**400--inf")])
def test_non_finite_numbers_are_parse_errors(tmp_path, literal, shown):
    # json reads these as floats; validate used to echo them and classify
    # to end in a numerical failure.  An integer too large for a float
    # reads as infinite too
    path = tmp_path / "non_finite.json"
    path.write_text('{"n": 1, "p": 1, "functions": ['
                    '{"quadratic": {"Q": [%s], "c": [0.0], "d": 0.0}},'
                    '{"linear": {"a": [1.0], "b": 0.0}}]}' % literal)
    for command in ("validate", "classify"):
        code, out, err = run_cli(command, str(path))
        assert (code, out) == (1, ""), command
        assert err == (f"error: functions[0].Q: expected a finite number, "
                       f"got {shown}\n"), command
    path.write_text('{"n": 1, "p": 0, "functions": ['
                    '{"linear": {"a": [1.0], "b": %s}}]}' % literal)
    code, out, err = run_cli("validate", str(path))
    assert code == 1 and out == "" and "functions[0].b" in err


def test_non_finite_expression_literal_is_a_parse_error(tmp_path):
    # float("1e400") is inf; validate used to accept it
    path = tmp_path / "non_finite_expr.json"
    path.write_text(json.dumps({"n": 1, "p": 1, "functions": [
        {"expr": "1e400 * x1^2"}, {"expr": "x1"}]}))
    for command in ("validate", "classify"):
        code, out, err = run_cli(command, str(path))
        assert (code, out) == (1, ""), command
        assert err == ("error: functions[0]: non-finite number '1e400' "
                       "(at position 0)\n"), command


def test_non_utf8_problem_file_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"n": 1, "p": 0, "functions": [{"expr": "x1"}], '
                     '"note": "caf\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli("validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert err.count("\n") == 1


def test_package_exports_resolve():
    for name in slemma.__all__:
        assert getattr(slemma, name) is not None, name


def test_expected_verdicts_manifest_consistent():
    manifest = json.loads((CORPUS / "expected_verdicts.json").read_text())
    assert len(manifest) == 16
    files = {p.name for p in CORPUS.glob("*.json")} - {"expected_verdicts.json"}
    assert set(manifest) == files


def test_cli_validate():
    code, out, err = run_cli("validate", str(CORPUS / "example3_pair.json"))
    assert code == 0
    assert "n: 2" in out and "p: 1" in out


def test_cli_classify_example3_exit_code():
    code, out, _ = run_cli("classify", str(CORPUS / "example3_pair.json"))
    assert code == 0
    assert "verdict: InvalidWithCounterexample" in out


def test_cli_classify_undetermined_exit_code():
    code, out, _ = run_cli("classify", str(CORPUS / "slater_fail.json"))
    assert code == 2
    assert "verdict: Undetermined" in out


def test_cli_classify_respects_flags():
    code, out, _ = run_cli("classify", str(CORPUS / "p0_psd.json"),
                           "--seed", "5", "--samples", "256",
                           "--box", "4.0", "--tol", "1e-8")
    assert code == 0
    assert "--seed 5 --samples 256 --box 4.0 --tol 1e-08" in out
    assert "box_radius: 4.0" in out


def test_cli_missing_file():
    code, out, err = run_cli("classify", "/nonexistent/problem.json")
    assert code == 1
    assert err


def test_cli_path_through_a_file_is_usage_error():
    code, out, err = run_cli("classify", str(CORPUS / "p0_psd.json" / "x"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Errno 20] Not a directory")


def test_cli_verify_valid():
    code, out, _ = run_cli("verify", str(CORPUS / "convex_case.json"),
                           "--alpha", "0.0")
    assert code == 0
    assert "verdict: Valid" in out
    assert "lambda_min: 0.0" in out


def test_cli_verify_invalid_alpha_count():
    code, out, err = run_cli("verify", str(CORPUS / "convex_case.json"),
                             "--alpha", "1.0,2.0")
    assert code == 1


def test_cli_verify_negative_multiplier_is_usage_error(tmp_path):
    saved = tmp_path / "cert.txt"
    saved.write_text("alpha = [-1.0]\nverified = ExactPSD\n")
    saved_nan = tmp_path / "cert_nan.txt"
    saved_nan.write_text("alpha = [nan]\nverified = ExactPSD\n")
    sources = [("--alpha", a) for a in ("-1", "nan", "inf", "1e400")]
    sources += [("--certificate", str(saved)),
                ("--certificate", str(saved_nan))]
    for source in sources:
        code, out, err = run_cli("verify", str(CORPUS / "example3_pair.json"),
                                 *source)
        assert code == 1, source
        assert err.startswith("error: ") and "nonnegative" in err, source
        assert out == "", source


def test_cli_verify_equal_norm_squares(tmp_path):
    # f0 = f1 = |x|^2 with alpha = 1: the combination vanishes identically
    path = tmp_path / "equal.json"
    nsq = {"quadratic": {"Q": [2.0, 0.0, 0.0, 2.0], "c": [0.0, 0.0],
                         "d": 0.0}}
    path.write_text(json.dumps({"n": 2, "p": 1, "functions": [nsq, nsq]}))
    code, out, _ = run_cli("verify", str(path), "--alpha", "1.0")
    assert code == 0
    assert "verdict: Valid" in out
    assert "lambda_min: 0.0" in out


def test_cli_certificate_save_then_verify(tmp_path):
    saved = tmp_path / "cert.txt"
    code, out, _ = run_cli("certificate", str(CORPUS / "random_p1_02.json"),
                           "--save", str(saved))
    assert code == 0 and saved.exists()
    text = saved.read_text()
    assert text.startswith("alpha = [")
    code, out, _ = run_cli("verify", str(CORPUS / "random_p1_02.json"),
                           "--certificate", str(saved))
    assert code == 0
    assert "verdict: Valid" in out


def test_cli_verify_requires_some_input():
    code, out, err = run_cli("verify", str(CORPUS / "convex_case.json"))
    assert code == 1
    assert "alpha" in err


def test_cli_verify_takes_one_source_of_multipliers():
    # --alpha with --certificate is a usage error, not a silent choice,
    # even when the certificate file does not exist
    code, out, err = run_cli("verify", str(CORPUS / "slater_fail.json"),
                             "--alpha", "1", "--certificate",
                             "/nonexistent/cert.txt")
    assert code == 1 and out == ""
    assert err == "error: verify needs one of --alpha and --certificate\n"


def _report_lines(out):
    """Report lines below the echoed command, which holds the path."""
    return out.splitlines()[3:]


def test_cli_verify_failing_alpha_names_the_violation(tmp_path):
    # exact check: a dehomogenized point, or a homogeneous direction when
    # the eigenvector's last entry vanishes
    code, out, err = run_cli("verify", str(CORPUS / "slater_fail.json"),
                             "--alpha", "0")
    assert code == 0 and err == ""
    assert _report_lines(out)[-4:] == [
        "alpha: [0.0]", "verdict: Invalid", "lambda_min: -1.0",
        "violating_x: [-1.0]"]
    code, out, err = run_cli("verify", str(CORPUS / "example3_pair.json"),
                             "--alpha", "0")
    assert code == 0 and err == ""
    assert _report_lines(out)[-4:] == [
        "alpha: [0.0]", "verdict: Invalid", "lambda_min: -2.0",
        "violating_direction: [0.0, 1.0]"]
    # sampled check on an expression file: f0 = x^2, f1 = 1
    path = tmp_path / "expr.json"
    path.write_text(json.dumps({"n": 1, "p": 1, "functions": [
        {"expr": "x1^2"}, {"expr": "1"}]}))
    code, out, err = run_cli("verify", str(path), "--alpha", "1")
    assert code == 0 and err == ""
    assert _report_lines(out)[-5:] == [
        "kind: Mixed", "alpha: [1.0]", "verdict: Violated",
        "min_observed: -1.0", "x: [6.412979301928761e-09]"]
    code, out, err = run_cli("verify", str(path), "--alpha", "0")
    assert code == 0 and err == ""
    assert _report_lines(out)[-3:] == [
        "alpha: [0.0]", "verdict: NoViolation (sampled only)",
        "min_observed: 1.833444551342758e-27"]


def test_classify_certificate_above_alpha_max_via_separation(tmp_path):
    # f0 = x^2 + 20000 x + 1 and f1 = x: the certificates are the alpha in
    # [19998, 20002], all above alpha_max, so the cutting planes prove none
    # in the box and the separation route supplies the certificate
    path = tmp_path / "above.json"
    path.write_text(json.dumps({"n": 1, "p": 1, "functions": [
        {"quadratic": {"Q": [2.0], "c": [20000.0], "d": 1.0}},
        {"linear": {"a": [1.0], "b": 0.0}}]}))
    code, out, err = run_cli("classify", str(path), "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "ValidWithCertificate"
    assert report["certificate"]["alpha"] == "[19999.982700930348]"
    assert report["certificate"]["verified"] == "ExactPSD"
    assert report["notes"] == [
        "no certificate with alpha <= alpha_max=10000.0",
        "certificate via separation"]
    alpha = 19999.982700930348
    M = np.array([[2.0, 20000.0 - alpha], [20000.0 - alpha, 2.0]])
    assert np.linalg.eigvalsh(M)[0] > 1.0


def test_classify_report_names_a_stage_failure(tmp_path):
    # f0 is defined nowhere, so sampling the image cloud fails; the report
    # used to call the skipped geometry a definitive verdict
    path = tmp_path / "nowhere.json"
    path.write_text(json.dumps({"n": 1, "p": 1, "functions": [
        {"expr": "log(-x1^2 - 1)"}, {"expr": "x1"}]}))
    code, out, err = run_cli("classify", str(path))
    assert (code, err) == (2, "")
    assert "verdict: Undetermined\n" in out
    assert "geometry:\n  status: skipped (stage failure)\n" in out
    assert "  - stage failure: more than half of the sampled points" in out


def test_cli_counterexample():
    code, out, _ = run_cli("counterexample",
                           str(CORPUS / "example3_pair.json"))
    assert code == 0
    assert "found: true" in out


def test_cli_certificate_methods():
    for method in ("p1", "separation"):
        code, out, _ = run_cli("certificate", str(CORPUS / "convex_case.json"),
                               "--method", method)
        assert code == 0, method
        assert "present: true" in out


def test_cli_geometry_with_export(tmp_path):
    target = tmp_path / "cloud.txt"
    code, out, _ = run_cli("geometry", str(CORPUS / "example3_pair.json"),
                           "--export", str(target))
    assert code == 0
    assert target.exists()
    header = target.read_text().splitlines()[0]
    assert header.startswith("# p=1 n=2 R=10.0 seed=")
    assert "image_convexity_falsifier" in out
    assert "epi_convexity_falsifier" in out


def test_cli_farkas_both_files():
    code, out, _ = run_cli("farkas", str(CORPUS / "farkas_homogeneous.json"))
    assert code == 0
    assert "branch: multipliers" in out
    assert "alpha: [2.0, 3.0]" in out
    code, out, _ = run_cli("farkas", str(CORPUS / "farkas_affine.json"))
    assert code == 0
    assert "branch: alternative" in out


# f0 = x + 1 and f1 = x, both quadratic entries with Q = 0: affine
_AFFINE_QUADRATICS = {
    "n": 1, "p": 1,
    "functions": [{"quadratic": {"Q": [0.0], "c": [1.0], "d": 1.0}},
                  {"quadratic": {"Q": [0.0], "c": [1.0], "d": 0.0}}],
}


def test_cli_farkas_takes_every_affine_file(tmp_path):
    # the linear test is the system's: validate, farkas and classify agree
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(_AFFINE_QUADRATICS))
    code, out, err = run_cli("validate", str(path))
    assert code == 0 and "all_linear: true" in out
    code, out, err = run_cli("farkas", str(path))
    assert code == 0 and err == ""
    assert "branch: multipliers" in out
    assert "alpha: [1.0]" in out
    code, out, _ = run_cli("classify", str(path))
    assert code == 0
    assert "verdict: ValidWithCertificate" in out
    assert "certificate via exact linear alternatives" in out


def test_cli_farkas_rejects_a_file_that_is_not_affine(tmp_path):
    path = tmp_path / "square.json"
    problem = json.loads(json.dumps(_AFFINE_QUADRATICS))
    problem["functions"][0]["quadratic"]["Q"] = [2.0]
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli("validate", str(path))
    assert "all_linear: false" in out
    code, out, err = run_cli("farkas", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "affine" in err
    assert "mixes" not in err and "kind" not in err


def _one_expression(tmp_path, source):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"n": 1, "p": 0,
                                "functions": [{"expr": source}]}))
    return str(path)


def test_cli_expressions_at_the_depth_limit_classify(tmp_path):
    # 100 nested calls (the parser's deepest recursion) and a 101-term
    # chain (a tree 100 high); both are x1 in sign, so the box sample
    # holds a counterexample
    for source in ("sin(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
                   " + ".join(["x1"] * (MAX_DEPTH + 1))):
        path = _one_expression(tmp_path, source)
        for command in ("validate", "classify", "counterexample"):
            code, out, err = run_cli(command, path)
            assert code == 0 and err == "", command
        assert "verdict: InvalidWithCounterexample" in run_cli(
            "classify", path)[1]


@pytest.mark.parametrize("source, message", [
    ("sin(" * 101 + "x1" + ")" * 101,
     "parentheses nested more than 100 deep (at position 403)"),
    ("(" * 400 + "x1" + ")" * 400,
     "parentheses nested more than 100 deep (at position 100)"),
    ("-" * 3000 + "x1", "expression more than 100 operations deep "
                        "(at position 0)"),
    (" + ".join(["x1"] * (MAX_DEPTH + 2)),
     "expression more than 100 operations deep (at position 0)"),
    (" + ".join(["x1"] * 3000),
     "expression more than 100 operations deep (at position 0)"),
], ids=["calls-101", "parentheses-400", "minus-3000", "chain-102",
        "chain-3000"])
def test_cli_expressions_past_the_depth_limit_fail_cleanly(tmp_path, source,
                                                           message):
    path = _one_expression(tmp_path, source)
    for command in ("validate", "classify"):
        code, out, err = run_cli(command, path)
        assert code == 1 and out == "", command
        assert err == f"error: functions[0]: {message}\n", command


def test_cli_conjecture_scan():
    code, out, _ = run_cli("conjecture-scan", "--count", "1", "--dim", "2",
                           "--seed", "3")
    assert code == 0
    assert "instance_0" in out


def test_cli_conjecture_scan_rejects_bad_arguments():
    for count, dim in (("0", "2"), ("1", "1")):
        code, out, err = run_cli("conjecture-scan", "--count", count,
                                 "--dim", dim, "--seed", "1")
        assert code == 1, (count, dim)
        assert out == ""
        assert err == "error: count must be >= 1 and dimension >= 2\n"


def test_cli_json_mode():
    code, out, _ = run_cli("classify", str(CORPUS / "p0_psd.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "ValidWithCertificate"


def test_corpus_golden_verdicts_quick():
    manifest = json.loads((CORPUS / "expected_verdicts.json").read_text())
    for name in ("example3_pair.json", "convex_case.json", "p0_psd.json",
                 "slater_fail.json"):
        code, out, _ = run_cli("classify", str(CORPUS / name))
        assert f"verdict: {manifest[name]}" in out


def test_classify_byte_identical_reruns():
    name = str(CORPUS / "random_p1_03.json")
    outputs = [run_cli("classify", name)[1] for _ in range(2)]
    assert outputs[0] == outputs[1]


def _no_certificate_file(tmp_path):
    # x >= 0 and -x - 1 >= 0 are never both true; f0 = -x^2 is concave
    path = tmp_path / "no_cert.json"
    path.write_text(json.dumps({"n": 1, "p": 2, "functions": [
        {"quadratic": {"Q": [-2.0], "c": [0.0], "d": 0.0}},
        {"linear": {"a": [1.0], "b": 0.0}},
        {"linear": {"a": [-1.0], "b": 1.0}}]}))
    return path


def test_cli_rejects_bad_tol(tmp_path):
    for tol in ("nan", "inf", "-1e-9"):
        for argv in (("verify", str(CORPUS / "random_p1_02.json"),
                      "--alpha", "1.4644199245542309"),
                     ("classify", str(CORPUS / "random_p1_02.json"))):
            code, out, err = run_cli(*argv, f"--tol={tol}")
            assert code == 1, (argv[0], tol)
            assert err.startswith("error: ") and "tol" in err, (argv[0], tol)
            assert out == "", (argv[0], tol)
    pf = json.loads((CORPUS / "random_p1_02.json").read_text())
    pf["config"]["tol"] = float("nan")
    path = tmp_path / "nan_tol.json"
    path.write_text(json.dumps(pf))
    code, out, err = run_cli("classify", str(path))
    assert code == 1 and err.startswith("error: ") and out == ""


def test_cli_rejects_bad_box_and_samples(tmp_path):
    name = str(CORPUS / "random_p1_01.json")
    bad = [(f"--box={v}", "box radius") for v in ("-1", "0", "nan", "inf")]
    bad += [(f"--samples={v}", "samples") for v in ("0", "-5")]
    for flag, word in bad:
        for command in ("classify", "counterexample", "geometry"):
            code, out, err = run_cli(command, name, flag)
            assert code == 1, (command, flag)
            assert err.startswith("error: ") and word in err, (command, flag)
            assert out == "", (command, flag)
    pf = json.loads((CORPUS / "random_p1_01.json").read_text())
    for radius in (-1.0, 0.0, float("nan"), float("inf")):
        pf["config"]["R"] = radius
        path = tmp_path / "bad_box.json"
        path.write_text(json.dumps(pf))
        code, out, err = run_cli("classify", str(path))
        assert code == 1 and "box radius" in err and out == "", radius


def test_cli_rejects_bad_eta(tmp_path):
    # a NaN margin made every falsifier test false: "no violation found"
    pf = json.loads((CORPUS / "slater_fail.json").read_text())
    for eta in (-1e-3, float("nan"), float("inf")):
        pf.setdefault("config", {})["eta"] = eta
        path = tmp_path / "bad_eta.json"
        path.write_text(json.dumps(pf))
        for command in ("classify", "geometry"):
            code, out, err = run_cli(command, str(path))
            assert code == 1, (command, eta)
            assert err.startswith("error: ") and "eta" in err, (command, eta)
            assert out == "", (command, eta)


@pytest.mark.parametrize("key, value, message", [
    ("R", 0, "box radius must be finite and positive, got 0.0"),
    ("R", -1, "box radius must be finite and positive, got -1.0"),
    ("R", float("nan"), "box radius must be finite and positive, got nan"),
    pytest.param("R", 10**400,
                 "box radius must be finite and positive, got inf",
                 id="R-10**400"),
    pytest.param("tol", -10**400,
                 "tol must be finite and nonnegative, got -inf",
                 id="tol--10**400"),
    ("tol", -1e-9, "tol must be finite and nonnegative, got -1e-09"),
    ("eta", -0.5, "eta must be finite and nonnegative, got -0.5"),
    ("N", 0, "samples must be a positive integer, got 0"),
    ("N", 10**6 + 1, "samples must be at most 1000000, got 1000001"),
    pytest.param("N", 10**400, "samples must be at most 1000000, got "
                 "100000000000... (401 digits)", id="N-10**400"),
    pytest.param("N", -10**400, "samples must be a positive integer, got "
                 "-100000000000... (401 digits)", id="N--10**400"),
    pytest.param("N", 10**19, f"samples must be at most 1000000, got "
                 f"{10**19}", id="N-10**19"),
    ("seed", True, "seed must be an integer, got True")])
def test_validate_rejects_what_classify_rejects(tmp_path, key, value,
                                                message):
    pf = json.loads((CORPUS / "random_p1_01.json").read_text())
    pf["config"][key] = value
    path = tmp_path / "bad_config.json"
    path.write_text(json.dumps(pf))
    for command in ("validate", "classify"):
        code, out, err = run_cli(command, str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n"), command


def test_cli_cutting_plane_proves_no_certificate(tmp_path):
    path = _no_certificate_file(tmp_path)
    code, out, _ = run_cli("certificate", str(path), "--method", "p1")
    assert code == 2
    bound = [line for line in out.splitlines()
             if line.startswith("upper_bound: ")]
    assert len(bound) == 1 and float(bound[0].split()[1]) < 0
    code, out, _ = run_cli("classify", str(path))
    assert code == 2
    assert "no certificate with alpha <= alpha_max=10000.0" in out


def test_cli_master_lp_failure_is_numerical(tmp_path, monkeypatch):
    from slemma.linprog import INFEASIBLE, Tableau

    monkeypatch.setattr(Tableau, "dual_simplex", lambda self: INFEASIBLE)
    path = _no_certificate_file(tmp_path)
    code, out, err = run_cli("certificate", str(path), "--method", "p1")
    assert code == 3
    assert err == "numerical failure: certificate master LP: infeasible\n"
    code, out, err = run_cli("classify", str(path))
    assert code == 3
    assert err == "numerical failure: certificate master LP: infeasible\n"


CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.json")
                      if p.name != "expected_verdicts.json")


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_single_stage_commands_agree_with_classify(name):
    # certificate and counterexample run the stages classify runs, so they
    # print what classify found on the same route
    path = str(CORPUS / name)
    classified = json.loads(run_cli("classify", path, "--json")[1])
    notes = classified.get("notes", [])
    if (classified["certificate"]["present"] == "true"
            and "certificate via separation" not in notes):
        code, out, _ = run_cli("certificate", path, "--method", "p1",
                               "--json")
        assert code == 0
        assert json.loads(out)["certificate"] == classified["certificate"]
    if (classified["counterexample"]["found"] == "true"
            and "counterexample from certificate-failure witness"
            not in notes):
        code, out, _ = run_cli("counterexample", path, "--json")
        assert code == 0
        assert json.loads(out)["counterexample"]["x"] == \
            classified["counterexample"]["x"]


def test_classify_samples_one_runs_the_slater_search():
    # the Slater search reads classify's one sample, a single point at
    # --samples 1, and descends from it
    code, out, _ = run_cli("classify", str(CORPUS / "random_p1_01.json"),
                           "--samples", "1", "--json")
    assert code == 0
    margin = float(json.loads(out)["slater"]["min_constraint_value"])
    assert np.isfinite(margin)


def test_cli_lp_iteration_limit_is_numerical(monkeypatch):
    from slemma import linprog

    monkeypatch.setattr(linprog, "_MAX_ITERS", 0)
    for command, name in (("farkas", "farkas_affine.json"),
                          ("geometry", "slater_fail.json")):
        code, out, err = run_cli(command, str(CORPUS / name))
        assert code == 3, command
        assert err == "numerical failure: simplex iteration limit reached\n"
