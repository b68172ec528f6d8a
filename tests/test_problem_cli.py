import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import slemma
from slemma import certificate as cert
from slemma import farkas
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


@pytest.mark.parametrize("argv, echoed", [
    (["counterexample", "random_p1_01.json", "--seed", "7", "--samples",
      "10"], "slemma counterexample random_p1_01.json --seed 7 --samples 10 "
     "--box 10.0 --tol 1e-09"),
    (["certificate", "p0_psd.json", "--method", "separation", "--box", "4"],
     "slemma certificate p0_psd.json --method separation --seed 1 "
     "--samples 4096 --box 4.0 --tol 1e-09"),
    (["certificate", "p0_psd.json"], "slemma certificate p0_psd.json "
     "--method p1 --seed 1 --samples 4096 --box 10.0 --tol 1e-09"),
    (["geometry", "example3_pair.json", "--samples", "64"],
     "slemma geometry example3_pair.json --seed 1 --samples 64 --box 10.0 "
     "--tol 1e-09"),
    (["verify", "convex_case.json", "--alpha", "0.0", "--tol", "1e-8"],
     "slemma verify convex_case.json --seed 1 --samples 4096 --box 10.0 "
     "--tol 1e-08 --alpha 0.0"),
])
def test_search_commands_echo_their_settings(argv, echoed, monkeypatch):
    # a sampled claim is scoped by N, R and the seed, so every command that
    # takes the search flags echoes all four, as it ran
    monkeypatch.chdir(CORPUS)
    code, out, _ = run_cli(*argv)
    assert code in (0, 2)
    assert out.splitlines()[2] == f"command: {echoed}"


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
    assert report["certificate"]["alpha"] == [19999.98270093415]
    assert report["certificate"]["verified"] == "ExactPSD"
    assert report["notes"] == [
        "no certificate with alpha <= alpha_max=10000.0",
        "certificate via separation"]
    alpha = 19999.98270093415
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


_OVERFLOWING = {"n": 1, "p": 1, "functions": [
    {"quadratic": {"Q": [2.0], "c": [0.0], "d": 1.0}},
    {"quadratic": {"Q": [-2e305], "c": [0.0], "d": 1e305}}]}


@pytest.mark.parametrize("argv, shown", [
    (("verify", "slater_fail.json", "--alpha", "6e307"),
     "matrix entry 1.200e+308 would overflow A + A.T"),
    (("verify", "slater_fail.json", "--alpha", "1e308"),
     "matrix has a non-finite entry"),
    (("verify", "example3_pair.json", "--alpha", "7e307"),
     "matrix entry 7.000e+307 times n = 3 could overflow an eigenvalue"),
    (("classify", "overflowing.json"),
     "pivot 5.000e-306 below 1e-11; rescale the input")],
    ids=["verify-6e307", "verify-1e308", "verify-3x3-7e307", "classify"])
def test_overflow_is_a_numerical_failure_without_a_warning(argv, shown,
                                                          tmp_path):
    # 6e307 * M_1 is finite, and its A + A.T used to give NaN eigenpairs
    # and exit 0; 1e308 * M_1 and the search's scale for d = 1e305 used to
    # print numpy's overflow warning before the failure; the 3 x 3
    # M(7e307) passes the A + A.T bound, but an eigenvalue could reach
    # 3 * 7e307
    (tmp_path / "overflowing.json").write_text(json.dumps(_OVERFLOWING))
    command, name, *flags = argv
    folder = tmp_path if name == "overflowing.json" else CORPUS
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(command, str(folder / name), *flags)
    assert [str(w.message) for w in caught] == []
    assert (code, out, err) == (3, "", f"numerical failure: {shown}\n")


@pytest.mark.parametrize("command", ["classify", "counterexample",
                                     "geometry"])
def test_a_huge_box_runs_without_an_overflow_warning(command):
    # at R = 1e200 the squared constraint shortfalls that rank the
    # descent's starts overflow; they used to print numpy's "overflow
    # encountered in square" (an infinite shortfall ranks no start).  The
    # image cloud's values overflow too: classify and geometry end in a
    # numerical failure that names it (classify used to end Undetermined
    # and geometry exit 1, both calling the overflow out of domain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(command, str(CORPUS / "example3_pair.json"),
                                 "--box", "1e200")
    if command == "counterexample":
        assert (code, err) == (2, "")
        assert "counterexample:\n  found: false\n" in out
    else:
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: image cloud: ")
        assert err.endswith(" sampled images overflowed\n")


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


def test_classify_slater_fail_answers_the_conical_question_by_dines(
        monkeypatch):
    # p = 1, all quadratic: the conical block is one status line naming
    # the theorem, and no identity member search runs
    from slemma import geometry

    modes, original = [], geometry._member_search

    def spy(system, M, budget, seeds, mode, starts=None):
        modes.append(mode)
        return original(system, M, budget, seeds, mode, starts)

    monkeypatch.setattr(geometry, "_member_search", spy)
    code, out, _ = run_cli("classify", str(CORPUS / "slater_fail.json"))
    assert code == 2
    assert modes and "identity" not in modes
    assert ("  conical_convexity_falsifier:\n"
            "    status: skipped (convex up to closure: Dines 1941, p <= 1)\n"
            "config:\n") in out


def test_separation_stops_at_a_repeated_separator(monkeypatch):
    # farkas_homogeneous's separator misses f0 = 2 f1 + 3 f2 by an ulp,
    # and the points that refute it lie on its own hyperplane: round 1's
    # grown cloud gives the same alpha bit for bit, so the refinement ends
    # there after two cloud LPs, not four
    calls = []
    hull = cert.hull_intersects_k

    def counting(cloud, tol):
        calls.append(hull(cloud, tol))
        return calls[-1]

    monkeypatch.setattr(cert, "hull_intersects_k", counting)
    code, out, _ = run_cli("certificate",
                           str(CORPUS / "farkas_homogeneous.json"),
                           "--method", "separation")
    assert code == 2
    assert "outcome: refinement_exhausted\nrounds: 1\n" in out
    assert len(calls) == 2
    assert np.array_equal(calls[0].separator.alpha, calls[1].separator.alpha)


def test_cli_farkas_both_files():
    code, out, _ = run_cli("farkas", str(CORPUS / "farkas_homogeneous.json"))
    assert code == 0
    assert "branch: multipliers" in out
    assert "alpha: [2.0, 3.0]" in out
    code, out, _ = run_cli("farkas", str(CORPUS / "farkas_affine.json"))
    assert code == 0
    assert "branch: alternative" in out
    assert "  ok: true\n" in out
    # the ok flag is a JSON boolean in --json, as every other flag
    code, out, _ = run_cli("farkas", str(CORPUS / "farkas_affine.json"),
                           "--json")
    assert code == 0
    assert json.loads(out)["verification"]["ok"] is True


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


def _config_seed_file(tmp_path, seed):
    pf = json.loads((CORPUS / "slater_fail.json").read_text())
    pf.setdefault("config", {})["seed"] = seed
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(pf))
    return str(path)


@pytest.mark.parametrize("seed, rule", [
    (-1, "a nonnegative integer"),
    (2**64, f"at most {2**64 - 1}")])
def test_seeds_outside_64_bits_are_rejected(tmp_path, seed, rule):
    # splitmix64 reads a seed modulo 2^64: 2^64 would run seed 0's streams
    # and -1 those of 2^64 - 1, each echoed under its own name
    expected = (1, "", f"error: seed must be {rule}, got {seed}\n")
    slater_fail = str(CORPUS / "slater_fail.json")
    assert run_cli("classify", slater_fail, f"--seed={seed}") == expected
    assert run_cli("conjecture-scan", "--count", "1", "--dim", "2",
                   f"--seed={seed}") == expected
    for command in ("validate", "classify"):
        assert run_cli(command, _config_seed_file(tmp_path, seed)) == expected


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_64_bits_pass(tmp_path, seed):
    code, out, _ = run_cli("classify", str(CORPUS / "slater_fail.json"),
                           f"--seed={seed}")
    assert code in (0, 2) and f"  seed: {seed}\n" in out   # no exit 1
    code, out, _ = run_cli("conjecture-scan", "--count", "1", "--dim", "2",
                           f"--seed={seed}")
    assert code == 0 and f"--seed {seed}\n" in out
    code, _, err = run_cli("validate", _config_seed_file(tmp_path, seed))
    assert (code, err) == (0, "")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_json_mode():
    code, out, _ = run_cli("classify", str(CORPUS / "p0_psd.json"), "--json")
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["verdict"] == "ValidWithCertificate"
    # p = 0: no constraint, so the Slater margin is +inf; strict JSON has
    # no such number, and the report writes its text form
    assert payload["slater"]["min_constraint_value"] == "inf"
    assert payload["slater"]["x0"] == [0.0, 0.0]
    assert payload["certificate"]["alpha"] == []


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


_SQUARE = {"quadratic": {"Q": [1.0], "c": [0.0], "d": 0.0}}


def _problem_text(**changes):
    """A valid n = 1, p = 0 problem file's JSON with `changes` applied."""
    raw = {"n": 1, "p": 0, "functions": [_SQUARE]}
    raw.update(changes)
    return json.dumps(raw)


# (argv, files written under tmp_path, exit code, the stream that is
# written, a text its last line holds); every other stream stays empty
_REJECTIONS = {
    "help": (["--help"], {}, 0, "out", "show this help message and exit"),
    "missing file argument": (
        ["classify"], {}, 1, "err",
        "slemma classify: error: the following arguments are required: "
        "file"),
    "unknown flag": (
        ["classify", "p.json", "--bogus"], {"p.json": _problem_text()}, 1,
        "err", "slemma: error: unrecognized arguments: --bogus"),
    "alpha not a number": (
        ["verify", "p.json", "--alpha", "1,x"],
        {"p.json": _problem_text(p=1, functions=[_SQUARE, _SQUARE])}, 1,
        "err", "error: --alpha expects comma-separated numbers, got '1,x'"),
    "certificate label": (
        ["verify", "p.json", "--certificate", "cert.txt"],
        {"p.json": _problem_text(p=1, functions=[_SQUARE, _SQUARE]),
         "cert.txt": "alpha = [1.0]\nverified = Maybe\n"}, 1, "err",
        "error: malformed certificate text: unknown label 'Maybe'"),
    "missing Q": (
        ["validate", "p.json"],
        {"p.json": _problem_text(functions=[
            {"quadratic": {"c": [0.0], "d": 0.0}}])}, 1, "err",
        "error: functions[0]: missing keys ['Q']"),
    "d a string": (
        ["validate", "p.json"],
        {"p.json": _problem_text(functions=[
            {"quadratic": {"Q": [1.0], "c": [0.0], "d": "1"}}])}, 1, "err",
        "error: functions[0].d: expected a number, got '1'"),
    "expr not a string": (
        ["validate", "p.json"],
        {"p.json": _problem_text(functions=[{"expr": 3}])}, 1, "err",
        "error: functions[0]: 'expr' must be a string"),
    "unknown kind": (
        ["validate", "p.json"],
        {"p.json": _problem_text(functions=[{"cubic": {}}])}, 1, "err",
        "error: functions[0]: unknown function kind 'cubic'"),
    "invalid JSON": (
        ["validate", "p.json"], {"p.json": '{"n": 1,'}, 1, "err",
        "p.json: invalid JSON at line 1: Expecting property name"),
    "top-level list": (
        ["validate", "p.json"], {"p.json": "[1, 2]"}, 1, "err",
        "error: top level must be an object"),
    "n zero": (
        ["validate", "p.json"], {"p.json": _problem_text(n=0)}, 1, "err",
        "error: n must be a positive integer, got 0"),
    "p negative": (
        ["validate", "p.json"], {"p.json": _problem_text(p=-1)}, 1, "err",
        "error: p must be a nonnegative integer, got -1"),
    "config a list": (
        ["validate", "p.json"], {"p.json": _problem_text(config=[])}, 1,
        "err", "error: config must be an object"),
}


@pytest.mark.parametrize("case", list(_REJECTIONS))
def test_cli_usage_and_rejections_reach_the_given_streams(case, tmp_path,
                                                           capsys):
    # argparse's help, usage and errors go to main's out and err, as the
    # handlers' reports and error lines do, and not to the process's
    argv, files, code, stream, text = _REJECTIONS[case]
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    got, out, err = run_cli(*argv)
    assert got == code
    written, silent = (out, err) if stream == "out" else (err, out)
    assert silent == ""
    assert text in written.splitlines()[-1]
    if stream == "err" and not text.startswith("slemma"):
        assert written.startswith("error: ") and written.count("\n") == 1
    assert capsys.readouterr() == ("", "")


def _write(tmp_path, name, n, functions):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "p": len(functions) - 1,
                                "functions": functions}))
    return str(path)


def test_linear_multipliers_an_ulp_off_fall_through_to_cutting_planes(
        tmp_path):
    # f0 = f1 = 0.3 x1 + 0.7 x2: the Farkas multiplier is 1 - 2^-53, which
    # the exact test at tol 0 rejects, and the cutting planes certify 1.0
    f = {"linear": {"a": [0.3, 0.7], "b": 0.0}}
    path = _write(tmp_path, "lin.json", 2, [f, f])
    alpha = farkas.solve(linear_data(load_problem(path).system())).alpha
    assert alpha[0] != 1.0 and abs(alpha[0] - 1.0) <= np.spacing(1.0)
    code, out, _ = run_cli("certificate", path, "--tol", "0")
    assert code == 0
    assert "  - linear multipliers failed exact verification\n" in out
    assert ("  present: true\n  alpha: [1.0]\n  lambda_min: 0.0\n"
            "  verified: ExactPSD\n") in out
    code, out, _ = run_cli("classify", path, "--tol", "0")
    assert code == 0
    assert "verdict: ValidWithCertificate\n" in out
    assert "  - linear multipliers failed exact verification\n" in out


def test_inconsistent_linear_constraints_leave_no_certificate(tmp_path):
    # f1 = x1 - 1 >= 0 and f2 = -x1 >= 0 have no common point
    path = _write(tmp_path, "inconsistent.json", 2, [
        {"linear": {"a": [0.0, 1.0], "b": 0.0}},
        {"linear": {"a": [1.0, 0.0], "b": 1.0}},
        {"linear": {"a": [-1.0, 0.0], "b": 0.0}}])
    code, out, _ = run_cli("certificate", path)
    assert code == 2
    assert "certificate:\n  present: false\n" in out
    assert "notes:\n  - linear constraint system is inconsistent\n" in out


def test_separation_refines_along_a_failing_direction(tmp_path,
                                                      monkeypatch):
    # f0 = 101 - x1^2 and f1 = 1: round 0 separates the cloud sampled in
    # [-10, 10], but f0 - alpha f1 is negative along x1, so the check fails
    # along the direction [1.0]; the points 1, 10 and 100 on it join the
    # cloud, where 100 is in K, and round 1 finds no separator
    path = _write(tmp_path, "refine.json", 1, [
        {"quadratic": {"Q": [-2.0], "c": [0.0], "d": 101.0}},
        {"quadratic": {"Q": [0.0], "c": [0.0], "d": 1.0}}])
    sources = []
    real = cert._witness_sources

    def recording(check):
        sources.append((check.direction, real(check)))
        return sources[-1][1]

    monkeypatch.setattr(cert, "_witness_sources", recording)
    code, out, _ = run_cli("certificate", path, "--method", "separation")
    assert code == 2
    ((direction, points),) = sources
    assert direction.tolist() == [1.0]
    assert [x.tolist() for x in points] == [[1.0], [10.0], [100.0]]
    assert "outcome: no_separator\nrounds: 1\n" in out


def test_expression_certificate_is_only_a_sampled_candidate(tmp_path):
    # f0 = exp(x1) + 1 >= 0 wherever f1 = 1 - x1^2 >= 0, but an expression
    # system's multipliers are checked on samples only: classify ends
    # Undetermined and shows them as a SampledOnly candidate
    path = _write(tmp_path, "sampled.json", 1, [
        {"expr": "exp(x1) + 1"}, {"expr": "1 - x1^2"}])
    note = "sampled-only certificate candidate (not a validity claim)"
    code, out, _ = run_cli("classify", path)
    assert code == 2
    assert "verdict: Undetermined\n" in out
    assert "certificate:\n  present: false\n" in out
    block = out.split("candidate_certificate:\n")[1].split("\n")
    assert block[0] == "  present: true"
    assert block[1].startswith("  alpha: [")
    assert block[2] == "  verified: SampledOnly"
    assert f"  - {note}\n" in out
    code, out, _ = run_cli("classify", path, "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "Undetermined"
    assert payload["candidate_certificate"]["present"] is True
    assert payload["candidate_certificate"]["verified"] == "SampledOnly"
    assert note in payload["notes"]
