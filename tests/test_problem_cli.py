import io
import json
from pathlib import Path

import pytest

import slemma
from slemma.cli import main
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
    assert system.value(0, [1.0, 0.0]) == 2.0        # 2x^2 - y^2 at (1, 0)
    assert system.value(1, [2.0, 3.0]) == 5.0        # x + y


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
    assert pf.all_linear
    data = pf.linear_data()
    assert data.a0.tolist() == [1.0]
    assert data.b0 == 1.0
    system = pf.system()
    assert system.is_linear()
    assert system.value(0, [2.0]) == 1.0            # <a0, x> - b0


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
    for source in (("--alpha", "-1"), ("--certificate", str(saved))):
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


def test_cli_counterexample():
    code, out, _ = run_cli("counterexample",
                           str(CORPUS / "example3_pair.json"))
    assert code == 0
    assert "found: true" in out


def test_cli_certificate_methods():
    for method in ("p1", "supergradient", "separation"):
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


def test_cli_conjecture_scan():
    code, out, _ = run_cli("conjecture-scan", "--count", "1", "--dim", "2",
                           "--seed", "3")
    assert code == 0
    assert "instance_0" in out


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
