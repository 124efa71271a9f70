"""CLI surface: determinism, exit codes, and the serialized formats."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jameslab.basis_tools import Basis
from jameslab.cli import build_parser, main, run_refutation, verify_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_identical_reports(capsys):
    args = ["--seed", "7", "--json", "refute", "--canonical", "3", "--B", "2/1"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_uc_deterministic_given_seed(capsys):
    args = ["--seed", "5", "--budget", "2", "--json", "uc", "--canonical", "2"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# refutation pipeline
# ---------------------------------------------------------------------------

def test_refute_canonical_k4(capsys):
    code, out, _ = run_cli(capsys, "refute", "--canonical", "4", "--B", "2/1")
    assert code == 0
    assert "conclusion impossible" in out
    assert "minimum gap d*(d)" in out
    assert "f_w(8589934597)" in out


def test_refute_k0_degenerate(capsys):
    code, out, _ = run_cli(capsys, "refute", "--canonical", "0", "--B", "1/1")
    assert code == 0
    assert "degenerate" in out


def test_refute_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "refute", "--canonical", "2", "--B", "2/1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["conclusion_found"] is None
    assert obj["d_star_d"] == "35/64"
    assert obj["epsilon"] == "1/80"
    assert obj["threshold_argument"] == "8589934597"
    assert obj["hypotheses"]["all_passed"] is True


def test_run_refutation_api():
    report = run_refutation(Basis.canonical(3), Fraction(2))
    assert report.conclusion is None
    assert report.threshold_argument == 8589934597
    assert report.threshold_symbolic == "f_w(8589934597)"


# ---------------------------------------------------------------------------
# verify suite
# ---------------------------------------------------------------------------

def test_verify_suite_passes():
    code, report = verify_suite(0)
    assert code == 0
    assert report.all_passed


def test_verify_suite_fault_injection():
    code, report = verify_suite(0, fault="norm_dp")
    assert code == 1
    failure = report.first_failure()
    assert failure is not None
    assert failure.name == "oracle equivalence"


# ---------------------------------------------------------------------------
# file-based commands
# ---------------------------------------------------------------------------

def test_norm_command_roundtrip(tmp_path, capsys):
    vec = {"K": 3, "coeffs": ["1/1", "-1/1", "1/1", "-1/1"]}
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(vec))
    code, out, _ = run_cli(capsys, "--json", "norm", "--input", str(path), "--oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["norm_sq"] == "8/1"
    assert obj["oracle_agrees"] is True
    assert obj["certificate"]["cycle"] == [0, 1, 2, 3]


def test_norm_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "norm", "--input", "/nonexistent.json")
    assert code == 2
    assert "input error" in err


def test_bad_rational_is_input_error(capsys):
    code, _, err = run_cli(capsys, "threshold", "--B", "zebra")
    assert code == 2
    assert "input error" in err


def test_b_below_one_is_input_error(capsys):
    code, _, err = run_cli(capsys, "threshold", "--B", "1/2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("refute", "--canonical", "3", "--B", "0"), "the stand-in bound must be positive"),
        (("metastable", "--canonical", "3", "--B", "0"), "the stand-in bound must be positive"),
        (("metastable", "--canonical", "3", "--eps", "0"), "eps must be positive"),
    ],
)
def test_nonpositive_b_or_eps_is_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def test_basis_file_commands(tmp_path, capsys):
    basis = {"K": 1, "columns": [["1/1", "0/1"], ["1/2", "1/1"]]}
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(basis))
    code, out, _ = run_cli(capsys, "--json", "space", "--basis", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["K"] == 1
    total = sum(Fraction(m) for m in obj["mu"])
    assert total == 1
    # model export carries the product matrix as exact rationals
    matrix = obj["product_matrix"]
    assert matrix[0][1] == "0/1"
    assert Fraction(matrix[1][0]) == Fraction(obj["d_star_d"])


def test_singular_basis_is_input_error(tmp_path, capsys):
    basis = {"K": 1, "columns": [["1/1", "1/1"], ["2/1", "2/1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(basis))
    code, _, err = run_cli(capsys, "space", "--basis", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "command, text",
    [
        ("norm", '{"coeffs": ["1"]}'),
        ("norm", "[1, 2]"),
        ("norm", '{"K": 0, "coeffs": 5}'),
        ("norm", '{"K": 0, "coeffs": [Infinity]}'),
        ("refute", '{"K": 1}'),
    ],
)
def test_malformed_json_is_input_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    flag = "--input" if command == "norm" else "--basis"
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["K", "coeffs", "columns", "x"]), inner, max_size=3),
    max_leaves=12,
)
_JSON_OBJECTS = _JSON_VALUES | st.fixed_dictionaries(
    {"K": _JSON_VALUES},
    optional={"coeffs": _JSON_VALUES, "columns": _JSON_VALUES},
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([("norm", "--input"), ("space", "--basis")]), _JSON_OBJECTS)
def test_json_loaders_exit_0_or_2(tmp_path_factory, command, value):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(value))
    assert main([*command, str(path)]) in (0, 2)


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------

def test_threshold_command(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--B", "2/1")
    assert code == 0
    assert "8589934597" in out
    assert "f_w(8589934597)" in out


def test_threshold_command_with_eps(capsys):
    code, out, _ = run_cli(capsys, "--json", "threshold", "--B", "1/1", "--eps", "1/80")
    obj = json.loads(out)
    assert obj["eps_threshold_argument"] == str(2**22 * 80**4 + 5)


def test_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--canonical", "2", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n\\p,0,1,2"
    assert lines[1] == "0,35/64,0/1,0/1"


def test_metastable_command(capsys):
    code, out, _ = run_cli(
        capsys, "metastable", "--canonical", "3", "--B", "2/1", "--eps", "1/80"
    )
    assert code == 0
    assert "PASS l1_bound_f" in out


def test_fgh_command_exact(capsys):
    code, out, _ = run_cli(capsys, "fgh", "--level", "2", "--arg", "4")
    assert code == 0
    assert "f_2(4) = 64" in out


def test_fgh_command_budget(capsys):
    code, out, _ = run_cli(
        capsys, "fgh", "--level", "3", "--arg", "3", "--max-digits", "1000000"
    )
    assert code == 0
    assert "exceeds the evaluation budget" in out
    assert "certified lower bound" in out


def test_fgh_command_omega(capsys):
    code, out, _ = run_cli(capsys, "--json", "fgh", "--level", "w", "--arg", "2")
    obj = json.loads(out)
    assert obj["exact"] == "8"


def test_uc_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "uc", "--canonical", "3")
    assert code == 0
    obj = json.loads(out)
    assert Fraction(obj["lower_bound_sq"]) >= 8
    assert obj["replay_matches"] is True


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "PASS oracle equivalence" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
