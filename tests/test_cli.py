"""CLI surface: determinism, exit codes, and the serialized formats."""

import hashlib
import json
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jameslab import basis_tools, cli, metastability
from jameslab.basis_tools import Basis, random_invertible_basis
from jameslab.cli import build_parser, main, run_refutation, verify_suite
from jameslab.james_core import james_norm_sq
from jameslab.measure_space import StructureViolation, build
from jameslab.metastability import hypothesis_report

from helpers import count_prefix_table_builds


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
    assert report.threshold_argument == 8589934597
    assert report.threshold_symbolic == "f_w(8589934597)"


def test_refutation_integrates_the_product_matrix_once(monkeypatch):
    # the integrands f_n g_p mu are read once, from the prefix table of
    # one model and the basis's F * W, and the product matrix is the closed
    # form: refute integrates only what the hypothesis report integrates,
    # the 2 * (K + 1) L1 norms, each over every atom
    integrals = []
    real_integrate = metastability.integrate_over

    def counting_integrate(model, h, sigma):
        integrals.append(sigma)
        return real_integrate(model, h, sigma)

    monkeypatch.setattr(metastability, "integrate_over", counting_integrate)
    table_builds = count_prefix_table_builds(monkeypatch)
    hypothesis_report(build(Basis.canonical(3)), Fraction(2), Fraction(1, 80))
    assert integrals == [(0, 1, 2, 3)] * 8
    integrals.clear()
    table_builds.clear()
    run_refutation(Basis.canonical(3), Fraction(2))
    assert integrals == [(0, 1, 2, 3)] * 8
    assert len(table_builds) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("refute", "--canonical", "3", "--B", "2/1"),
        ("space", "--canonical", "3"),
        ("matrix", "--canonical", "3"),
        ("verify",),
    ],
)
def test_each_basis_is_checked_once(monkeypatch, capsys, argv):
    # the biorthogonality check runs in the constructor and nowhere else:
    # a built basis refuses assignment, so its checked forms cannot change
    built, checked = [], []
    real_init, real_check = Basis.__init__, Basis.check_biorthogonality

    def recording_init(basis, *args):
        real_init(basis, *args)
        built.append(basis)

    def recording_check(basis):
        checked.append(basis)
        real_check(basis)

    monkeypatch.setattr(Basis, "__init__", recording_init)
    monkeypatch.setattr(Basis, "check_biorthogonality", recording_check)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert built
    assert len(checked) == len(built)
    assert all(b is c for b, c in zip(built, checked))


# ---------------------------------------------------------------------------
# verify suite
# ---------------------------------------------------------------------------

def test_verify_suite_passes():
    code, report = verify_suite(0)
    assert code == 0
    assert report.all_passed


def test_verify_suite_fault_injection(monkeypatch):
    # a norm DP that reports one too much must fail the oracle comparison
    def faulty_norm_sq(x):
        value, cert = james_norm_sq(x)
        return value + 1, cert

    monkeypatch.setattr(cli, "james_norm_sq", faulty_norm_sq)
    code, report = verify_suite(0)
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


@pytest.mark.parametrize(
    "coeffs, norm_sq, approx",
    [
        # past the float range both ways: exact lines as before, a finite
        # display instead of an OverflowError or a displayed 0
        (["1", "1e400", "2"], "1" + "0" * 800 + "/1", "1e+400"),
        (["3e-400"], "9/1" + "0" * 800, "3e-400"),
        # inside it the display is the float one, byte for byte
        (["1", "-1", "1", "-1"], "8/1", f"{8.0 ** 0.5:.12g}"),
        (["1/3", "1e150", "0"], "1" + "0" * 300 + "/1", f"{1e300 ** 0.5:.12g}"),
        # exact lines longer than the interpreter's int-to-str digit limit
        (["1e5000"], "1" + "0" * 10000 + "/1", "1e+5000"),
        (["-1e-5000", "0"], "1/1" + "0" * 10000, "1e-5000"),
    ],
    ids=["overflow", "underflow", "small", "large", "huge", "tiny"],
)
def test_norm_display_for_any_magnitude(tmp_path, capsys, coeffs, norm_sq, approx):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"K": len(coeffs) - 1, "coeffs": coeffs}))
    code, out, err = run_cli(capsys, "norm", "--input", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [
        f"norm_sq = {norm_sq}",
        f"norm ~ {approx} (approximate display)",
    ]
    code, out, _ = run_cli(capsys, "--json", "norm", "--input", str(path))
    obj = json.loads(out)
    assert code == 0
    assert (obj["norm_sq"], obj["norm_decimal_approx"]) == (norm_sq, approx)


_FLOAT_SEARCH_REFUSAL = (
    "input error: a basis entry is beyond float range, which the float "
    "coefficient search cannot represent"
)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "columns, code, display",
    [
        # a bound beyond float range is displayed as norm displays one
        ([["1", "0"], ["-1", "1e-200"]], 0, "2e+200"),
        # an entry beyond float range cannot enter the float search
        ([["1e400", "0"], ["0", "1"]], 2, None),
        # one that underflows to 0.0 still can
        ([["1e-400", "0"], ["0", "1"]], 0, "1"),
    ],
    ids=["bound_overflows", "entry_overflows", "entry_underflows"],
)
def test_uc_at_the_edges_of_float_range(tmp_path, capsys, json_flag, columns, code, display):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"K": 1, "columns": columns}))
    got, out, err = run_cli(capsys, *json_flag, "uc", "--basis", str(path))
    assert got == code
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.splitlines()[-1] == _FLOAT_SEARCH_REFUSAL
    elif not json_flag:
        assert f"lower_bound ~ {display} (approximate display)" in out.splitlines()


def test_norm_oracle_refuses_k_above_its_limit_before_the_dp(tmp_path, monkeypatch, capsys):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"K": 400, "coeffs": ["1"] * 401}))

    def unrun(x):
        raise AssertionError("james_norm_sq called")

    monkeypatch.setattr(cli, "james_norm_sq", unrun)
    code, out, err = run_cli(capsys, "norm", "--input", str(path), "--oracle")
    assert (code, out, err) == (2, "", "input error: oracle limited to K <= 14, got 400\n")


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


@pytest.mark.parametrize(
    "B, message",
    [("1/2", "B must be at least 1"), ("0", "the stand-in bound must be positive")],
)
def test_refute_rejects_b_before_building_anything(monkeypatch, capsys, B, message):
    builds = []
    monkeypatch.setattr(cli, "build", lambda basis: builds.append(basis))
    code, out, err = run_cli(capsys, "refute", "--canonical", "16", "--B", B)
    assert (code, out, err) == (2, "", f"input error: {message}\n")
    assert builds == []


@pytest.mark.parametrize(
    "option, message",
    [
        (("--B", "0"), "the stand-in bound must be positive"),
        (("--eps", "0"), "eps must be positive"),
        (("--B", "1/0"), "--B '1/0' has a zero denominator"),
    ],
)
def test_metastable_rejects_b_and_eps_before_building_anything(
    monkeypatch, capsys, option, message
):
    builds = []
    monkeypatch.setattr(cli, "build", lambda basis: builds.append(basis))
    code, out, err = run_cli(capsys, "metastable", "--canonical", "16", *option)
    assert (code, out, err) == (2, "", f"input error: {message}\n")
    assert builds == []


@pytest.mark.parametrize(
    "command, obj",
    [
        ("norm", {"K": 1, "coeffs": ["1/0", "1"]}),
        ("refute", {"K": 1, "columns": [["1/0", "0"], ["0", "1"]]}),
    ],
)
def test_zero_denominator_in_an_input_file_names_the_file(
    tmp_path, capsys, command, obj
):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(obj))
    flag = "--input" if command == "norm" else "--basis"
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: ZeroDivisionError: Fraction(1, 0)\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (("refute", "--canonical", "2", "--B", "1/0"), "--B"),
        (("metastable", "--canonical", "2", "--B", "1/0"), "--B"),
        (("metastable", "--canonical", "2", "--eps", "3/0"), "--eps"),
        (("threshold", "--B", "1/0"), "--B"),
        (("threshold", "--eps", "1/0"), "--eps"),
        (("threshold", "--B", "2", "--eps", "5/0"), "--eps"),
    ],
)
def test_zero_denominator_names_the_option(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("input error: ")
    assert option in err and argv[-1] in err
    assert "Fraction(" not in err


@pytest.mark.parametrize("text", ["nan", "inf", "abc", ""])
@pytest.mark.parametrize(
    "argv, option",
    [
        (("refute", "--canonical", "2"), "--B"),
        (("metastable", "--canonical", "2"), "--B"),
        (("metastable", "--canonical", "2"), "--eps"),
        (("threshold",), "--B"),
        (("threshold",), "--eps"),
    ],
)
def test_non_rational_option_names_the_option(capsys, argv, option, text):
    code, out, err = run_cli(capsys, *argv, option, text)
    assert (code, out) == (2, "")
    assert err == f"input error: {option} {text!r} is not a rational number\n"


@pytest.mark.parametrize("level", ["x", "1.5", "-1", ""])
def test_bad_fgh_level_names_the_option(capsys, level):
    code, out, err = run_cli(capsys, "fgh", "--level", level, "--arg", "2")
    assert (code, out) == (2, "")
    assert err == f"input error: --level {level!r} is not a natural number or 'w'\n"


def test_structure_violation_is_invariant_failure(monkeypatch, capsys):
    def broken_build(basis):
        raise StructureViolation("mu(Omega) != 1")

    monkeypatch.setattr(cli, "build", broken_build)
    code, out, err = run_cli(capsys, "refute", "--canonical", "2")
    assert code == 1
    assert out == ""
    assert err == "invariant failure: mu(Omega) != 1\n"
    assert "Traceback" not in err


def test_wrong_inverse_is_invariant_failure(monkeypatch, capsys):
    # a completed inversion whose integer result is off in one entry is a bug
    invert = basis_tools.integer_inverse

    def bad_inverse(D, m):
        E, inv = invert(D, m)
        inv[0][0] += 1
        return E, inv

    monkeypatch.setattr(basis_tools, "integer_inverse", bad_inverse)
    code, out, err = run_cli(capsys, "space", "--canonical", "2")
    assert (code, out) == (1, "")
    assert err == "invariant failure: biorthogonality check failed\n"


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


@pytest.mark.parametrize("command", ["refute", "metastable"])
def test_sigma_clauses_refuse_more_atoms_than_they_enumerate(tmp_path, capsys, command):
    # sampling 256 of the 2^18 subsets printed PASS for both small-set
    # clauses here, yet the single atom (11,) breaks them at n = 0
    basis = random_invertible_basis(17, random.Random(1))
    path = tmp_path / "basis17.json"
    path.write_text(json.dumps(basis.to_json_obj()))
    code, out, err = run_cli(capsys, command, "--basis", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and "K <= 16" in err
    assert len(err.splitlines()) == 1


_LIMIT = "the 2^(K+1) atom subsets are enumerated only for K <= 16"


@pytest.mark.parametrize(
    "head, K, tail, message",
    [
        (("refute",), 17, (), f"K = 17: {_LIMIT}"),
        (("refute",), 100000, (), f"K = 100000: {_LIMIT}"),
        (("metastable",), 17, (), f"K = 17: {_LIMIT}"),
        # an option error comes first, as it did when K was refused after
        # the basis was built
        (("refute",), 80, ("--B", "1/0"), "--B '1/0' has a zero denominator"),
        (("refute",), 80, ("--B", "0"), "the stand-in bound must be positive"),
        (("refute",), 80, ("--B", "1/2"), "B must be at least 1"),
        (("metastable",), 80, ("--eps", "x"), "--eps 'x' is not a rational number"),
        (("metastable",), 80, ("--B", "0", "--eps", "0"),
         "the stand-in bound must be positive"),
        (("metastable",), 80, ("--eps", "0"), "eps must be positive"),
        (("--budget", "0", "uc"), 128, (), "budget must be positive"),
        (("--budget", "0", "uc"), 128, ("--strategy", "anneal"), "budget must be positive"),
    ],
)
@pytest.mark.parametrize("source", ["--canonical", "--basis"])
def test_k_above_the_limit_is_refused_before_its_basis_is_built(
    tmp_path, monkeypatch, capsys, head, K, tail, message, source
):
    # inverting the (K+1) x (K+1) matrix alone took a second at K = 128
    # before the refusal; a file's K counts once it lists K+1 columns, and
    # its one-entry columns would be a DimensionMismatch if they were read
    def uninvertible(D, m):
        raise AssertionError("integer_inverse called")

    monkeypatch.setattr(basis_tools, "integer_inverse", uninvertible)
    where = str(K)
    if source == "--basis":
        where = str(tmp_path / "basis.json")
        Path(where).write_text(json.dumps({"K": K, "columns": [["1"]] * (K + 1)}))
    argv = (*head, source, where, *tail)
    assert run_cli(capsys, *argv) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("K", [13, 128])
def test_exhaustive_uc_refuses_a_large_basis_file_before_reading_it(
    tmp_path, monkeypatch, capsys, K
):
    # a file's basis need not be monomial, so its 2^(K+1) patterns would be
    # listed; its one-entry columns would be a DimensionMismatch if read
    def uninvertible(D, m):
        raise AssertionError("integer_inverse called")

    monkeypatch.setattr(basis_tools, "integer_inverse", uninvertible)
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"K": K, "columns": [["1"]] * (K + 1)}))
    assert run_cli(capsys, "uc", "--basis", str(path)) == (
        2, "", "input error: exhaustive sign enumeration limited to K <= 12\n"
    )


@pytest.mark.parametrize("K", [13, 64])
def test_exhaustive_uc_searches_a_canonical_basis_at_any_k(capsys, K):
    # --canonical K is monomial: searched by sign-change class, unrefused
    code, out, err = run_cli(capsys, "--json", "uc", "--canonical", str(K))
    assert code == 0
    obj = json.loads(out)
    assert Fraction(obj["lower_bound_sq"]) == (2 * K + 1 if K % 2 == 0 else 2 * K + 2)
    assert obj["replay_matches"] is True
    assert err == (
        f"uc: searching {K + 1} sign-change classes by decreasing bound, "
        "at most 3 exact replays per pattern\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("refute", "--canonical", "-1", "--B", "1/0"),
        ("metastable", "--canonical", "-1", "--eps", "x"),
    ],
)
def test_negative_canonical_k_is_refused_before_the_options(monkeypatch, capsys, argv):
    def unbuildable(cls, K):
        raise AssertionError(f"Basis.canonical({K}) called")

    monkeypatch.setattr(Basis, "canonical", classmethod(unbuildable))
    assert run_cli(capsys, *argv) == (
        2, "", "input error: --canonical takes a nonnegative dimension index\n"
    )


def test_option_errors_come_before_the_basis_files_own(tmp_path, capsys):
    # a file's K is checked against the options before its columns are read
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"K": 1, "columns": [["1", "1"], ["2", "2"]]}))
    code, out, err = run_cli(capsys, "refute", "--basis", str(path), "--B", "1/2")
    assert (code, out, err) == (2, "", "input error: B must be at least 1\n")
    code, out, err = run_cli(capsys, "refute", "--basis", str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: SingularBasis: no pivot in column 1\n"


def test_a_k_the_file_does_not_hold_sizes_nothing(tmp_path, monkeypatch, capsys):
    # the anneal strategy makes 128 (K+1)-entry sign patterns
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"K": 10**12, "columns": [["1"]]}))

    def unsized(*args):
        raise AssertionError("uc_sign_patterns called")

    monkeypatch.setattr(cli, "uc_sign_patterns", unsized)
    code, out, err = run_cli(capsys, "uc", "--strategy", "anneal", "--basis", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"input error: {path}: DimensionMismatch: basis must be a (K+1) x (K+1) matrix\n"
    )


@pytest.mark.parametrize("command", ["refute", "metastable"])
def test_sigma_clauses_refuse_more_atoms_before_building_anything(
    tmp_path, monkeypatch, capsys, command
):
    basis = random_invertible_basis(17, random.Random(1))
    path = tmp_path / "basis17.json"
    path.write_text(json.dumps(basis.to_json_obj()))
    builds = []
    monkeypatch.setattr(cli, "build", lambda basis: builds.append(basis))
    code, out, err = run_cli(capsys, command, "--basis", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "input error: K = 17: the 2^(K+1) atom subsets are enumerated only "
        "for K <= 16\n"
    )
    assert builds == []


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
        ("refute", '{"K": -1, "columns": []}'),
        pytest.param("norm", "[" * 100000, id="norm-deeply-nested"),
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


@pytest.mark.parametrize(
    "command, body",
    [
        (("norm", "--input"), {"K": 1.9, "coeffs": ["1", "2"]}),
        *(
            (command, {"K": K, "columns": [["1", "0"], ["0", "1"]]})
            for command in (("space", "--basis"), ("refute", "--basis"), ("uc", "--basis"))
            for K in (1.5, True, "1")
        ),
    ],
    ids=repr,
)
def test_a_k_that_is_not_a_json_integer_is_input_error(tmp_path, capsys, command, body):
    # "K": int in every file format; int() would truncate 1.9 and 1.5 and
    # coerce true and "1" to the K = 1 that the coefficients fit
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body))
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, body",
    [
        (("norm", "--input"), {"K": 2, "coeffs": "123"}),
        (("norm", "--input"), {"K": 1, "coeffs": {"1": 0, "2": 0}}),
        (("refute", "--basis"), {"K": 1, "columns": ["10", "01"]}),
        (("matrix", "--basis"), {"K": 1, "columns": {"12": 0, "34": 0}}),
        (("space", "--basis"), {"K": 1, "columns": [["1", "0"], "01"]}),
        (("uc", "--basis"), {"K": 1, "columns": "1001"}),
    ],
    ids=repr,
)
def test_a_string_or_object_for_an_array_is_input_error(tmp_path, capsys, command, body):
    # tuple() would read a string as its characters and an object as its
    # keys: "123" as the vector (1, 2, 3), ["10", "01"] as the identity
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body))
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"input error: {path}: TypeError: ")
    assert "must be an array, got " in err


@pytest.mark.parametrize(
    "command, body",
    [
        *(
            (command, {"K": 0, "columns": [[entry]]})
            for command in (
                ("space", "--basis"),
                ("refute", "--basis"),
                ("matrix", "--basis"),
                ("uc", "--basis"),
            )
            for entry in (True, 1.0, 0.1)
        ),
        *((("norm", "--input"), {"K": 0, "coeffs": [entry]}) for entry in (True, False, 0.1)),
    ],
    ids=repr,
)
def test_a_bool_or_float_entry_is_input_error(tmp_path, capsys, command, body):
    # rationals are "p/q" strings or integers; Fraction() would read true
    # as 1 and 0.1 as 3602879701896397/36028797018963968
    path = tmp_path / "input.json"
    path.write_text(json.dumps(body))
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("entry", ["1", "1/1", 1])
def test_a_string_or_integer_entry_is_read(tmp_path, capsys, entry):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"K": 0, "coeffs": [entry]}))
    code, out, _ = run_cli(capsys, "norm", "--input", str(path))
    assert code == 0
    assert "norm_sq = 1/1" in out


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


_FILE_COMMANDS = [
    ("norm", "--input"),
    ("space", "--basis"),
    ("matrix", "--basis"),
    ("metastable", "--basis"),
    ("refute", "--basis"),
    ("--budget", "1", "uc", "--basis"),
    ("--budget", "1", "uc", "--strategy", "anneal", "--basis"),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_FILE_COMMANDS), _JSON_OBJECTS)
@example(("refute", "--basis"), {"K": False, "columns": None})
def test_json_loaders_exit_0_or_2(tmp_path_factory, command, value):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(value))
    # a basis that metastable reads may fail a hypothesis clause: exit 1
    allowed = (0, 1, 2) if "metastable" in command else (0, 2)
    assert main([*command, str(path)]) in allowed


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


def _long_decimal_value(s: str) -> int:
    # int() refuses strings past the int-to-str digit limit as well
    head, tail = s[:-4000], s[-4000:]
    return int(head) * 10**4000 + int(tail) if head else int(tail)


def test_threshold_prints_arguments_past_the_int_digit_limit(capsys):
    code, out, err = run_cli(capsys, "threshold", "--B", "1e1100", "--eps", "1/3")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    # ceil(2^29 * B^4) + 5 and ceil(2^22 * B^4 * 3^4) + 5 with B^4 = 10^4400
    t = "536870912" + "0" * 4399 + "5"
    tc = str(2**22 * 81) + "0" * 4399 + "5"
    assert lines == [
        f"threshold argument = {t}",
        f"K >= f_w({t}) required for the unconditionality lower bound",
        f"accuracy-dependent threshold argument = {tc}",
    ]
    code, out, _ = run_cli(capsys, "--json", "threshold", "--B", "1e1100")
    assert code == 0
    assert json.loads(out)["threshold_argument"] == t


def test_fgh_prints_values_past_the_int_digit_limit(capsys):
    argv = ["fgh", "--level", "2", "--arg", "15000", "--max-steps", "100000"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "f_2(15000) = ~4.226e+4519\n"
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == 0
    exact = json.loads(out)["exact"]
    assert len(exact) == 4520
    assert _long_decimal_value(exact) == 15000 * 2**15000  # f_2(n) = n * 2^n


def test_refute_prints_a_threshold_past_the_int_digit_limit(capsys):
    code, out, err = run_cli(capsys, "--json", "refute", "--canonical", "1", "--B", "1e1100")
    assert (code, err) == (0, "")
    assert json.loads(out)["threshold_argument"] == "536870912" + "0" * 4399 + "5"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "jameslab", "--help"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: jameslab")


def test_a_closed_stdout_exits_2_without_a_traceback():
    # the reader takes one line of a large matrix and closes the pipe, as
    # ``jameslab matrix --canonical 300 | head -1`` does
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "jameslab", "matrix", "--canonical", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": str(src)},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert first.startswith(b"n\\p,0,1,2,")
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("jameslab ")
    ]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch, capsys, argv):
    # each line runs in a directory that holds the vec.json norm reads;
    # --help exits from argparse
    (tmp_path / "vec.json").write_text(
        json.dumps({"K": 3, "coeffs": ["1/1", "-2/1", "3/1", "1/2"]})
    )
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 0, capsys.readouterr().err


def test_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--canonical", "2", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n\\p,0,1,2"
    assert lines[1] == "0,35/64,0/1,0/1"


@pytest.mark.parametrize("K", range(5))
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_matrix_csv_flag_prints_the_default_output(capsys, K, json_flag):
    plain = run_cli(capsys, *json_flag, "matrix", "--canonical", str(K))
    flagged = run_cli(capsys, *json_flag, "matrix", "--canonical", str(K), "--csv")
    assert flagged == plain
    assert plain[0] == 0


def _failing_fluctuation_report(K):
    """The --json metastable report at (B, eps) = (1/8, 1/4) or (1/3, 1/2)
    for the canonical basis at K = 2, 3, 4, as recorded before the finder
    took plain tuples: every clause but bounded_fluctuations_fix_p fails."""
    def clause(name, details, passed=False):
        return {"advisory": False, "details": details, "name": name, "passed": passed}

    f = {2: ("1/2", "3/4", "7/8"),
         3: ("1/2", "3/4", "7/8", "15/16"),
         4: ("1/2", "3/4", "7/8", "15/16", "31/32")}[K]
    g = {2: ("7/8", "3/8", "1/8"),
         3: ("15/16", "7/16", "3/16", "1/16"),
         4: ("31/32", "15/32", "7/32", "3/32", "1/32")}[K]
    return {
        "all_passed": False,
        "entries": [
            clause("l1_bound_f", {f"f_{n}": v for n, v in enumerate(f)}),
            clause("l1_bound_g", {f"g_{p}": v for p, v in enumerate(g)}),
            clause("small_set_continuity_f", {}),
            clause("small_set_continuity_g", {}),
            clause(
                "bounded_fluctuations_fix_p",
                {"index_function_0": "pass", "index_function_1": "pass"},
                passed=True,
            ),
            clause(
                "bounded_fluctuations_fix_n",
                {"index_function_0": "fail", "index_function_1": "fail"},
            ),
        ],
    }


@pytest.mark.parametrize(
    "K, B, eps",
    [(2, "1/8", "1/4"), (3, "1/8", "1/4"), (4, "1/8", "1/4"), (4, "1/3", "1/2")],
)
def test_failing_fluctuation_clauses_print_the_recorded_json(capsys, K, B, eps):
    code, out, err = run_cli(
        capsys, "--json", "metastable", "--canonical", str(K), "--B", B, "--eps", eps
    )
    assert (code, err) == (1, "")
    expected = json.dumps(_failing_fluctuation_report(K), sort_keys=True, indent=2)
    assert out == expected + "\n"


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


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["uc", "--canonical", "3"],
            "uc: searching 4 sign-change classes by decreasing bound, "
            "at most 3 exact replays per pattern",
        ),
        (
            ["--budget", "1", "uc", "--canonical", "6", "--strategy", "anneal"],
            "uc: searching up to 128 sign patterns, at most 2 exact replays each",
        ),
    ],
    ids=["exhaustive", "anneal"],
)
def test_uc_states_its_search_size_on_stderr(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.splitlines() == [line]
    assert "sign patterns" not in out


def test_uc_states_the_patterns_of_a_non_monomial_basis_on_stderr(tmp_path, capsys):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(random_invertible_basis(3, random.Random(5)).to_json_obj()))
    code, out, err = run_cli(capsys, "uc", "--basis", str(path))
    assert code == 0
    assert err == "uc: searching up to 16 sign patterns, at most 3 exact replays each\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--budget", "0", "uc", "--canonical", "2"], "budget must be positive"),
        # a random basis is not monomial: its 2^14 patterns are refused
        (["uc", "--basis", "basis13.json"], "exhaustive sign enumeration limited to K <= 12"),
    ],
    ids=["budget", "dimension"],
)
def test_uc_refused_search_prints_only_the_error(tmp_path, monkeypatch, capsys, argv, message):
    basis = random_invertible_basis(13, random.Random(13))
    (tmp_path / "basis13.json").write_text(json.dumps(basis.to_json_obj()))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "PASS oracle equivalence" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


_PARSER_SEQUENCE = [
    ["--json", "refute", "--canonical", "3"],
    ["refute", "--canonical", "3"],
    ["--seed", "3", "uc", "--canonical", "2"],
    ["--seed", "9", "uc", "--canonical", "2"],
    ["fgh", "--level"],
    ["fgh", "--level", "3", "--arg", "2"],
    ["refute", "--canonical", "x"],
    ["--json", "threshold", "--B", "3/2"],
    [],
    ["threshold"],
]


def _outcomes(capsys, sequence):
    outcomes = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_one_parser_serves_every_call_as_a_fresh_one_would(monkeypatch, capsys):
    shared = _outcomes(capsys, _PARSER_SEQUENCE)
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 2, 0, 2, 0, 2, 0]
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert build_parser() is not build_parser()
    assert _outcomes(capsys, _PARSER_SEQUENCE) == shared


_DIGESTS = json.loads((Path(__file__).parent / "cli_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(_DIGESTS))
def test_cli_output_matches_its_recorded_digest(tmp_path, monkeypatch, capsys, command):
    # exit code and SHA-256 of stdout of refute, metastable (F1 failing
    # too), fgh at levels 0..4 and w under default and small budgets, text
    # and --json, threshold with and without --eps, text and --json, verify,
    # space, matrix and metastable on canonical bases and on the seeded
    # random basis files random-K2.json .. random-K5.json, and uc on
    # canonical bases (K = 0..6, seeds 0-2, budgets 1-3) and, with both
    # strategies, on random-K3.json .. random-K6.json: any change to how
    # these are computed must leave the bytes as they are
    for K in range(2, 7):
        basis = random_invertible_basis(K, random.Random(f"golden:{K}"))
        (tmp_path / f"random-K{K}.json").write_text(json.dumps(basis.to_json_obj()))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == _DIGESTS[command]
