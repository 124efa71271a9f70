"""Seeded inputs, job lists and output checks for the benchmark workloads.

Every job calls jameslab through a module attribute looked up at call
time (``jl.build``, ``cli.main``), so the tracer's wrappers see the
outermost call as well as the nested ones.  A job's ``run`` is the timed
part; its ``check`` runs afterwards, untimed, and returns None when the
output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Any, Callable

import jameslab as jl
import jameslab.cli as cli
from jameslab.james_core import (
    CertTerm,
    Cycle,
    DualBallCertificate,
    StableIndex,
    Violation,
    functional_from_certificate,
)

REFUTATION_EPS = Fraction(1, 80)
CHAIN_EPSILONS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))


@dataclass(frozen=True)
class Job:
    label: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def call_cli(argv: list[str]) -> CliResult:
    """Run ``jameslab.cli.main`` in-process with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue())


def cli_job(label: str, group: str, argv: list[str], check) -> Job:
    def checked(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}"
        return check(res.stdout)

    return Job(label, group, lambda: call_cli(argv), checked)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _is_singular(columns: tuple[tuple[Fraction, ...], ...]) -> bool:
    """Fraction-free (Bareiss) elimination on the integer-scaled matrix."""
    den = lcm(*(v.denominator for col in columns for v in col))
    m = [[int(v * den) for v in col] for col in columns]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return True
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[n - 1][n - 1] == 0


def random_basis_columns(K: int, rng: random.Random) -> tuple[tuple[Fraction, ...], ...]:
    """Columns drawn as ``random_invertible_basis`` draws them, rejecting
    singular matrices with an exact determinant test of our own."""
    while True:
        cols = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(K + 1))
            for _ in range(K + 1)
        )
        if not _is_singular(cols):
            return cols


def random_vector(rng: random.Random, K: int) -> jl.JVector:
    den = rng.randint(1, 6)
    return jl.JVector(K, tuple(Fraction(rng.randint(-8, 8), den) for _ in range(K + 1)))


def random_chain(rng: random.Random, top: int, length: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(top + 1), length)))


def unit_ball_vector(rng: random.Random, K: int) -> jl.JVector:
    """Random vector divided by an integer above its certified norm bound."""
    x = random_vector(rng, K)
    bound = 2 * sum((c * c for c in x.coeffs), Fraction(0))
    t = 1
    while t * t < bound:
        t += 1
    return x.scale(Fraction(1, t))


def planted_violator(chain: tuple[int, ...]) -> jl.DualFunctional:
    """Dual-ball certificate on the chain with alternating unit coefficients
    +-1/t, scaled by t: every chain gap becomes sqrt(2) >= eps."""
    m = len(chain)
    t = 1
    while t * t < m:
        t += 1
    u = tuple(Fraction((-1) ** i, t) for i in range(m))
    cert = DualBallCertificate((CertTerm(Fraction(1), Cycle(chain), u),))
    return functional_from_certificate(cert, max(chain)).scale(Fraction(t))


def _write_json(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _basis_obj(K: int, cols) -> dict:
    return {"K": K, "columns": [[str(v) for v in col] for col in cols]}


def _vector_obj(x: jl.JVector) -> dict:
    return {"K": x.K, "coeffs": [str(c) for c in x.coeffs]}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_matrix_csv(csv: str, K: int, d_star_d: Fraction) -> str | None:
    """Product matrix entries must be d*(d) on and below the diagonal, 0 above."""
    lines = csv.strip().split("\n")
    if lines[0] != "n\\p," + ",".join(str(p) for p in range(K + 1)):
        return "product matrix header"
    if len(lines) != K + 2:
        return f"product matrix has {len(lines) - 1} rows"
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        if cells[0] != str(n) or len(cells) != K + 2:
            return f"product matrix row {n} malformed"
        for p, cell in enumerate(cells[1:]):
            if Fraction(cell) != (d_star_d if p <= n else 0):
                return f"M[{n}][{p}] = {cell}"
    return None


def check_refute_table(K: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        lines = stdout.rstrip("\n").split("\n")
        verdict = lines[-2]
        match = re.match(
            r"verdict: conclusion impossible: minimum gap d\*\(d\) = (\d+/\d+) ", verdict
        )
        if match is None:
            return f"verdict line {verdict!r}"
        d_star_d = Fraction(match.group(1))
        if d_star_d < Fraction(1, 4):
            return f"d*(d) = {d_star_d} < 1/4"
        if lines[0] != "product matrix:":
            return "missing product matrix"
        hypotheses = [ln for ln in lines if " hypothesis " in ln]
        if len(hypotheses) != 6:
            return f"{len(hypotheses)} hypothesis lines"
        matrix = "\n".join(ln.strip() for ln in lines[1 : K + 3])
        return check_matrix_csv(matrix, K, d_star_d)

    return check


def check_refute_json(K: int) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        obj = json.loads(stdout)
        if obj["K"] != K or not obj["verdict"].startswith("conclusion impossible"):
            return f"verdict {obj['verdict']!r}"
        if obj["conclusion_found"] is not None:
            return "conclusion found"
        d_star_d = Fraction(obj["d_star_d"])
        if d_star_d < Fraction(1, 4):
            return f"d*(d) = {d_star_d} < 1/4"
        return check_matrix_csv(obj["product_matrix_csv"], K, d_star_d)

    return check


def check_verify(stdout: str) -> str | None:
    lines = stdout.rstrip("\n").split("\n")
    if len(lines) != 6 or not all(ln.startswith("PASS ") for ln in lines):
        return f"verify printed {lines!r}"
    return None


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def check_threshold(B: Fraction, eps: Fraction) -> Callable[[str], str | None]:
    """Bounds from the paper: ceil(2^29 B^4) + 5 and
    ceil(2^22 B^4 ceil(1/eps)^4) + 5."""
    expected = [
        f"threshold argument = {_ceil(2**29 * B**4) + 5}",
        f"accuracy-dependent threshold argument = "
        f"{_ceil(2**22 * B**4 * _ceil(1 / eps) ** 4) + 5}",
    ]

    def check(stdout: str) -> str | None:
        lines = stdout.rstrip("\n").split("\n")
        if [lines[0], lines[-1]] != expected:
            return f"threshold printed {lines!r}"
        return None

    return check


def check_fgh_breach(stdout: str) -> str | None:
    lines = stdout.rstrip("\n").split("\n")
    if len(lines) != 2 or not lines[0].endswith("exceeds the evaluation budget"):
        return f"fgh printed {lines!r}"
    match = re.fullmatch(r"certified lower bound ~\d\.\d{3}e\+(\d+)", lines[1])
    # f_3(3) passes through f_2(24) = 402653184 before the budget breaks
    if match is None or int(match.group(1)) < 8:
        return f"lower bound line {lines[1]!r}"
    return None


def check_dual(model, cols) -> str | None:
    """Independent biorthogonality check of the exact inverse."""
    for i, row in enumerate(model.dual.rows):
        for j, col in enumerate(cols):
            if sum(r * c for r, c in zip(row, col)) != (1 if i == j else 0):
                return f"g*_{i}(w_{j}) wrong"
    return None


def check_model(model, cols, report) -> str | None:
    if not report.all_passed:
        return f"identity failed: {report.first_failure().name}"
    if model.d_star_d < Fraction(1, 4):
        return f"d*(d) = {model.d_star_d} < 1/4"
    if any(m <= 0 for m in model.mu) or sum(model.mu) != 1:
        return "mu is not a probability measure"
    return check_dual(model, cols)


def check_norm_output(x: jl.JVector) -> Callable[[str], str | None]:
    """Replay the printed optimal cycle: its value must equal the norm."""

    def check(stdout: str) -> str | None:
        lines = stdout.split("\n")
        value = Fraction(lines[0].removeprefix("norm_sq = "))
        cycle = Cycle(tuple(json.loads(lines[2].removeprefix("optimal cycle = "))))
        if jl.cycle_value(x, cycle) != value:
            return "certificate cycle does not reproduce the norm"
        return None

    return check


def check_uc(basis: jl.Basis, est: jl.UCEstimate) -> str | None:
    replay = jl.ratio_sq(basis, est.sign_pattern, est.alpha)
    if replay != est.lower_bound_sq:
        return f"replay {replay} != {est.lower_bound_sq}"
    if est.lower_bound_sq < 1:
        return "lower bound below the trivial ratio 1"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def warmup_job(seed: int) -> Job:
    """``verify`` touches every module once; it runs during set-up."""
    return cli_job("verify", "setup", ["--seed", str(seed), "verify"], check_verify)


def refute_canonical(seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    rng = random.Random(f"{seed}:refute_canonical")
    Ks = (2, 3) if smoke else (4, 5, 6, 7, 8)
    json_K = 3 if smoke else 5
    jobs = [
        cli_job(
            f"refute K={K}", "refute", ["refute", "--canonical", str(K)],
            check_refute_table(K),
        )
        for K in Ks
    ]
    jobs.append(
        cli_job(
            f"refute --json K={json_K}", "refute",
            ["--json", "refute", "--canonical", str(json_K)],
            check_refute_json(json_K),
        )
    )
    B = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)))
    eps = rng.choice(CHAIN_EPSILONS)
    jobs.append(
        cli_job(
            "threshold", "hierarchy", ["threshold", "--B", str(B), "--eps", str(eps)],
            check_threshold(B, eps),
        )
    )
    level = rng.choice(("3", "w"))
    jobs.append(
        cli_job("fgh", "hierarchy", ["fgh", "--level", level, "--arg", "3"], check_fgh_breach)
    )
    return jobs


def _identities_job(label: str, K: int, cols, sample_seed: int, full: bool) -> Job:
    """Basis inversion, build and check_identities; with ``full`` also the
    product matrix and the conclusion search."""

    def run():
        model = jl.build(jl.Basis(K, cols))
        report = jl.check_identities(model, 2, sample_seed)
        if not full:
            return model, report, None, None
        pm = jl.product_matrix(model)
        return model, report, pm, jl.conclusion_search(model, REFUTATION_EPS)

    def check(out) -> str | None:
        model, report, pm, found = out
        reason = check_model(model, cols, report)
        if reason is None and full:
            reason = check_matrix_csv(pm.to_csv(), K, model.d_star_d)
            if reason is None and found is not None:
                reason = f"conclusion found at {found}"
        return reason

    return Job(label, "identities", run, check)


def space_random(seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    rng = random.Random(f"{seed}:space_random")
    per_K = 2 if smoke else 10
    jobs = []
    for K in (2, 3) if smoke else range(3, 9):
        for i in range(per_K):
            cols = random_basis_columns(K, rng)
            jobs.append(
                _identities_job(f"identities K={K} #{i}", K, cols, rng.randrange(2**16), True)
            )
    for K in (4,) if smoke else (10, 12):
        cols = random_basis_columns(K, rng)
        jobs.append(
            _identities_job(f"identities K={K}", K, cols, rng.randrange(2**16), False)
        )
    for K in (2,) if smoke else (5, 6):
        for i in range(1 if smoke else 2):
            path = _write_json(
                workdir / f"basis-K{K}-{i}.json", _basis_obj(K, random_basis_columns(K, rng))
            )
            jobs.append(
                cli_job(
                    f"refute --basis K={K} #{i}", "refute", ["refute", "--basis", path],
                    check_refute_table(K),
                )
            )
    return jobs


def _small_norms_job(K: int, xs: list[jl.JVector]) -> Job:
    def check(results) -> str | None:
        for x, (value, cert) in zip(xs, results):
            if value != jl.james_norm_sq_oracle(x):
                return f"norm of {x.coeffs} differs from the oracle"
            if jl.cycle_value(x, cert.cycle) != value:
                return "certificate cycle does not reproduce the norm"
        return None

    return Job(f"norm K={K}", "norm", lambda: [jl.james_norm_sq(x) for x in xs], check)


def _chain_job(label: str, check_fn_name: str, items, eps: Fraction) -> Job:
    def run():
        fn = getattr(jl, check_fn_name)
        return [fn(obj, eps, chain) for obj, chain in items]

    def check(results) -> str | None:
        for r in results:
            if not isinstance(r, StableIndex):
                return f"{type(r).__name__} where the chain lemma gives a stable index"
        return None

    return Job(label, "witness", run, check)


def _planted_job(label: str, y, eps: Fraction, chain: tuple[int, ...]) -> Job:
    def run():
        violation = jl.chain_stability_check(y, eps, chain)
        if not isinstance(violation, Violation):
            return violation, None
        return violation, jl.violation_to_witness(y, eps, chain, violation)

    def check(out) -> str | None:
        violation, witness = out
        if witness is None:
            return f"planted chain gave {type(violation).__name__}"
        lhs = jl.eval_functional(y, witness.xhat).square()
        if lhs != witness.lhs_sq:
            return "witness lhs does not replay"
        if not lhs > jl.Root2Scalar(witness.rhs_sq):
            return "witness does not exceed the norm"
        return None

    return Job(label, "witness", run, check)


def _uc_canonical_job(K: int, seed: int) -> Job:
    def run():
        basis = jl.Basis.canonical(K)
        return basis, jl.uc_lower_bound(basis, "exhaustive", 2, seed)

    return Job(f"uc canonical K={K}", "uc", run, lambda out: check_uc(*out))


def _uc_cli_check(K: int, cols) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        obj = json.loads(stdout)
        if obj["replay_matches"] is not True:
            return "CLI replay mismatch"
        est = jl.UCEstimate.from_json_obj(obj)
        return check_uc(jl.Basis(K, cols), est)

    return check


def norm_search(seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    rng = random.Random(f"{seed}:norm_search")
    jobs = []
    for K in (20, 30) if smoke else (100, 200, 400):
        for i in range(1 if smoke else 2):
            x = random_vector(rng, K)
            path = _write_json(workdir / f"vector-K{K}-{i}.json", _vector_obj(x))
            jobs.append(
                cli_job(
                    f"norm --input K={K} #{i}", "norm", ["norm", "--input", path],
                    check_norm_output(x),
                )
            )
    for K in range(2, 5 if smoke else 11):
        jobs.append(_small_norms_job(K, [random_vector(rng, K) for _ in range(3 if smoke else 10)]))

    K = 40 if smoke else 200
    samples = 3 if smoke else 40
    for eps in CHAIN_EPSILONS[:1] if smoke else CHAIN_EPSILONS:
        length = 2 * _ceil(1 / eps) ** 2 + 1
        duals = [
            (jl.dual_ball_sample(rng.randrange(2**32), K, rng.randint(0, 4))[0],
             random_chain(rng, K, length))
            for _ in range(samples)
        ]
        units = [(unit_ball_vector(rng, K), random_chain(rng, K, length)) for _ in range(samples)]
        jobs.append(_chain_job(f"chain dual eps={eps}", "chain_stability_check", duals, eps))
        jobs.append(_chain_job(f"chain unit eps={eps}", "coordinate_chain_check", units, eps))
        for i in range(1 if smoke else 3):
            chain = random_chain(rng, K, length)
            jobs.append(_planted_job(f"planted eps={eps} #{i}", planted_violator(chain), eps, chain))

    for K in (2, 3) if smoke else (5, 6):
        jobs.append(_uc_canonical_job(K, seed))
    K = 2 if smoke else 5
    cols = random_basis_columns(K, rng)
    path = _write_json(workdir / f"uc-basis-K{K}.json", _basis_obj(K, cols))
    jobs.append(
        cli_job(
            f"uc --basis K={K}", "uc",
            ["--json", "--seed", str(seed), "uc", "--basis", path],
            _uc_cli_check(K, cols),
        )
    )
    return jobs


def make_jobs(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Job]:
    by_name = {
        "refute_canonical": refute_canonical,
        "space_random": space_random,
        "norm_search": norm_search,
    }
    return by_name[workload](seed, workdir, smoke)
