"""Command-line front door: JSON I/O, the refutation pipeline, and the
self-verification suite.

Every number feeding a verdict is exact; decimal renderings are display
only and flagged approximate.  Identical configurations produce byte
identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import hierarchy
from .basis_tools import (
    Basis,
    random_invertible_basis,
    ratio_sq,
    uc_lower_bound,
)
from .hierarchy import (
    OMEGA,
    EvalBudget,
    Exact,
    HierarchyExpr,
    fgh_eval,
    format_value,
    threshold_arg,
    threshold_arg_with_eps,
)
from .james_core import (
    JVector,
    StableIndex,
    Violation,
    chain_stability_check,
    coordinate_chain_check,
    dual_ball_sample,
    james_norm_sq,
    james_norm_sq_oracle,
    james_norm_sq_upper_bound,
)
from .measure_space import build, check_identities, product_matrix
from .metastability import (
    FoundPair,
    IndexFunction,
    SequenceOracle,
    BudgetExceeded,
    count_fluctuations,
    conclusion_search,
    find_stable_interval,
    hypothesis_report,
)
from .reporting import Report, ReportEntry
from .scalars import ceil_inverse, ceil_sqrt_rational, fmt_rational


REFUTATION_EPS = Fraction(1, 80)


@dataclass(frozen=True)
class RefutationReport:
    K: int
    B: Fraction
    d_star_d: Fraction
    matrix_csv: str
    hypotheses: Report
    conclusion: FoundPair | None
    verdict: str
    threshold_argument: int
    threshold_symbolic: str

    def to_json_obj(self) -> dict:
        return {
            "K": self.K,
            "B": fmt_rational(self.B),
            "epsilon": fmt_rational(REFUTATION_EPS),
            "d_star_d": fmt_rational(self.d_star_d),
            "product_matrix_csv": self.matrix_csv,
            "hypotheses": self.hypotheses.to_json_obj(),
            "conclusion_found": (
                None
                if self.conclusion is None
                else {
                    "m": self.conclusion.m,
                    "s": self.conclusion.s,
                    "q": self.conclusion.q,
                    "l": self.conclusion.l,
                    "gap": fmt_rational(self.conclusion.gap),
                }
            ),
            "verdict": self.verdict,
            "threshold_argument": str(self.threshold_argument),
            "threshold_symbolic": self.threshold_symbolic,
        }


def run_refutation(basis: Basis, B: Fraction) -> RefutationReport:
    """Build the measure space, test the theorem's hypotheses, and show the
    conclusion is exactly impossible at epsilon = 1/80.

    The gap between the zero entries and the d*(d) entries of the product
    matrix is at least 1/4 = 20*epsilon, so no basis whose unconditional
    constant is at most B can satisfy the fluctuation theorem at this K.
    """
    model = build(basis)
    pm = product_matrix(model)
    hyp = hypothesis_report(model, Fraction(B), REFUTATION_EPS)
    found = conclusion_search(model, REFUTATION_EPS)
    if basis.K == 0:
        verdict = (
            "degenerate: no index pairs m < s exist at K = 0, "
            "the conclusion search range is empty"
        )
    elif found is None:
        verdict = (
            f"conclusion impossible: minimum gap d*(d) = "
            f"{fmt_rational(model.d_star_d)} >= 1/4 = 20*epsilon; any basis "
            f"with unconditional constant <= {fmt_rational(Fraction(B))} at "
            f"this K is refuted"
        )
    else:
        verdict = (
            f"conclusion satisfied at (m={found.m}, s={found.s}, "
            f"q={found.q}, l={found.l}) with gap {fmt_rational(found.gap)}"
        )
    t_arg = threshold_arg(Fraction(B))
    return RefutationReport(
        K=basis.K,
        B=Fraction(B),
        d_star_d=model.d_star_d,
        matrix_csv=pm.to_csv(),
        hypotheses=hyp,
        conclusion=found,
        verdict=verdict,
        threshold_argument=t_arg,
        threshold_symbolic=HierarchyExpr(OMEGA, t_arg).render(),
    )


# ---------------------------------------------------------------------------
# Self-verification suite
# ---------------------------------------------------------------------------

def _check_oracle_equivalence(seed: int, fault: str | None) -> ReportEntry:
    rng = random.Random(f"{seed}:verify-norm")
    for K in range(2, 7):
        for _ in range(12):
            den = rng.randint(1, 6)
            x = JVector(
                K, tuple(Fraction(rng.randint(-6, 6), den) for _ in range(K + 1))
            )
            got, cert = james_norm_sq(x)
            if fault == "norm_dp":
                got = got + 1
            if got != james_norm_sq_oracle(x):
                return ReportEntry(
                    "oracle equivalence",
                    False,
                    details={"K": str(K), "vector": str(x.to_json_obj())},
                )
    return ReportEntry("oracle equivalence", True)


def _random_chain(rng: random.Random, top: int, length: int) -> tuple[int, ...]:
    chosen: set[int] = set()
    while len(chosen) < length:
        chosen.add(rng.randrange(top + 1))
    return tuple(sorted(chosen))


def _check_chain_lemmas(seed: int) -> list[ReportEntry]:
    rng = random.Random(f"{seed}:verify-chains")
    eps = Fraction(1, 2)
    k = 2 * ceil_inverse(eps) ** 2
    K = 40
    dual_ok = True
    for _ in range(40):
        y, _cert = dual_ball_sample(rng.randrange(2**32), K, rng.randint(0, 4))
        chain = _random_chain(rng, K, k + 1)
        if isinstance(chain_stability_check(y, eps, chain), Violation):
            dual_ok = False
            break
    vec_ok = True
    for _ in range(40):
        den = rng.randint(1, 6)
        x = JVector(K, tuple(Fraction(rng.randint(-6, 6), den) for _ in range(K + 1)))
        bound = james_norm_sq_upper_bound(x)
        if bound > 1:
            x = x.scale(Fraction(1, ceil_sqrt_rational(bound)))
        chain = _random_chain(rng, K, k + 1)
        if not isinstance(coordinate_chain_check(x, eps, chain), StableIndex):
            vec_ok = False
            break
    return [
        ReportEntry("chain stability (dual ball)", dual_ok),
        ReportEntry("chain stability (unit ball)", vec_ok),
    ]


def _check_measure_identities(seed: int) -> ReportEntry:
    rng = random.Random(f"{seed}:verify-measure")
    bases = [Basis.canonical(3)] + [
        random_invertible_basis(K, rng) for K in (2, 3, 4)
    ]
    for basis in bases:
        model = build(basis)
        if not check_identities(model, 4, seed).all_passed:
            return ReportEntry("measure identities", False)
        product_matrix(model)
        if conclusion_search(model, REFUTATION_EPS) is not None:
            return ReportEntry("measure identities", False)
    return ReportEntry("measure identities", True)


def _check_fluctuation_completeness(seed: int) -> ReportEntry:
    rng = random.Random(f"{seed}:verify-fluct")
    F = IndexFunction.from_callable(lambda n: n + 3, 200)
    eps = Fraction(1, 2)
    for _ in range(25):
        values = [Fraction(0)]
        for _step in range(40):
            jump = rng.choice([0, 0, 0, 1, -1])
            values.append(values[-1] + jump)
        seq = SequenceOracle(tuple(values))
        c = count_fluctuations(seq, eps / 2, (0, 200))
        try:
            interval = find_stable_interval(seq, eps, F, 0, max(c, 1))
        except BudgetExceeded:
            return ReportEntry("fluctuation finder completeness", False)
        vals = [seq(j) for j in range(interval.m, interval.end + 1)]
        if max(vals) - min(vals) >= eps:
            return ReportEntry("fluctuation finder completeness", False)
    return ReportEntry("fluctuation finder completeness", True)


def _check_hierarchy() -> ReportEntry:
    for n in range(13):
        if fgh_eval(0, n) != Exact(n + 1):
            return ReportEntry("hierarchy closed forms", False)
        if fgh_eval(1, n) != Exact(2 * n):
            return ReportEntry("hierarchy closed forms", False)
        if fgh_eval(2, n) != Exact(2**n * n):
            return ReportEntry("hierarchy closed forms", False)
    if fgh_eval(3, 2) != Exact(2048):
        return ReportEntry("hierarchy closed forms", False)
    if threshold_arg(Fraction(2)) != 8589934597:
        return ReportEntry("hierarchy closed forms", False)
    return ReportEntry("hierarchy closed forms", True)


def verify_suite(seed: int, fault: str | None = None) -> tuple[int, Report]:
    """Run every module's invariant suite; exit code 0 iff all pass.

    `fault` deliberately corrupts a named subsystem (test fixture only).
    """
    entries = [_check_oracle_equivalence(seed, fault)]
    entries.extend(_check_chain_lemmas(seed))
    entries.append(_check_measure_identities(seed))
    entries.append(_check_fluctuation_completeness(seed))
    entries.append(_check_hierarchy())
    report = Report(tuple(entries))
    return (0 if report.all_passed else 1), report


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class InputError(ValueError):
    pass


def _load_json(path: str, cls: type[JVector] | type[Basis]) -> JVector | Basis:
    """Read ``path`` and parse it with ``cls.from_json_obj``; a file of the
    wrong shape is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return cls.from_json_obj(obj)
    except (KeyError, TypeError, OverflowError, ValueError) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _basis_from_args(args: argparse.Namespace) -> Basis:
    if args.canonical is not None:
        if args.canonical < 0:
            raise InputError("--canonical takes a nonnegative dimension index")
        return Basis.canonical(args.canonical)
    if args.basis is None:
        raise InputError("provide --basis FILE or --canonical K")
    return _load_json(args.basis, Basis)


def _emit(args: argparse.Namespace, obj: dict, table_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in table_lines:
            print(line)


def _add_basis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--basis", help="path to a basis JSON file")
    p.add_argument(
        "--canonical", type=int, default=None, metavar="K",
        help="use the canonical basis of J_K",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jameslab",
        description=(
            "Exact-arithmetic laboratory for James-space geometry: norms, "
            "unconditional-constant certificates, the atomic measure-space "
            "embedding, fluctuation budgets, and the refutation pipeline."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--budget", type=int, default=2, help="search budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="exact squared James norm of a vector")
    p.add_argument("--input", required=True, help="path to a JVector JSON file")
    p.add_argument("--oracle", action="store_true", help="also run the brute force")

    p = sub.add_parser("uc", help="unconditional-constant lower bound")
    _add_basis_args(p)
    p.add_argument(
        "--strategy", choices=("exhaustive", "anneal"), default="exhaustive"
    )

    p = sub.add_parser("space", help="build and export the measure space")
    _add_basis_args(p)

    p = sub.add_parser("matrix", help="product matrix of a model")
    _add_basis_args(p)
    p.add_argument("--csv", action="store_true", help="CSV rendering")

    p = sub.add_parser("metastable", help="hypothesis report for a model")
    _add_basis_args(p)
    p.add_argument("--B", default="2/1", help="stand-in bound, rational p/q")
    p.add_argument("--eps", default="1/4", help="accuracy, rational p/q")

    p = sub.add_parser("fgh", help="budgeted fast-growing hierarchy value")
    p.add_argument("--level", required=True, help="natural number or 'w'")
    p.add_argument("--arg", required=True, type=int)
    p.add_argument("--max-digits", type=int, default=10**6)
    p.add_argument("--max-steps", type=int, default=10**4)

    p = sub.add_parser("threshold", help="hierarchy argument of the final bound")
    p.add_argument("--B", default="1/1", help="unconditional constant, p/q")
    p.add_argument(
        "--eps", default=None, help="also print the accuracy-dependent bound"
    )

    p = sub.add_parser("refute", help="end-to-end refutation pipeline")
    _add_basis_args(p)
    p.add_argument("--B", default="2/1", help="hypothesized constant, p/q")

    sub.add_parser("verify", help="run every module's invariant suite")
    return parser


def _cmd_norm(args: argparse.Namespace) -> int:
    x = _load_json(args.input, JVector)
    value, cert = james_norm_sq(x)
    obj = {
        "norm_sq": fmt_rational(value),
        "norm_decimal_approx": f"{float(value) ** 0.5:.12g}",
        "certificate": {
            "cycle": list(cert.cycle.indices),
            "value_sq": fmt_rational(cert.value_sq),
        },
    }
    lines = [
        f"norm_sq = {fmt_rational(value)}",
        f"norm ~ {float(value) ** 0.5:.12g} (approximate display)",
        f"optimal cycle = {list(cert.cycle.indices)}",
    ]
    if args.oracle:
        oracle = james_norm_sq_oracle(x)
        obj["oracle_norm_sq"] = fmt_rational(oracle)
        obj["oracle_agrees"] = oracle == value
        lines.append(f"oracle norm_sq = {fmt_rational(oracle)}")
        if oracle != value:
            _emit(args, obj, lines)
            return 1
    _emit(args, obj, lines)
    return 0


def _cmd_uc(args: argparse.Namespace) -> int:
    basis = _basis_from_args(args)
    est = uc_lower_bound(basis, args.strategy, args.budget, args.seed)
    replay = ratio_sq(basis, est.sign_pattern, est.alpha)
    obj = est.to_json_obj()
    obj["replay_matches"] = replay == est.lower_bound_sq
    lines = [
        f"lower_bound_sq = {fmt_rational(est.lower_bound_sq)}",
        f"lower_bound ~ {float(est.lower_bound_sq) ** 0.5:.12g} (approximate display)",
        f"sign_pattern = {list(est.sign_pattern.entries)}",
        f"alpha = {[fmt_rational(a) for a in est.alpha]}",
        f"replay_matches = {replay == est.lower_bound_sq}",
    ]
    _emit(args, obj, lines)
    return 0 if replay == est.lower_bound_sq else 1


def _cmd_space(args: argparse.Namespace) -> int:
    model = build(_basis_from_args(args))
    obj = model.to_json_obj()
    obj["product_matrix"] = product_matrix(model).to_json_obj()["entries"]
    lines = [
        f"K = {model.K}",
        f"d_star_d = {fmt_rational(model.d_star_d)}",
        f"mu = {[fmt_rational(m) for m in model.mu]}",
        f"mu(Omega) = {fmt_rational(sum(model.mu))}",
    ]
    _emit(args, obj, lines)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    model = build(_basis_from_args(args))
    pm = product_matrix(model)
    if args.csv and not args.json:
        sys.stdout.write(pm.to_csv())
        return 0
    _emit(
        args,
        pm.to_json_obj(),
        pm.to_csv().rstrip("\n").split("\n"),
    )
    return 0


def _cmd_metastable(args: argparse.Namespace) -> int:
    model = build(_basis_from_args(args))
    report = hypothesis_report(model, Fraction(args.B), Fraction(args.eps))
    lines = [
        f"{'PASS' if e.passed else 'FAIL'} {e.name}" for e in report.entries
    ]
    _emit(args, report.to_json_obj(), lines)
    return 0 if report.all_passed else 1


def _cmd_fgh(args: argparse.Namespace) -> int:
    budget = EvalBudget(max_digits=args.max_digits, max_steps=args.max_steps)
    level = OMEGA if args.level in ("w", "omega") else int(args.level)
    expr = HierarchyExpr(level, args.arg)
    result = hierarchy.eval_expr(expr, budget)
    if isinstance(result, Exact):
        obj = {"expr": expr.render(), "exact": str(result.value)}
        lines = [f"{expr.render()} = {format_value(result.value)}"]
    else:
        obj = {
            "expr": expr.render(),
            "exceeds_budget": True,
            "certified_lower_bound": format_value(result.certified_lower_bound),
        }
        lines = [
            f"{expr.render()} exceeds the evaluation budget",
            f"certified lower bound {format_value(result.certified_lower_bound)}",
        ]
    _emit(args, obj, lines)
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    B = Fraction(args.B)
    t = threshold_arg(B)
    expr = HierarchyExpr(OMEGA, t)
    obj = {
        "B": fmt_rational(B),
        "threshold_argument": str(t),
        "threshold_symbolic": expr.render(),
    }
    lines = [
        f"threshold argument = {t}",
        f"K >= {expr.render()} required for the unconditionality lower bound",
    ]
    if args.eps is not None:
        tc = threshold_arg_with_eps(B, Fraction(args.eps))
        obj["eps_threshold_argument"] = str(tc)
        obj["eps_threshold_symbolic"] = HierarchyExpr(OMEGA, tc).render()
        lines.append(f"accuracy-dependent threshold argument = {tc}")
    _emit(args, obj, lines)
    return 0


def _cmd_refute(args: argparse.Namespace) -> int:
    report = run_refutation(_basis_from_args(args), Fraction(args.B))
    lines = ["product matrix:"]
    lines.extend("  " + row for row in report.matrix_csv.rstrip("\n").split("\n"))
    lines.extend(
        f"{'PASS' if e.passed else 'FAIL'} hypothesis {e.name}"
        for e in report.hypotheses.entries
    )
    lines.append(f"verdict: {report.verdict}")
    lines.append(
        f"K >= {report.threshold_symbolic} required by the unconditionality "
        f"bound for B = {fmt_rational(report.B)}"
    )
    _emit(args, report.to_json_obj(), lines)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    code, report = verify_suite(args.seed)
    lines = [f"{'PASS' if e.passed else 'FAIL'} {e.name}" for e in report.entries]
    failure = report.first_failure()
    if failure is not None:
        lines.append(f"first failing invariant: {failure.name}")
    _emit(args, report.to_json_obj(), lines)
    return code


_COMMANDS = {
    "norm": _cmd_norm,
    "uc": _cmd_uc,
    "space": _cmd_space,
    "matrix": _cmd_matrix,
    "metastable": _cmd_metastable,
    "fgh": _cmd_fgh,
    "threshold": _cmd_threshold,
    "refute": _cmd_refute,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
