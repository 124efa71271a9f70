"""Command-line front door: JSON I/O, the refutation pipeline, and the
self-verification suite.

Every number feeding a verdict is exact; decimal renderings are display
only and flagged approximate.  Identical configurations produce byte
identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from functools import cache, partial

from . import hierarchy
from .basis_tools import (
    Basis,
    _monomial_order,
    check_uc_search,
    random_invertible_basis,
    ratio_sq,
    uc_lower_bound,
    uc_sign_patterns,
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
    _pick_distinct,
    chain_stability_check,
    coordinate_chain_check,
    dual_ball_sample,
    james_norm_sq,
    james_norm_sq_oracle,
    james_norm_sq_upper_bound,
)
from .measure_space import StructureViolation, build, check_identities, product_matrix
from .metastability import (
    IndexFunction,
    BudgetExceeded,
    _check_report_arguments,
    count_fluctuations,
    find_stable_interval,
    hypothesis_report,
)
from .reporting import Report, ReportEntry
from .scalars import _decimal, ceil_inverse, ceil_sqrt_rational, fmt_rational, json_int


REFUTATION_EPS = Fraction(1, 80)


@dataclass(frozen=True)
class RefutationReport:
    K: int
    B: Fraction
    d_star_d: Fraction
    matrix_csv: str
    hypotheses: Report
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
            "conclusion_found": None,
            "verdict": self.verdict,
            "threshold_argument": _decimal(self.threshold_argument),
            "threshold_symbolic": self.threshold_symbolic,
        }


def _check_refutation_arguments(K: int, B: Fraction) -> int:
    """The argument checks of :func:`run_refutation`, in its order; returns
    threshold_arg(B)."""
    if B <= 0:
        raise ValueError("the stand-in bound must be positive")
    t_arg = threshold_arg(B)
    _check_report_arguments(K, B, REFUTATION_EPS)
    return t_arg


def run_refutation(basis: Basis, B: Fraction) -> RefutationReport:
    """Build the measure space, test the theorem's hypotheses, and show the
    conclusion is exactly impossible at epsilon = 1/80.

    The integrands f_n g_p mu are read once, from the model's prefix
    table and the basis's F * W, which the L1 norms read too; those norms
    are the only integrals.

    The conclusion needs m < s and q < l with |M[m][s] - M[l][q]| <
    20*epsilon.  The product matrix, the closed form that the basis's one
    biorthogonality check (at construction) makes exact, has M[m][s] = 0
    and M[l][q] = d*(d), and ``build`` refuses d*(d) < 1/4 = 20*epsilon,
    so the built model rules it out and nothing is searched: no basis whose
    unconditional constant is at most B satisfies the theorem at this K.
    B, then K against the atom-subset limit, are checked before building.
    """
    B = Fraction(B)
    t_arg = _check_refutation_arguments(basis.K, B)
    model = build(basis)
    hyp = hypothesis_report(model, B, REFUTATION_EPS)
    if basis.K == 0:
        verdict = (
            "degenerate: no index pairs m < s exist at K = 0, "
            "the conclusion search range is empty"
        )
    else:
        verdict = (
            f"conclusion impossible: minimum gap d*(d) = "
            f"{fmt_rational(model.d_star_d)} >= 1/4 = 20*epsilon; any basis "
            f"with unconditional constant <= {fmt_rational(B)} at "
            f"this K is refuted"
        )
    return RefutationReport(
        K=basis.K,
        B=B,
        d_star_d=model.d_star_d,
        matrix_csv=product_matrix(model).to_csv(),
        hypotheses=hyp,
        verdict=verdict,
        threshold_argument=t_arg,
        threshold_symbolic=HierarchyExpr(OMEGA, t_arg).render(),
    )


# ---------------------------------------------------------------------------
# Self-verification suite
# ---------------------------------------------------------------------------

def _check_oracle_equivalence(seed: int) -> ReportEntry:
    rng = random.Random(f"{seed}:verify-norm")
    for K in range(2, 7):
        for _ in range(12):
            den = rng.randint(1, 6)
            x = JVector(
                K, tuple(Fraction(rng.randint(-6, 6), den) for _ in range(K + 1))
            )
            got, cert = james_norm_sq(x)
            if got != james_norm_sq_oracle(x):
                return ReportEntry(
                    "oracle equivalence",
                    False,
                    details={"K": str(K), "vector": str(x.to_json_obj())},
                )
    return ReportEntry("oracle equivalence", True)


def _check_chain_lemmas(seed: int) -> list[ReportEntry]:
    rng = random.Random(f"{seed}:verify-chains")
    eps = Fraction(1, 2)
    k = 2 * ceil_inverse(eps) ** 2
    K = 40
    dual_ok = True
    for _ in range(40):
        y, _cert = dual_ball_sample(rng.randrange(2**32), K, rng.randint(0, 4))
        chain = tuple(_pick_distinct(rng, K + 1, k + 1))
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
        chain = tuple(_pick_distinct(rng, K + 1, k + 1))
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
        values = tuple(values)
        c = count_fluctuations(values, eps / 2, (0, 200))
        try:
            interval = find_stable_interval(values, eps, F, 0, max(c, 1))
        except BudgetExceeded:
            return ReportEntry("fluctuation finder completeness", False)
        # a chase from 0 anchors inside the tuple, and the repeats of the
        # last value past it add nothing to the window's spread
        window = values[interval.m : interval.end + 1]
        if max(window) - min(window) >= eps:
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


def verify_suite(seed: int) -> tuple[int, Report]:
    """Run every module's invariant suite; exit code 0 iff all pass."""
    entries = [_check_oracle_equivalence(seed)]
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


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse(path: str, parse, obj):
    """parse(obj) for the JSON read from ``path``; a file of the wrong
    shape is an input error that names it."""
    try:
        return parse(obj)
    except (KeyError, TypeError, OverflowError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _rational_option(option: str, text: str) -> Fraction:
    """Parse the value of a p/q option; a zero denominator or a text that
    is no rational number is an input error that names the option and the
    text it was given."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"{option} {text!r} has a zero denominator") from None
    except ValueError:
        raise InputError(f"{option} {text!r} is not a rational number") from None


def _level_option(text: str) -> int | str:
    """Parse ``--level``: a natural number, or 'w' (also 'omega') for omega."""
    if text in ("w", "omega"):
        return OMEGA
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise InputError(f"--level {text!r} is not a natural number or 'w'")


def _basis_source(args: argparse.Namespace):
    """(K, make): the dimension index of --canonical K or --basis FILE and
    a call that builds the basis, which inverts a (K+1) x (K+1) matrix, so
    commands check their arguments against K first.  A file's K counts only
    if the file lists K+1 columns; else make runs at once."""
    if args.canonical is not None:
        if args.canonical < 0:
            raise InputError("--canonical takes a nonnegative dimension index")
        return args.canonical, partial(Basis.canonical, args.canonical)
    if args.basis is None:
        raise InputError("provide --basis FILE or --canonical K")
    obj = _read_json(args.basis)
    K = _parse(args.basis, partial(json_int, key="K"), obj)
    make = partial(_parse, args.basis, Basis.from_json_obj, obj)
    columns = obj.get("columns")
    if not (isinstance(columns, list) and len(columns) == K + 1):
        basis = make()
        return basis.K, lambda: basis
    return K, make


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
    p.add_argument(
        "--csv", action="store_true",
        help="accepted for old command lines; the text output is already CSV",
    )

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


def _approx_sqrt(value: Fraction) -> str:
    """sqrt(value) to 12 significant digits, for display only.  A nonzero
    value that overflows a float or underflows to 0.0 is rooted in Decimal."""
    try:
        approx = float(value)
    except OverflowError:
        approx = 0.0
    if approx or not value:
        return f"{approx ** 0.5:.12g}"
    root = (Decimal(value.numerator) / Decimal(value.denominator)).sqrt()
    return f"{root.normalize(Context(prec=12)):g}"


def _cmd_norm(args: argparse.Namespace) -> int:
    x = _parse(args.input, JVector.from_json_obj, _read_json(args.input))
    oracle = james_norm_sq_oracle(x) if args.oracle else None  # refuses K > 14
    value, cert = james_norm_sq(x)
    obj = {
        "norm_sq": fmt_rational(value),
        "norm_decimal_approx": _approx_sqrt(value),
        "certificate": {
            "cycle": list(cert.cycle.indices),
            "value_sq": fmt_rational(cert.value_sq),
        },
    }
    lines = [
        f"norm_sq = {fmt_rational(value)}",
        f"norm ~ {_approx_sqrt(value)} (approximate display)",
        f"optimal cycle = {list(cert.cycle.indices)}",
    ]
    if args.oracle:
        obj["oracle_norm_sq"] = fmt_rational(oracle)
        obj["oracle_agrees"] = oracle == value
        lines.append(f"oracle norm_sq = {fmt_rational(oracle)}")
        if oracle != value:
            _emit(args, obj, lines)
            return 1
    _emit(args, obj, lines)
    return 0


def _cmd_uc(args: argparse.Namespace) -> int:
    K, make_basis = _basis_source(args)
    # --canonical K is monomial, so its exhaustive search lists no patterns
    check_uc_search(K, args.strategy, args.budget, monomial=args.canonical is not None)
    basis = make_basis()
    if args.strategy == "exhaustive" and _monomial_order(basis) is not None:
        searched = f"{K + 1} sign-change classes by decreasing bound"
        each = "per pattern"
    else:
        patterns = uc_sign_patterns(K, args.strategy, args.budget, args.seed)
        searched = f"up to {len(patterns)} sign patterns"
        each = "each"
    print(
        f"uc: searching {searched}, at most {1 + args.budget} exact replays {each}",
        file=sys.stderr,
    )
    est = uc_lower_bound(basis, args.strategy, args.budget, args.seed)
    replay = ratio_sq(basis, est.sign_pattern, est.alpha)
    obj = est.to_json_obj()
    obj["replay_matches"] = replay == est.lower_bound_sq
    lines = [
        f"lower_bound_sq = {fmt_rational(est.lower_bound_sq)}",
        f"lower_bound ~ {_approx_sqrt(est.lower_bound_sq)} (approximate display)",
        f"sign_pattern = {list(est.sign_pattern.entries)}",
        f"alpha = {[fmt_rational(a) for a in est.alpha]}",
        f"replay_matches = {replay == est.lower_bound_sq}",
    ]
    _emit(args, obj, lines)
    return 0 if replay == est.lower_bound_sq else 1


def _cmd_space(args: argparse.Namespace) -> int:
    model = build(_basis_source(args)[1]())
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
    model = build(_basis_source(args)[1]())
    pm = product_matrix(model)
    _emit(
        args,
        pm.to_json_obj(),
        pm.to_csv().rstrip("\n").split("\n"),
    )
    return 0


def _cmd_metastable(args: argparse.Namespace) -> int:
    K, make_basis = _basis_source(args)
    B, eps = _rational_option("--B", args.B), _rational_option("--eps", args.eps)
    _check_report_arguments(K, B, eps)
    report = hypothesis_report(build(make_basis()), B, eps)
    lines = [
        f"{'PASS' if e.passed else 'FAIL'} {e.name}" for e in report.entries
    ]
    _emit(args, report.to_json_obj(), lines)
    return 0 if report.all_passed else 1


def _cmd_fgh(args: argparse.Namespace) -> int:
    budget = EvalBudget(max_digits=args.max_digits, max_steps=args.max_steps)
    expr = HierarchyExpr(_level_option(args.level), args.arg)
    result = hierarchy.eval_expr(expr, budget)
    if isinstance(result, Exact):
        obj = {"expr": expr.render(), "exact": _decimal(result.value)}
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
    B = _rational_option("--B", args.B)
    t = threshold_arg(B)
    expr = HierarchyExpr(OMEGA, t)
    obj = {
        "B": fmt_rational(B),
        "threshold_argument": _decimal(t),
        "threshold_symbolic": expr.render(),
    }
    lines = [
        f"threshold argument = {_decimal(t)}",
        f"K >= {expr.render()} required for the unconditionality lower bound",
    ]
    if args.eps is not None:
        tc = threshold_arg_with_eps(B, _rational_option("--eps", args.eps))
        obj["eps_threshold_argument"] = _decimal(tc)
        obj["eps_threshold_symbolic"] = HierarchyExpr(OMEGA, tc).render()
        lines.append(f"accuracy-dependent threshold argument = {_decimal(tc)}")
    _emit(args, obj, lines)
    return 0


def _cmd_refute(args: argparse.Namespace) -> int:
    K, make_basis = _basis_source(args)
    B = _rational_option("--B", args.B)
    _check_refutation_arguments(K, B)
    report = run_refutation(make_basis(), B)
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


# parse_args leaves a parser as it found it, so one serves every call
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # quiet the interpreter's final flush as well
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2
    except (InputError, ValueError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except StructureViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
