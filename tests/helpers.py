"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from operator import mul

from jameslab.basis_tools import (
    Basis,
    DualBasis,
    SignPattern,
    SingularBasis,
    UCEstimate,
    ZeroVector,
    integer_inverse,
    modulus_functional,
    modulus_vector,
    uc_sign_patterns,
)
from jameslab.hierarchy import EvalBudget, Exact, ExceedsBudget, _DigitGate
from jameslab.james_core import (
    CertTerm,
    Cycle,
    DimensionMismatch,
    DualBallCertificate,
    DualFunctional,
    JVector,
    NormCertificateOfExcess,
    StableIndex,
    Violation,
    ViolationWitness,
    WitnessUnsound,
    _longest_cycle_table,
    canonical,
    cycle_value,
    eval_functional,
    functional_from_certificate,
    james_norm_sq,
    james_norm_sq_float,
    james_norm_sq_upper_bound,
)
from jameslab.measure_space import (
    MeasureSpaceModel,
    ProductMatrix,
    StructureViolation,
    check_identities,
    integrate,
    integrate_over,
    l1_norm,
    pi,
    pi_star,
)
from jameslab.metastability import (
    BudgetExceeded,
    FoundPair,
    IndexFunction,
    StableInterval,
    fluctuation_budget,
)
from jameslab.reporting import Report, ReportEntry
from jameslab.scalars import Root2Scalar, ceil_sqrt_rational, fmt_rational, integer_rows


def random_vector(
    rng: random.Random, K: int, max_num: int = 8, max_den: int = 6
) -> JVector:
    den = rng.randint(1, max_den)
    return JVector(
        K, tuple(Fraction(rng.randint(-max_num, max_num), den) for _ in range(K + 1))
    )


_MONOMIAL_SCALES = tuple(map(Fraction, ("1", "-1", "2", "-3", "1/2", "-2/3", "5/7")))


def monomial_basis(rng: random.Random, K: int, permuted: bool) -> tuple[list[int], Basis]:
    """(rows, basis): column i of the basis is a nonzero scale, negative or
    fractional too, in row rows[i], the identity unless permuted."""
    rows = list(range(K + 1))
    if permuted:
        rng.shuffle(rows)
    columns = tuple(
        tuple(rng.choice(_MONOMIAL_SCALES) if j == rows[i] else Fraction(0) for j in range(K + 1))
        for i in range(K + 1)
    )
    return rows, Basis(K, columns)


def every_start_cycle_table(vals: list) -> tuple:
    """The norm DP's (best, first best start, table), running every start
    and relaxing over every later index: the reference for the start
    skipping and the value relaxation of ``_longest_cycle_table``."""
    T = len(vals)
    best, best_a, best_g = 0, 0, []
    for a in range(T):
        g = [0] * T
        for i in range(T - 1, a - 1, -1):
            ds = [vals[i] - vals[a]] + [vals[i] - vals[j] for j in range(i + 1, T)]
            ws = [0] + g[i + 1 :]
            g[i] = max(d * d + w for d, w in zip(ds, ws))
        if g[a] > best:
            best, best_a, best_g = g[a], a, g
    return best, best_a, best_g


def reference_turning_points(vals: list) -> list:
    """``_turning_points`` reading the last two kept values back from the
    list it builds."""
    out = [vals[0]]
    for v in vals[1:]:
        last = out[-1]
        if v == last:
            continue
        if len(out) > 1 and (out[-2] < last) == (last < v):
            out[-1] = v
        else:
            out.append(v)
    return out


def reference_cycle_sum_max(vals: list) -> int | float:
    """``cycle_sum_max`` before one start sufficed: one start per distinct
    value of the turning points, in index order, each g[i] relaxed over
    every later index j, by index into the points and the table, from
    j = i + 1 up."""
    points = reference_turning_points(vals)
    T = len(points)
    first_of = {}
    for a, v in enumerate(points):
        first_of.setdefault(v, a)
    best = 0
    for a in first_of.values():
        base = points[a]
        g = [0] * T
        for i in range(T - 1, a - 1, -1):
            vi = points[i]
            d0 = vi - base
            bi = d0 * d0
            for j in range(i + 1, T):
                d = vi - points[j]
                v = d * d + g[j]
                if v > bi:
                    bi = v
            g[i] = bi
        if bi > best:
            best = bi
    return best


def reference_chain_stability_check(
    y: DualFunctional, eps: Fraction, chain: tuple[int, ...]
) -> StableIndex | Violation:
    """``chain_stability_check`` on every prefix value: y(d_n) for all
    n = 0..K first, then the gaps along the chain."""
    prefix = []
    acc = Root2Scalar.zero()
    for c in y.coeffs:
        acc = acc + c
        prefix.append(acc)
    vals = [prefix[min(n, y.K)] for n in chain]
    gaps = []
    for i in range(len(chain) - 1):
        gap = abs(vals[i] - vals[i + 1])
        if gap < eps:
            return StableIndex(i)
        gaps.append(gap)
    return Violation(tuple(gaps))


def reference_chain_values(y: DualFunctional, chain: tuple[int, ...]) -> list[Root2Scalar]:
    """y(d_n) for each n of the chain, as running Root2Scalar sums of the
    coefficients (y(d_n) = y(d_K) for n > K): ``_chain_values`` before
    its integer forms."""
    out = []
    acc = Root2Scalar.zero()
    done = 0
    for n in chain:
        stop = min(n, y.K) + 1
        for c in y.coeffs[done:stop]:
            acc = acc + c
        done = stop
        out.append(acc)
    return out


def reference_eval_functional(y: DualFunctional, x: JVector) -> Root2Scalar:
    """``eval_functional`` as one Fraction sum per part, term by term."""
    if y.K != x.K:
        raise DimensionMismatch((y.K, x.K))
    a = Fraction(0)
    b = Fraction(0)
    for c, v in zip(y.coeffs, x.coeffs):
        a += c.a * v
        b += c.b * v
    return Root2Scalar(a, b)


def reference_violation_to_witness(
    y: DualFunctional, eps: Fraction, chain: tuple[int, ...]
) -> ViolationWitness:
    """``violation_to_witness`` on Root2Scalar chain values: the majority
    direction, xhat as a sum of d-differences, y(xhat) by
    :func:`reference_eval_functional` and the norm by
    :func:`every_start_cycle_table`.  The precondition checks are left
    out."""
    vals = reference_chain_values(y, chain)
    k = len(chain) - 1
    side_gt = tuple(i for i in range(k) if vals[i] > vals[i + 1])
    side_lt = tuple(i for i in range(k) if vals[i] < vals[i + 1])
    if len(side_gt) >= len(side_lt):
        side, label = side_gt, "I>"
    else:
        side, label = side_lt, "I<"
    coeffs = [Fraction(0)] * (y.K + 1)
    for i in side:
        for j in range(chain[i] + 1, min(chain[i + 1], y.K) + 1):
            coeffs[j] += 1
    xhat = JVector(y.K, tuple(coeffs))
    lhs_sq = reference_eval_functional(y, xhat).square()
    den, (nums,) = integer_rows([xhat.coeffs])
    rhs_sq = Fraction(every_start_cycle_table([*nums, 0])[0], 2 * den * den)
    if not lhs_sq > Root2Scalar(rhs_sq):
        raise WitnessUnsound(f"witness inequality failed: {lhs_sq} <= {rhs_sq}")
    return ViolationWitness(xhat, side, label, lhs_sq, rhs_sq)


def reference_coordinate_chain_check(
    x: JVector, eps: Fraction, chain: tuple[int, ...]
) -> StableIndex | NormCertificateOfExcess:
    """``coordinate_chain_check`` on Fraction gaps of every chain step."""
    coords = [x.coord(p) for p in chain]
    gaps = []
    for i in range(len(chain) - 1):
        gap = abs(coords[i] - coords[i + 1])
        if gap < eps:
            return StableIndex(i)
        gaps.append(gap)
    cyc = Cycle(tuple(chain))
    return NormCertificateOfExcess(cyc, cycle_value(x, cyc), tuple(gaps))


def random_chain(rng: random.Random, top: int, length: int) -> tuple[int, ...]:
    """Strictly increasing indices drawn from 0..top."""
    chosen: set[int] = set()
    while len(chosen) < length:
        chosen.add(rng.randrange(top + 1))
    return tuple(sorted(chosen))


def rescale_into_unit_ball(x: JVector) -> JVector:
    """Divide by an integer exceeding the certified norm bound."""
    bound = james_norm_sq_upper_bound(x)
    if bound <= 1:
        return x
    return x.scale(Fraction(1, ceil_sqrt_rational(bound)))


def planted_violator(
    chain: tuple[int, ...], eps: Fraction
) -> tuple[DualFunctional, DualBallCertificate, Fraction]:
    """Dual-ball certificate whose chain gaps all equal sqrt(2)/t, scaled
    by the integer t > 1 so every gap becomes sqrt(2) >= eps.

    Returns (scaled functional, unscaled certificate, scale factor).
    """
    m = len(chain)
    t = ceil_sqrt_rational(Fraction(m))
    u = tuple(Fraction((-1) ** i, t) for i in range(m))
    cert = DualBallCertificate((CertTerm(Fraction(1), Cycle(tuple(chain)), u),))
    y0 = functional_from_certificate(cert, max(chain))
    scale = Fraction(t)
    return y0.scale(scale), cert, scale


def zigzag_functional(k: int, gap: Fraction) -> DualFunctional:
    """Rational functional whose values on d_0..d_k zigzag by exactly gap."""
    coeffs = [Fraction(0)]
    for i in range(k):
        coeffs.append(gap if i % 2 == 0 else -gap)
    return DualFunctional.from_rationals(k, tuple(coeffs))


def reference_stable_interval(
    values: tuple, eps: Fraction, F: IndexFunction, n: int, budget: int
) -> StableInterval:
    """The deviation chase of ``find_stable_interval`` in plain Fractions,
    as its definition reads: the sequence is constant past its last
    value, the window at m is [m, max(F(0..m) + [m])], and the chase
    re-anchors at the least j in it with |s(j) - s(m)| >= eps/2.  Raises
    ``BudgetExceeded(budget, m)`` with the anchor it stopped at."""
    eps = Fraction(eps)
    half = eps / 2

    def s(j: int) -> Fraction:
        return Fraction(values[min(j, len(values) - 1)])

    m = n
    for used in range(budget + 1):
        top = max([F(i) for i in range(m + 1)] + [m])
        anchor = s(m)
        deviation = next(
            (j for j in range(m + 1, top + 1) if abs(s(j) - anchor) >= half), None
        )
        if deviation is None:
            return StableInterval(m=m, end=top, fluctuations_used=used)
        m = deviation
    raise BudgetExceeded(budget, m)


def reference_fluctuation_details(
    model: MeasureSpaceModel,
    B_hat: Fraction,
    eps: Fraction,
    F: IndexFunction,
    mode: str,
    sigma_family: list[tuple[int, ...]],
) -> dict[str, str]:
    """Details dict of ``fluctuation_harness``, computed the slow way: each
    sequence entry integrates a product of fs and gs values over sigma in
    Fractions, and :func:`reference_stable_interval` chases it at
    accuracy eps itself."""
    budget = fluctuation_budget(B_hat, eps)
    fs, gs = model.fs, model.gs
    failures: dict[str, str] = {}
    runs = 0
    max_used = 0
    worst_interval = ""
    for sigma in sigma_family:
        for fixed in range(model.K + 1):
            if mode == "fix_p":
                vals = [integrate_over(model, times(fn, gs[fixed]), sigma) for fn in fs]
            else:
                vals = [integrate_over(model, times(fs[fixed], gp), sigma) for gp in gs]
                vals.append(Fraction(0))
            runs += 1
            try:
                interval = reference_stable_interval(tuple(vals), eps, F, 0, budget)
                if interval.fluctuations_used >= max_used:
                    max_used = interval.fluctuations_used
                    worst_interval = (
                        f"sigma={sigma} fixed={fixed} "
                        f"[{interval.m}, {interval.end}] used={max_used}"
                    )
            except BudgetExceeded as exc:
                failures[f"sigma_{sigma}_fixed_{fixed}"] = str(exc)
    return {
        "runs": str(runs),
        "budget": str(budget),
        "max_fluctuations_used": str(max_used),
        "witness_interval": worst_interval,
        **failures,
    }


def reference_hypothesis_report(
    model: MeasureSpaceModel,
    B_hat: Fraction,
    eps: Fraction,
    budget: int | None = None,
) -> Report:
    """``hypothesis_report`` with every product sequence chased under both
    index functions: the L1 norms integrated in Fractions, the small-set
    clauses from :func:`reference_small_set_breaches`, and each sequence
    summed over an atom subset from :func:`reference_atom_products` and
    chased at accuracy eps itself by :func:`reference_stable_interval`.
    ``budget`` replaces the fluctuation budget of (B_hat, eps) when given."""
    B_hat, eps = Fraction(B_hat), Fraction(eps)
    K = model.K
    if budget is None:
        budget = fluctuation_budget(B_hat, eps)
    entries = []
    families = (("f", model.fs), ("g", model.gs))
    for name, hs in families:
        norms = [integrate(model, tuple(map(abs, h))) for h in hs]
        entries.append(
            ReportEntry(
                f"l1_bound_{name}",
                all(v <= B_hat for v in norms),
                details={f"{name}_{n}": fmt_rational(v) for n, v in enumerate(norms)},
            )
        )
    sigmas = reference_atom_subsets(K)
    for name, hs in families:
        breaches = reference_small_set_breaches(model, hs, B_hat, eps, sigmas)
        entries.append(ReportEntry(f"small_set_continuity_{name}", not breaches))

    A = reference_atom_products(model)
    tables = [
        [[sum((A[i][n][p] for i in sigma), Fraction(0)) for p in range(K + 1)]
         for n in range(K + 1)]
        for sigma in sigmas
    ]
    index_functions = (
        IndexFunction.from_callable(lambda n: n + 1, 4 * K + 8),
        IndexFunction.from_callable(lambda n: 2 * n + 1, 4 * K + 8),
    )

    def fails(values: tuple, F: IndexFunction) -> bool:
        try:
            reference_stable_interval(values, eps, F, 0, budget)
        except BudgetExceeded:
            return True
        return False

    for mode in ("fix_p", "fix_n"):
        if mode == "fix_p":
            sequences = {tuple(col) for table in tables for col in zip(*table)}
        else:
            sequences = {(*row, Fraction(0)) for table in tables for row in table}
        passed = [
            not any(fails(values, F) for values in sequences) for F in index_functions
        ]
        entries.append(
            ReportEntry(
                f"bounded_fluctuations_{mode}",
                all(passed),
                details={
                    f"index_function_{fi}": "pass" if ok else "fail"
                    for fi, ok in enumerate(passed)
                },
            )
        )
    return Report(tuple(entries))


def reference_atom_products(
    model: MeasureSpaceModel,
) -> list[list[list[Fraction]]]:
    """A[i][n][p] = f_n(w_i) * g_p(w_i) * mu({w_i}) in Fractions, from the
    values of fs and gs: d*(d) * U[i][n] * (F * W)[p][i] / (E * F) with the
    model's prefix table (E, U) and the basis's ``int_columns``."""
    return [
        [[fn[i] * gp[i] * mu for gp in model.gs] for fn in model.fs]
        for i, mu in enumerate(model.mu)
    ]


def count_prefix_table_builds(monkeypatch) -> list[MeasureSpaceModel]:
    """Record each model whose ``prefix_table`` is built from now on."""
    builds: list[MeasureSpaceModel] = []
    real = MeasureSpaceModel.prefix_table.func

    def counting(model: MeasureSpaceModel):
        builds.append(model)
        return real(model)

    prop = cached_property(counting)
    prop.__set_name__(MeasureSpaceModel, "prefix_table")
    monkeypatch.setattr(MeasureSpaceModel, "prefix_table", prop)
    return builds


def reference_product_matrix(model: MeasureSpaceModel) -> ProductMatrix:
    """``product_matrix`` the long way: each product f_n * g_p
    integrated over all atoms in Fractions, the triangular structure
    checked row-major; the first wrong entry raises ``StructureViolation``."""
    entries = []
    for n, fn in enumerate(model.fs):
        row = []
        for p, gp in enumerate(model.gs):
            v = integrate(model, times(fn, gp))
            expected = model.d_star_d if p <= n else Fraction(0)
            if v != expected:
                raise StructureViolation(f"M[{n}][{p}] = {v}, expected {expected}")
            row.append(v)
        entries.append(tuple(row))
    return ProductMatrix(tuple(entries), model.d_star_d)


def reference_conclusion_search(
    model: MeasureSpaceModel, eps: Fraction
) -> FoundPair | None:
    """``conclusion_search`` by scanning every m < s and q < l of
    :func:`reference_product_matrix` in lexicographic order."""
    M = reference_product_matrix(model).entries
    K = model.K
    threshold = 20 * Fraction(eps)
    for m in range(K + 1):
        for s in range(m + 1, K + 1):
            for q in range(K + 1):
                for l in range(q + 1, K + 1):
                    gap = abs(M[m][s] - M[l][q])
                    if gap < threshold:
                        return FoundPair(m=m, s=s, q=q, l=l, gap=gap)
    return None


def reference_fgh_eval(
    m: int, n: int, budget: EvalBudget | None = None
) -> Exact | ExceedsBudget:
    """``fgh_eval`` with its earlier frame loop: a level-1 branch, the
    digit gate also after each pop, and the breach bound taken as the
    largest accumulator on the stack.  Levels 0 and 1 are the gated
    closed forms, n+1 and 2n."""
    if m < 0 or n < 0:
        raise ValueError("hierarchy arguments must be nonnegative")
    budget = budget or EvalBudget()
    gate = _DigitGate(budget.max_digits)
    steps = 0

    def breach_bound(frames: list[list[int]], fallback: int) -> int:
        best = fallback
        for frame in frames:
            if frame[2] > best:
                best = frame[2]
        return best

    if m == 0:
        return ExceedsBudget(n + 1) if gate.exceeds(n + 1) else Exact(n + 1)
    if m == 1:
        return ExceedsBudget(2 * n) if gate.exceeds(2 * n) else Exact(2 * n)

    # frame = [level, iterations_left, accumulator]: f_{level-1}^{left}(acc)
    frames: list[list[int]] = [[m, n, n]]
    while True:
        level, left, acc = frames[-1]
        if left == 0:
            frames.pop()
            if not frames:
                return Exact(acc)
            parent = frames[-1]
            parent[2] = acc
            parent[1] -= 1
            if gate.exceeds(acc):
                return ExceedsBudget(breach_bound(frames, acc))
            continue
        steps += 1
        if steps > budget.max_steps:
            return ExceedsBudget(breach_bound(frames, acc))
        if level - 1 == 0:
            value = acc + 1
        elif level - 1 == 1:
            value = 2 * acc
        else:
            frames.append([level - 1, acc, acc])
            continue
        frames[-1][2] = value
        frames[-1][1] = left - 1
        if gate.exceeds(value):
            return ExceedsBudget(breach_bound(frames, value))


def reference_atom_subsets(K: int) -> list[tuple[int, ...]]:
    """``atom_subsets`` by testing each bit of each mask, below any limit."""
    return [
        tuple(i for i in range(K + 1) if mask & (1 << i))
        for mask in range(2 ** (K + 1))
    ]


def fraction_free_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """``integer_inverse`` on the integer form of a square rational
    matrix, as Fractions."""
    E, inverse = integer_inverse(*integer_rows(rows))
    return [[Fraction(v, E) for v in row] for row in inverse]


def gauss_jordan_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Rational Gauss-Jordan, pivoting on the first nonzero entry: the
    reference for the fraction-free ``integer_inverse``."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularBasis(f"no pivot in column {col}")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        inv[col] = [v / p for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


def reference_coords_of(dual: DualBasis, x: JVector) -> tuple[Fraction, ...]:
    """``DualBasis.coords_of`` as a sum of Fraction products over the rows
    of W^-1."""
    if x.K != dual.K:
        raise DimensionMismatch((x.K, dual.K))
    return tuple(
        sum((r * c for r, c in zip(row, x.coeffs)), Fraction(0)) for row in dual.rows
    )


def reference_combine(basis: Basis, alpha: tuple[Fraction, ...]) -> JVector:
    """``Basis.combine`` as a sum of Fraction multiples of the columns."""
    if len(alpha) != basis.K + 1:
        raise DimensionMismatch("one coefficient per basis vector required")
    coeffs = [Fraction(0)] * (basis.K + 1)
    for i, a in enumerate(alpha):
        if a == 0:
            continue
        col = basis.columns[i]
        for j in range(basis.K + 1):
            coeffs[j] += a * col[j]
    return JVector(basis.K, tuple(coeffs))


def reference_functional_values(
    basis: Basis, x_star: DualFunctional
) -> tuple[Root2Scalar, ...]:
    """``Basis.functional_values``: x* evaluated on each basis vector."""
    return tuple(
        eval_functional(x_star, basis.vector(i)) for i in range(basis.K + 1)
    )


def reference_dual_norm_lower_bound(
    y: DualFunctional, budget: int
) -> tuple[Fraction, JVector]:
    """``dual_norm_lower_bound`` with its own ascent loop: every sweep of
    all four runs, the best objective re-evaluated at each coordinate, a
    move kept when it beats it at all, and witness norms from the
    certificate DP."""
    K = y.K
    if y.is_zero():
        return Fraction(0), JVector.zero(K)
    best_lb, best_w = Fraction(0), JVector.zero(K)

    def consider(w: JVector) -> None:
        nonlocal best_lb, best_w
        if w.is_zero():
            return
        val_sq = eval_functional(y, w).square()
        lb = val_sq.rational_lower_bound() / james_norm_sq(w)[0]
        if lb > best_lb:
            best_lb, best_w = lb, w

    def ratio(coords: list[float]) -> float:
        n = james_norm_sq_float(coords)
        if n <= 0:
            return 0.0
        val = sum(a * b for a, b in zip(yf, coords))
        return val * val / n

    for i in range(K + 1):
        consider(canonical("e", i, K))
    yf = [c.to_float() for c in y.coeffs]
    rng = random.Random(0xD0A1)
    for _ in range(budget):
        coords = [rng.uniform(-1.0, 1.0) for _ in range(K + 1)]
        for _sweep in range(4):
            for i in range(K + 1):
                base = coords[i]
                best_obj = ratio(coords)
                for delta in (-0.5, -0.1, 0.1, 0.5):
                    coords[i] = base + delta
                    obj = ratio(coords)
                    if obj > best_obj:
                        best_obj = obj
                        base = coords[i]
                coords[i] = base
        consider(JVector(K, tuple(Fraction(c).limit_denominator(1000) for c in coords)))
    return best_lb, best_w


def reference_modulus_functional(
    basis: Basis, x_star: DualFunctional
) -> DualFunctional:
    """|x*| as a sum of the scaled dual functionals |x*(w_i)| g*_i, added
    in Q(sqrt(2)) arithmetic."""
    acc = DualFunctional.zero(basis.K)
    for i in range(basis.K + 1):
        v = abs(eval_functional(x_star, basis.vector(i)))
        if v == Root2Scalar.zero():
            continue
        acc = acc + basis.dual.functional(i).scale(v)
    return acc


def reference_build(basis: Basis) -> MeasureSpaceModel:
    """The measure space built the long way, from the moduli |d_j| and
    |e*_j|: d and d* as weighted sums of them, d*(d) and the atom values
    by evaluating functionals, with every check of ``build``.  Coordinates
    and combinations come from the Fraction oracles, not the basis maps."""
    K = basis.K
    d_moduli = []
    for j in range(K + 1):
        coords = reference_coords_of(basis.dual, canonical("d", j, K))
        d_moduli.append(reference_combine(basis, tuple(map(abs, coords))))
    d = JVector.zero(K)
    for j, m in enumerate(d_moduli):
        d = d + m.scale(Fraction(1, 2 ** (j + 1)))

    e_star_moduli = [
        reference_modulus_functional(basis, canonical("e_star", j, K))
        for j in range(K + 1)
    ]
    d_star = DualFunctional.zero(K)
    for j, m in enumerate(e_star_moduli):
        d_star = d_star + m.scale(Fraction(1, 2 ** (j + 1)))
    if not d_star.has_rational_coeffs:
        raise StructureViolation("d* must have rational coefficients")

    d_star_d = eval_functional(d_star, d).rational()

    double_sum = Fraction(0)
    for j in range(K + 1):
        for jp in range(K + 1):
            pairing = eval_functional(e_star_moduli[j], d_moduli[jp]).rational()
            double_sum += Fraction(1, 2 ** (j + jp + 2)) * pairing
    if double_sum != d_star_d:
        raise StructureViolation("d*(d) does not match its double-sum expansion")
    if d_star_d < Fraction(1, 4):
        raise StructureViolation(f"d*(d) = {d_star_d} < 1/4")

    gamma_d = reference_coords_of(basis.dual, d)
    d_star_atoms = tuple(
        eval_functional(d_star, basis.vector(i)).rational() for i in range(K + 1)
    )
    for i in range(K + 1):
        if gamma_d[i] == 0 or d_star_atoms[i] == 0:
            raise StructureViolation(f"atom {i} has zero weight ingredient")

    mu = tuple(gamma_d[i] / d_star_d * d_star_atoms[i] for i in range(K + 1))
    if any(m <= 0 for m in mu):
        raise StructureViolation("nonpositive atom weight")
    if sum(mu, Fraction(0)) != 1:
        raise StructureViolation("mu(Omega) != 1")

    return MeasureSpaceModel(
        basis=basis,
        d=d,
        d_star=d_star,
        d_star_d=d_star_d,
        mu=mu,
        gamma_d=gamma_d,
        d_star_atoms=d_star_atoms,
    )


def times(h: tuple, k: tuple) -> tuple:
    """The product of two functions on the atoms, value by value."""
    assert len(h) == len(k)
    return tuple(map(mul, h, k))


def mu_of(model: MeasureSpaceModel, sigma: tuple[int, ...]) -> Fraction:
    """mu(sigma): the atom weights summed in Fractions."""
    return sum((model.mu[i] for i in sigma), Fraction(0))


def reference_small_set_breaches(
    model: MeasureSpaceModel,
    hs: tuple,
    bound: Fraction,
    eps: Fraction,
    sigmas: list[tuple[int, ...]],
) -> list[tuple[tuple[int, ...], int]]:
    """The (sigma, n) pairs of ``small_set_breaches``, sigma-major, with mu
    and the integrals summed in Fractions."""
    out = []
    for sigma in sigmas:
        m = mu_of(model, sigma)
        for n, h in enumerate(hs):
            h_abs = tuple(map(abs, h))
            if m < eps / (bound * 2**n) and integrate_over(model, h_abs, sigma) >= eps:
                out.append((sigma, n))
    return out


def reference_check_identities(
    model: MeasureSpaceModel, sample_count: int, seed: int
) -> Report:
    """``check_identities`` with its sample clauses in Fractions: each
    sample a ``JVector`` and a ``DualFunctional`` from the same draws,
    embedded by ``pi`` and ``pi_star``, integrated by ``integrate`` and
    ``l1_norm``, against Fraction dot products with x*(x) d*(d),
    ``modulus_vector`` paired with d* and ``modulus_functional`` paired
    with d.  The small-set entry is the one ``check_identities`` gives with
    no samples; :func:`reference_small_set_breaches` is its oracle."""
    K = model.K
    rng = random.Random(f"{seed}:identities")
    d_star = model.d_star.rational_coeffs()

    def dot(u: tuple, v: tuple) -> Fraction:
        return sum(map(mul, u, v), Fraction(0))

    fails: tuple[dict, dict, dict] = ({}, {}, {})
    for s in range(sample_count):
        x = random_vector(rng, K)
        x_star = DualFunctional.from_rationals(K, random_vector(rng, K).coeffs)
        px, px_star = pi(model, x), pi_star(model, x_star)
        lhs = integrate(model, times(px_star, px))
        rhs = dot(x_star.rational_coeffs(), x.coeffs) * model.d_star_d
        if lhs != rhs:
            fails[0][f"sample_{s}"] = f"{lhs} != {rhs}"
        if l1_norm(model, px) != dot(d_star, modulus_vector(model.basis, x).coeffs):
            fails[1][f"sample_{s}"] = "mismatch"
        mod_star = modulus_functional(model.basis, x_star).rational_coeffs()
        if l1_norm(model, px_star) != dot(mod_star, model.d.coeffs):
            fails[2][f"sample_{s}"] = "mismatch"
    names = ("pairing_identity", "pi_l1_identity", "pi_star_l1_identity")
    small_set = check_identities(model, 0, seed).entries[-1]
    return Report(
        tuple(ReportEntry(n, not f, details=f) for n, f in zip(names, fails))
        + (small_set,)
    )


def full_float_norm_sq(coords: list[float]) -> float:
    """The float norm DP on every coordinate, with no turning-point pass."""
    return _longest_cycle_table(list(coords) + [0.0])[0] / 2.0


def reference_ratio_sq(
    basis: Basis, eps: SignPattern, alpha: tuple[Fraction, ...]
) -> Fraction:
    """``ratio_sq`` in Fractions: both combinations through
    :func:`reference_combine` and both norms from the certificate DP."""
    if len(eps.entries) != basis.K + 1 or len(alpha) != basis.K + 1:
        raise DimensionMismatch("sign pattern and alpha must match the basis")
    base = reference_combine(basis, tuple(alpha))
    if base.is_zero():
        raise ZeroVector("denominator combination is zero")
    flipped = reference_combine(basis, tuple(e * a for e, a in zip(eps.entries, alpha)))
    num, _ = james_norm_sq(flipped)
    den, _ = james_norm_sq(base)
    return num / den


def dense_combine(cols_float: list[list[float]], scales: list[float]) -> list[float]:
    """sum_i scales_i * col_i in floats, over ascending i, every column
    entry added, zeros included."""
    out = [0.0] * len(cols_float)
    for s, col in zip(scales, cols_float):
        for j, c in enumerate(col):
            out[j] += s * c
    return out


def reference_ascend_alpha(
    cols_float: list[list[float]], eps: tuple[int, ...], alpha: list[float]
) -> list[float]:
    """``_ascend_alpha`` with dense combinations (:func:`dense_combine`)
    and the float norm on every coordinate."""
    K = len(alpha) - 1

    def objective(a: list[float]) -> float:
        den = full_float_norm_sq(dense_combine(cols_float, a))
        if den <= 1e-12:
            return 0.0
        flipped = dense_combine(cols_float, [e * v for e, v in zip(eps, a)])
        return full_float_norm_sq(flipped) / den

    best = objective(alpha)
    for _sweep in range(4):
        improved = False
        for i in range(K + 1):
            base = alpha[i]
            for delta in (-0.6, -0.15, 0.15, 0.6):
                alpha[i] = base + delta
                obj = objective(alpha)
                if obj > best * (1 + 1e-12):
                    best = obj
                    base = alpha[i]
                    improved = True
            alpha[i] = base
        if not improved:
            break
    return alpha


def reference_uc_lower_bound(
    basis: Basis, strategy: str, budget: int, seed: int
) -> UCEstimate:
    """``uc_lower_bound`` with :func:`reference_ascend_alpha` for the search
    and :func:`reference_ratio_sq` for the exact replays."""
    K = basis.K
    patterns = uc_sign_patterns(K, strategy, budget, seed)
    ones = SignPattern((1,) * (K + 1))
    alpha0 = (Fraction(1),) + (Fraction(0),) * K
    best = UCEstimate(reference_ratio_sq(basis, ones, alpha0), ones, alpha0)
    cols_float = [[float(v) for v in col] for col in basis.columns]
    for p_index, entries in enumerate(patterns):
        eps = SignPattern(entries)
        candidates = [(Fraction(1),) * (K + 1)]
        for restart in range(budget):
            rng = random.Random(f"{seed}:{p_index}:{restart}")
            start = [rng.uniform(-1.0, 1.0) for _ in range(K + 1)]
            tuned = reference_ascend_alpha(cols_float, entries, start)
            candidates.append(
                tuple(Fraction(v).limit_denominator(10**6) for v in tuned)
            )
        for alpha in candidates:
            try:
                r = reference_ratio_sq(basis, eps, alpha)
            except ZeroVector:
                continue
            if r > best.lower_bound_sq:
                best = UCEstimate(r, eps, alpha)
    return best
