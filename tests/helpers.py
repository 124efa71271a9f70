"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from jameslab.james_core import (
    CertTerm,
    Cycle,
    DualBallCertificate,
    DualFunctional,
    JVector,
    functional_from_certificate,
    james_norm_sq_upper_bound,
)
from jameslab.measure_space import MeasureSpaceModel, integrate_over
from jameslab.metastability import (
    BudgetExceeded,
    IndexFunction,
    SequenceOracle,
    find_stable_interval,
    fluctuation_budget,
)
from jameslab.scalars import ceil_sqrt_rational


def random_vector(
    rng: random.Random, K: int, max_num: int = 8, max_den: int = 6
) -> JVector:
    den = rng.randint(1, max_den)
    return JVector(
        K, tuple(Fraction(rng.randint(-max_num, max_num), den) for _ in range(K + 1))
    )


def every_start_cycle_table(vals: list) -> tuple:
    """The norm DP's (best, first best start, table), running every start:
    the reference for the start skipping of ``_longest_cycle_table``."""
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


def reference_fluctuation_details(
    model: MeasureSpaceModel,
    B_hat: Fraction,
    eps: Fraction,
    F: IndexFunction,
    mode: str,
    sigma_family: list[tuple[int, ...]],
) -> dict[str, str]:
    """Details dict of ``fluctuation_harness``, computed the slow way: each
    sequence entry integrates a StepFunction product over sigma in
    Fractions, and the finder runs at accuracy eps itself."""
    budget = fluctuation_budget(B_hat, eps)
    fs, gs = model.fs, model.gs
    failures: dict[str, str] = {}
    runs = 0
    max_used = 0
    worst_interval = ""
    for sigma in sigma_family:
        for fixed in range(model.K + 1):
            if mode == "fix_p":
                vals = [integrate_over(model, fn * gs[fixed], sigma) for fn in fs]
            else:
                vals = [integrate_over(model, fs[fixed] * gp, sigma) for gp in gs]
                vals.append(Fraction(0))
            runs += 1
            try:
                interval = find_stable_interval(
                    SequenceOracle(tuple(vals)), eps, F, 0, budget
                )
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
