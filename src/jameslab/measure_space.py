"""Atomic probability space attached to a basis of J_K.

Atoms are the basis vectors w_i.  The canonical element d mixes the
moduli of the d_j with weights 2^{-j-1}, the canonical functional d*
does the same with the |e*_j|, and the weights mu({w_i}) are chosen so
that the step-function embeddings of vectors and functionals pair as
integral(pi*(x*) pi(x)) = x*(x) d*(d), exactly.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .basis_tools import Basis, DualBasis, dual_basis, modulus_functional, modulus_vector
from .james_core import (
    DimensionMismatch,
    DualFunctional,
    JVector,
    canonical,
    eval_functional,
)
from .reporting import Report, ReportEntry
from .scalars import fmt_rational

SIGMA_ENUMERATION_MAX_DIMENSION = 16


class DegenerateAtom(ValueError):
    pass


class StructureViolation(AssertionError):
    """An identity that holds for every invertible basis failed; this
    signals an implementation bug, not a mathematical possibility."""


class IrrationalAtomValue(ValueError):
    pass


@dataclass(frozen=True)
class StepFunction:
    """Function on the atoms w_0..w_K, one rational value per atom."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def __mul__(self, other: StepFunction) -> StepFunction:
        if len(self.values) != len(other.values):
            raise DimensionMismatch((len(self.values), len(other.values)))
        return StepFunction(tuple(a * b for a, b in zip(self.values, other.values)))

    def abs(self) -> StepFunction:
        return StepFunction(tuple(abs(v) for v in self.values))

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class MeasureSpaceModel:
    basis: Basis
    dual: DualBasis
    d: JVector
    d_star: DualFunctional
    d_star_d: Fraction
    mu: tuple[Fraction, ...]
    gamma_d: tuple[Fraction, ...]      # g*_i(d), all positive
    d_star_atoms: tuple[Fraction, ...]  # d*(w_i), all positive

    @property
    def K(self) -> int:
        return self.basis.K

    def f(self, n: int) -> StepFunction:
        """Embedded d_n; constant in n beyond the top index."""
        return pi(self, canonical("d", min(n, self.K), self.K))

    def g(self, p: int) -> StepFunction:
        """Embedded e*_p; identically zero once p exceeds the top index."""
        if p > self.K:
            return StepFunction((Fraction(0),) * (self.K + 1))
        return pi_star(self, canonical("e_star", p, self.K))

    def to_json_obj(self) -> dict:
        return {
            "K": self.K,
            "mu": [fmt_rational(m) for m in self.mu],
            "d": self.d.to_json_obj(),
            "d_star": self.d_star.to_json_obj(),
            "d_star_d": fmt_rational(self.d_star_d),
        }


def build(basis: Basis) -> MeasureSpaceModel:
    """Construct the measure space for a basis, verifying its invariants.

    mu({w_i}) = g*_i(d)/d*(d) * d*(w_i).  Before returning, checks exactly
    that mu is a probability measure, that d*(d) >= 1/4, and that d*(d)
    agrees with its expansion as the weighted double sum of |e*_j|(|d_j'|).
    """
    K = basis.K
    dual = dual_basis(basis)

    d_moduli = [
        modulus_vector(basis, canonical("d", j, K), dual) for j in range(K + 1)
    ]
    d = JVector.zero(K)
    for j, m in enumerate(d_moduli):
        d = d + m.scale(Fraction(1, 2 ** (j + 1)))

    e_star_moduli = [
        modulus_functional(basis, canonical("e_star", j, K), dual)
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

    gamma_d = dual.coords_of(d)
    d_star_atoms = tuple(
        eval_functional(d_star, basis.vector(i)).rational() for i in range(K + 1)
    )
    for i in range(K + 1):
        if gamma_d[i] == 0 or d_star_atoms[i] == 0:
            raise DegenerateAtom(f"atom {i} has zero weight ingredient")

    mu = tuple(
        gamma_d[i] / d_star_d * d_star_atoms[i] for i in range(K + 1)
    )
    if any(m <= 0 for m in mu):
        raise DegenerateAtom("nonpositive atom weight")
    if sum(mu, Fraction(0)) != 1:
        raise StructureViolation("mu(Omega) != 1")

    return MeasureSpaceModel(
        basis=basis,
        dual=dual,
        d=d,
        d_star=d_star,
        d_star_d=d_star_d,
        mu=mu,
        gamma_d=gamma_d,
        d_star_atoms=d_star_atoms,
    )


def pi(model: MeasureSpaceModel, x: JVector) -> StepFunction:
    """Embed a vector: value d*(d)/g*_i(d) * g*_i(x) at atom i."""
    if x.K != model.K:
        raise DimensionMismatch((x.K, model.K))
    coords = model.dual.coords_of(x)
    return StepFunction(
        tuple(
            model.d_star_d / model.gamma_d[i] * coords[i] for i in range(model.K + 1)
        )
    )


def pi_star(model: MeasureSpaceModel, x_star: DualFunctional) -> StepFunction:
    """Embed a functional: value d*(d)/d*(w_i) * x*(w_i) at atom i.

    Requires the functional to take rational values on every atom.
    """
    if x_star.K != model.K:
        raise DimensionMismatch((x_star.K, model.K))
    values = []
    for i in range(model.K + 1):
        v = eval_functional(x_star, model.basis.vector(i))
        if not v.is_rational:
            raise IrrationalAtomValue(f"functional is irrational on atom {i}")
        values.append(model.d_star_d / model.d_star_atoms[i] * v.rational())
    return StepFunction(tuple(values))


def integrate_over(
    model: MeasureSpaceModel, h: StepFunction, sigma: tuple[int, ...]
) -> Fraction:
    """Integral of h over the atom subset sigma: sum of value * weight."""
    if len(h.values) != model.K + 1:
        raise DimensionMismatch((len(h.values), model.K + 1))
    total = Fraction(0)
    seen = set()
    for i in sigma:
        if not 0 <= i <= model.K:
            raise IndexError(i)
        if i in seen:
            raise ValueError(f"atom {i} listed twice")
        seen.add(i)
        total += h.values[i] * model.mu[i]
    return total


def integrate(model: MeasureSpaceModel, h: StepFunction) -> Fraction:
    return integrate_over(model, h, tuple(range(model.K + 1)))


def l1_norm(model: MeasureSpaceModel, h: StepFunction) -> Fraction:
    return integrate(model, h.abs())


def mu_of(model: MeasureSpaceModel, sigma: tuple[int, ...]) -> Fraction:
    return sum((model.mu[i] for i in sigma), Fraction(0))


@dataclass(frozen=True)
class ProductMatrix:
    """M[n][p] = integral of f_n * g_p; equals d*(d) iff p <= n, else 0."""

    entries: tuple[tuple[Fraction, ...], ...]
    d_star_d: Fraction

    def to_json_obj(self) -> dict:
        return {
            "d_star_d": fmt_rational(self.d_star_d),
            "entries": [[fmt_rational(v) for v in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        K = len(self.entries) - 1
        lines = ["n\\p," + ",".join(str(p) for p in range(K + 1))]
        for n, row in enumerate(self.entries):
            lines.append(f"{n}," + ",".join(fmt_rational(v) for v in row))
        return "\n".join(lines) + "\n"


def product_matrix(model: MeasureSpaceModel) -> ProductMatrix:
    """Integrate every product f_n * g_p and check the triangular structure."""
    K = model.K
    fs = [model.f(n) for n in range(K + 1)]
    gs = [model.g(p) for p in range(K + 1)]
    entries = []
    for n in range(K + 1):
        row = []
        for p in range(K + 1):
            v = integrate(model, fs[n] * gs[p])
            expected = model.d_star_d if p <= n else Fraction(0)
            if v != expected:
                raise StructureViolation(
                    f"M[{n}][{p}] = {v}, expected {expected}"
                )
            row.append(v)
        entries.append(tuple(row))
    return ProductMatrix(tuple(entries), model.d_star_d)


def atom_subsets(
    K: int, seed: int = 0, sample_count: int = 256
) -> list[tuple[int, ...]]:
    """All atom subsets for small K, a deterministic sample beyond."""
    if K <= SIGMA_ENUMERATION_MAX_DIMENSION:
        return [
            tuple(i for i in range(K + 1) if mask & (1 << i))
            for mask in range(2 ** (K + 1))
        ]
    rng = random.Random(f"{seed}:sigma")
    out = {(), tuple(range(K + 1))}
    while len(out) < sample_count:
        out.add(tuple(i for i in range(K + 1) if rng.random() < 0.5))
    return sorted(out)


def small_set_breaches(
    model: MeasureSpaceModel,
    hs: list[StepFunction],
    bound: Fraction,
    eps: Fraction,
    sigmas: Iterable[tuple[int, ...]],
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield each (sigma, n), sigma-major, that breaks small-set continuity:
    mu(sigma) < eps / (bound * 2^n) while the integral of |h_n| over sigma
    is at least eps.  Integrals are taken lazily, only for small sigma."""
    cases = [(eps / (bound * 2**n), h.abs()) for n, h in enumerate(hs)]
    for sigma in sigmas:
        m = mu_of(model, sigma)
        for n, (threshold, h_abs) in enumerate(cases):
            if m < threshold and integrate_over(model, h_abs, sigma) >= eps:
                yield sigma, n


def _random_vector(rng: random.Random, K: int) -> JVector:
    den = rng.randint(1, 6)
    return JVector(
        K, tuple(Fraction(rng.randint(-8, 8), den) for _ in range(K + 1))
    )


def _random_rational_functional(rng: random.Random, K: int) -> DualFunctional:
    den = rng.randint(1, 6)
    return DualFunctional.from_rationals(
        K, tuple(Fraction(rng.randint(-8, 8), den) for _ in range(K + 1))
    )


def check_identities(
    model: MeasureSpaceModel,
    sample_count: int,
    seed: int,
    B_hat: Fraction | None = None,
    eps: Fraction = Fraction(1, 4),
) -> Report:
    """Exact verification of the embedding identities on random samples.

    Asserted clauses: the pairing identity, both L1 identities, and
    small-set continuity against the certified stand-in
    B^ = max_n ||f_n||_inf / 2^n.  The sup-norm comparison against a
    user-supplied bound is advisory: its hypothesis (an unconditionality
    bound for the basis) is not certifiable from below.
    """
    K = model.K
    rng = random.Random(f"{seed}:identities")
    entries: list[ReportEntry] = []

    pairing_fail: dict[str, str] = {}
    l1_vec_fail: dict[str, str] = {}
    l1_fun_fail: dict[str, str] = {}
    for s in range(sample_count):
        x = _random_vector(rng, K)
        x_star = _random_rational_functional(rng, K)
        lhs = integrate(model, pi_star(model, x_star) * pi(model, x))
        rhs = eval_functional(x_star, x).rational() * model.d_star_d
        if lhs != rhs:
            pairing_fail[f"sample_{s}"] = f"{lhs} != {rhs}"
        mod_x = modulus_vector(model.basis, x, model.dual)
        if l1_norm(model, pi(model, x)) != eval_functional(
            model.d_star, mod_x
        ).rational():
            l1_vec_fail[f"sample_{s}"] = "mismatch"
        mod_star = modulus_functional(model.basis, x_star, model.dual)
        if l1_norm(model, pi_star(model, x_star)) != eval_functional(
            mod_star, model.d
        ).rational():
            l1_fun_fail[f"sample_{s}"] = "mismatch"
    entries.append(
        ReportEntry("pairing_identity", not pairing_fail, details=pairing_fail)
    )
    entries.append(
        ReportEntry("pi_l1_identity", not l1_vec_fail, details=l1_vec_fail)
    )
    entries.append(
        ReportEntry("pi_star_l1_identity", not l1_fun_fail, details=l1_fun_fail)
    )

    fs = [model.f(n) for n in range(K + 1)]
    sup_details = {}
    sup_ok = True
    if B_hat is not None:
        gs = [model.g(p) for p in range(K + 1)]
        for n, fn in enumerate(fs):
            bound = B_hat * 2**n
            sup_details[f"f_{n}_sup"] = fmt_rational(fn.sup_norm())
            if fn.sup_norm() > bound:
                sup_ok = False
        for p, gp in enumerate(gs):
            bound = B_hat * 2**p
            sup_details[f"g_{p}_sup"] = fmt_rational(gp.sup_norm())
            if gp.sup_norm() > bound:
                sup_ok = False
    entries.append(
        ReportEntry("sup_norm_bounds", sup_ok, advisory=True, details=sup_details)
    )

    certified = max(fn.sup_norm() / 2**n for n, fn in enumerate(fs))
    cont_detail = {
        f"sigma_{sigma}_n_{n}": "integral too large"
        for sigma, n in small_set_breaches(
            model, fs, certified, eps, atom_subsets(K, seed)
        )
    }
    entries.append(
        ReportEntry(
            "small_set_continuity",
            not cont_detail,
            details={"certified_B_hat": fmt_rational(certified), **cont_detail},
        )
    )
    return Report(tuple(entries))
