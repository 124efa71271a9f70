"""Atomic probability space attached to a basis of J_K.

Atoms are the basis vectors w_i.  The canonical element d mixes the
moduli of the d_j with weights 2^{-j-1}, the canonical functional d*
does the same with the |e*_j|, and the weights mu({w_i}) are chosen so
that the embeddings of vectors and functionals pair as
integral(pi*(x*) pi(x)) = x*(x) d*(d), exactly.  A function on the atoms
is the tuple of its values on w_0..w_K.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress
from operator import mul

from .basis_tools import Basis, DualBasis, StructureViolation, _abs_dots
from .basis_tools import IrrationalAtomValue  # noqa: F401  (raised by pi_star)
from .james_core import DimensionMismatch, DualFunctional, JVector
from .reporting import Report, ReportEntry
from .scalars import (
    ceil_rational,
    check_exact_values,
    fmt_rational,
    integer_rows,
)

SIGMA_ENUMERATION_MAX_DIMENSION = 16
IDENTITY_SMALL_SET_EPS = Fraction(1, 4)


class SubsetEnumerationLimit(ValueError):
    """The 2^(K+1) atom subsets of a model are too many to enumerate."""


@dataclass(frozen=True)
class MeasureSpaceModel:
    basis: Basis
    d: JVector
    d_star: DualFunctional
    d_star_d: Fraction
    mu: tuple[Fraction, ...]
    gamma_d: tuple[Fraction, ...]      # g*_i(d), all positive
    d_star_atoms: tuple[Fraction, ...]  # d*(w_i), all positive

    @property
    def K(self) -> int:
        return self.basis.K

    @property
    def dual(self) -> DualBasis:
        return self.basis.dual

    @cached_property
    def int_scales(self) -> tuple[int, list[list[int]]]:
        """(S, [p, q]) with d*(d)/g*_i(d) = p_i / S and d*(d)/d*(w_i) = q_i / S:
        the factors by which pi turns g*_i(x), and pi_star x*(w_i), into
        the value on atom i, as integers over one denominator."""
        return integer_rows(
            [[self.d_star_d / v for v in vs] for vs in (self.gamma_d, self.d_star_atoms)]
        )

    @cached_property
    def int_mu(self) -> tuple[int, tuple[int, ...]]:
        """(D, D * mu): the atom weights over the lcm D of their denominators."""
        D, (mu,) = integer_rows([self.mu])
        return D, tuple(mu)

    @cached_property
    def int_atom_values(self) -> tuple[int, list[list[int]]]:
        """(D, [D * gamma_d, D * d_star_atoms]): g*_i(d) and d*(w_i) as
        integers over one denominator D."""
        return integer_rows([self.gamma_d, self.d_star_atoms])

    @cached_property
    def prefix_table(self) -> tuple[int, list[list[int]]]:
        """(E, U) with U[i][n] = E * g*_i(d_n), the prefix sums of the rows
        of E * W^-1: the coordinates of d_0..d_K on the basis, as integers
        over one denominator."""
        E, rows = self.dual.int_rows
        return E, [list(accumulate(row)) for row in rows]

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

    mu({w_i}) = g*_i(d)/d*(d) * d*(w_i).  With W[j][i] = coordinate j of
    w_i and Gamma[i][j] = g*_i(d_j), the moduli are |d_j| = sum_i
    |Gamma[i][j]| w_i and |e*_j| = sum_i |W[j][i]| g*_i, so
    d = W c and d* = r W^-1 with c_i = sum_j 2^-(j+1) |Gamma[i][j]| and
    r_i = sum_j 2^-(j+1) |W[j][i]|, and d*(d) is their dot product.  W
    and W^-1 come from the basis as integers over one denominator each,
    so every sum below is an integer dot product.

    Before returning, checks exactly that mu is a probability measure,
    that d*(d) >= 1/4, and that d*(d) agrees with the weighted double sum
    of |e*_j|(|d_j'|), which is sum_i r_i c_i because g*_i(w_k) = [i == k].
    These checks do not rest on the closed forms: the double sum tests
    W^-1 W = I along (r, c), and g*_i(d) = W^-1 d and d*(w_i), hence mu,
    are products with the computed d and d*.
    """
    K = basis.K
    E, inv = basis.dual.int_rows  # E * W^-1, row i = E * g*_i
    F, cols = basis.int_columns  # F * W, column i = F * w_i
    P = 2 ** (K + 1)
    halving = [2 ** (K - j) for j in range(K + 1)]  # P * 2^-(j+1)

    # c_i = C_i / (E P) and r_i = R_i / (F P)
    C = [sum(h * abs(v) for h, v in zip(halving, accumulate(row))) for row in inv]
    R = [sum(h * abs(v) for h, v in zip(halving, col)) for col in cols]
    # d = W c and d* = r W^-1, both over Q = F E P
    Q = F * E * P
    d_num = [sum(map(mul, row, C)) for row in zip(*cols)]
    d_star_num = [sum(map(mul, R, col)) for col in zip(*inv)]
    S = sum(map(mul, d_star_num, d_num))  # d*(d) = S / Q^2

    if sum(map(mul, R, C)) * F * E != S:
        raise StructureViolation("d*(d) does not match its double-sum expansion")
    d_star_d = Fraction(S, Q * Q)
    if d_star_d < Fraction(1, 4):
        raise StructureViolation(f"d*(d) = {d_star_d} < 1/4")

    # g*_i(d) = G_i / (E Q) and d*(w_i) = A_i / (Q F); mu_i = G_i A_i / (E F S)
    G = [sum(map(mul, row, d_num)) for row in inv]
    A = [sum(map(mul, d_star_num, col)) for col in cols]
    if any(g <= 0 or a <= 0 for g, a in zip(G, A)):
        raise StructureViolation("nonpositive atom weight")
    if sum(map(mul, G, A)) != E * F * S:
        raise StructureViolation("mu(Omega) != 1")

    return MeasureSpaceModel(
        basis=basis,
        d=JVector(K, tuple(Fraction(v, Q) for v in d_num)),
        d_star=DualFunctional.from_rationals(
            K, tuple(Fraction(v, Q) for v in d_star_num)
        ),
        d_star_d=d_star_d,
        mu=tuple(Fraction(g * a, E * F * S) for g, a in zip(G, A)),
        gamma_d=tuple(Fraction(g, E * Q) for g in G),
        d_star_atoms=tuple(Fraction(a, Q * F) for a in A),
    )


def pi(model: MeasureSpaceModel, x: JVector) -> tuple[Fraction, ...]:
    """Embed a vector: the values d*(d)/g*_i(d) * g*_i(x) on atoms 0..K."""
    (S, (p, _)), (den, coords) = model.int_scales, model.dual.scaled_coords(x)
    return tuple(Fraction(s * c, S * den) for s, c in zip(p, coords))


def pi_star(model: MeasureSpaceModel, x_star: DualFunctional) -> tuple[Fraction, ...]:
    """Embed a functional: the values d*(d)/d*(w_i) * x*(w_i) on atoms 0..K.

    Requires a rational functional; one with a sqrt(2) part raises
    :class:`IrrationalAtomValue` (from :meth:`Basis.scaled_functional_values`).
    """
    S, (_, q) = model.int_scales
    den, values = model.basis.scaled_functional_values(x_star)
    return tuple(Fraction(s * v, S * den) for s, v in zip(q, values))


def integrate_over(
    model: MeasureSpaceModel, h: tuple[int | Fraction, ...], sigma: tuple[int, ...]
) -> Fraction:
    """Integral over the atom subset sigma of the function whose value at
    atom i is h[i]: the sum of value * weight, one integer dot product of
    the values over sigma, scaled to integers, with ``model.int_mu``.  h
    holds K + 1 ints or Fractions; any other value raises ``TypeError``."""
    if len(h) != model.K + 1:
        raise DimensionMismatch((len(h), model.K + 1))
    check_exact_values(h)
    _check_atoms(sigma, model.K)
    D, mu = model.int_mu
    S, (values,) = integer_rows([[h[i] for i in sigma]])
    return Fraction(sum(map(mul, values, map(mu.__getitem__, sigma))), S * D)


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
    """M[n][p] = integral of f_n * g_p = d*(d) * [p <= n]: the d*(d) object
    on and below the diagonal and one Fraction(0) above it.  On atom i,
    f_n g_p mu = d*(d) * g*_i(d_n) * W[p][i], so with the prefix table
    (E, U) and the columns of F * W, M[n][p] * E * F / d*(d) =
    sum_i U[i][n] * (F * W)[p][i] = sum_{j <= n} ((F * W)(E * W^-1))[p][j],
    and for square matrices (F * W)(E * W^-1) = E * F * I exactly when
    (E * W^-1)(F * W) is: the identity a :class:`Basis`, which refuses
    assignment, checked once, when it was built."""
    d, zero, K = model.d_star_d, Fraction(0), model.K
    entries = tuple((d,) * (n + 1) + (zero,) * (K - n) for n in range(K + 1))
    return ProductMatrix(entries, d)


def atom_subsets(K: int) -> list[tuple[int, ...]]:
    """All 2^(K+1) atom subsets, in the order of their bit masks.  Above
    ``SIGMA_ENUMERATION_MAX_DIMENSION`` raises
    :class:`SubsetEnumerationLimit`: every clause over sigma is decided
    on all subsets or not at all."""
    _check_subset_limit(K)
    subsets: list[tuple[int, ...]] = [()]
    for i in range(K + 1):
        subsets += [sigma + (i,) for sigma in subsets]
    return subsets


def small_set_breaches(
    model: MeasureSpaceModel,
    families: Iterable[str],
    bound: Fraction,
    eps: Fraction,
) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """Yield each (family, sigma, n), sigma-major and then in the order of
    ``families``, at which h_n of that family ("f": f_n, "g": g_n) breaks
    small-set continuity: mu(sigma) < eps / (bound * 2^n) while the
    integral of |h_n| over sigma is at least eps.  A bound or an eps that
    is not positive, or an unknown family, raises ``ValueError`` at the
    first step.

    One walk over ``atom_subsets(K)`` decides every family.  mu(sigma) in
    units of 1 / D_mu (``model.int_mu``) is one sum from each of two
    doubling lists of subset sums, over the lower and the upper half of
    the atoms (2^h + 2^(K+1-h) ints); walking the upper list outside and
    the lower one inside keeps the bit-mask order.  Only a sigma below the
    widest threshold, that of n = 0, is integrated.  On atom i the scales
    of f_n and g_p cancel against mu_i, so with the prefix table (E, U),
    the columns of F * W and ``model.int_atom_values`` = (D, [c, a]),
    f_n mu_i = U[i][n] * a_i / (E * D) and g_p mu_i = (F * W)[p][i] * c_i
    / (F * D).  So both tests compare integer subset sums with integer
    thresholds (an integer s is below a rational x exactly when it is
    below ceil(x)).
    """
    K = model.K
    bound, eps = Fraction(bound), Fraction(eps)
    if bound <= 0:
        raise ValueError("the bound must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    D, (c, a) = model.int_atom_values
    E, U = model.prefix_table
    F, V = model.basis.int_columns
    forms = {"f": (E, U, a), "g": (F, V, c)}
    cases = []
    for name in families:
        if name not in forms:
            raise ValueError(f"unknown family {name!r}")
        T, rows, values = forms[name]
        weighted = [
            [abs(row[n]) * v for row, v in zip(rows, values)] for n in range(K + 1)
        ]
        cases.append((name, ceil_rational(eps * T * D), weighted))
    D_mu, mu = model.int_mu
    # the thresholds of mu(sigma) in units of 1 / D_mu, nonincreasing in n:
    # a sigma that fails one fails every later n
    mu_limits = [ceil_rational(eps * D_mu / (bound * 2**n)) for n in range(K + 1)]
    subsets = atom_subsets(K)
    # mu(sigma) = high[j] + low[i] for sigma's bit mask j * 2^h + i
    h = (K + 1) // 2
    low, high = [0], [0]
    for sums, part in ((low, mu[:h]), (high, mu[h:])):
        for m in part:
            sums += [s + m for s in sums]  # extends low or high in place
    for j, t in enumerate(high):
        below = mu_limits[0] - t
        for i in compress(range(len(low)), map(below.__gt__, low)):
            sigma, s = subsets[(j << h) + i], t + low[i]
            for name, h_limit, weighted in cases:
                for n, (mu_limit, row) in enumerate(zip(mu_limits, weighted)):
                    if s >= mu_limit:
                        break
                    if sum(map(row.__getitem__, sigma)) >= h_limit:
                        yield name, sigma, n


def _check_subset_limit(K: int) -> None:
    """Refuse, as ``atom_subsets`` does, above the enumeration limit."""
    if K > SIGMA_ENUMERATION_MAX_DIMENSION:
        raise SubsetEnumerationLimit(
            f"K = {K}: the 2^(K+1) atom subsets are enumerated only for "
            f"K <= {SIGMA_ENUMERATION_MAX_DIMENSION}"
        )


def _check_atoms(sigma: tuple[int, ...], K: int) -> None:
    if len(set(sigma)) != len(sigma):
        raise ValueError(f"atom listed twice in {sigma}")
    for i in sigma:
        if not 0 <= i <= K:
            raise IndexError(i)


def check_identities(
    model: MeasureSpaceModel,
    sample_count: int,
    seed: int,
) -> Report:
    """Exact verification of the embedding identities on random samples.

    Asserted clauses: the pairing identity, both L1 identities, and
    small-set continuity against the certified stand-in
    B^ = max_n ||f_n||_inf / 2^n at accuracy ``IDENTITY_SMALL_SET_EPS``,
    over all atom subsets; B^ and the scan read the prefix table, and no
    embedded family is built.  K above the subset limit is refused first.

    A sample is a denominator and K + 1 integer numerators, and each side
    of each clause is an integer over a known denominator, from the basis's
    and the model's integer forms; the sides are compared by
    cross-multiplication, and Fractions are built only for failure details.
    A negative ``sample_count`` raises ``ValueError``.
    """
    if sample_count < 0:
        raise ValueError("sample_count must be nonnegative")
    K = model.K
    _check_subset_limit(K)
    E, inv = model.dual.int_rows
    F, cols = model.basis.int_columns
    S, (p, q) = model.int_scales
    D_mu, mu = model.int_mu
    T, (d_star, d) = integer_rows([model.d_star.rational_coeffs(), model.d.coeffs])
    a, b = model.d_star_d.as_integer_ratio()
    rng = random.Random(f"{seed}:identities")
    fails: tuple[dict[str, str], ...] = ({}, {}, {})
    for s in range(sample_count):
        # x, then x*: a denominator in [1, 6] and numerators in [-8, 8]
        (x_den, x), (xs_den, xs) = [
            (rng.randint(1, 6), [rng.randint(-8, 8) for _ in range(K + 1)])
            for _ in range(2)
        ]
        coords = [sum(map(mul, row, x)) for row in inv]  # over E * x_den
        values = [sum(map(mul, xs, col)) for col in cols]  # over F * xs_den
        px_den, px = S * E * x_den, list(map(mul, p, coords))  # pi(x)
        ps_den, ps = S * F * xs_den, list(map(mul, q, values))  # pi*(x*)
        # (lhs, its denominator, rhs, its denominator) of each clause
        clauses = (
            (sum(map(mul, map(mul, ps, px), mu)), ps_den * px_den * D_mu,
             sum(map(mul, xs, x)) * a, xs_den * x_den * b),
            (sum(map(mul, map(abs, px), mu)), px_den * D_mu,
             sum(map(mul, d_star, _abs_dots(zip(*cols), coords))), T * F * E * x_den),
            (sum(map(mul, map(abs, ps), mu)), ps_den * D_mu,
             sum(map(mul, _abs_dots(zip(*inv), values), d)), E * F * xs_den * T),
        )
        for k, (lhs, lhs_den, rhs, rhs_den) in enumerate(clauses):
            if lhs * rhs_den != rhs * lhs_den:
                lhs, rhs = Fraction(lhs, lhs_den), Fraction(rhs, rhs_den)
                fails[k][f"sample_{s}"] = f"{lhs} != {rhs}" if k == 0 else "mismatch"
    names = ("pairing_identity", "pi_l1_identity", "pi_star_l1_identity")
    entries = [ReportEntry(n, not f, details=f) for n, f in zip(names, fails)]

    # f_n(w_i) / 2^n = d*(d) * D * U[i][n] * 2^(K-n) / (c_i * E * 2^K), with
    # (E, U) the prefix table and g*_i(d) = c_i / D: the largest
    # max_n |U[i][n]| * 2^(K-n) / c_i, found by cross-multiplication, gives B^
    E, U = model.prefix_table
    D, (c, _) = model.int_atom_values
    top, c_top = 0, 1
    for row, c_i in zip(U, c):
        peak = max(abs(u) << (K - n) for n, u in enumerate(row))
        if peak * c_top > top * c_i:
            top, c_top = peak, c_i
    certified = Fraction(a * D * top, b * c_top * (E << K))
    cont_detail = {
        f"sigma_{sigma}_n_{n}": "integral too large"
        for _, sigma, n in small_set_breaches(
            model, ("f",), certified, IDENTITY_SMALL_SET_EPS
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
