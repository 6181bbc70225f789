"""Down-up algebra arithmetic.

A(alpha, beta, gamma) is the algebra on generators d, u subject to

    d^2 u = alpha*d u d + beta*u d^2 + gamma*d
    d u^2 = alpha*u d u + beta*u^2 d + gamma*u

It has the basis {u^i (du)^j d^k} for every parameter triple.  When beta = 0
the element omega := du - alpha*ud - gamma satisfies d*omega = omega*u = 0,
which yields the alternative basis {u^i omega^j d^l}, a description of the
powers of the two-sided ideal generated by omega, and a small bimodule
structure on the quotient of that ideal by its square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .errors import DomainError
from .expr import CLASSES, DU, DWU, OMEGA, OMEGA_BASIS, PBW, Coords, NcPoly, Scalarlike, as_scalar
from .rewrite import RewriteRule, RuleSet, reduce


@dataclass(frozen=True)
class Params:
    """Parameter triple (alpha, beta, gamma) of exact rationals."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_scalar(self.alpha))
        object.__setattr__(self, "beta", as_scalar(self.beta))
        object.__setattr__(self, "gamma", as_scalar(self.gamma))

    @classmethod
    def parse(cls, text: str) -> "Params":
        parts = [piece.strip() for piece in text.split(",")]
        if len(parts) != 3:
            raise DomainError(f"expected three comma-separated rationals, got {text!r}")
        return cls(*parts)

    def __str__(self) -> str:
        return f"({self.alpha}, {self.beta}, {self.gamma})"


def _require_beta_zero(params: Params) -> None:
    if params.beta != 0:
        raise DomainError(f"omega calculus requires beta = 0, got beta = {params.beta}")


def geometric_sum(alpha: Scalarlike, m: int) -> Fraction:
    """1 + alpha + ... + alpha^(m-1), exact for every alpha including 1."""
    a = as_scalar(alpha)
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(m):
        total += power
        power *= a
    return total


@lru_cache(maxsize=256)
def downup_rules(params: Params) -> RuleSet:
    """Defining relations oriented along deglex with d > u."""
    a, b, g = params.alpha, params.beta, params.gamma
    return RuleSet(
        DU,
        (
            RewriteRule(
                ("d", "d", "u"),
                NcPoly(DU, {("d", "u", "d"): a, ("u", "d", "d"): b, ("d",): g}),
            ),
            RewriteRule(
                ("d", "u", "u"),
                NcPoly(DU, {("u", "d", "u"): a, ("u", "u", "d"): b, ("u",): g}),
            ),
        ),
    )


@lru_cache(maxsize=256)
def omega_rules(params: Params) -> RuleSet:
    """Rules over d > omega > u whose normal words are u^i omega^j d^l."""
    _require_beta_zero(params)
    a, g = params.alpha, params.gamma
    return RuleSet(
        DWU,
        (
            RewriteRule(("d", "u"), NcPoly(DWU, {(OMEGA,): 1, ("u", "d"): a, (): g})),
            RewriteRule(("d", OMEGA), NcPoly.zero(DWU)),
            RewriteRule((OMEGA, "u"), NcPoly.zero(DWU)),
        ),
    )


def omega_poly(params: Params) -> NcPoly:
    """omega = du - alpha*ud - gamma as a polynomial over {d, u}."""
    _require_beta_zero(params)
    return NcPoly(
        DU, {("d", "u"): 1, ("u", "d"): -params.alpha, (): -params.gamma}
    )


PBWElem = partial(Coords, PBW)  # keys (i, j, k) of u^i (du)^j d^k
OmegaElem = partial(Coords, OMEGA_BASIS)  # keys (i, j, l) of u^i omega^j d^l
BimodClass = partial(Coords, CLASSES)  # keys (i, l) of the classes [u^i omega d^l]


def pbw_normal_form(p: NcPoly, params: Params) -> Coords:
    """Coordinates of p's class in A(alpha, beta, gamma) over u^i (du)^j d^k."""
    if p.alphabet != DU:
        raise DomainError("expected a polynomial over the letters d, u")
    return PBW.coords(reduce(p, downup_rules(params)))


def omega_coords(p: NcPoly, params: Params) -> Coords:
    """Coordinates over u^i omega^j d^l; accepts polynomials over {d,u} or {d,omega,u}."""
    _require_beta_zero(params)
    if p.alphabet == DU:
        p = NcPoly(DWU, p.terms)
    elif p.alphabet != DWU:
        raise DomainError("expected a polynomial over d, u or d, omega, u")
    return OMEGA_BASIS.coords(reduce(p, omega_rules(params)))


def _next_omega_power(prev: dict, params: Params) -> dict:
    """PBW coordinates of omega^(j+1) from those of omega^j."""
    product = Coords._trusted(PBW, prev).to_ncpoly() * omega_poly(params)
    return PBW.coords(reduce(product, downup_rules(params))).terms


def _next_du_power(prev: dict, params: Params) -> dict:
    """Omega-basis coordinates of (du)^(j+1) from those of (du)^j.

    From du = omega + alpha*ud + gamma and d*omega = 0, induction on n gives

        d^n u = alpha^(n-1) omega d^(n-1) + alpha^n u d^n + gamma*[n] d^(n-1)

    with [n] = 1 + alpha + ... + alpha^(n-1), so u^i omega^b d^(n-1) * du is
    three normal words, the middle one dropped by omega*u = 0 when b > 0.
    Rewriting with `omega_rules` gives the same result but costs n rewrites
    of a word of length up to 2j per term of nf((du)^j).
    """
    top = max((c for _, _, c in prev), default=0) + 1
    powers = [Fraction(1)]  # alpha^n
    brackets = [Fraction(0)]  # gamma*[n]
    for _ in range(top):
        brackets.append(brackets[-1] + params.gamma * powers[-1])
        powers.append(powers[-1] * params.alpha)
    terms: dict[tuple[int, int, int], Fraction] = {}
    for (i, b, c), coeff in prev.items():
        images = [((i, b + 1, c), powers[c]), ((i, b, c), brackets[c + 1])]
        if b == 0:
            images.append(((i + 1, 0, c + 1), powers[c + 1]))
        for key, value in images:
            terms[key] = terms.get(key, 0) + coeff * value
    return {key: value for key, value in terms.items() if value}


@lru_cache(maxsize=256)
def _power_table(params: Params, step) -> list[dict]:
    """Coordinates of base^0, base^1, ... so far; `_power_nf` appends to it."""
    return [{(0, 0, 0): Fraction(1)}]


def _power_nf(params: Params, step, j: int) -> dict:
    """Coordinates of nf(base^j), built by `step` one factor at a time.

    By the diamond lemma the order of reductions does not matter, so
    normalising after every factor gives the normal form of the full product
    while each step multiplies only the terms of nf(base^(j-1)).  The powers
    are kept in one growing table per (params, step) in a bounded cache, and
    its entries are shared: never mutate one.  Growing a table is not
    thread-safe; the package runs on one thread.
    """
    table = _power_table(params, step)
    while len(table) <= j:
        table.append(step(table[-1], params))
    return table[j]


def _shifted_powers(basis, terms, params: Params, step) -> Coords:
    """Sum of coeff * u^i base^j d^k over the (i, j, k) terms, as coordinates.

    u^i on the left and d^k on the right keep a normal word normal, so the
    coordinates of nf(base^j) shift by (i, 0, k).
    """
    out: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), coeff in terms.items():
        for (a, b, l), c in _power_nf(params, step, j).items():
            key = (a + i, b, l + k)
            out[key] = out.get(key, 0) + coeff * c
    return Coords._trusted(basis, {key: c for key, c in out.items() if c})


def pbw_to_omega(p: Coords, params: Params) -> Coords:
    """Rewrite a PBW element in the omega basis (beta = 0 only).

    Each term shifts the memoised omega-basis coordinates of (du)^j.
    """
    _require_beta_zero(params)
    return _shifted_powers(OMEGA_BASIS, p.terms, params, _next_du_power)


def omega_to_pbw(q: Coords, params: Params) -> Coords:
    """Substitute omega = du - alpha*ud - gamma and reduce to PBW form.

    Each term shifts the memoised PBW coordinates of nf(omega^j).
    """
    _require_beta_zero(params)
    return _shifted_powers(PBW, q.terms, params, _next_omega_power)


def ideal_power_membership(p: NcPoly, n: int, params: Params) -> bool:
    """Whether p lies in the n-th power of the two-sided ideal generated by omega."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("ideal power must be a positive integer")
    coords = omega_coords(p, params)
    return all(key[1] >= n for key in coords.terms)


def bimod_class(p: NcPoly, params: Params) -> Coords:
    """Class of p in <omega>/<omega>^2; requires p to lie in <omega>."""
    coords = omega_coords(p, params)
    if any(key[1] == 0 for key in coords.terms):
        raise DomainError("polynomial is not in the ideal generated by omega")
    return BimodClass(
        {(i, l): coeff for (i, j, l), coeff in coords.terms.items() if j == 1}
    )


def bimod_action_formula(i: int, l: int, side: str, params: Params) -> Coords:
    """Closed form for [u^i omega d^l]*u (right) and d*[u^i omega d^l] (left).

    The coefficient is gamma * (1 + alpha + ... + alpha^(m-1)) with m = l on
    the right and m = i on the left, landing on the class with that exponent
    lowered by one; the result is zero when the lowered exponent would go
    negative.  Stated for alpha != 1 only.
    """
    _require_beta_zero(params)
    if params.alpha == 1:
        raise DomainError("closed-form action requires alpha != 1")
    if i < 0 or l < 0:
        raise DomainError("indices must be nonnegative")
    if side not in ("left", "right"):
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")
    if side == "right":
        if l == 0:
            return BimodClass({})
        return BimodClass({(i, l - 1): params.gamma * geometric_sum(params.alpha, l)})
    if i == 0:
        return BimodClass({})
    return BimodClass({(i - 1, l): params.gamma * geometric_sum(params.alpha, i)})
