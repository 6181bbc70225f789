"""Quantum quotients and abelianizations of down-up algebras.

For beta = 0 the quotient of A(alpha, 0, gamma) by the ideal generated by
omega is the quantum plane K_alpha[x, y] (gamma = 0) or the quantum Weyl
algebra (gamma = 1), via d -> y and u -> x.  Abelianizing instead kills all
commutators; the result is a commutative quotient of K[d, u] whose shape
depends on the parameters, including a field direct summand when gamma is a
unit multiple of (1 - alpha)du.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from functools import lru_cache, partial

from .algebra import Params
from .errors import DomainError
from .expr import (
    DU, QUANTUM, YX, Coords, NcPoly, Scalarlike, as_scalar, collect_terms, render_terms,
)
from .linalg import rank
from .rewrite import RewriteRule, RuleSet, reduce

Monomial = tuple[int, ...]
CPoly = dict[Monomial, Fraction]


# -- quantum plane and quantum Weyl algebra ---------------------------------


@dataclasses.dataclass(frozen=True)
class QuantumAlgebra:
    """K<x,y> modulo yx - alpha*xy - constant (plane: 0, Weyl: 1)."""

    alpha: Fraction
    constant: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_scalar(self.alpha))
        object.__setattr__(self, "constant", as_scalar(self.constant))
        if self.alpha == 0:
            raise DomainError("quantum algebra requires alpha != 0")


def quantum_plane(alpha: Scalarlike) -> QuantumAlgebra:
    return QuantumAlgebra(as_scalar(alpha), Fraction(0))


def quantum_weyl(alpha: Scalarlike) -> QuantumAlgebra:
    return QuantumAlgebra(as_scalar(alpha), Fraction(1))


QElem = partial(Coords, QUANTUM)  # keys (i, l) of x^i y^l


@lru_cache(maxsize=256)
def q_rules(qa: QuantumAlgebra) -> RuleSet:
    return RuleSet(
        YX,
        (
            RewriteRule(
                ("y", "x"), NcPoly(YX, {("x", "y"): qa.alpha, (): qa.constant})
            ),
        ),
    )


def q_normal_form(p: NcPoly, qa: QuantumAlgebra) -> Coords:
    """Move all x's left of all y's via yx -> alpha*xy + constant."""
    if p.alphabet != YX:
        raise DomainError("expected a polynomial over the letters x, y")
    return QUANTUM.coords(reduce(p, q_rules(qa)))


def project(p: NcPoly, params: Params) -> Coords:
    """Image of p under A -> A/<omega>, sending d to y and u to x.

    Supported for beta = 0, alpha != 0 and gamma in {0, 1}; other gamma
    values first require rescaling d by 1/gamma.
    """
    if params.beta != 0:
        raise DomainError("projection requires beta = 0")
    if params.alpha == 0:
        raise DomainError("projection requires alpha != 0")
    if params.gamma not in (0, 1):
        raise DomainError("projection requires gamma in {0, 1}; rescale d first")
    if p.alphabet != DU:
        raise DomainError("expected a polynomial over the letters d, u")
    mapped = NcPoly(
        YX,
        {
            tuple("y" if letter == "d" else "x" for letter in word): coeff
            for word, coeff in p.terms.items()
        },
    )
    return q_normal_form(mapped, QuantumAlgebra(params.alpha, params.gamma))


# -- commutative polynomial helpers ------------------------------------------


def c_key(mon: Monomial):
    return (sum(mon), mon)


def c_clean(p) -> CPoly:
    return collect_terms(p, None, "bad exponent vector {key!r}")


def c_str(p: CPoly, variables: tuple[str, ...]) -> str:
    ordered = sorted(p.items(), key=lambda kv: c_key(kv[0]), reverse=True)
    return render_terms(
        ("*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(variables, mon) if e), c)
        for mon, c in ordered
    )


def _divides(lhs: Monomial, mon: Monomial) -> bool:
    return all(a <= b for a, b in zip(lhs, mon))


def orient_relations(relations) -> list[tuple[Monomial, CPoly]]:
    """Monic rewrite rules lhs -> rhs from relation polynomials (lhs = leading monomial)."""
    rules: list[tuple[Monomial, CPoly]] = []
    seen: set[Monomial] = set()
    for rel in map(c_clean, relations):
        if not rel:
            raise DomainError("zero relation cannot be oriented")
        lead = max(rel, key=c_key)
        if lead in seen:
            raise DomainError("two relations share a leading monomial")
        seen.add(lead)
        scale = -rel[lead]
        rules.append((lead, {m: c / scale for m, c in rel.items() if m != lead}))
    return rules


def _clean_relations(relations, nvars: int) -> list[CPoly]:
    """The relations through `c_clean`, each nonzero and in nvars variables."""
    cleaned = [c_clean(rel) for rel in relations]
    if not all(cleaned):
        raise DomainError("relation polynomial must be nonzero")
    if any(len(mon) != nvars for rel in cleaned for mon in rel):
        raise DomainError("relation arity does not match the variables")
    return cleaned


def _step(mon: Monomial, rule) -> CPoly:
    """One rewrite of mon by a rule whose lhs divides it: the rhs times mon / lhs."""
    lhs, rhs = rule
    return {tuple(m - a + b for m, a, b in zip(mon, lhs, r)): c for r, c in rhs.items()}


def _s_polynomial(first, second) -> CPoly:
    """S-polynomial of two monic rules: the lcm of their lhs rewritten by each, subtracted."""
    lcm = tuple(map(max, first[0], second[0]))
    out = _step(lcm, second)
    for mon, c in _step(lcm, first).items():
        out[mon] = out[mon] - c if mon in out else -c
    return {mon: c for mon, c in out.items() if c}


def reduce_commutative(p: CPoly, rules) -> CPoly:
    current = c_clean(p)
    while True:
        target = None
        choice = None
        for mon in current:
            for lhs, rhs in rules:
                if _divides(lhs, mon):
                    if target is None or c_key(mon) > c_key(target):
                        target = mon
                        choice = (lhs, rhs)
                    break
        if target is None:
            return current
        coeff = current.pop(target)
        for mon, c2 in _step(target, choice).items():
            total = current.get(mon, Fraction(0)) + coeff * c2
            if total:
                current[mon] = total
            else:
                del current[mon]


def monomials_up_to(nvars: int, max_degree: int) -> list[Monomial]:
    """Exponent vectors of total degree <= max_degree, by degree, then lexicographically."""
    cube = itertools.product(range(max_degree + 1), repeat=nvars)
    return sorted((mon for mon in cube if sum(mon) <= max_degree), key=sum)


def commutative_overlap_residuals(rules, nvars: int, max_degree: int):
    """Monomials below the bound whose one-step reductions disagree after full reduction."""
    out = []
    for mon in monomials_up_to(nvars, max_degree):
        applicable = [(lhs, rhs) for lhs, rhs in rules if _divides(lhs, mon)]
        if len(applicable) < 2:
            continue
        forms = [reduce_commutative(_step(mon, rule), rules) for rule in applicable]
        for form in forms[1:]:
            if form != forms[0]:
                residual = dict(form)
                for m, c in forms[0].items():
                    residual[m] = residual.get(m, 0) - c
                out.append((mon, c_clean(residual)))
    return out


# -- abelianization -----------------------------------------------------------


def _canon(rel: CPoly):
    return tuple(sorted(rel.items(), key=lambda kv: c_key(kv[0]), reverse=True))


@dataclasses.dataclass(frozen=True)
class Summand:
    """Direct summand of an abelianization: the base field or K[vars]/(relations)."""

    variables: tuple[str, ...]
    relations: tuple
    # the (lead, tail) rules of the relations, oriented and checked by `poly`
    rules: tuple = dataclasses.field(compare=False, repr=False)

    @classmethod
    def field(cls) -> "Summand":
        return cls((), (), ())

    @classmethod
    def poly(cls, variables, relations) -> "Summand":
        """K[variables]/(relations); the relations must be a Groebner basis.

        The dimensions count standard monomials, which is exact only for a
        Groebner basis, so every S-polynomial must reduce to 0.
        """
        variables = tuple(variables)
        cleaned = _clean_relations(relations, len(variables))
        rules = orient_relations(cleaned)
        for first, second in itertools.combinations(rules, 2):
            s_poly = _s_polynomial(first, second)
            if s_poly and reduce_commutative(s_poly, rules):
                raise DomainError("relations are not a Groebner basis")
        return cls(variables, tuple(_canon(rel) for rel in cleaned), tuple(rules))

    @property
    def is_field(self) -> bool:
        return not self.variables

    def relation_polys(self) -> list[CPoly]:
        return [dict(rel) for rel in self.relations]

    def __str__(self) -> str:
        if self.is_field:
            return "K"
        ring = f"K[{','.join(self.variables)}]"
        if not self.relations:
            return ring
        rendered = ", ".join(c_str(dict(rel), self.variables) for rel in self.relations)
        return f"{ring}/({rendered})"

    def to_json(self):
        if self.is_field:
            return {"kind": "field"}
        return {
            "kind": "poly",
            "variables": list(self.variables),
            "relations": [c_str(dict(rel), self.variables) for rel in self.relations],
        }


@dataclasses.dataclass(frozen=True)
class AbelianPresentation:
    summands: tuple[Summand, ...]

    def __str__(self) -> str:
        return " (+) ".join(str(s) for s in self.summands)

    def to_json(self):
        return {"summands": [s.to_json() for s in self.summands]}


def abelianization(params: Params) -> AbelianPresentation:
    """Commutative quotient K[d,u] / (commuted defining relations).

    Commuting letters in the two relations leaves (1-alpha-beta)d^2u - gamma*d
    and (1-alpha-beta)du^2 - gamma*u.  When beta = 0, gamma != 0 and alpha != 1
    the quotient splits off a field summand against K[d,u]/((1-alpha)du - gamma).
    """
    a, b, g = params.alpha, params.beta, params.gamma
    s = 1 - a - b
    variables = ("d", "u")
    if b == 0 and g != 0 and a != 1:
        factor = {(1, 1): 1 - a, (0, 0): -g}
        return AbelianPresentation(
            (Summand.field(), Summand.poly(variables, [factor]))
        )
    if s == 0:
        if g == 0:
            return AbelianPresentation((Summand.poly(variables, []),))
        return AbelianPresentation((Summand.field(),))
    relations = [{(2, 1): s, (1, 0): -g}, {(1, 2): s, (0, 1): -g}]
    return AbelianPresentation((Summand.poly(variables, relations),))


def abelian_invariants(pres: AbelianPresentation) -> dict:
    """Case flags read off the presentation: connectivity and the unit-group dichotomy."""
    count = len(pres.summands)
    units_fd = all(
        s.is_field or all(len(rel) == 1 for rel in s.relations) for s in pres.summands
    )
    return {
        "connected": count == 1,
        "units_finite_dimensional": units_fd,
        "summand_count": count,
    }


def presentation_kills(pres: AbelianPresentation, p: CPoly) -> bool:
    """Whether the commutative polynomial maps to zero in every summand."""
    p = c_clean(p)
    for summand in pres.summands:
        if summand.is_field:
            # the field summand is evaluation at the origin
            if any(not any(mon) for mon in p):
                return False
        elif reduce_commutative(p, summand.rules):
            return False
    return True


def summand_filtered_dim(summand: Summand, n: int) -> int:
    """Dimension of the image of polynomials of total degree <= n."""
    if n < 0:
        raise DomainError("degree bound must be nonnegative")
    if summand.is_field:
        return 1
    count = 0
    for mon in monomials_up_to(len(summand.variables), n):
        if not any(_divides(lhs, mon) for lhs, _ in summand.rules):
            count += 1
    return count


def summand_graded_dim(summand: Summand, n: int) -> int:
    """Dimension of the degree-n piece; relations must be homogeneous."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    for rel in summand.relations:
        degrees = {sum(mon) for mon, _ in rel}
        if len(degrees) > 1:
            raise DomainError("graded dimensions need homogeneous relations")
    below = summand_filtered_dim(summand, n - 1) if n else 0
    return summand_filtered_dim(summand, n) - below


def span_filtered_dim(relations, nvars: int, n: int, slack: int) -> int:
    """Brute-force filtered dimension of K[vars]/(relations) by a span computation.

    Builds the span V of all products monomial*relation of total degree at
    most n + slack, with columns by ascending degree.  The part of V of
    degree at most n is the kernel of cutting each row to its columns of
    degree above n, so it has dimension rank(V) - rank(cut rows); the answer
    is the monomial count of degree at most n minus that.  Exact for slack
    large enough; callers should confirm stability across two slack values.
    """
    if n < 0 or slack < 0:
        raise DomainError("degree and slack must be nonnegative")
    relations = _clean_relations(relations, nvars)
    ambient = monomials_up_to(nvars, n + slack)
    column = {mon: pos for pos, mon in enumerate(ambient)}
    low = math.comb(n + nvars, nvars)
    products = []
    for rel in relations:
        for mon in monomials_up_to(nvars, n + slack - max(sum(m) for m in rel)):
            row = [Fraction(0)] * len(ambient)
            for m2, c2 in rel.items():
                row[column[tuple(a + b for a, b in zip(mon, m2))]] = c2
            products.append(row)
    dim_low_ideal = rank(products) - rank([row[low:] for row in products])
    return low - dim_low_ideal
