"""Decision procedures for down-up algebras over the rationals.

Verdicts are stated for the algebraic closure, but every condition used is
rational-decidable: zero tests, equality of parameters, and the swap
(alpha, beta) -> (-alpha/beta, 1/beta).  The isomorphism test splits on the
noetherian dichotomy (beta = 0 exactly when the algebra fails to be a
domain), rescales a nonzero gamma freely, and otherwise compares parameters
directly or through the swap.  The invariant report is refutation-only: it
can certify that two algebras differ, never that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .algebra import Params
from .errors import DomainError
from .expr import as_scalar
from .homology import tor1_bound
from .quotients import abelian_invariants, abelianization


class DownUpType(Enum):
    """Four-way split by gamma vanishing and by alpha + beta = 1."""

    A = "a"
    B = "b"
    C = "c"
    D = "d"

    def __str__(self) -> str:
        return self.value


def type_of(params: Params) -> DownUpType:
    trace_one = params.alpha + params.beta == 1
    if params.gamma == 0:
        return DownUpType.A if trace_one else DownUpType.B
    return DownUpType.C if trace_one else DownUpType.D


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of the isomorphism test with the clause that decided it."""

    isomorphic: bool
    rule: str
    detail: str = ""

    def __str__(self) -> str:
        head = "isomorphic" if self.isomorphic else "not isomorphic"
        body = f" ({self.rule}" + (f": {self.detail})" if self.detail else ")")
        return head + body


def _gamma_class_matches(p: Params, q: Params) -> bool:
    return (p.gamma == 0) == (q.gamma == 0)


def _rescaling_detail(p: Params, q: Params) -> str:
    # p != q with equal (alpha, beta), and both gamma are nonzero
    return f"gamma scale {p.gamma / q.gamma}"


def iso_verdict(p: Params, q: Params) -> IsoVerdict:
    """Exact isomorphism test; every branch names the clause that fired."""
    if (p.beta == 0) != (q.beta == 0):
        return IsoVerdict(False, "noetherian dichotomy",
                          "exactly one side is a domain")
    if p == q:
        return IsoVerdict(True, "identical parameters", str(p))
    if not _gamma_class_matches(p, q):
        return IsoVerdict(False, "gamma class",
                          "gamma vanishes on exactly one side")
    if p.beta == 0:
        if p.alpha == q.alpha:
            return IsoVerdict(True, "gamma rescaling", _rescaling_detail(p, q))
        return IsoVerdict(False, "alpha mismatch", f"{p.alpha} vs {q.alpha}")
    if (p.alpha, p.beta) == (q.alpha, q.beta):
        return IsoVerdict(True, "gamma rescaling", _rescaling_detail(p, q))
    swapped = (-p.alpha / p.beta, 1 / p.beta)
    if swapped == (q.alpha, q.beta):
        return IsoVerdict(True, "parameter swap",
                          f"({swapped[0]}, {swapped[1]})")
    return IsoVerdict(False, "parameter mismatch",
                      f"({p.alpha}, {p.beta}) vs ({q.alpha}, {q.beta}) with no swap")


def is_monomial(params: Params) -> bool:
    """Whether params == (0, 0, 0), the parameter test for monomiality.

    The paper's second theorem shows that A(0, 0, 0) is the only monomial
    down-up algebra; this function checks the parameters, it does not search
    for a monomial presentation.
    """
    return params.alpha == 0 and params.beta == 0 and params.gamma == 0


def invariant_report(p: Params, q: Params, samples: int = 40) -> dict:
    """Side-by-side separating invariants; a mismatch refutes isomorphism."""
    for params in (p, q):
        if params.beta != 0:
            raise DomainError("invariant_report supports beta = 0 only")

    def side(params: Params) -> dict:
        return {
            "type": str(type_of(params)),
            "tor1_bound": tor1_bound(params, samples),
            "abelian": abelian_invariants(abelianization(params)),
        }

    left, right = side(p), side(q)
    mismatches = sorted(key for key in left if left[key] != right[key])
    return {
        "left": left,
        "right": right,
        "mismatches": mismatches,
        "certifies_non_isomorphism": bool(mismatches),
    }


def lambda_sequence(alpha, m_max: int) -> list[Fraction]:
    """Rational witness sequence: each term multiplies by alpha(alpha-1)/(alpha^(m+1)-1)."""
    alpha = as_scalar(alpha)
    if alpha in (0, 1, -1):
        raise DomainError("lambda_sequence needs alpha outside {0, 1, -1}")
    if not isinstance(m_max, int) or m_max < 0:
        raise DomainError("m_max must be a nonnegative integer")
    values = [alpha]
    power = alpha
    for _ in range(1, m_max + 1):
        power *= alpha
        values.append(values[-1] * alpha * (alpha - 1) / (power - 1))
    return values
