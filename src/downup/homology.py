"""Bimodule resolution of a down-up algebra and Tor of one-dimensional modules.

The algebra A = A(alpha, beta, gamma) has a length-3 resolution by free
bimodules A (x) W (x) A with W running through the spans of {d, u} (stage 1),
{d^2u, du^2} (stage 2) and {d^2u^2} (stage 3).  Applying the functor
T1 (x)_A (-) (x)_A T2 for one-dimensional modules T_i = (delta_i, mu_i)
collapses the resolution to a complex 0 -> K -> K^2 -> K^2 -> K -> 0 whose
homology dimensions form the Tor profile.

Each differential is written once, as the generator images in
`_generator_image`; `apply_d1/2/3` extend them bilinearly for any parameters,
and `tor_matrices` collapses those images mechanically, for any beta.  That
is the reference.  `BimoduleElement.build` normalizes only the legs that
are not already PBW words u^i (du)^j d^k; every leg of a generator image is
one, so `tor_matrices` normalizes nothing.  `tor_profile` evaluates the
hand-derived `closed_form_matrices` instead: stated for beta = 0 only, they
cost a few multiplications where the reference builds and collapses
bimodule elements.

Convention: in the collapsed complex the left tensor legs are evaluated with
T2's scalars and the right legs with T1's.  This is the assignment under
which the collapsed first differential is (delta2 - delta1, mu2 - mu1) and
the collapsed second differential has the closed form implemented below; the
third is then forced to (-mu1 - beta*mu2, delta2 + beta*delta1) in the basis
(d^2u, du^2) by the chain-complex identities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Params, pbw_normal_form
from .errors import DomainError
from .expr import DU, PBW, NcPoly, Word, as_scalar, format_word, render_terms
from .linalg import rank

STAGE_TAGS = {
    0: ("",),
    1: ("d", "u"),
    2: ("d2u", "du2"),
    3: ("d2u2",),
}

_TAG_NAMES = {"": "1", "d": "d", "u": "u", "d2u": "d^2*u", "du2": "d*u^2", "d2u2": "d^2*u^2"}


@dataclass(frozen=True)
class OneDimModule:
    """Module K on which d acts by delta and u acts by mu."""

    delta: Fraction
    mu: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", as_scalar(self.delta))
        object.__setattr__(self, "mu", as_scalar(self.mu))

    @classmethod
    def parse(cls, text: str) -> "OneDimModule":
        parts = [piece.strip() for piece in text.split(",")]
        if len(parts) != 2:
            raise DomainError(f"expected two comma-separated rationals, got {text!r}")
        return cls(*parts)

    def satisfies(self, params: Params) -> bool:
        """Both defining relations act by zero on (delta, mu): they act by
        delta*slack and mu*slack, slack = (1 - alpha - beta)*delta*mu - gamma."""
        if not (self.delta or self.mu):
            return True
        return (1 - params.alpha - params.beta) * self.delta * self.mu == params.gamma

    def __str__(self) -> str:
        return f"({self.delta}, {self.mu})"


def _check_stage(stage: int) -> None:
    if stage not in STAGE_TAGS:
        raise DomainError(f"stage must be 0..3, got {stage}")


def _check_tag(stage: int, tag: str) -> None:
    if tag not in STAGE_TAGS[stage]:
        raise DomainError(f"tag {tag!r} does not belong to stage {stage}")


class BimoduleElement:
    """Weighted sum of left (x) basis-tag (x) right triples at one stage.

    Left and right components are kept expanded over the PBW basis words, so
    equality of elements is equality of normalized coordinates.
    """

    __slots__ = ("stage", "terms")

    def __init__(self, stage: int, terms=None):
        _check_stage(stage)
        clean: dict[tuple[Word, str, Word], Fraction] = {}
        for (left, tag, right), value in (terms or {}).items():
            _check_tag(stage, tag)
            coeff = as_scalar(value)
            if coeff:
                key = (tuple(left), tag, tuple(right))
                clean[key] = clean.get(key, Fraction(0)) + coeff
                if not clean[key]:
                    del clean[key]
        self.stage = stage
        self.terms = clean

    @classmethod
    def build(cls, stage: int, parts, params: Params) -> "BimoduleElement":
        """Assemble from (coeff, left word, tag, right word), expanding both words.

        A word that is already a PBW word u^i (du)^j d^k is its own normal form;
        every other word goes through `pbw_normal_form`, once per distinct word.
        The table is summed here, so it skips `__init__`'s checks of each key.
        """
        _check_stage(stage)
        normal_forms: dict[Word, dict[Word, Fraction]] = {}

        def expand(word: Word) -> dict[Word, Fraction]:
            nf = normal_forms.get(word)
            if nf is None:
                if PBW.key(word) is None:
                    nf = pbw_normal_form(NcPoly.monomial(DU, word), params).to_ncpoly().terms
                else:
                    nf = {tuple(word): Fraction(1)}
                normal_forms[word] = nf
            return nf

        terms: dict[tuple[Word, str, Word], Fraction] = {}
        for coeff, left, tag, right in parts:
            _check_tag(stage, tag)
            coeff = as_scalar(coeff)
            if not coeff:
                continue
            left_nf, right_nf = expand(left), expand(right)
            for lword, lc in left_nf.items():
                for rword, rc in right_nf.items():
                    key = (lword, tag, rword)
                    # both legs are PBW words almost always: skip the unit products
                    value = coeff if lc == 1 and rc == 1 else coeff * lc * rc
                    prev = terms.get(key)
                    terms[key] = value if prev is None else prev + value
        return cls._trusted(stage, {key: c for key, c in terms.items() if c})

    @classmethod
    def _trusted(cls, stage: int, table: dict) -> "BimoduleElement":
        """Wrap a fresh table of (left, tag, right) keys to nonzero Fractions, unchecked."""
        element = object.__new__(cls)
        element.stage = stage
        element.terms = table
        return element

    @classmethod
    def generator(cls, stage: int, tag: str) -> "BimoduleElement":
        return cls(stage, {((), tag, ()): Fraction(1)})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BimoduleElement)
            and self.stage == other.stage
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        ordered = sorted(
            self.terms.items(), key=lambda kv: (DU.word_key(kv[0][0]), kv[0][1], DU.word_key(kv[0][2]))
        )
        return render_terms(
            (f"{format_word(left)}(x){_TAG_NAMES[tag]}(x){format_word(right)}", coeff)
            for (left, tag, right), coeff in ordered
        )

    def __repr__(self) -> str:
        return f"BimoduleElement({self.stage}, {self.terms!r})"


def _generator_image(stage: int, tag: str, params: Params) -> list:
    """Image of the generator 1 (x) tag (x) 1 under the stage's differential.

    Returns (coeff, left word, tag one stage down, right word) parts.  d1 sends
    v to v (x) 1 - 1 (x) v.  d2 has one summand per letter of each defining
    relation: a word l*v*r of the relation with coefficient c gives c l (x) v (x) r.
    d3 sends d^2u^2 to d (x) du^2 + beta du^2 (x) d - d^2u (x) u - beta u (x) d^2u.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    if stage == 1:
        return [(1, (tag,), "", ()), (-1, (), "", (tag,))]
    if stage == 3:
        return [
            (1, ("d",), "du2", ()),
            (b, (), "du2", ("d",)),
            (-1, (), "d2u", ("u",)),
            (-b, ("u",), "d2u", ()),
        ]
    if tag == "d2u":
        relation = {("d", "d", "u"): 1, ("d", "u", "d"): -a, ("u", "d", "d"): -b, ("d",): -g}
    else:
        relation = {("d", "u", "u"): 1, ("u", "d", "u"): -a, ("u", "u", "d"): -b, ("u",): -g}
    return [(c, w[:i], w[i], w[i + 1 :]) for w, c in relation.items() for i in range(len(w))]


def _apply(x: BimoduleElement, stage: int, params: Params) -> BimoduleElement:
    """Bilinear extension: l (x) m (x) r maps through the generator image of m."""
    if x.stage != stage:
        raise DomainError(f"expected a stage-{stage} element, got stage {x.stage}")
    parts = [
        (coeff * pc, lword + pleft, ptag, pright + rword)
        for (lword, tag, rword), coeff in x.terms.items()
        for pc, pleft, ptag, pright in _generator_image(stage, tag, params)
    ]
    return BimoduleElement.build(stage - 1, parts, params)


def apply_d1(x: BimoduleElement, params: Params) -> BimoduleElement:
    """First differential, from stage 1 to stage 0."""
    return _apply(x, 1, params)


def apply_d2(x: BimoduleElement, params: Params) -> BimoduleElement:
    """Second differential, from stage 2 to stage 1."""
    return _apply(x, 2, params)


def apply_d3(x: BimoduleElement, params: Params) -> BimoduleElement:
    """Third differential, from the rank-one top stage to stage 2."""
    return _apply(x, 3, params)


@dataclass(frozen=True)
class TorProfile:
    """Dimensions of Tor_0..Tor_3 for a pair of one-dimensional modules."""

    dims: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) != 4 or any(n < 0 for n in dims):
            raise DomainError("profile needs four nonnegative dimensions")
        if dims[0] - dims[1] + dims[2] - dims[3] != 0:
            raise DomainError("profile violates the Euler characteristic")
        if dims[0] not in (0, 1):
            raise DomainError("Tor_0 of one-dimensional modules is 0 or 1")

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.dims)


def _chi(word: Word, module: OneDimModule) -> Fraction:
    value = Fraction(1)
    for letter in word:
        value *= module.delta if letter == "d" else module.mu
    return value


def tor_matrices(t1: OneDimModule, t2: OneDimModule, params: Params):
    """Mechanically collapsed differentials (f0, f1, f2); valid for any beta.

    Each column is the image of one generator under apply_d1/2/3, with its
    left legs evaluated at t2 and its right legs at t1.  This is the reference
    that `closed_form_matrices` is tested against.
    """
    matrices = []
    for stage, apply in ((1, apply_d1), (2, apply_d2), (3, apply_d3)):
        rows, cols = STAGE_TAGS[stage - 1], STAGE_TAGS[stage]
        matrix = [[Fraction(0)] * len(cols) for _ in rows]
        for col, tag in enumerate(cols):
            image = apply(BimoduleElement.generator(stage, tag), params)
            for (lword, row_tag, rword), coeff in image.terms.items():
                matrix[rows.index(row_tag)][col] += coeff * _chi(lword, t2) * _chi(rword, t1)
        matrices.append(matrix)
    return tuple(matrices)


def closed_form_matrices(t1: OneDimModule, t2: OneDimModule, params: Params):
    """The collapsed differentials in closed form, for beta = 0 only.

    The fast evaluator behind `tor_profile`; `tor_matrices` is the reference
    it is tested against.
    """
    if params.beta != 0:
        raise DomainError("closed forms require beta = 0")
    a, g = params.alpha, params.gamma
    d1, m1 = t1.delta, t1.mu
    d2, m2 = t2.delta, t2.mu
    s, x, y = 1 - a, m1 - a * m2, d2 - a * d1
    f0 = [[d2 - d1, m2 - m1]]
    f1 = [
        [s * d1 * m1 + d2 * x - g, m1 * x],
        [d2 * y, s * d2 * m2 + m1 * y - g],
    ]
    f2 = [[-m1], [d2]]
    return f0, f1, f2


def tor_profile(t1: OneDimModule, t2: OneDimModule, params: Params) -> TorProfile:
    """Homology dimensions of 0 -> K -> K^2 -> K^2 -> K -> 0 by exact ranks.

    Evaluates `closed_form_matrices`, hence the beta = 0 gate.  The one-row
    f0 and the one-column f2 have rank 1 exactly when an entry is nonzero.
    """
    if params.beta != 0:
        raise DomainError("tor_profile requires beta = 0; use tor_matrices otherwise")
    checks = (("t1", t1),) if t2 == t1 else (("t1", t1), ("t2", t2))
    for name, module in checks:
        if not module.satisfies(params):
            raise DomainError(f"{name} = {module} is not a valid one-dimensional module")
    f0, f1, f2 = closed_form_matrices(t1, t2, params)
    r0, r1, r2 = int(any(f0[0])), rank(f1), int(any(row[0] for row in f2))
    return TorProfile((1 - r0, 2 - r0 - r1, 2 - r1 - r2, 1 - r2))


def enumerate_one_dim(params: Params, samples: int) -> list[OneDimModule]:
    """Valid modules: the trivial one first, canonical witnesses, then seeded samples.

    At most 40 * samples draws are made: the draws are small fractions, and
    on the axes (gamma = 0, alpha + beta != 1) only 1,021 modules can be drawn.
    """
    if not isinstance(samples, int) or samples < 1:
        raise DomainError("samples must be a positive integer")
    s = 1 - params.alpha - params.beta
    g = params.gamma
    rng = random.Random(7)

    def small(nonzero=False):
        while True:
            value = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            if value or not nonzero:
                return value

    # (delta, mu) keys in the order they were first drawn
    found = {(Fraction(0), Fraction(0)): None}

    def push(delta, mu):
        found.setdefault((as_scalar(delta), as_scalar(mu)))

    if g == 0:
        push(1, 0)
        push(0, 1)
        if s == 0:
            push(1, 1)
    elif s == 0:
        return [OneDimModule(0, 0)]
    else:
        push(1, g / s)
    attempts = 0
    while len(found) < samples and attempts < samples * 40:
        if g != 0:
            delta = small(nonzero=True)
            push(delta, g / (s * delta))
        elif s == 0:
            push(small(), small())
        elif rng.random() < 0.5:
            push(small(nonzero=True), 0)
        else:
            push(0, small(nonzero=True))
        attempts += 1
    return [OneDimModule(*key) for key in list(found)[:samples]]


def tor1_bound(params: Params, samples: int) -> int:
    """Largest Tor_1 dimension over all ordered pairs of enumerated modules.

    Tor_1 = 2 - rank f0 - rank f1, and the diagonal pairs (t, t) decide its
    maximum.  For distinct modules t1 != t2 the collapsed first differential
    f0 = (delta2 - delta1, mu2 - mu1) is nonzero, so Tor_1 = 1 - rank f1 <= 1.
    On the diagonal f0 = 0 and, with s = 1 - alpha,

        f1(t, t) = [[2s*delta*mu - gamma, s*mu^2], [s*delta^2, 2s*delta*mu - gamma]]

    has determinant (s*delta*mu - gamma)(3s*delta*mu - gamma).  A valid
    module other than (0, 0) has s*delta*mu = gamma, so rank f1 <= 1 and its
    diagonal Tor_1 is at least 1.  The diagonal maximum is therefore 0 only
    when the trivial module is the only one enumerated, and then there are no
    off-diagonal pairs: the diagonal maximum is the maximum over all pairs.
    """
    if params.beta != 0:
        raise DomainError("tor1_bound requires beta = 0")
    return max(tor_profile(t, t, params).dims[1] for t in enumerate_one_dim(params, samples))
