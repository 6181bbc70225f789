"""nf-stream: normal forms in the PBW and omega bases over a shared parameter pool.

expr and rewrite do nearly all the work and linalg none.  The four parameter
triples are shared by every op, so caches keyed on parameters or on words can
show their gain; omega^j with j up to 8 and products of degree 10 set the tail.
"""

from __future__ import annotations

import random
from fractions import Fraction

from downup import algebra, expr

import reference as ref
from harness import Op, cap

NAME = "nf-stream"
OMEGA = expr.OMEGA

# Shared pool: three beta = 0 triples (hyperbola, hyperbola, axes of modules)
# and one beta != 0 triple (hyperbola delta*mu = -2).
PARAMS = (
    (Fraction(2), Fraction(0), Fraction(1)),
    (Fraction(-1, 2), Fraction(0), Fraction(3)),
    (Fraction(3), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1), Fraction(2)),
)

MAX_DEGREE = 10  # products: the sum of the two factor degrees
MAX_OMEGA_POWER = 8
MAX_ROUNDTRIP_DEGREE = 8
MAX_TERMS = 6
ROUNDTRIP_CHECK_SHARE = 0.3  # share of omega_to_pbw outputs also converted back by the check

# One block: (kind, size, index into PARAMS).  Sizes and parameters are
# stratified so that every run sees the same mix whatever its seed.  Cheap ops
# fill 40% of a block, degree-8 products the next 20% and omega^8 the top 20%,
# so the median and the 90th percentile each fall inside one group of like ops.
BLOCK = (
    [("bimod_class", n, p) for n, p in zip((1, 2, 3), (0, 1, 2))]
    + [("pbw_roundtrip", d, p) for d, p in zip((4, 6, 8, 8), (2, 0, 1, 2))]
    + [("pbw_product", 4, 0)]
    + [("pbw_product", 8, p) for p in (0, 1, 2, 3)]
    + [("pbw_product", 10, p) for p in (1, 3)]
    + [("omega_to_pbw", j, p) for j, p in zip((3, 5), (2, 1))]
    + [("omega_to_pbw", 8, p) for p in (0, 1, 2, 0)]
)

SIZES = {
    "params_pool": [[str(x) for x in p] for p in PARAMS],
    "max_product_degree": MAX_DEGREE,
    "max_omega_power": MAX_OMEGA_POWER,
    "max_roundtrip_degree": MAX_ROUNDTRIP_DEGREE,
    "max_terms_per_factor": MAX_TERMS,
    "roundtrip_check_share": ROUNDTRIP_CHECK_SHARE,
    "block": [f"{kind}:{size}:p{p}" for kind, size, p in BLOCK],
}

_PARAMS_OBJ = {p: algebra.Params(*p) for p in PARAMS}


def _modules(params, rng):
    return ref.valid_modules(params, rng, 3)


def _random_word(rng, length: int) -> tuple:
    return tuple(rng.choice("du") for _ in range(length))


def _random_factor(rng, degree: int) -> dict:
    """1..MAX_TERMS terms, the first of exactly the given degree."""
    terms = {_random_word(rng, degree): ref.small_fraction(rng, nonzero=True)}
    for _ in range(rng.randint(0, MAX_TERMS - 1)):
        terms[_random_word(rng, rng.randint(0, degree))] = ref.small_fraction(rng, nonzero=True)
    return terms


def _rendered_matches(text: str, coords: dict) -> str | None:
    table = ref.read_rendered(text)
    for word in table:
        if ref.pbw_shape(word) is None:
            return f"word {word} of {text!r} is not u^i(du)^j d^k"
    expected = {ref.pbw_word(*key): c for key, c in coords.items()}
    if table != expected:
        return f"printed {text!r} differs from the coordinates"
    return None


def _product_op(rng, degree: int, params) -> Op:
    left = rng.randint(degree // 2 - 1, degree // 2 + 1) if degree > 2 else 1
    f_terms, g_terms = _random_factor(rng, left), _random_factor(rng, degree - left)
    f_text, g_text = ref.render_poly(f_terms), ref.render_poly(g_terms)
    modules = _modules(params, rng)
    P = _PARAMS_OBJ[params]
    cap(max(map(len, f_terms)) + max(map(len, g_terms)), MAX_DEGREE, "product degree")

    def call():
        product = expr.parse(f_text, expr.DU) * expr.parse(g_text, expr.DU)
        elem = algebra.pbw_normal_form(product, P)
        return dict(elem.terms), str(elem)

    def check(out):
        coords, text = out
        bad = _rendered_matches(text, coords)
        if bad:
            return bad
        product = ref.poly_mul(f_terms, g_terms)
        for delta, mu in modules:
            if ref.poly_char(product, delta, mu) != ref.pbw_char(coords, delta, mu):
                return f"character at {(delta, mu)} changed for ({f_text})*({g_text})"
        return None

    return Op("pbw_product", call, check)


def _omega_terms(rng, j: int) -> dict:
    """u^i omega^j d^l plus one term of omega-degree at most j/2."""
    terms = {(rng.randint(0, 2), j, rng.randint(0, 2)): ref.small_fraction(rng, nonzero=True)}
    terms[(rng.randint(0, 2), rng.randint(0, j // 2), rng.randint(0, 2))] = (
        ref.small_fraction(rng, nonzero=True)
    )
    return terms


def _omega_to_pbw_op(rng, j: int, params) -> Op:
    terms = _omega_terms(rng, j)
    modules = _modules(params, rng)
    roundtrip = rng.random() < ROUNDTRIP_CHECK_SHARE
    P = _PARAMS_OBJ[params]
    cap(j, MAX_OMEGA_POWER, "omega power")

    def call():
        elem = algebra.omega_to_pbw(algebra.OmegaElem(terms), P)
        return dict(elem.terms), str(elem)

    def check(out):
        coords, text = out
        bad = _rendered_matches(text, coords)
        if bad:
            return bad
        for delta, mu in modules:
            if ref.omega_char(terms, params, delta, mu) != ref.pbw_char(coords, delta, mu):
                return f"character at {(delta, mu)} changed for {terms}"
        if roundtrip and algebra.pbw_to_omega(algebra.PBWElem(coords), P).terms != terms:
            return f"omega -> pbw -> omega lost {terms}"
        return None

    return Op("omega_to_pbw", call, check)


def _pbw_terms(rng, degree: int) -> dict:
    terms = {}
    for index in range(rng.randint(1, MAX_TERMS)):
        total = degree if index == 0 else rng.randint(0, degree)
        i = rng.randint(0, total)
        j = rng.randint(0, (total - i) // 2)
        terms[(i, j, total - i - 2 * j)] = ref.small_fraction(rng, nonzero=True)
    return terms


def _roundtrip_op(rng, degree: int, params) -> Op:
    terms = _pbw_terms(rng, degree)
    modules = _modules(params, rng)
    P = _PARAMS_OBJ[params]
    cap(degree, MAX_ROUNDTRIP_DEGREE, "round-trip degree")

    def call():
        there = algebra.pbw_to_omega(algebra.PBWElem(terms), P)
        back = algebra.omega_to_pbw(there, P)
        return dict(there.terms), dict(back.terms)

    def check(out):
        there, back = out
        if back != terms:
            return f"pbw -> omega -> pbw changed {terms}"
        for delta, mu in modules:
            if ref.omega_char(there, params, delta, mu) != ref.pbw_char(terms, delta, mu):
                return f"character at {(delta, mu)} changed for {terms}"
        return None

    return Op("pbw_roundtrip", call, check)


def _bimod_op(rng, count: int, params) -> Op:
    """count pieces, each a class word, a class word times d or u, or an omega^2 word."""
    alpha, _, gamma = params
    P = _PARAMS_OBJ[params]
    terms: dict = {}
    expected: dict = {}

    def add(table, key, value):
        table[key] = table.get(key, Fraction(0)) + value

    for _ in range(count):
        i, l = rng.randint(0, 4), rng.randint(0, 4)
        c = ref.small_fraction(rng, nonzero=True)
        word = ("u",) * i + (OMEGA,) + ("d",) * l
        shape = rng.choice(("class", "left", "right", "square"))
        if shape == "class":
            add(terms, word, c)
            add(expected, (i, l), c)
        elif shape == "left":  # d * [u^i omega d^l] = gamma*(1+...+alpha^(i-1)) [u^(i-1) omega d^l]
            add(terms, ("d",) + word, c)
            if i:
                add(expected, (i - 1, l), c * gamma * ref.geometric(alpha, i))
        elif shape == "right":  # [u^i omega d^l] * u = gamma*(1+...+alpha^(l-1)) [u^i omega d^(l-1)]
            add(terms, word + ("u",), c)
            if l:
                add(expected, (i, l - 1), c * gamma * ref.geometric(alpha, l))
        else:
            add(terms, ("u",) * i + (OMEGA, OMEGA) + ("d",) * l, c)
    expected = {key: value for key, value in expected.items() if value}
    text = ref.render_poly(terms)

    def call():
        element = algebra.bimod_class(expr.parse(text, expr.DWU), P)
        return dict(element.terms), str(element)

    def check(out):
        coords, _ = out
        if coords != expected:
            return f"class of {text!r} is {coords}, expected {expected}"
        return None

    return Op("bimod_class", call, check)


_MAKERS = {
    "pbw_product": _product_op,
    "omega_to_pbw": _omega_to_pbw_op,
    "pbw_roundtrip": _roundtrip_op,
    "bimod_class": _bimod_op,
}


def block_maker(seed: int, workdir: str):
    """Block i of the seed's op stream, built on demand; inputs depend on (seed, i) only."""

    def block(index: int) -> list[Op]:
        rng = random.Random(f"{NAME}:{seed}:{index}")
        order = list(BLOCK)
        rng.shuffle(order)
        return [_MAKERS[kind](rng, size, PARAMS[p]) for kind, size, p in order]

    return block
