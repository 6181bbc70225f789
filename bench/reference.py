"""Independent references for the benchmark's correctness checks.

Nothing here calls the downup layer a check is about: characters of
one-dimensional modules are evaluated on plain word tables, rendered text is
read back by a small reader of the printer's format, and the regime facts
(valid modules, Tor_1 bounds, isomorphism classes) are written out from the
defining relations.  Parameters are plain ``(alpha, beta, gamma)`` tuples of
Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

OMEGA = "ω"


def small_fraction(rng, limit: int = 9, den: int = 5, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-limit, limit), rng.randint(1, den))
        if value or not nonzero:
            return value


# -- words and polynomials as plain tables -----------------------------------


def render_poly(terms: dict) -> str:
    """Input text for the downup parser: ``3/2*d*u - u + 1`` (no powers)."""
    pieces = []
    for word, coeff in terms.items():
        if not coeff:
            continue
        body = "*".join(word)
        mag = abs(coeff)
        if not word:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} {text}")
    if not pieces:
        return "0"
    head = pieces[0]
    out = head[2:] if head.startswith("+") else "-" + head[2:]
    return " ".join([out] + pieces[1:])


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, Fraction(0)) + c1 * c2
    return {w: c for w, c in out.items() if c}


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?(.+)$")


def read_rendered(text: str) -> dict:
    """Word table of the printer's output, e.g. ``2*d*u*d - u*d^2 + 1/3``."""
    table: dict = {}
    if text == "0":
        return table
    chunks = text.split(" ")
    signed = []
    sign = 1
    if chunks[0].startswith("-"):
        sign, chunks[0] = -1, chunks[0][1:]
    signed.append((sign, chunks[0]))
    for position in range(1, len(chunks), 2):
        op, body = chunks[position], chunks[position + 1]
        if op not in "+-":
            raise ValueError(f"bad separator {op!r} in {text!r}")
        signed.append((1 if op == "+" else -1, body))
    for sign, body in signed:
        if re.fullmatch(r"\d+(?:/\d+)?", body):
            coeff, word = Fraction(body), ()
        else:
            match = _TERM.match(body)
            coeff = Fraction(match.group(1)) if match.group(1) else Fraction(1)
            word = []
            for factor in match.group(2).split("*"):
                letter, _, power = factor.partition("^")
                word.extend([letter] * (int(power) if power else 1))
            word = tuple(word)
        if word in table:
            raise ValueError(f"repeated word in {text!r}")
        table[word] = sign * coeff
    return table


def pbw_shape(word) -> tuple[int, int, int] | None:
    """Greedy parse of a word as u^i (du)^j d^k; None if it has another shape."""
    n = len(word)
    pos = 0
    while pos < n and word[pos] == "u":
        pos += 1
    i = pos
    while pos + 1 < n and word[pos] == "d" and word[pos + 1] == "u":
        pos += 2
    j = (pos - i) // 2
    k = n - pos
    if any(letter != "d" for letter in word[pos:]):
        return None
    return (i, j, k)


def pbw_word(i: int, j: int, k: int) -> tuple:
    return ("u",) * i + ("d", "u") * j + ("d",) * k


# -- one-dimensional modules and characters ----------------------------------


def regime(params) -> str:
    """Shape of the variety of one-dimensional modules (d -> delta, u -> mu)."""
    alpha, beta, gamma = params
    s = 1 - alpha - beta
    if gamma == 0:
        return "plane" if s == 0 else "axes"
    return "origin" if s == 0 else "hyperbola"


def valid_modules(params, rng, count: int) -> list[tuple[Fraction, Fraction]]:
    """Seeded points of the module variety, read off the defining relations."""
    alpha, beta, gamma = params
    shape = regime(params)
    out = []
    for _ in range(count):
        if shape == "origin":
            point = (Fraction(0), Fraction(0))
        elif shape == "plane":
            point = (small_fraction(rng), small_fraction(rng))
        elif shape == "axes":
            value = small_fraction(rng, nonzero=True)
            point = (value, Fraction(0)) if rng.random() < 0.5 else (Fraction(0), value)
        else:
            delta = small_fraction(rng, nonzero=True)
            point = (delta, gamma / ((1 - alpha - beta) * delta))
        out.append(point)
    return out


def omega_value(params, delta, mu) -> Fraction:
    """Character of omega = du - alpha*ud - gamma (zero on every valid module of beta = 0)."""
    alpha, _, gamma = params
    return (1 - alpha) * delta * mu - gamma


def word_char(word, delta, mu, omega=Fraction(0)) -> Fraction:
    """d -> delta and u -> mu; also y -> delta and x -> mu for the quantum quotients."""
    values = {"d": delta, "u": mu, "y": delta, "x": mu, OMEGA: omega}
    value = Fraction(1)
    for letter in word:
        value *= values[letter]
    return value


def poly_char(terms: dict, delta, mu, omega=Fraction(0)) -> Fraction:
    return sum((c * word_char(w, delta, mu, omega) for w, c in terms.items()), Fraction(0))


def pbw_char(coords: dict, delta, mu) -> Fraction:
    return sum(
        (c * mu**i * (delta * mu) ** j * delta**k for (i, j, k), c in coords.items()),
        Fraction(0),
    )


def omega_char(coords: dict, params, delta, mu) -> Fraction:
    """Character of an element in the basis u^i omega^j d^l."""
    w = omega_value(params, delta, mu)
    return sum(
        (c * mu**i * w**j * delta**l for (i, j, l), c in coords.items()), Fraction(0)
    )


def tor1_regime_bound(params) -> int:
    """Largest Tor_1 over one-dimensional modules for beta = 0 (the tor-table regimes)."""
    shape = regime(params)
    return {"origin": 0, "hyperbola": 1, "axes": 2, "plane": 2}[shape]


# -- classification ----------------------------------------------------------


def type_tag(params) -> str:
    alpha, beta, gamma = params
    trace_one = alpha + beta == 1
    if gamma == 0:
        return "a" if trace_one else "b"
    return "c" if trace_one else "d"


def isomorphic(p, q) -> bool:
    """The isomorphism classes: beta and gamma zero-classes, then alpha or the swap."""
    if (p[1] == 0) != (q[1] == 0) or (p[2] == 0) != (q[2] == 0):
        return False
    if p[1] == 0:
        return p[0] == q[0]
    return (p[0], p[1]) == (q[0], q[1]) or (-p[0] / p[1], 1 / p[1]) == (q[0], q[1])


def geometric(alpha, m: int) -> Fraction:
    return sum((Fraction(alpha) ** e for e in range(m)), Fraction(0))


# -- matrices ------------------------------------------------------------------


def mat_mul(a, b):
    return [
        [sum((a[r][k] * b[k][c] for k in range(len(b))), Fraction(0)) for c in range(len(b[0]))]
        for r in range(len(a))
    ]


def is_zero_matrix(m) -> bool:
    return all(value == 0 for row in m for value in row)


# -- commutative quotients -----------------------------------------------------


def monomials(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree at most max_degree."""
    if nvars == 0:
        return [()]
    out = []
    for first in range(max_degree + 1):
        for rest in monomials(nvars - 1, max_degree - first):
            out.append((first,) + rest)
    return out


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def standard_count(leading, nvars: int, n: int, exact: bool = False) -> int:
    """Monomials of degree <= n (or == n) divisible by no leading monomial.

    For relations that form a Groebner basis under a degree order this is the
    dimension of the filtered (or graded) piece of the quotient.
    """
    return sum(
        1
        for mon in monomials(nvars, n)
        if (not exact or sum(mon) == n) and not any(divides(lead, mon) for lead in leading)
    )


def sympy_span_dim(relations, nvars: int, n: int, slack: int) -> int:
    """Filtered dimension by the span construction, with ranks from sympy."""
    import sympy

    ambient = monomials(nvars, n + slack)
    column = {mon: pos for pos, mon in enumerate(ambient)}
    products = []
    for rel in relations:
        for mon in monomials(nvars, n + slack):
            shifted = {tuple(a + b for a, b in zip(mon, m)): c for m, c in rel.items()}
            if max(sum(m) for m in shifted) <= n + slack:
                row = [0] * len(ambient)
                for m, c in shifted.items():
                    row[column[m]] = sympy.Rational(c.numerator, c.denominator)
                products.append(row)
    low = [[int(column[mon] == pos) for pos in range(len(ambient))]
           for mon in ambient if sum(mon) <= n]
    rank_ideal = sympy.Matrix(products).rank() if products else 0
    rank_sum = sympy.Matrix(products + low).rank()
    return len(low) - (rank_ideal + len(low) - rank_sum)
