"""span-oracle: filtered dimensions of commutative quotients by exact ranks.

linalg.rank on matrices of about 100 x 66 does most of the work and rewrite
none, so a gain in the noncommutative core must show no change here.  The
relations come from abelianizations of down-up algebras and from seeded
quiver monomial algebras read from text.
"""

from __future__ import annotations

import importlib.util
import json
import random
from fractions import Fraction

from downup import quiver, quotients
from downup.algebra import Params

import reference as ref
from harness import Op, cap

NAME = "span-oracle"
SLACK = 4
MAX_SPAN_DEGREE = 6
MAX_SPAN_VARS = 2
MAX_GRADED_DEGREE = 8
OVERLAP_DEGREE = 6
SYMPY_SHARE = 0.05  # share of span ops whose dimension is also taken from sympy ranks
HAVE_SYMPY = importlib.util.find_spec("sympy") is not None

# One block: (kind, size, variant).  The shape of every input is fixed per slot
# (which abelianization case, how many relations of which degrees); the seed
# draws the coefficients and the words.  Cheap ops fill 40% of a block, two
# like span ops the next 20% and two like degree-6 ops the top 20%, so the
# median and the 90th percentile each fall inside one group of like ops.
BLOCK = (
    [("graded_dim", MAX_GRADED_DEGREE, "pair"), ("kills", 2, "split"), ("kills", 3, "pair"),
     ("overlaps", OVERLAP_DEGREE, "pair")]
    + [("span_abel", 4, "split"), ("span_abel", 4, "split")]
    + [("span_quiver", 4, "pair"), ("span_quiver", 5, "pair")]
    + [("span_abel", 6, "pair"), ("span_abel", 6, "pair")]
)

SIZES = {
    "slack": SLACK,
    "max_span_degree": MAX_SPAN_DEGREE,
    "max_span_variables": MAX_SPAN_VARS,
    "max_graded_degree": MAX_GRADED_DEGREE,
    "overlap_degree": OVERLAP_DEGREE,
    "sympy_share": SYMPY_SHARE if HAVE_SYMPY else 0,
    "block": [f"{kind}:{size}:{variant}" for kind, size, variant in BLOCK],
}


def _abel_params(rng, variant: str) -> tuple:
    """A fresh triple whose abelianization splits ("split": beta = 0, gamma != 0,
    alpha != 1) or is one summand with the two commuted relations ("pair")."""
    while True:
        alpha = ref.small_fraction(rng)
        if variant == "split":
            if alpha != 1:
                return (alpha, Fraction(0), ref.small_fraction(rng, nonzero=True))
            continue
        beta = ref.small_fraction(rng, nonzero=True)
        if 1 - alpha - beta != 0:
            return (alpha, beta, ref.small_fraction(rng))


def _abel_relations(params):
    """Commuted defining relations, as the benchmark derives them, and their leads."""
    alpha, beta, gamma = params
    s = 1 - alpha - beta
    if beta == 0 and gamma != 0 and alpha != 1:
        # the field summand splits off; the other summand is K[d,u]/((1-alpha)du - gamma)
        return [{(1, 1): 1 - alpha, (0, 0): -gamma}], [(1, 1)]
    rels = [{(2, 1): s, (1, 0): -gamma}, {(1, 2): s, (0, 1): -gamma}]
    return [{m: c for m, c in r.items() if c} for r in rels], [(2, 1), (1, 2)]


def _poly_summand(pres):
    (summand,) = [s for s in pres.summands if s.relations]
    return summand


def _span_abel_op(rng, n: int, variant: str) -> Op:
    params = _abel_params(rng, variant)
    P = Params(*params)
    relations, leading = _abel_relations(params)
    use_sympy = rng.random() < SYMPY_SHARE and HAVE_SYMPY
    cap(n, MAX_SPAN_DEGREE, "span degree")

    def call():
        summand = _poly_summand(quotients.abelianization(P))
        return quotients.span_filtered_dim(summand.relation_polys(), 2, n, SLACK)

    def check(dim):
        expected = ref.standard_count(leading, 2, n)
        if dim != expected:
            return f"dim {dim} at {params}, degree {n}; standard monomials give {expected}"
        return None

    def by_sympy(dim):
        if dim != ref.sympy_span_dim(relations, 2, n, SLACK):
            return f"dim {dim} at {params}, degree {n} disagrees with sympy ranks"
        return None

    return Op("span_abel", call, check, by_sympy if use_sympy else None)


def _random_quiver(rng):
    """Text of a quiver whose vertex v0 has two loops a, b with two relations among
    them, one of length 2 and one of length 3; and the exponents of those relations."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 3))]
    arrows = [("a", "v0", "v0"), ("b", "v0", "v0")]
    for index, vertex in enumerate(vertices[1:], start=1):
        if rng.random() < 0.5:
            arrows.append((f"l{index}", vertex, vertex))
    for index in range(rng.randint(0, 3) if len(vertices) > 1 else 0):
        source, target = rng.sample(vertices, 2)
        arrows.append((f"x{index}", source, target))
    loop_relations = [tuple(rng.choice("ab") for _ in range(length)) for length in (2, 3)]
    relations = list(loop_relations)
    for first in arrows[2:]:
        for second in arrows[2:]:
            # written right to left: `second first` means first, then second
            if first[2] == second[1] and rng.random() < 0.3:
                relations.append((second[0], first[0]))
    if rng.random() < 0.5:
        lines = [f"vertex {v}" for v in vertices]
        lines += [f"arrow {a} {s} {t}" for a, s, t in arrows]
        lines += ["relation " + " ".join(rel) for rel in relations]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({
            "vertices": vertices,
            "arrows": [list(arrow) for arrow in arrows],
            "relations": [list(rel) for rel in relations],
        })
    leading = [(word.count("a"), word.count("b")) for word in loop_relations]
    return text, leading


def _two_loop_summand(text):
    pres = quiver.monomial_abelianization(quiver.load_monomial_algebra(text))
    (summand,) = [s for s in pres.summands if len(s.variables) == 2]
    return summand


def _span_quiver_op(rng, n: int, _variant: str) -> Op:
    text, leading = _random_quiver(rng)
    use_sympy = rng.random() < SYMPY_SHARE and HAVE_SYMPY
    relations = [{lead: Fraction(1)} for lead in set(leading)]
    cap(n, MAX_SPAN_DEGREE, "span degree")

    def call():
        summand = _two_loop_summand(text)
        cap(len(summand.variables), MAX_SPAN_VARS, "span variables")
        return quotients.span_filtered_dim(summand.relation_polys(), 2, n, SLACK)

    def check(dim):
        expected = ref.standard_count(leading, 2, n)
        if dim != expected:
            return f"dim {dim} for monomials {leading}, degree {n}; expected {expected}"
        return None

    def by_sympy(dim):
        if dim != ref.sympy_span_dim(relations, 2, n, SLACK):
            return f"dim {dim} for monomials {leading} disagrees with sympy ranks"
        return None

    return Op("span_quiver", call, check, by_sympy if use_sympy else None)


def _graded_op(rng, top: int, _variant: str) -> Op:
    text, leading = _random_quiver(rng)

    def call():
        summand = _two_loop_summand(text)
        return [quotients.summand_graded_dim(summand, n) for n in range(top + 1)]

    def check(dims):
        expected = [ref.standard_count(leading, 2, n, exact=True) for n in range(top + 1)]
        return None if dims == expected else f"graded dims {dims}, expected {expected}"

    return Op("graded_dim", call, check)


def _kills_op(rng, degree: int, variant: str) -> Op:
    """A multiple of a relation (killed), or one plus a standard monomial (not killed)."""
    params = _abel_params(rng, variant)
    P = Params(*params)
    relations, leading = _abel_relations(params)
    rel = rng.choice(relations)
    mon = (rng.randint(1, degree), rng.randint(0, degree))
    c = ref.small_fraction(rng, nonzero=True)
    poly = {tuple(a + b for a, b in zip(mon, m)): c * v for m, v in rel.items()}
    killed = rng.random() < 0.5
    if not killed:
        standard = [m for m in ref.monomials(2, degree)
                    if sum(m) and not any(ref.divides(lead, m) for lead in leading)
                    and m not in poly]
        extra = rng.choice(standard)
        poly[extra] = ref.small_fraction(rng, nonzero=True)

    def call():
        return quotients.presentation_kills(quotients.abelianization(P), poly)

    def check(result):
        return None if result == killed else f"kills({poly}) at {params} is {result}"

    return Op("kills", call, check)


def _overlaps_op(rng, degree: int, variant: str) -> Op:
    if rng.random() < 0.5:
        relations, _ = _abel_relations(_abel_params(rng, variant))
    else:
        _, leading = _random_quiver(rng)
        relations = [{lead: Fraction(1)} for lead in set(leading)]

    def call():
        rules = quotients.orient_relations(relations)
        return quotients.commutative_overlap_residuals(rules, 2, degree)

    def check(residuals):
        return None if residuals == [] else f"overlaps {residuals} for {relations}"

    return Op("overlaps", call, check)


_MAKERS = {
    "span_abel": _span_abel_op,
    "span_quiver": _span_quiver_op,
    "graded_dim": _graded_op,
    "kills": _kills_op,
    "overlaps": _overlaps_op,
}


def block_maker(seed: int, workdir: str):
    """Block i of the seed's op stream, built on demand; inputs depend on (seed, i) only."""

    def block(index: int) -> list[Op]:
        rng = random.Random(f"{NAME}:{seed}:{index}")
        order = list(BLOCK)
        rng.shuffle(order)
        return [_MAKERS[kind](rng, size, variant) for kind, size, variant in order]

    return block
