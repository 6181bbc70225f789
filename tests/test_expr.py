import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downup.algebra import BimodClass, OmegaElem, PBWElem
from downup.errors import DomainError, ParseError, UnknownLetterError
from downup.expr import (
    CLASSES, DU, DWU, OMEGA, OMEGA_BASIS, PBW, QUANTUM, Alphabet, NcPoly, as_scalar, format_word,
    parse,
)
from downup.quotients import QElem

D = NcPoly.letter(DU, "d")
U = NcPoly.letter(DU, "u")


def test_parse_three_term_example():
    p = parse("d^2*u - 2*d*u*d + u*d^2", DU)
    assert p.terms == {
        ("d", "d", "u"): Fraction(1),
        ("d", "u", "d"): Fraction(-2),
        ("u", "d", "d"): Fraction(1),
    }


def test_parse_unit():
    p = parse("1", DU)
    assert p.terms == {(): Fraction(1)}


def test_parse_unknown_letter():
    with pytest.raises(UnknownLetterError) as err:
        parse("d*w", DU)
    assert err.value.position == 2


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("d + * u", DU)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("d\u00b2", DU)  # a digit that is not a decimal digit
    assert err.value.position == 1
    # more digits than int() converts from a string; the error names the run
    for text, position in (("1" * 5000, 0), ("d + 1/" + "7" * 5000, 6)):
        with pytest.raises(ParseError, match="number has too many digits") as err:
            parse(text, DU)
        assert err.value.position == position


def test_parse_juxtaposition_and_rationals():
    assert parse("2d^2u", DU) == parse("2*d^2*u", DU)
    assert parse("-3/4*u", DU).terms == {("u",): Fraction(-3, 4)}
    assert parse("d(d+u)d", DU) == parse("d*d*d + d*u*d", DU)


def test_parse_omega_alias():
    p = parse("omega^2 + d*omega*u", DWU)
    q = parse(f"{OMEGA}^2 + d*{OMEGA}*u", DWU)
    assert p == q
    assert p.terms == {(OMEGA, OMEGA): Fraction(1), ("d", OMEGA, "u"): Fraction(1)}


def test_mul_trivial():
    assert (D * U).terms == {("d", "u"): Fraction(1)}


def test_additive_inverse_cancels():
    du = D * U
    assert (du + du.scaled(-1)).terms == {}
    assert not (du + du.scaled(-1))


def test_mul_difference_of_letters():
    # (d+u)(d-u) expanded by hand: dd - du + ud - uu
    p = (D + U) * (D - U)
    assert p.terms == {
        ("d", "d"): Fraction(1),
        ("d", "u"): Fraction(-1),
        ("u", "d"): Fraction(1),
        ("u", "u"): Fraction(-1),
    }


def test_power():
    p = (D + U) ** 2
    assert p == parse("d^2 + d*u + u*d + u^2", DU)
    assert (D ** 0).terms == {(): Fraction(1)}


def test_alphabet_mismatch():
    x = NcPoly.letter(Alphabet(("y", "x")), "x")
    with pytest.raises(DomainError, match="alphabet mismatch"):
        D + x


def _random_poly(rng, alphabet, max_terms=4, max_len=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(alphabet.letters) for _ in range(rng.randint(0, max_len)))
        terms[word] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return NcPoly(alphabet, terms)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(25):
        p = _random_poly(rng, DU)
        q = _random_poly(rng, DU)
        r = _random_poly(rng, DU)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p + q == q + p


def test_parse_print_roundtrip_random():
    rng = random.Random(11)
    for alphabet in (DU, DWU):
        for _ in range(25):
            p = _random_poly(rng, alphabet)
            assert parse(str(p), alphabet) == p
    assert str(NcPoly.zero(DU)) == "0"


def test_print_deglex_order():
    p = parse("u + 3*d*u - 1/2", DU)
    assert str(p) == "3*d*u + u - 1/2"
    q = parse("d^2*u - 2*d*u*d + u*d^2", DU)
    assert str(q) == "d^2*u - 2*d*u*d + u*d^2"


def test_canonical_equality_is_table_equality():
    p = parse("d*u + u*d", DU)
    q = parse("u*d + d*u", DU)
    assert p == q and p.terms == q.terms


def test_format_word_folds_runs():
    assert format_word(("d", "d", "u")) == "d^2*u"
    assert format_word(()) == "1"


def test_word_order_precedence():
    # with precedence d > u: ddu > dud > udd, and longer words dominate
    assert DU.word_key(("d", "d", "u")) > DU.word_key(("d", "u", "d"))
    assert DU.word_key(("d", "u", "d")) > DU.word_key(("u", "d", "d"))
    assert DU.word_key(("u", "u", "u", "u")) > DU.word_key(("d", "d", "d"))


# -- the trusted constructor keeps the canonical-table invariant ---------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def polys(alphabet, max_len=3, max_terms=5):
    words = st.lists(st.sampled_from(alphabet.letters), max_size=max_len).map(tuple)
    return st.dictionaries(words, COEFFS, max_size=max_terms).map(
        lambda table: NcPoly(alphabet, table)
    )


def assert_canonical(p, alphabet):
    assert p.alphabet == alphabet
    for word, coeff in p.terms.items():
        assert type(word) is tuple and all(letter in alphabet for letter in word)
        assert type(coeff) is Fraction and coeff != 0


@PROPERTY
@given(polys(DWU), polys(DWU), COEFFS)
def test_ring_operations_store_only_nonzero_fractions(p, q, c):
    results = (p + q, p - q, p * q, -p, p.scaled(c), p * c, c * p, (p - q) * (p + q))
    for result in results:
        assert_canonical(result, DWU)
    assert not p - p
    assert not p + (-p)
    assert not p.scaled(0)


def test_public_constructor_still_validates():
    with pytest.raises(DomainError):
        NcPoly(DU, {("d", "w"): 1})
    with pytest.raises(DomainError):
        NcPoly.monomial(DU, ("x",))
    with pytest.raises(DomainError):
        NcPoly.letter(DU, OMEGA)
    p = NcPoly(DU, {("d",): "3/4", ("u",): 0, ("u", "d"): "-2"})
    assert p.terms == {("d",): Fraction(3, 4), ("u", "d"): Fraction(-2)}
    assert_canonical(p, DU)


def test_basis_keys_round_trip_and_bases_never_compare_equal():
    non_normal = (
        (PBW, [("d", "u", "u"), ("d", "d", "u"), ("u", "d", "u", "u")]),
        (OMEGA_BASIS, [(OMEGA, "u"), ("d", OMEGA), ("d", "u")]),
        (CLASSES, [(OMEGA, "u"), ("u", "d"), (OMEGA, OMEGA)]),
        (QUANTUM, [("y", "x"), ("x", "y", "x")]),
    )
    for basis, words in non_normal:
        for key in itertools.product(range(4), repeat=basis.arity):
            assert basis.key(basis.word(key)) == key
        for word in words:
            assert basis.key(word) is None, (basis.name, word)
    assert PBW.word((1, 2, 1)) == ("u", "d", "u", "d", "u", "d")
    assert CLASSES.word((2, 0)) == ("u", "u", OMEGA)
    assert PBWElem({(0, 0, 0): 1}) != OmegaElem({(0, 0, 0): 1})
    assert QElem({(1, 1): 1}) != BimodClass({(1, 1): 1})


def test_basis_coords_refuses_a_word_that_escaped_normalization():
    with pytest.raises(DomainError, match=r"word d\^2\*u escaped PBW normalization"):
        PBW.coords(NcPoly(DU, {("d", "d", "u"): 1, ("u",): 1}))
    coords = PBW.coords(NcPoly(DU, {("u", "d", "u"): Fraction(3, 2), ("d",): -1}))
    assert coords == PBWElem({(1, 1, 0): Fraction(3, 2), (0, 0, 1): -1})
    assert repr(coords) == (
        "Coords(PBW, {(1, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1, 1)})"
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: parse("1/", DU), ParseError,
                     "missing denominator (at position 1)", id="slash-at-end"),
        pytest.param(lambda: parse("1/ 2", DU), ParseError,
                     "missing denominator (at position 1)", id="space-after-slash"),
        pytest.param(lambda: parse("1/0", DU), ParseError,
                     "zero denominator (at position 2)", id="zero-denominator"),
        pytest.param(lambda: parse("(d", DU), ParseError,
                     "expected ')' (at position 2)", id="unclosed-paren"),
        pytest.param(lambda: parse("d)", DU), ParseError,
                     "unexpected trailing input ')' (at position 1)", id="stray-paren"),
        pytest.param(lambda: parse("d^1/2", DU), ParseError,
                     "exponent must be a nonnegative integer (at position 2)",
                     id="rational-exponent"),
        pytest.param(lambda: as_scalar(1.5), DomainError,
                     "cannot interpret 1.5 as an exact scalar", id="float-scalar"),
        pytest.param(lambda: Alphabet(("d", "d")), DomainError,
                     "duplicate letters in alphabet ('d', 'd')", id="duplicate-letter"),
        pytest.param(lambda: D ** -1, DomainError,
                     "exponent must be a nonnegative integer, got -1", id="negative-power"),
    ],
)
def test_rejections_name_their_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
