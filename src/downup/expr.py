"""Noncommutative polynomials over a declared finite alphabet.

A word is a tuple of letters, a polynomial is a sparse table word -> Fraction
with no zero entries.  Words are ordered degree-lexicographically: longer
words are larger, ties are broken letter by letter using the precedence
declared at alphabet creation (first letter listed is the largest).  All
arithmetic is exact; values are immutable once built.  A `Basis` names a set
of normal words by exponent keys, and `Coords` holds an element's
coordinates over one; `render_terms` prints both kinds of value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DomainError, ParseError, UnknownLetterError

Word = tuple[str, ...]
Scalarlike = Union[int, str, Fraction]

OMEGA = "ω"


def as_scalar(value: Scalarlike) -> Fraction:
    """Coerce an int, Fraction, or string to an exact rational.

    Strings may be integers, fractions like '-5/3' or decimals like '0.25';
    exponent notation is rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # an exponent part would make Fraction build 10**exponent: 1e99999999 hangs
        if "e" not in value.lower():
            try:
                return Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                pass
        raise DomainError(f"not a rational literal: {value!r}")
    raise DomainError(f"cannot interpret {value!r} as an exact scalar")


class Alphabet:
    """Finite letter set with a total precedence (letters listed largest first)."""

    def __init__(self, letters: Iterable[str]):
        self.letters = tuple(letters)
        if len(set(self.letters)) != len(self.letters):
            raise DomainError(f"duplicate letters in alphabet {self.letters}")
        for letter in self.letters:
            if not letter or any(ch.isspace() for ch in letter):
                raise DomainError(f"bad letter {letter!r}")
        # higher rank = higher precedence = larger in the term order
        self._rank = {c: len(self.letters) - 1 - i for i, c in enumerate(self.letters)}
        self._neg_rank = {c: -r for c, r in self._rank.items()}.__getitem__

    def __contains__(self, letter: str) -> bool:
        return letter in self._rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({','.join(self.letters)})"

    def word_key(self, word: Word):
        """Sort key: larger key = larger word in the deglex order."""
        return (len(word), tuple(map(self._rank.__getitem__, word)))

    def descending_key(self, word: Word):
        """Sort key of the reverse order: the larger the word, the smaller the key."""
        return (-len(word), tuple(map(self._neg_rank, word)))

    def check_word(self, word: Word) -> None:
        for letter in word:
            if letter not in self._rank:
                raise DomainError(f"letter {letter!r} not in alphabet {self.letters}")


DU = Alphabet(("d", "u"))
DWU = Alphabet(("d", OMEGA, "u"))
YX = Alphabet(("y", "x"))


class NcPoly:
    """Sparse linear combination of words with exact rational coefficients.

    Two ways in.  The public constructor ``NcPoly(alphabet, terms)`` validates:
    every word is checked against the alphabet, every coefficient goes through
    `as_scalar`, and zeros are dropped.  ``NcPoly._trusted(alphabet, table)``
    validates nothing and takes ownership of ``table``; it is only for results
    of ring operations on valid polynomials, whose table is a fresh dict of
    valid words to nonzero Fractions.  Both yield the same immutable value.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Scalarlike] = ()):
        table: dict[Word, Fraction] = {}
        for word, coeff in dict(terms).items():
            word = tuple(word)
            alphabet.check_word(word)
            c = as_scalar(coeff)
            if c:
                table[word] = c
        self.alphabet = alphabet
        self.terms = table

    @classmethod
    def _trusted(cls, alphabet: Alphabet, table: dict[Word, Fraction]) -> "NcPoly":
        """Wrap a fresh table of valid words to nonzero Fractions, unchecked."""
        poly = object.__new__(cls)
        poly.alphabet = alphabet
        poly.terms = table
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NcPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NcPoly":
        return cls(alphabet, {(): 1})

    @classmethod
    def letter(cls, alphabet: Alphabet, name: str) -> "NcPoly":
        return cls(alphabet, {(name,): 1})

    @classmethod
    def monomial(cls, alphabet: Alphabet, word: Word, coeff: Scalarlike = 1) -> "NcPoly":
        return cls(alphabet, {tuple(word): coeff})

    # -- ring structure ----------------------------------------------------

    def _require_same_alphabet(self, other: "NcPoly") -> None:
        if self.alphabet != other.alphabet:
            raise DomainError(
                f"alphabet mismatch: {self.alphabet!r} vs {other.alphabet!r}"
            )

    def __add__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        self._require_same_alphabet(other)
        table = dict(self.terms)
        for word, coeff in other.terms.items():
            prev = table.get(word)
            table[word] = coeff if prev is None else prev + coeff
        return NcPoly._trusted(self.alphabet, {w: c for w, c in table.items() if c})

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        return NcPoly._trusted(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other: Union["NcPoly", Scalarlike]) -> "NcPoly":
        if not isinstance(other, NcPoly):
            return self.scaled(other)
        self._require_same_alphabet(other)
        table: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                prev = table.get(word)
                table[word] = c1 * c2 if prev is None else prev + c1 * c2
        return NcPoly._trusted(self.alphabet, {w: c for w, c in table.items() if c})

    def __rmul__(self, other: Scalarlike) -> "NcPoly":
        return self.scaled(other)

    def __pow__(self, n: int) -> "NcPoly":
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"exponent must be a nonnegative integer, got {n!r}")
        out = NcPoly.one(self.alphabet)
        for _ in range(n):
            out = out * self
        return out

    def scaled(self, coeff: Scalarlike) -> "NcPoly":
        c = as_scalar(coeff)
        table = {w: c * v for w, v in self.terms.items()} if c else {}
        return NcPoly._trusted(self.alphabet, table)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms in descending deglex order (deterministic printing order)."""
        return sorted(
            self.terms.items(), key=lambda kv: self.alphabet.word_key(kv[0]), reverse=True
        )

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return render_terms(
            (format_word(word) if word else "", coeff) for word, coeff in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"NcPoly({self})"


def render_terms(terms: Iterable[tuple[str, Fraction]]) -> str:
    """Join (body, nonzero coeff) pairs in the order given, as in `-3/2*d*u + u - 5`.

    The one place that formats signs and magnitudes: a unit magnitude prints
    the body alone, an empty body is a constant term, no terms print 0.
    """
    chunks: list[str] = []
    for body, coeff in terms:
        mag = abs(coeff)
        text = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
        if chunks:
            chunks.append(f"+ {text}" if coeff > 0 else f"- {text}")
        else:
            chunks.append(text if coeff > 0 else f"-{text}")
    return " ".join(chunks) if chunks else "0"


def format_word(word: Word) -> str:
    """Render a word with `*` separators, folding runs into powers."""
    if not word:
        return "1"
    parts: list[str] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "*".join(parts)


# -- coordinates over a basis of normal words -------------------------------


def collect_terms(terms, arity: int | None, bad_key: str) -> dict[tuple[int, ...], Fraction]:
    """Sum the coefficients of equal keys and drop zeros.

    Keys must be tuples of nonnegative ints, of length `arity` unless it is
    None; otherwise `bad_key`, formatted with the key, is the error message.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    for key, value in (terms or {}).items():
        key = tuple(key)
        if (arity is not None and len(key) != arity) or any(
            not isinstance(x, int) or x < 0 for x in key
        ):
            raise DomainError(bad_key.format(key=key))
        value = as_scalar(value)
        out[key] = out[key] + value if key in out else value
    return {key: coeff for key, coeff in out.items() if coeff}


class Basis:
    """Normal words that are a fixed sequence of blocks, each a word to a power.

    The PBW basis u^i (du)^j d^k has the blocks u, du and d, and the key of a
    word is its exponent tuple (i, j, k).  A pinned block has a fixed
    exponent that is not part of the key, like omega in the classes
    [u^i omega d^l].  `wrap`, if given, formats each printed word, e.g. '[{}]'.
    """

    def __init__(self, name: str, alphabet: Alphabet, blocks, pinned=None, wrap=None):
        pinned = pinned or {}
        self.name = name
        self.alphabet = alphabet
        self.blocks = tuple((tuple(block), pinned.get(n)) for n, block in enumerate(blocks))
        self.arity = len(self.blocks) - len(pinned)
        self.wrap = wrap
        self.bad_key = f"{name} index {{key!r}} must be {self.arity} nonnegative integers"

    def word(self, key: tuple[int, ...]) -> Word:
        exponents = iter(key)
        word: Word = ()
        for block, pin in self.blocks:
            word += block * (next(exponents) if pin is None else pin)
        return word

    def key(self, word: Word) -> tuple[int, ...] | None:
        """Exponents read greedily block by block; None if the word is not normal."""
        pos, key = 0, []
        for block, pin in self.blocks:
            size, count = len(block), 0
            while word[pos : pos + size] == block:
                pos += size
                count += 1
            if pin is None:
                key.append(count)
            elif count != pin:
                return None
        return tuple(key) if pos == len(word) else None

    def coords(self, normal: NcPoly) -> "Coords":
        """Coordinates of a reduced polynomial, all of whose words are normal."""
        terms = {}
        for word, coeff in normal.terms.items():
            key = self.key(word)
            if key is None:
                raise DomainError(f"word {format_word(word)} escaped {self.name} normalization")
            terms[key] = coeff
        return Coords._trusted(self, terms)


PBW = Basis("PBW", DU, (("u",), ("d", "u"), ("d",)))
OMEGA_BASIS = Basis("omega-basis", DWU, (("u",), (OMEGA,), ("d",)))
CLASSES = Basis("bimodule-class", DWU, (("u",), (OMEGA,), ("d",)), pinned={1: 1}, wrap="[{}]")
QUANTUM = Basis("quantum-basis", YX, (("x",), ("y",)))


class Coords:
    """Immutable coordinates over a basis: a table key -> nonzero Fraction.

    Values over different bases are never equal, even with equal keys.  As
    with `NcPoly`, the public constructor validates and ``_trusted`` does not.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: Basis, terms=None):
        self.basis = basis
        self.terms = collect_terms(terms, basis.arity, basis.bad_key)

    @classmethod
    def _trusted(cls, basis: Basis, table: dict[tuple[int, ...], Fraction]) -> "Coords":
        """Wrap a fresh table of valid keys to nonzero Fractions, unchecked."""
        coords = object.__new__(cls)
        coords.basis = basis
        coords.terms = table
        return coords

    def to_ncpoly(self) -> NcPoly:
        words = {self.basis.word(key): coeff for key, coeff in self.terms.items()}
        return NcPoly._trusted(self.basis.alphabet, words)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coords) and (self.basis, self.terms) == (other.basis, other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        poly, wrap = self.to_ncpoly(), self.basis.wrap
        if wrap is None:
            return str(poly)
        return render_terms((wrap.format(format_word(w)), c) for w, c in poly.sorted_terms())

    def __repr__(self) -> str:
        return f"Coords({self.basis.name}, {self.terms!r})"


# -- parsing -----------------------------------------------------------------
#
# expr   := ['+'|'-'] term (('+'|'-') term)*
# term   := factor factor*            (adjacency means multiplication)
# factor := primary ('^' INTEGER)*
# primary:= RATIONAL | LETTER | '(' expr ')'
#
# RATIONAL is `a` or `a/b` with nonnegative integer digits; minus signs come
# from the unary/binary '-' of the grammar.  Identifiers are the declared
# letters; the spelled-out name "omega" is an alias whenever the omega letter
# is declared.


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind  # one of: num, letter, op, end
        self.value = value
        self.pos = pos


def _digits(text: str, start: int, stop: int) -> int:
    try:
        return int(text[start:stop])
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError("number has too many digits", start) from None


def _tokenize(text: str, alphabet: Alphabet) -> list[_Token]:
    letters = {name: name for name in alphabet.letters}
    if OMEGA in alphabet:
        letters["omega"] = OMEGA
    spellings = sorted(letters, key=len, reverse=True)
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            num = _digits(text, i, j)
            if j < n and text[j] == "/":
                k = j + 1
                m = k
                while m < n and text[m].isdecimal():
                    m += 1
                if m == k:
                    raise ParseError("missing denominator", j)
                den = _digits(text, k, m)
                if den == 0:
                    raise ParseError("zero denominator", k)
                tokens.append(_Token("num", Fraction(num, den), i))
                i = m
            else:
                tokens.append(_Token("num", Fraction(num), i))
                i = j
            continue
        if ch in "+-*^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        for spelling in spellings:
            if text.startswith(spelling, i):
                tokens.append(_Token("letter", letters[spelling], i))
                i += len(spelling)
                break
        else:
            if ch.isalpha():
                raise UnknownLetterError(
                    f"letter {ch!r} not in alphabet {alphabet.letters}", i
                )
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], alphabet: Alphabet):
        self.tokens = tokens
        self.alphabet = alphabet
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_expr(self) -> NcPoly:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.value in "+-":
            self.next()
            sign = -1 if tok.value == "-" else 1
        out = self.parse_term().scaled(sign)
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "+-":
                self.next()
                nxt = self.parse_term()
                out = out + (nxt if tok.value == "+" else -nxt)
            else:
                return out

    def parse_term(self) -> NcPoly:
        out = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "*":
                self.next()
                out = out * self.parse_factor()
            elif tok.kind in ("num", "letter") or (tok.kind == "op" and tok.value == "("):
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self) -> NcPoly:
        out = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "^":
                self.next()
                exp = self.next()
                if exp.kind != "num" or exp.value.denominator != 1 or exp.value < 0:
                    raise ParseError("exponent must be a nonnegative integer", exp.pos)
                out = out ** int(exp.value)
            else:
                return out

    def parse_primary(self) -> NcPoly:
        tok = self.next()
        if tok.kind == "num":
            return NcPoly(self.alphabet, {(): tok.value})
        if tok.kind == "letter":
            return NcPoly.letter(self.alphabet, tok.value)
        if tok.kind == "op" and tok.value == "(":
            inner = self.parse_expr()
            closing = self.next()
            if closing.kind != "op" or closing.value != ")":
                raise ParseError("expected ')'", closing.pos)
            return inner
        raise ParseError(f"expected a value, found {tok.value!r}", tok.pos)


def parse(text: str, alphabet: Alphabet) -> NcPoly:
    """Parse expression text over the given alphabet into canonical form."""
    parser = _Parser(_tokenize(text, alphabet), alphabet)
    poly = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing input {trailing.value!r}", trailing.pos)
    return poly
