"""Oriented string rewriting over a fixed deglex order.

Rules replace a word by a strictly smaller polynomial, so reduction always
terminates.  The strategy rewrites the leftmost occurrence of the largest
matching left-hand side inside the largest reducible word; critical-pair
residuals check confluence.

`reduce` works on integers.  With D the lcm of the denominators of every
rule coefficient and E that of the input's, a pending word holds a numerator
n and a level t for the coefficient n / (E*D^t): a rewrite multiplies n by
the rule's coefficients times D and raises t by one, so only one Fraction is
built, for each normal word of the result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional

from .errors import DomainError
from .expr import Alphabet, NcPoly, Word, format_word


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: NcPoly


class RuleSet:
    """Finite set of order-compatible rules over one alphabet."""

    __slots__ = (
        "alphabet", "rules", "_rules_desc", "_rules_by_first", "_denominator", "_scaled_rhs"
    )

    def __init__(self, alphabet: Alphabet, rules: Iterable[RewriteRule]):
        self.alphabet = alphabet
        self.rules = tuple(rules)
        seen: set[Word] = set()
        for rule in self.rules:
            lhs = tuple(rule.lhs)
            if not lhs:
                raise DomainError("rule lhs must be a nonempty word")
            alphabet.check_word(lhs)
            if rule.rhs.alphabet != alphabet:
                raise DomainError("rule rhs over a different alphabet")
            if lhs in seen:
                raise DomainError(f"two rules share the lhs {format_word(lhs)}")
            seen.add(lhs)
            lhs_key = alphabet.word_key(lhs)
            for word in rule.rhs.terms:
                if alphabet.word_key(word) >= lhs_key:
                    raise DomainError(
                        f"rhs word {format_word(word)} not smaller than lhs "
                        f"{format_word(lhs)}"
                    )
        # largest lhs first: the tie-break for matches at the same position
        self._rules_desc = sorted(
            self.rules, key=lambda r: alphabet.word_key(r.lhs), reverse=True
        )
        # every rhs over the common denominator D: c = scaled / D
        den = lcm(*[c.denominator for rule in self.rules for c in rule.rhs.terms.values()])
        self._denominator = den
        self._scaled_rhs: dict[Word, tuple[tuple[Word, int], ...]] = {}
        self._rules_by_first: dict[str, list[tuple[Word, int, RewriteRule]]] = {}
        for rule in self._rules_desc:
            lhs = rule.lhs
            self._scaled_rhs[lhs] = tuple(
                [(word, c.numerator * (den // c.denominator)) for word, c in rule.rhs.terms.items()]
            )
            self._rules_by_first.setdefault(lhs[0], []).append((lhs, len(lhs), rule))

    def find_redex(self, word: Word) -> Optional[tuple[int, RewriteRule]]:
        """Leftmost position with a match; largest lhs wins at that position."""
        by_first = self._rules_by_first
        for pos, letter in enumerate(word):
            for lhs, k, rule in by_first.get(letter, ()):
                if word[pos : pos + k] == lhs:
                    return pos, rule
        return None


def _rewrite_at(word: Word, pos: int, rule: RewriteRule) -> NcPoly:
    prefix, suffix = word[:pos], word[pos + len(rule.lhs) :]
    return NcPoly._trusted(
        rule.rhs.alphabet,
        {prefix + w + suffix: c for w, c in rule.rhs.terms.items()},
    )


def reduce(p: NcPoly, rs: RuleSet) -> NcPoly:
    """Normal form of p modulo the two-sided ideal generated by lhs - rhs.

    A pending word holds (n, t) for the coefficient n / (E*D^t), where E is
    the lcm of p's denominators and D that of the rules' (see the module
    docstring); when two entries for one word meet, the lower level is
    lifted by a power of D.  Each normal word leaves as one Fraction.
    """
    if p.alphabet != rs.alphabet:
        raise DomainError("polynomial alphabet differs from rule-set alphabet")
    scale = lcm(*(c.denominator for c in p.terms.values()))
    den, scaled_rhs, heap_key = rs._denominator, rs._scaled_rhs, rs.alphabet.descending_key
    result: dict[Word, Fraction] = {}
    work: dict[Word, tuple[int, int]] = {
        w: (c.numerator * (scale // c.denominator), 0) for w, c in p.terms.items()
    }
    heap = [(heap_key(w), w) for w in work]
    heapq.heapify(heap)
    while heap:
        _, word = heapq.heappop(heap)
        entry = work.pop(word, None)
        if entry is None:
            continue  # stale heap entry
        num, level = entry
        redex = rs.find_redex(word)
        if redex is None:
            # words leave the heap in decreasing order and rewriting only
            # yields smaller ones, so a normal word is met at most once
            result[word] = Fraction(num, scale * den**level)
            continue
        pos, rule = redex
        prefix, suffix = word[:pos], word[pos + len(rule.lhs) :]
        level += 1
        for middle, c in scaled_rhs[rule.lhs]:
            w2 = prefix + middle + suffix
            prev = work.get(w2)
            if prev is None:
                work[w2] = (num * c, level)
                heapq.heappush(heap, (heap_key(w2), w2))
                continue
            num2, level2 = prev
            if level2 < level:
                total, top = num2 * den ** (level - level2) + num * c, level
            else:
                total, top = num2 + num * c * den ** (level2 - level), level2
            if total:
                work[w2] = (total, top)
            else:
                del work[w2]
    return NcPoly._trusted(rs.alphabet, result)


def critical_pairs(rs: RuleSet, max_degree: int) -> list[tuple[Word, NcPoly]]:
    """All overlap ambiguities up to the degree bound with their residuals.

    Each entry is (overlap word, fully reduced difference of the two one-step
    rewrites).  All residuals being zero certifies local confluence below the
    bound.
    """
    longest = max(len(rule.lhs) for rule in rs.rules)
    if max_degree < longest:
        raise DomainError(f"max_degree {max_degree} below longest lhs {longest}")
    out: list[tuple[Word, NcPoly]] = []
    for r1 in rs.rules:
        for r2 in rs.rules:
            l1, l2 = tuple(r1.lhs), tuple(r2.lhs)
            # r2's lhs starts at p in r1's; at p = 0 only a strictly shorter one
            # is an ambiguity (else it repeats another entry or is one rule twice)
            for p in range(0 if len(l2) < len(l1) else 1, len(l1)):
                word = l1 + l2[len(l1) - p :]
                if len(word) <= max_degree and word[p : p + len(l2)] == l2:
                    residual = _rewrite_at(word, 0, r1) - _rewrite_at(word, p, r2)
                    out.append((word, reduce(residual, rs)))
    return out
