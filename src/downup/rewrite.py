"""Oriented string rewriting over a fixed deglex order.

Rules replace a word by a strictly smaller polynomial, so reduction always
terminates.  The strategy rewrites the leftmost occurrence of the largest
matching left-hand side inside the largest reducible word; critical-pair
residuals check confluence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import DomainError
from .expr import Alphabet, NcPoly, Word, format_word


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: NcPoly


class RuleSet:
    """Finite set of order-compatible rules over one alphabet."""

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

    def _neg_key(self, word: Word):
        length, ranks = self.alphabet.word_key(word)
        return (-length, tuple(-r for r in ranks))

    def find_redex(self, word: Word) -> Optional[tuple[int, RewriteRule]]:
        """Leftmost position with a match; largest lhs wins at that position."""
        for pos in range(len(word)):
            for rule in self._rules_desc:
                k = len(rule.lhs)
                if word[pos : pos + k] == rule.lhs:
                    return pos, rule
        return None


def _rewrite_at(word: Word, pos: int, rule: RewriteRule) -> NcPoly:
    prefix, suffix = word[:pos], word[pos + len(rule.lhs) :]
    return NcPoly._trusted(
        rule.rhs.alphabet,
        {prefix + w + suffix: c for w, c in rule.rhs.terms.items()},
    )


def reduce(p: NcPoly, rs: RuleSet) -> NcPoly:
    """Normal form of p modulo the two-sided ideal generated by lhs - rhs."""
    if p.alphabet != rs.alphabet:
        raise DomainError("polynomial alphabet differs from rule-set alphabet")
    result: dict[Word, Fraction] = {}
    work: dict[Word, Fraction] = dict(p.terms)
    heap = [(rs._neg_key(w), w) for w in work]
    heapq.heapify(heap)
    while heap:
        _, word = heapq.heappop(heap)
        coeff = work.pop(word, None)
        if coeff is None:
            continue  # stale heap entry
        redex = rs.find_redex(word)
        if redex is None:
            # words leave the heap in decreasing order and rewriting only
            # yields smaller ones, so a normal word is met at most once
            result[word] = coeff
            continue
        pos, rule = redex
        replaced = _rewrite_at(word, pos, rule)
        for w2, c2 in replaced.terms.items():
            prev = work.get(w2)
            if prev is None:
                work[w2] = coeff * c2
                heapq.heappush(heap, (rs._neg_key(w2), w2))
            else:
                total = prev + coeff * c2
                if total:
                    work[w2] = total
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
