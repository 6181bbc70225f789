"""Quivers, monomial path algebras, and their abelianizations.

A quiver is a finite directed multigraph with named arrows.  A monomial
algebra is its path algebra modulo paths of length at least two.  Its
abelianization splits over the vertices: each vertex contributes either the
base field (no loops there) or a polynomial ring on one variable per loop,
modulo the monomials coming from relation paths made entirely of loops at
that vertex.  Relation paths are written the way compositions are, so the
rightmost arrow acts first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DomainError
from .quotients import AbelianPresentation, Summand, c_key


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph; arrows are (id, source, target) triples."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        vertices = tuple(str(v) for v in self.vertices)
        arrows = tuple((str(a), str(s), str(t)) for a, s, t in self.arrows)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        if not vertices:
            raise DomainError("a quiver needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise DomainError("vertex ids must be distinct")
        ids = [a for a, _, _ in arrows]
        if len(set(ids)) != len(ids):
            raise DomainError("arrow ids must be distinct")
        declared = set(vertices)
        for name, source, target in arrows:
            if source not in declared or target not in declared:
                raise DomainError(f"arrow {name!r} uses an undeclared vertex")

    def endpoints(self, arrow_id: str) -> tuple[str, str]:
        for name, source, target in self.arrows:
            if name == arrow_id:
                return source, target
        raise DomainError(f"unknown arrow id {arrow_id!r}")

    def loops_at(self, vertex: str) -> tuple[str, ...]:
        if vertex not in self.vertices:
            raise DomainError(f"unknown vertex {vertex!r}")
        return tuple(sorted(a for a, s, t in self.arrows if s == t == vertex))


@dataclass(frozen=True)
class MonomialAlgebra:
    """Path algebra of a quiver modulo a set of paths of length at least two."""

    quiver: Quiver
    relations: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        relations = tuple(tuple(str(a) for a in rel) for rel in self.relations)
        object.__setattr__(self, "relations", relations)
        for rel in relations:
            if len(rel) < 2:
                raise DomainError("relation paths must have length at least two")
            legs = [self.quiver.endpoints(a) for a in rel]
            for position in range(len(rel) - 1):
                if legs[position][0] != legs[position + 1][1]:
                    raise DomainError(
                        f"relation {rel} is not composable at position {position}"
                    )


def monomial_abelianization(algebra: MonomialAlgebra) -> AbelianPresentation:
    """One summand per vertex, in sorted vertex order."""
    summands = []
    for vertex in sorted(algebra.quiver.vertices):
        loops = algebra.quiver.loops_at(vertex)
        if not loops:
            summands.append(Summand.field())
            continue
        variables = tuple(f"X_{name}" for name in loops)
        index = {name: position for position, name in enumerate(loops)}
        monomials = set()
        for rel in algebra.relations:
            if all(arrow in index for arrow in rel):
                exponents = [0] * len(loops)
                for arrow in rel:
                    exponents[index[arrow]] += 1
                monomials.add(tuple(exponents))
        relations = [{mon: 1} for mon in sorted(monomials, key=c_key, reverse=True)]
        summands.append(Summand.poly(variables, relations))
    return AbelianPresentation(tuple(summands))


def _json_list(data: dict, key: str, default=None) -> list:
    value = data.get(key, default)
    if not isinstance(value, list):
        raise DomainError(f"quiver description needs a {key!r} list")
    return value


def monomial_algebra_from_json(data) -> MonomialAlgebra:
    if not isinstance(data, dict):
        raise DomainError("quiver description must be a JSON object")
    vertices = tuple(_json_list(data, "vertices"))
    arrows = []
    for entry in _json_list(data, "arrows", []):
        if isinstance(entry, dict):
            try:
                arrows.append((entry["id"], entry["source"], entry["target"]))
            except KeyError:
                raise DomainError(f"arrow object {entry!r} needs id/source/target") from None
        elif isinstance(entry, list) and len(entry) == 3:
            arrows.append(tuple(entry))
        else:
            raise DomainError(f"arrow entry {entry!r} must be [id, source, target]")
    relations = []
    for rel in _json_list(data, "relations", []):
        if not isinstance(rel, list):
            raise DomainError(f"relation {rel!r} must be a list of arrow ids")
        relations.append(tuple(rel))
    return MonomialAlgebra(Quiver(vertices, tuple(arrows)), tuple(relations))


def parse_quiver_text(text: str) -> MonomialAlgebra:
    """Line format: 'vertex e', 'arrow id source target', 'relation a b c'."""
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list[tuple[str, ...]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, rest = fields[0], fields[1:]
        if keyword == "vertex" and len(rest) == 1:
            vertices.append(rest[0])
        elif keyword == "arrow" and len(rest) == 3:
            arrows.append((rest[0], rest[1], rest[2]))
        elif keyword == "relation" and len(rest) >= 2:
            relations.append(tuple(rest))
        else:
            raise DomainError(f"bad quiver line {number}: {raw.strip()!r}")
    return MonomialAlgebra(Quiver(tuple(vertices), tuple(arrows)), tuple(relations))


def load_monomial_algebra(text: str) -> MonomialAlgebra:
    """Accept either the JSON object form or the flat line form."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as err:
            raise DomainError(f"bad quiver JSON: {err}") from None
        return monomial_algebra_from_json(data)
    return parse_quiver_text(text)
