"""Simplicial cylinders between simplices and chains, and pillar systems.

A cylinder between two n-simplices [a_1..a_n] and [b_1..b_n] along the
ordered pillar set T = {t_0..t_n} is the alternating (n+1)-chain

    [t_0, a_1, ..., a_n] - [b_1, t_1, a_2, ..., a_n] + ...
    + (-1)^n [b_1, ..., b_n, t_n],

defined when t_i * a_(i+1) = b_(i+1) * t_(i+1) at every index.  The relations
are checked eagerly at construction and the first failing index is reported.
The face of a pillar set deletes one pillar; deleting index i yields a set
compatible with the i-th faces of the two simplices, which is what makes the
cylinder boundary formula work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .moore import Chain, ChainError

PillarSet = tuple


class IncompatiblePillars(ChainError):
    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"pillar relation fails at index {index}")


class TermMismatch(ChainError):
    pass


def check_pillars(alg, top: tuple, bottom: tuple, pillars: PillarSet) -> None:
    n = len(top)
    if len(bottom) != n:
        raise TermMismatch(f"top dim {n} != bottom dim {len(bottom)}")
    if len(pillars) != n + 1:
        raise TermMismatch(f"expected {n + 1} pillars, got {len(pillars)}")
    for i in range(n):
        left = alg.mul(pillars[i], top[i])
        right = alg.mul(bottom[i], pillars[i + 1])
        if left != right:
            raise IncompatiblePillars(i)


def cyl(alg, top: tuple, bottom: tuple, pillars: PillarSet) -> Chain:
    """The simplicial cylinder between ``top`` and ``bottom`` along ``pillars``.

    For the 0-simplex pair this is the single 1-simplex [t_0], the pattern
    forced by the definition.
    """
    check_pillars(alg, top, bottom, pillars)
    n = len(top)
    out = Chain(n + 1)
    sign = 1
    for i in range(n + 1):
        out.add_term(bottom[:i] + (pillars[i],) + top[i:], sign)
        sign = -sign
    return out


def face_pillar(i: int, pillars: PillarSet) -> PillarSet:
    if not 0 <= i < len(pillars):
        raise IndexError(f"pillar index {i} out of range")
    return pillars[:i] + pillars[i + 1 :]


@dataclass(frozen=True)
class CylinderTerm:
    coeff: int
    top: tuple
    bottom: tuple
    pillars: PillarSet


def cyl_chain(alg, terms: Iterable[CylinderTerm]) -> Chain:
    """Sum of per-term cylinders over matched term lists."""
    terms = list(terms)
    if not terms:
        return Chain(1)
    dim = len(terms[0].top)
    out = Chain(dim + 1)
    for term in terms:
        if len(term.top) != dim:
            raise TermMismatch("cylinder terms of mixed dimension")
        cylinder = cyl(alg, term.top, term.bottom, term.pillars)
        for simplex, coeff in cylinder:
            out.add_term(simplex, term.coeff * coeff)
    return out


def boundary_system(system: Mapping) -> dict:
    """The face-indexed family {(key, k): d_k T} of a pillar system."""
    out = {}
    for key, pillars in system.items():
        for k in range(len(pillars)):
            out[(key, k)] = face_pillar(k, pillars)
    return out
