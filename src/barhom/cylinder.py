"""Simplicial cylinders between simplices and chains, and face pillars.

A cylinder between two n-simplices [a_1..a_n] and [b_1..b_n] along the
ordered pillar set T = {t_0..t_n} is the alternating (n+1)-chain

    [t_0, a_1, ..., a_n] - [b_1, t_1, a_2, ..., a_n] + ...
    + (-1)^n [b_1, ..., b_n, t_n],

defined when t_i * a_(i+1) = b_(i+1) * t_(i+1) at every index.
``check_pillars`` checks the relations of one cylinder and reports the
first failing index.  The face of a pillar set deletes one pillar; deleting
index i yields a set compatible with the i-th faces of the two simplices,
which is what makes the cylinder boundary formula work.

The cylinder between two chains is the signed sum of the cylinders of
matched terms, ``cyl_chain`` over plain ``(coeff, top, bottom, pillars)``
tuples; it is the one cylinder kernel, and ``cyl`` is its one-term case.
The kernel checks each term's dimension but not its pillars: a caller that
holds arbitrary pillars checks them first, as ``cyl`` does, and
``homotopy.homotopy_P``, that sum over the cylinder data of the homotopy,
checks each lattice edge of its one pillar table instead of each cylinder.
So the chain-level lemma tests exercise the code ``expand`` and ``verify``
run.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .moore import Chain, ChainError

PillarSet = tuple


class IncompatiblePillars(ChainError):
    """A pillar relation fails: at an index of one cylinder, or on a
    lattice edge of a homotopy's pillar table."""


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
            raise IncompatiblePillars(f"pillar relation fails at index {i}")


def face_pillar(i: int, pillars: PillarSet) -> PillarSet:
    if not 0 <= i < len(pillars):
        raise IndexError(f"pillar index {i} out of range")
    return pillars[:i] + pillars[i + 1 :]


def cyl_chain(alg, dim: int, terms: Iterable[tuple]) -> Chain:
    """The (dim+1)-chain sum of ``coeff * cyl(alg, top, bottom, pillars)``
    over ``(coeff, top, bottom, pillars)`` terms of dim-simplices.

    Each term's dimension is checked, not its pillars, which the caller
    checks, and its simplices go with signs +coeff, -coeff, ... to
    ``Chain.add_terms``.
    Consecutive simplices coincide when t_i = b_(i+1) and a_(i+1) = t_(i+1),
    and then cancel.  The cylinder of the 0-simplex pair is the single
    1-simplex [t_0].
    """
    out = Chain(dim + 1)
    out.add_terms(_cylinder_terms(dim, terms))
    return out


def _cylinder_terms(dim: int, terms: Iterable[tuple]) -> Iterator[tuple]:
    """The signed cylinder simplices of each term, its dimension checked
    first."""
    for coeff, top, bottom, pillars in terms:
        if len(top) != dim:
            raise TermMismatch(f"cylinder term of dim {len(top)} in a sum over dim {dim}")
        for i in range(dim + 1):
            yield bottom[:i] + (pillars[i],) + top[i:], coeff
            coeff = -coeff


def cyl(alg, top: tuple, bottom: tuple, pillars: PillarSet) -> Chain:
    """The simplicial cylinder between ``top`` and ``bottom`` along
    ``pillars``, which are checked first."""
    check_pillars(alg, top, bottom, pillars)
    return cyl_chain(alg, len(top), [(1, top, bottom, pillars)])
