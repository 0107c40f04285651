"""Bar-construction simplices and the Moore complex.

An n-simplex of the classifying space of a group is the ordered tuple
[g_1, ..., g_n]; here it is a plain Python tuple of entry values.  Entries may
be group elements, formal quintuples or int codes — any value with hashable
canonical equality.  Operations that multiply or recognise entries take the
entry algebra as their first argument: a group, a ``QuintupleAlgebra`` or a
``groups.CodedAlgebra`` (the verification target, and the mitosis tower's
``TowerAlgebra`` as ``MitosisTower`` codes it), each with the interface
``identity``, ``mul`` and ``entry_to_json``.

A ``Chain`` is a finite integer formal sum of simplices of one dimension.
Faces follow the bar-construction rule: the 0-th face drops the first entry,
the last face drops the last entry, and an interior face multiplies two
adjacent entries.  The diameter of a chain is the L1 norm of its coefficient
vector, and ``project`` is the quotient map that deletes degenerate terms
(those containing an identity entry).

An entry is the identity exactly when it equals ``alg.identity``, in every
entry algebra, so a simplex is degenerate exactly when ``alg.identity in
simplex``: one scan of the tuple in C, with no call per entry.

Chains accumulate under one rule, that of ``Chain.add_term``: a coefficient
that reaches zero pops its simplex, so a simplex added again later moves to
the end and the iteration order of a result is fixed by the order of the
additions.  Every accumulation kernel inlines this rule: ``boundary`` (each
face, built as ``face`` does), ``Chain.add_chain`` (a whole chain),
``shuffles.add_shuffle_product`` (each signed interleaving) and
``cylinder.cyl_chain`` (each simplex of each cylinder).  The terms of a
kernel's result, in order, are those of ``add_term`` applied to the flat
sequence of its raw terms.

``chain_payload`` streams a chain as the JSON of ``chain_to_json``, whose
terms are sorted on their compact JSON text.  It never builds that text: each
distinct entry is serialized once, and a term's sort key is the tuple of its
entries' ranks among the distinct entry texts.  Inner positions are ranked
on the text followed by ``", "`` and the last position on the text followed
by ``"]"``; one table would misplace ``"[12]"`` after ``"[1]"``.  Beyond the
chain itself, sorting holds terms x dim small ints.
"""

from __future__ import annotations

import itertools
import json
from operator import getitem
from typing import Callable, Iterable, Iterator

BarSimplex = tuple


class ChainError(Exception):
    pass


class Chain:
    """Formal integer combination of same-dimension simplices."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | Iterable = ()):
        if dim < 0:
            raise ChainError("chain dimension must be >= 0")
        self.dim = dim
        self.terms: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for simplex, coeff in items:
            self.add_term(simplex, coeff)

    @classmethod
    def of(cls, simplex: BarSimplex) -> "Chain":
        return cls(len(simplex), [(simplex, 1)])

    def add_term(self, simplex: BarSimplex, coeff: int) -> None:
        if coeff == 0:
            return
        if len(simplex) != self.dim:
            raise ChainError(
                f"dimension mismatch: {len(simplex)}-simplex in a {self.dim}-chain"
            )
        new = self.terms.get(simplex, 0) + coeff
        if new == 0:
            self.terms.pop(simplex, None)
        else:
            self.terms[simplex] = new

    def __iter__(self) -> Iterator[tuple[BarSimplex, int]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def add_chain(self, other: "Chain", scale: int = 1) -> None:
        """Add ``scale * other`` in place: ``add_term`` on each term of
        ``other`` in order, with one dimension check for the whole chain."""
        self._check_compatible(other)
        terms = self.terms
        get, pop = terms.get, terms.pop
        for simplex, coeff in other.terms.items():
            new = get(simplex, 0) + scale * coeff
            if new:
                terms[simplex] = new
            else:
                pop(simplex, None)

    def __add__(self, other: "Chain") -> "Chain":
        out = Chain(self.dim)
        out.terms.update(self.terms)   # already normalized: copied as is
        out.add_chain(other)
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        out = Chain(self.dim)
        out.terms.update(self.terms)
        out.add_chain(other, -1)
        return out

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("chains are mutable accumulators; not hashable")

    def _check_compatible(self, other: "Chain") -> None:
        if not isinstance(other, Chain):
            raise ChainError(f"not a chain: {other!r}")
        # zero chains are dimension-flexible; anything else must match
        if other.dim != self.dim and (other.terms or self.terms):
            raise ChainError(f"mixed dimensions {self.dim} and {other.dim}")

    def __repr__(self):
        return f"Chain(dim={self.dim}, terms={len(self.terms)})"


def face(alg, i: int, simplex: BarSimplex) -> BarSimplex:
    """d_i: drop the first entry (i=0), drop the last (i=n), or multiply
    the i-th and (i+1)-st entries for 0 < i < n."""
    n = len(simplex)
    if not 0 <= i <= n:
        raise IndexError(f"face index {i} out of range for a {n}-simplex")
    if n == 0:
        raise IndexError("the 0-simplex has no faces")
    if i == 0:
        return simplex[1:]
    if i == n:
        return simplex[:-1]
    merged = alg.mul(simplex[i - 1], simplex[i])
    return simplex[: i - 1] + (merged,) + simplex[i + 1 :]


def degeneracy(alg, i: int, simplex: BarSimplex) -> BarSimplex:
    """s_i: insert the identity after the i-th entry."""
    n = len(simplex)
    if not 0 <= i <= n:
        raise IndexError(f"degeneracy index {i} out of range for a {n}-simplex")
    return simplex[:i] + (alg.identity,) + simplex[i:]


def is_degenerate(alg, simplex: BarSimplex) -> bool:
    return alg.identity in simplex


def boundary(alg, chain: Chain) -> Chain:
    """Alternating sum of faces, extended linearly; zero in dimension 0.

    Each face d_0 .. d_n is built as ``face`` builds it and added straight
    into the output under ``add_term``'s rule, so the terms, and their
    order, are those of summing ``face`` through ``add_term``.
    """
    n = chain.dim
    if n == 0:
        return Chain(0)
    out = Chain(n - 1)
    terms = out.terms
    get, pop, mul = terms.get, terms.pop, alg.mul
    for simplex, coeff in chain.terms.items():
        faces = [simplex[1:]]
        faces += [simplex[: i - 1] + (mul(simplex[i - 1], simplex[i]),) + simplex[i + 1 :]
                  for i in range(1, n)]
        faces.append(simplex[:-1])
        for f in faces:
            new = get(f, 0) + coeff
            if new:
                terms[f] = new
            else:
                pop(f, None)
            coeff = -coeff
    return out


def diameter(chain: Chain) -> int:
    return sum(map(abs, chain.terms.values()))


def project(alg, chain: Chain) -> Chain:
    """MacLane projection: delete every degenerate term."""
    out = Chain(chain.dim)
    for simplex, coeff in chain:
        if not is_degenerate(alg, simplex):
            out.add_term(simplex, coeff)
    return out


def count_degenerate(alg, chain: Chain) -> int:
    """The L1 norm of the degenerate terms: ``is_degenerate`` inlined."""
    e = alg.identity
    return sum([abs(c) for s, c in chain.terms.items() if e in s])


def cellular_boundary(alg, chain: Chain) -> Chain:
    """Boundary of the quotient-by-degeneracies complex.

    The quotient is modelled by chains without degenerate terms, so its
    boundary is the Moore boundary followed by the projection: faces of a
    nondegenerate simplex may themselves be degenerate and die in the
    quotient.  With this boundary the projection is a chain map:
    project(boundary(c)) == cellular_boundary(project(c)).
    """
    return project(alg, boundary(alg, chain))


def pushforward(mapping: Callable, chain: Chain) -> Chain:
    """Apply an entrywise map to every simplex of the chain."""
    out = Chain(chain.dim)
    for simplex, coeff in chain:
        out.add_term(tuple(mapping(entry) for entry in simplex), coeff)
    return out


# ---------------------------------------------------------------------------
# serialization


def simplex_to_json(alg, simplex: BarSimplex) -> list:
    return [alg.entry_to_json(entry) for entry in simplex]


def term_sort_key(alg, simplex: BarSimplex) -> str:
    # canonical ordering: lexicographic on the serialized entries
    return json.dumps(simplex_to_json(alg, simplex), sort_keys=True)


def chain_to_json(alg, chain: Chain) -> dict:
    """The reference serialization ``chain_payload`` is tested against."""
    terms = sorted(chain, key=lambda item: term_sort_key(alg, item[0]))
    return {
        "dim": chain.dim,
        "terms": [
            {"coeff": coeff, "simplex": simplex_to_json(alg, simplex)}
            for simplex, coeff in terms
        ],
    }


# An entry's place in an expand document: document > "chain" > "terms" >
# term > "simplex" > entry, five levels of two spaces.
_ENTRY_INDENT = "\n" + " " * 10


class EntryText(dict):
    """entry -> (compact JSON, ``indent=2`` JSON at an entry's place in an
    expand document), both from one ``alg.entry_to_json`` call per entry."""

    def __init__(self, alg):
        super().__init__()
        self.alg = alg

    def __missing__(self, entry):
        data = self.alg.entry_to_json(entry)
        indented = json.dumps(data, indent=2, sort_keys=True).replace("\n", _ENTRY_INDENT)
        text = self[entry] = (json.dumps(data, sort_keys=True), _ENTRY_INDENT + indented)
        return text

    def compact(self, simplex: BarSimplex) -> str:
        """``term_sort_key(alg, simplex)``: the simplex as compact JSON."""
        return "[" + ", ".join([self[entry][0] for entry in simplex]) + "]"


def chain_payload(alg, head: dict, chain: Chain) -> Iterator[str]:
    """The pieces of ``json.dumps({**head, "chain": chain_to_json(alg, chain)},
    indent=2, sort_keys=True)``, rendered one term at a time.

    Each distinct entry is serialized once.  The terms are sorted, stably, in
    the order of ``chain_to_json``'s compact keys, but on tuples of small
    ints: position i of a simplex's key is the rank of its entry's compact
    text among the distinct texts, followed by ``", "`` at an inner position
    and by ``"]"`` at the last.  A compact JSON value followed by either is
    never a proper prefix of another followed by the same, so comparing these
    tuples compares the keys, ties included.  The last position needs its own
    table: ``"[1, "`` sorts before ``"[12, "`` but ``"[12]"`` before
    ``"[1]"``.  Beyond the chain and its sorted simplices, memory is one key
    of dim ints per term; no per-term string exists before it is yielded.

    Every ``entry_to_json`` call happens before this returns, so a caller
    that opens its output only afterwards writes nothing when an entry fails
    to serialize.
    """
    text = EntryText(alg)
    for entry in set(itertools.chain.from_iterable(chain.terms)):
        text[entry]
    tables = [_ranks(text, ", ")] * (chain.dim - 1) + [_ranks(text, "]")]
    simplices = sorted(chain.terms, key=lambda simplex: tuple(map(getitem, tables, simplex)))
    document = json.dumps({**head, "chain": None}, indent=2, sort_keys=True)
    before, after = document.split('\n  "chain": null')
    indented = {entry: block for entry, (_, block) in text.items()}
    return _render_chain(chain, simplices, indented, before, after)


def _ranks(text: EntryText, end: str) -> dict:
    """entry -> rank of its compact text followed by ``end`` among the
    distinct texts so followed; equal texts share a rank."""
    order = sorted({compact + end for compact, _ in text.values()})
    rank = dict(zip(order, range(len(order))))
    return {entry: rank[compact + end] for entry, (compact, _) in text.items()}


def _render_chain(chain: Chain, simplices: list, indented: dict, before: str,
                  after: str) -> Iterator[str]:
    yield f'{before}\n  "chain": {{\n    "dim": {chain.dim},\n    "terms": ['
    sep = ""
    for simplex in simplices:
        entries = ",".join(map(indented.__getitem__, simplex))
        body = f"[{entries}\n        ]" if simplex else "[]"
        yield f'{sep}\n      {{\n        "coeff": {chain.terms[simplex]},\n        "simplex": {body}\n      }}'
        sep = ","
    yield ("\n    ]" if simplices else "]") + "\n  }" + after
