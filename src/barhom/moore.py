"""Bar-construction simplices and the Moore complex.

An n-simplex of the classifying space of a group is the ordered tuple
[g_1, ..., g_n]; here it is a plain Python tuple of entry values.  Entries may
be group elements, formal values or int codes — any value with hashable
canonical equality.  Operations that multiply or recognise entries take the
entry algebra as their first argument, with the interface ``identity``,
``mul`` and ``entry_to_json``: a group, a ``QuintupleAlgebra``, a
``TowerAlgebra`` or a ``groups.CodedAlgebra`` wrapping one of these.  The
chains of P, ed and psi hold the ints of a ``CodedAlgebra``; the uncoded
algebras serve the tests' reference chains and the oracles.

A ``Chain`` is a finite integer formal sum of simplices of one dimension.
Faces follow the bar-construction rule: the 0-th face drops the first entry,
the last face drops the last entry, and an interior face multiplies two
adjacent entries.  The diameter of a chain is the L1 norm of its coefficient
vector, and ``project`` is the quotient map that deletes degenerate terms
(those containing an identity entry).

An entry is the identity exactly when it equals ``alg.identity``, in every
entry algebra, so a simplex is degenerate exactly when ``alg.identity in
simplex``: one scan of the tuple in C, with no call per entry.

Chains accumulate in one loop, ``Chain.add_terms``, under one rule: a
coefficient that reaches zero pops its simplex, so a simplex added again later
moves to the end and the iteration order of a result is fixed by the order of
the additions.  ``add_term`` checks one term's dimension first.  Every
accumulation kernel feeds its raw terms to ``add_terms`` in a fixed order:
``boundary`` (the faces of each simplex in turn on a chain of fewer than
``SMALL_CHAIN`` terms, else built column by column), ``Chain.add_chain``,
``pushforward``, ``shuffles.edgewise`` and ``cylinder.cyl_chain``.  So a
kernel's result is, in order, that of ``add_term`` on its raw terms;
``project`` only filters, as nothing cancels.  A tower stage's raw terms
come from one stream, a pair of lazy iterators from
``homotopy.stage_terms``, which also counts them.  ``homotopy.induct_Q``
updates one dict with the whole stream: when the dict ends with one key per
raw term, ``add_term`` would have inserted each once, in order, nonzero,
and otherwise a raw key repeated and ``ChainError`` is raised.
``induct_Q`` runs on the generic simplex only, at level = dim, where no raw
key repeats; psi elsewhere, on another simplex or at a raised level, sums
the same stream through ``add_terms``, each simplex mapped along the tower
map and the level shift, so its order is that of ``pushforward`` on the
generic chain, which the tests hold it to.
``homotopy.psi_counts`` draws no raw term and builds no psi and no P: a
level certificate on P's letters, pillar table and shuffle tables proves
that no raw key of psi repeats and reads the norms off those tables, or
raises ``ChainError``.  ``TensorChain`` sums through ``add_terms`` too,
after its bidegree check.

``chain_payload`` streams a chain as the UTF-8 bytes of its ``indent=2``
JSON document: ``dim``, then its terms, each ``coeff`` and ``simplex`` (the
``simplex_to_json`` of the term), sorted on the simplex's compact JSON text.
The tests hold it to a reference that builds that document whole.  It
never builds that text: each distinct entry is serialized once, and a term's
sort key is the string of its entries' ranks among the distinct entry texts,
each rank in big-endian bytes of one width.  Inner positions are ranked on
the text followed by ``", "`` and the last position on the text followed by
``"]"``; one table would misplace ``"[12]"`` after ``"[1]"``.  When the two
tables agree and every entry is an int below 256, as in every coded chain
``expand`` was measured on (psi(7) has 127 codes, the largest 189), the key
is built in C: ``bytes(simplex)`` translated through one 256-byte table of
ranks.  Beyond the chain itself, sorting holds one key of dim ranks per
term, one byte a rank while there are fewer than 256 distinct entries.  The
document is returned as pieces, chained by C-level iterators, so no Python
frame runs per piece: each entry's indented block is encoded once, and a
term is a header holding its coefficient, then its entries' blocks by
reference.  A header also carries the tail of the term before it, so no
per-term string is built.  ``cli._write`` joins the pieces in groups and
writes each group at once.
"""

from __future__ import annotations

import itertools
import json
from operator import contains, getitem, itemgetter
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
        if len(simplex) != self.dim:
            raise ChainError(
                f"dimension mismatch: {len(simplex)}-simplex in a {self.dim}-chain"
            )
        self.add_terms(((simplex, coeff),))

    def add_terms(self, items: Iterable) -> None:
        """Sum ``(simplex, coeff)`` pairs in order, without ``add_term``'s
        dimension check: a coefficient that reaches zero pops its simplex,
        and a zero coefficient changes nothing."""
        terms = self.terms
        get, pop = terms.get, terms.pop
        for simplex, coeff in items:
            new = get(simplex, 0) + coeff
            if new:
                terms[simplex] = new
            else:
                pop(simplex, None)

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
        terms = other.terms
        self.add_terms(terms.items() if scale == 1 else zip(terms, map(scale.__mul__, terms.values())))

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


# the fewest terms for which boundary builds columns.  Timed per call by
# timeit over 1-16 terms in dims 2-6, on cyclic7, sym3 and coded sym3 (2-core
# x86-64 VM), the per-simplex sum takes 0.3-0.6 of the column time on one
# term and breaks even at 6-7 terms in dims 5-6 and at 8-9 in dims 2-4
SMALL_CHAIN = 7


def boundary(alg, chain: Chain) -> Chain:
    """Alternating sum of faces, extended linearly; zero in dimension 0.

    The faces d_0 .. d_n are built column by column, as ``face`` builds
    them: d_0 and d_n zip the entry columns without the first or the last,
    and d_i zips them with columns i-1 and i multiplied.  Interleaved per
    simplex and signed from one row per distinct coefficient, they go to
    ``Chain.add_terms``, so the terms, and their order, are those of summing
    ``face`` through ``add_term``, with no Python frame per simplex.

    The column build has a fixed cost of a few microseconds, so a chain of
    fewer than ``SMALL_CHAIN`` terms instead lists each simplex's faces in
    turn, by ``face``'s rule written inline, and sums the same terms in the
    same order.
    """
    n = chain.dim
    out = Chain(max(n - 1, 0))
    if n < 2 or not chain.terms:
        # in dim 1 the two faces of each simplex are both () and cancel
        return out
    if len(chain.terms) < SMALL_CHAIN:
        mul, terms = alg.mul, []
        for s, c in chain.terms.items():
            terms.append((s[1:], c))
            for i in range(1, n):
                terms.append((s[: i - 1] + (mul(s[i - 1], s[i]),) + s[i + 1 :], -c if i & 1 else c))
            terms.append((s[:-1], -c if n & 1 else c))
        out.add_terms(terms)
        return out
    cols = list(zip(*chain.terms))
    faces = [zip(*cols[1:])]
    faces += [zip(*cols[: i - 1], map(alg.mul, cols[i - 1], cols[i]), *cols[i + 1 :]) for i in range(1, n)]
    faces.append(zip(*cols[:-1]))
    coeffs = chain.terms.values()
    rows = {c: ([c, -c] * n)[: n + 1] for c in set(coeffs)}
    out.add_terms(zip(itertools.chain.from_iterable(zip(*faces)),
                      itertools.chain.from_iterable(map(rows.__getitem__, coeffs))))
    return out


def diameter(chain: Chain) -> int:
    return sum(map(abs, chain.terms.values()))


def project(alg, chain: Chain) -> Chain:
    """MacLane projection: delete every degenerate term.  Nothing cancels,
    so the result is the chain's dict filtered."""
    out = Chain(chain.dim)
    e = alg.identity
    out.terms = {s: c for s, c in chain.terms.items() if e not in s}
    return out


def count_degenerate(alg, chain: Chain) -> int:
    """The L1 norm of the degenerate terms: the coefficients whose simplex
    holds the identity, with no call per term."""
    held = map(contains, chain.terms, itertools.repeat(alg.identity))
    return sum(map(abs, itertools.compress(chain.terms.values(), held)))


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
    out.add_terms(zip(map(tuple, map(map, itertools.repeat(mapping), chain.terms)), chain.terms.values()))
    return out


# ---------------------------------------------------------------------------
# serialization


def simplex_to_json(alg, simplex: BarSimplex) -> list:
    return [alg.entry_to_json(entry) for entry in simplex]


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
        """The simplex as compact JSON, ``json.dumps(simplex_to_json(alg,
        simplex), sort_keys=True)``: its key in an expand document's term
        order."""
        return "[" + ", ".join([self[entry][0] for entry in simplex]) + "]"


def chain_payload(alg, head: dict, chain: Chain) -> Iterator[bytes]:
    """The UTF-8 bytes of ``json.dumps({**head, "chain": {"dim": ...,
    "terms": [{"coeff": ..., "simplex": ...}, ...]}}, indent=2,
    sort_keys=True)``, the terms sorted stably on ``EntryText.compact``, as
    pieces that point at pre-encoded entry blocks.

    Each distinct entry is serialized once.  The terms are sorted, stably, in
    the order of their compact keys, but on short byte
    strings: position i of a simplex's key is the rank of its entry's compact
    text among the distinct texts, followed by ``", "`` at an inner position
    and by ``"]"`` at the last, in big-endian bytes of one width.  A compact
    JSON value followed by either is never a proper prefix of another
    followed by the same, so comparing these keys compares the compact keys,
    ties included.  The last position needs its own table: ``"[1, "`` sorts
    before ``"[12, "`` but ``"[12]"`` before ``"[1]"``.

    The two tables agree unless some entry's compact text is a proper prefix
    of another's.  When they agree and every entry is exactly an int in
    ``range(256)``, the simplex is its own byte string of codes, and the key
    is ``bytes(simplex).translate(table)`` with ``table`` mapping each code
    to its rank: the same ranks in one byte each, so the same order and the
    same ties, with no Python call per entry.  Any other chain (entries that
    are not ints, of 256 or more, or whose texts are prefix-related, such as
    ``1`` and ``12``) is sorted on the ranks joined per position.

    Each entry's indented block is then encoded once in two forms: plain for
    the first position of a simplex and with a leading ``b","`` for the
    others.  A term is 1 + dim pieces: a header and its entry blocks by
    reference.  The header is built once per distinct coefficient and opens
    with the constant tail of the term before it and the comma between the
    two; the first term's header has neither, and the last tail goes into
    the closing piece.  So no per-term string exists.  Beyond the chain and
    its sorted simplices, memory is one key of dim ranks per term while
    sorting and the blocks of the distinct entries while rendering.

    Every ``entry_to_json`` call happens before this returns, so a caller
    that opens its output only afterwards writes nothing when an entry fails
    to serialize.
    """
    text = EntryText(alg)
    for entry in set(itertools.chain.from_iterable(chain.terms)):
        text[entry]
    inner, last = _ranks(text, ", "), _ranks(text, "]")
    if inner == last and all(type(entry) is int and 0 <= entry < 256 for entry in text):
        # every entry is its own byte: one table maps it to its rank in C
        table = bytearray(256)
        for entry, rank in inner.items():
            table[entry] = int.from_bytes(rank, "big")
        simplices = sorted(chain.terms, key=lambda simplex: bytes(simplex).translate(table))
    else:
        tables = [inner] * (chain.dim - 1) + [last]
        simplices = sorted(chain.terms, key=lambda simplex: b"".join(map(getitem, tables, simplex)))
    document = json.dumps({**head, "chain": None}, indent=2, sort_keys=True)
    before, after = document.split('\n  "chain": null')
    first = {entry: block.encode() for entry, (_, block) in text.items()}
    later = {entry: b"," + block for entry, block in first.items()}
    places = [first] + [later] * (chain.dim - 1) if chain.dim else []
    return _render_chain(chain, simplices, places, before.encode(), after.encode())


def _ranks(text: EntryText, end: str) -> dict:
    """entry -> rank of its compact text followed by ``end`` among the
    distinct texts so followed, as big-endian bytes of one width for all
    entries; equal texts share a rank."""
    order = sorted({compact + end for compact, _ in text.values()})
    width = (len(text).bit_length() + 7) // 8
    rank = {key: i.to_bytes(width, "big") for i, key in enumerate(order)}
    return {entry: rank[compact + end] for entry, (compact, _) in text.items()}


def _render_chain(chain: Chain, simplices: list, places: list, before: bytes,
                  after: bytes) -> Iterator[bytes]:
    start = b'%s\n  "chain": {\n    "dim": %d,\n    "terms": [' % (before, chain.dim)
    if not simplices:
        return iter((start + b"]\n  }" + after,))
    # a dim-0 chain can hold only the empty simplex, rendered as "[]"
    opening, tail = (b"[", b"\n        ]\n      }") if chain.dim else (b"[]", b"\n      }")
    coeffs = chain.terms
    headers = {coeff: tail + b',\n      {\n        "coeff": %d,\n        "simplex": %s' % (coeff, opening)
               for coeff in set(coeffs.values())}
    columns = [map(place.__getitem__, map(itemgetter(i), simplices)) for i, place in enumerate(places)]
    terms = zip(map(headers.__getitem__, map(coeffs.__getitem__, simplices)), *columns)
    first = next(terms)
    # no tail and no comma before the first term; the last tail closes the list
    return itertools.chain((start + first[0][len(tail) + 1:],), first[1:],
                           itertools.chain.from_iterable(terms), (tail + b"\n    ]\n  }" + after,))
