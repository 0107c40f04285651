"""Reference implementations the tests hold the package to.

Each builds its result the plain way, apart from the code it checks:

* ``pillar_of_term`` runs the pillar scan for one shuffle term, with the
  component order of the itertools-built ``shuffles``, not the tables
  ``homotopy.p_cylinder_data`` reads;
* ``pillar_system`` keys ``p_cylinder_data``'s pillars by shuffle
  coordinate, for the paper's claims on pillar systems;
* ``P_norms`` builds P_n on the generic simplex with ``homotopy_P`` and
  sums its norms, for the certificate ``homotopy.P_counts`` that reads them
  off P's data;
* ``chain_to_json`` builds an expand document's chain whole, sorted on
  ``term_sort_key``, the compact JSON text of each simplex, for
  ``moore.chain_payload`` and ``moore.EntryText.compact``.
"""

import json

from barhom.homotopy import HomotopyContext, MitosisTower, homotopy_P, p_cylinder_data
from barhom.moore import Chain, count_degenerate, diameter, simplex_to_json
from barhom.shuffles import DimensionMismatch, shuffles


def pillar_of_term(ctx: HomotopyContext, rank: int, p: int, q: int, sigma: tuple) -> tuple:
    """Ordered pillar set of one shuffle term, built by the scan rules."""
    n = len(sigma)
    if p + q != n:
        raise DimensionMismatch(f"p+q = {p + q} != dim = {n}")
    ranked = shuffles(p, q)
    # checked here, since a list index would wrap
    if not 1 <= rank <= len(ranked):
        raise IndexError(f"rank {rank} out of 1..{len(ranked)} for ({p},{q})")
    # component s of the term is g(sigma[i]) at the i-th first-block
    # position, f(sigma[p+j]) at the j-th second-block position
    g_positions = set(ranked[rank - 1].first)
    G = ctx.source
    x = G.identity
    for i in range(p):
        x = G.mul(x, sigma[i])
    pillars = [ctx.m(x)]
    i, j = 0, p
    for pos in range(1, n + 1):
        if pos in g_positions:
            x = G.mul(G.inv(sigma[i]), x)
            i += 1
        else:
            x = G.mul(x, sigma[j])
            j += 1
        pillars.append(ctx.m(x))
    return tuple(pillars)


def pillar_system(ctx: HomotopyContext, sigma: tuple) -> dict:
    """The pillar system of sigma keyed by shuffle coordinate (p, q, rank)."""
    return {
        (p, q, rank): pillars
        for p, q, rank, _sign, _top, _bottom, pillars in p_cylinder_data(ctx, sigma)
    }


def P_norms(tower: MitosisTower, sigma: tuple) -> tuple:
    """``(diameter, degenerate)`` of P_n, the cylinder stage of psi(n) on the
    generic n-simplex ``sigma`` at level n, enumerated: P_n is built whole
    by ``homotopy_P``, which checks the lattice edges of its pillar table
    and the shuffle tables it reads, the premises ``P_counts`` checks too,
    and its norms are summed off its dict."""
    P = homotopy_P(tower.context(len(sigma)), sigma)
    return diameter(P), count_degenerate(tower.algebra, P)


def term_sort_key(alg, simplex: tuple) -> str:
    # canonical ordering: lexicographic on the serialized entries
    return json.dumps(simplex_to_json(alg, simplex), sort_keys=True)


def chain_to_json(alg, chain: Chain) -> dict:
    """The chain of an expand document, built whole."""
    terms = sorted(chain, key=lambda item: term_sort_key(alg, item[0]))
    return {
        "dim": chain.dim,
        "terms": [
            {"coeff": coeff, "simplex": simplex_to_json(alg, simplex)}
            for simplex, coeff in terms
        ],
    }
