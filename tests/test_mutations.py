"""Committed mutations: each deliberately wrong variant of the program, applied
with ``monkeypatch``, must fail the check named beside it, and the unmutated
program must pass that same check.  A mutation that nothing kills stays in
this file as a finding: a strict ``xfail`` whose reason says what misses it,
so the day a check kills it the test fails until the entry is updated; it is
never dropped."""

import argparse
import hashlib
import inspect
import itertools
import json
import os
import random
import re
from operator import itemgetter

import pytest

from barhom import checks, cli, cylinder, groups, homotopy, moore, quintuple, shuffles, words
from barhom.cli import main
from barhom.cylinder import IncompatiblePillars, check_pillars
from barhom.groups import CodedAlgebra, CyclicGroup, FreeGroup, SymmetricGroup, parse_group
from barhom.homotopy import MitosisTower, formal_context, instance_context, p_cylinder_data
from barhom.moore import Chain, ChainError, pushforward
from barhom.quintuple import NonNormalizable, Quintuple, QuintupleAlgebra, VerificationInstance, instance_eval
from barhom.words import Conjugated, PillarWord, TowerAlgebra, value_level

import test_cli
import test_cli_fuzz
import test_cylinder
import test_homotopy
import test_moore
import test_shuffles
import test_words
from oracles import chain_to_json
from test_cli import EXPAND_SHA256, _expand_argv, _expand_psi_3_with_short_writes
from test_homotopy import (TOWER_DIFFERENTIAL_GROUPS, formal_through_instance_mismatch,
                           formal_through_tower_mismatch, naturality_grid, naturality_mismatch)
from test_moore import _prefix_pair_chains


def _mul_memo_ignores_the_right_factor(self, a, b):
    # a coded product cached on the left factor alone
    row = self.rows[a]
    c = row.get(None)
    if c is None:
        c = row[None] = self.code(self.algebra.mul(self.elems[a], self.elems[b]))
    return c


def _theorem45_cyclic3():
    checks.theorem45(CyclicGroup(3), 5, 3, 5, random.Random(0))


def test_coded_mul_ignoring_the_right_factor_fails_theorem45(monkeypatch):
    # the instance's m is computed uncoded, so the wrong coded product breaks
    # a pillar relation of P before any residual is formed
    _theorem45_cyclic3()
    monkeypatch.setattr(CodedAlgebra, "mul", _mul_memo_ignores_the_right_factor)
    with pytest.raises(IncompatiblePillars):
        _theorem45_cyclic3()


def _psi_identity_4(capsys):
    # checks.psi_identity(4, 4), run as the CLI runs it
    code = main(["verify", "--suite", "psi", "--level", "4", "--maxdim", "4"])
    return code, capsys.readouterr().out.splitlines()[-2]


def test_coded_mul_ignoring_the_right_factor_fails_the_psi_identity(monkeypatch, capsys):
    # the same mutation, met by the tower's coded word algebra.  psi(4) on
    # the 1-simplex is psi(1) shifted, built with no level-4 product, so its
    # level-4 values are first multiplied in d psi, where a wrong product
    # leaves a residual term
    assert _psi_identity_4(capsys) == (0, "ok psi identity level 4 dim 4: zero residual")
    monkeypatch.setattr(CodedAlgebra, "mul", _mul_memo_ignores_the_right_factor)
    code, fail = _psi_identity_4(capsys)
    assert code == 1
    assert fail.startswith("FAIL psi: psi identity residual at level 4 dim 1: ")


def _expand_sha256(tmp_path, case):
    path = tmp_path / "out"
    assert main([*_expand_argv(case), "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", ["P concrete json 2", "ed concrete tsv cyclic2*sym3 3", "psi 4"])
def test_entry_decoded_off_by_one_changes_a_golden_hash(monkeypatch, tmp_path, case):
    assert _expand_sha256(tmp_path, case) == EXPAND_SHA256[case]
    monkeypatch.setattr(CodedAlgebra, "entry_to_json",
                        lambda self, a: self.algebra.entry_to_json(self.elems[a - 1]))
    assert _expand_sha256(tmp_path, case) != EXPAND_SHA256[case]


def _constant_pillar_theorem45(capsys, monkeypatch):
    # the constant-pillar run of test_verify_broken_construction_is_exit_1
    monkeypatch.setattr(VerificationInstance, "m", lambda self, x: self.ell)
    code = main(["verify", "--suite", "theorem45", "--maxdim", "2"])
    return code, capsys.readouterr().out.splitlines()[-2]


def test_unchecked_pillars_stop_reporting_incompatible_pillars(monkeypatch, capsys):
    # theorem45's P checks its pillars on the lattice edges of one table per
    # simplex, and nowhere else: with that check gone, the constant pillar
    # is met only by a residual
    code, fail = _constant_pillar_theorem45(capsys, monkeypatch)
    assert code == 1
    assert fail == "FAIL theorem45: IncompatiblePillars: pillar relation fails on the lattice edge [0, 0] -> [0, 1]"
    monkeypatch.setattr(homotopy, "_check_pillar_edges", lambda ctx, sigma, table: None)
    code, fail = _constant_pillar_theorem45(capsys, monkeypatch)
    assert code == 1
    assert fail.startswith("FAIL theorem45: theorem45 residual at dim 1: ")


def _cyl_chain_keeping_zeros(alg, dim, terms):
    # the cylinder kernel with a coefficient that reaches zero left in place
    out = Chain(dim + 1)
    for coeff, top, bottom, pillars in terms:
        if len(top) != dim:
            raise cylinder.TermMismatch(f"cylinder term of dim {len(top)} in a sum over dim {dim}")
        for i in range(dim + 1):
            simplex = bottom[:i] + (pillars[i],) + top[i:]
            out.terms[simplex] = out.terms.get(simplex, 0) + (-1) ** i * coeff
    return out


def test_cyl_chain_keeping_zeros_changes_a_golden_hash(monkeypatch, tmp_path):
    # P over (C3 x C3) x Z5 on a 3-simplex has cylinder terms that cancel
    case = "P concrete json 3"
    assert _expand_sha256(tmp_path, case) == EXPAND_SHA256[case]
    for module in (cylinder, homotopy, checks):
        monkeypatch.setattr(module, "cyl_chain", _cyl_chain_keeping_zeros)
    assert _expand_sha256(tmp_path, case) != EXPAND_SHA256[case]


def _boundary_without_its_sign_flip(alg, chain):
    # the boundary kernel adding every face with the term's own sign
    n = chain.dim
    if n == 0:
        return Chain(0)
    out = Chain(n - 1)
    for simplex, coeff in chain.terms.items():
        faces = [simplex[1:]]
        faces += [simplex[: i - 1] + (alg.mul(simplex[i - 1], simplex[i]),) + simplex[i + 1 :]
                  for i in range(1, n)]
        faces.append(simplex[:-1])
        for f in faces:
            out.add_term(f, coeff)
    return out


def test_boundary_without_its_sign_flip_fails_theorem45(monkeypatch):
    # P of () is zero and the dim-1 residuals still vanish, so the first
    # residual is at dim 2, where P of the faces comes from theorem45's face dict
    _theorem45_cyclic3()
    for module in (moore, homotopy, checks):
        monkeypatch.setattr(module, "boundary", _boundary_without_its_sign_flip)
    with pytest.raises(checks.CheckFailure, match="^theorem45 residual at dim 2: "):
        _theorem45_cyclic3()


def _payloads_match_chain_to_json(cases):
    return [
        b"".join(moore.chain_payload(alg, {}, chain)).decode()
        == json.dumps({"chain": chain_to_json(alg, chain)}, indent=2, sort_keys=True)
        for alg, chain in cases
    ]


def test_one_rank_table_misorders_a_prefix_pair_at_the_last_position(monkeypatch):
    # with inner-position ranks at the last position too, "[1]" sorts before
    # "[12]"; a pair at the first of two positions is still ordered right
    cases = _prefix_pair_chains()
    assert _payloads_match_chain_to_json(cases) == [True, True, True]
    ranks = moore._ranks
    monkeypatch.setattr(moore, "_ranks", lambda text, end: ranks(text, ", "))
    assert _payloads_match_chain_to_json(cases) == [False, False, True]


def _chain_payload_with(monkeypatch, old, new):
    mutant = _recompiled(moore, "chain_payload", old, new)
    monkeypatch.setattr(moore, "chain_payload", mutant)
    monkeypatch.setattr(cli, "chain_payload", mutant)


def test_a_byte_key_in_code_order_changes_a_golden_hash(monkeypatch, tmp_path):
    # psi(5) takes the byte key, and its codes, assigned in the order the
    # tower meets its values, are not in the order of their texts
    case = "psi 5"
    assert _expand_sha256(tmp_path, case) == EXPAND_SHA256[case]
    _chain_payload_with(monkeypatch, "lambda simplex: bytes(simplex).translate(table)", "bytes")
    assert _expand_sha256(tmp_path, case) != EXPAND_SHA256[case]


def test_a_byte_key_despite_two_rank_tables_misorders_a_prefix_pair(monkeypatch):
    # 1 and 12 are one-byte ints whose rank tables disagree; the byte
    # key ranks the last position as an inner one, as one table does
    cases = _prefix_pair_chains()
    assert _payloads_match_chain_to_json(cases) == [True, True, True]
    _chain_payload_with(monkeypatch, "inner == last and ", "")
    assert _payloads_match_chain_to_json(cases) == [False, False, True]


def test_joined_header_without_the_comma_changes_a_golden_hash(monkeypatch, tmp_path):
    # each header that carries the tail of the term before it loses the comma
    # between the two terms
    case = "psi 3"
    assert _expand_sha256(tmp_path, case) == EXPAND_SHA256[case]
    render = moore._render_chain
    monkeypatch.setattr(moore, "_render_chain", lambda *args: (
        piece.replace(b"},\n      {", b"}\n      {") for piece in render(*args)))
    assert _expand_sha256(tmp_path, case) != EXPAND_SHA256[case]


def _write_ignoring_the_count(fd, data):
    # one write per group, as if it always wrote every byte
    os.write(fd, data)


def test_writer_ignoring_the_count_of_write_fails_the_short_write_test(monkeypatch, tmp_path):
    # killed by tests/test_cli.py::test_short_writes_are_completed: the file
    # keeps only the first 1,000 bytes of each group
    assert _expand_psi_3_with_short_writes(monkeypatch, tmp_path)[0] == EXPAND_SHA256["psi 3"]
    monkeypatch.setattr(cli, "_write_all", _write_ignoring_the_count)
    assert _expand_psi_3_with_short_writes(monkeypatch, tmp_path)[0] != EXPAND_SHA256["psi 3"]


_shuffle_places = shuffles.shuffle_places
_table_norms = homotopy._table_norms


def _shuffle_places_with_their_last_two_slots_swapped(p, q):
    # every placement of the table ``ed_terms`` reads, not of the tables its
    # recursion builds from, which the unmutated run has cached
    signs, places = _shuffle_places(p, q)
    if p + q < 2:
        return signs, places
    slots = (place(range(p + q)) for place in places)
    return signs, tuple(itemgetter(*s[:-2] + s[:-3:-1]) for s in slots)


def _recompiled(module, name, old, new):
    """``module.name`` compiled from its source with the one occurrence of
    ``old`` replaced by ``new``, over the module's globals, so that it reads
    (and recurses through) whatever they hold."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), module.__file__, "exec", dont_inherit=True), vars(module), namespace)
    return namespace[name]


@pytest.fixture
def fresh_shuffle_table():
    """The function that empties the cached shuffle tables and their
    certificates, ``shuffle_places`` and ``homotopy._table_norms``.  A test
    that swaps a table calls it once the mutant is in place, so the next P
    or count certifies the mutant's tables, not those a sound run cached;
    and it runs again after the test, so no table or certificate that its
    in-process runs built outlives it."""
    def clear():
        _shuffle_places.cache_clear()
        _table_norms.cache_clear()
    yield clear
    clear()


def test_swapped_placement_slots_fail_the_per_rank_cylinder_data(fresh_shuffle_table, monkeypatch):
    # killed by tests/test_homotopy.py::test_p_cylinder_data_matches_per_rank_terms,
    # whose reference places the entries through the itertools shuffles.
    # The cylinder data read the table through ``shuffles.ed_terms``
    test_homotopy.test_p_cylinder_data_matches_per_rank_terms(CyclicGroup(3))
    monkeypatch.setattr(shuffles, "shuffle_places", _shuffle_places_with_their_last_two_slots_swapped)
    with pytest.raises(AssertionError):
        test_homotopy.test_p_cylinder_data_matches_per_rank_terms(CyclicGroup(3))


def test_tail_shift_off_by_one_slot_fails_the_shuffle_oracle(monkeypatch):
    # killed by tests/test_shuffles.py::test_shuffle_table_matches_itertools_oracle:
    # a tail placement skips the first block's last entry, not the second
    # block's head, so it puts that head in two slots
    test_shuffles.test_shuffle_table_matches_itertools_oracle()
    mutant = _recompiled(shuffles, "shuffle_places", "tuple(range(p)) + tuple(range(p + 1, n))",
                         "tuple(range(p - 1)) + tuple(range(p, n))")
    for module in (shuffles, test_shuffles):
        monkeypatch.setattr(module, "shuffle_places", mutant)
    with pytest.raises(AssertionError):
        test_shuffles.test_shuffle_table_matches_itertools_oracle()


def test_back_bytes_shifted_onto_the_front_fail_the_table_premise_differential(monkeypatch):
    # killed by tests/test_homotopy.py::test_placements_premise_matches_the_per_slot_check:
    # with the back block's bytes the alphabet's first q, as the front
    # block's are, the blocks share a byte, so deleting the back bytes
    # never leaves the front block, and the premise fails on every sound
    # table with both blocks
    test_homotopy.test_placements_premise_matches_the_per_slot_check(monkeypatch)
    mutant = _recompiled(homotopy, "_table_norms", "alphabet[p:n]", "alphabet[:q]")
    monkeypatch.setattr(homotopy, "_table_norms", mutant)
    with pytest.raises(AssertionError):
        test_homotopy.test_placements_premise_matches_the_per_slot_check(monkeypatch)


def test_a_sign_of_2_in_the_top_tables_fails_the_count_certificate(monkeypatch, capsys, fresh_shuffle_table):
    # killed by the sign premise of _table_norms on the tables of total
    # m + 1, which only the corrections of psi(m) read, by their length;
    # left unchecked, a first sign of 2 in each of them lets the count pass
    # with gamma(4) = 1120, while psi(4) drawn through them has L1 norm 1300
    assert main(["count", "--op", "psi", "--dim", "4"]) == 0
    assert capsys.readouterr().out.startswith("ok psi dim 4 level 4: diameter 1120 expected 1120")
    places = shuffles.shuffle_places
    monkeypatch.setattr(homotopy, "shuffle_places", lambda p, q: (
        ((2,) + places(p, q)[0][1:], places(p, q)[1]) if p + q == 5 else places(p, q)))
    fresh_shuffle_table()
    assert main(["count", "--op", "psi", "--dim", "4"]) == 1
    assert capsys.readouterr() == ("", "error: ChainError: the (0, 5) shuffle table: the signs are not one +-1 per place\n")


_tower_entry_to_json = TowerAlgebra.entry_to_json


def _entry_to_json_emitting_gen_e(self, v):
    # no base element equals the stand-in identity, so the encoder keeps the
    # gen record of e, as in F_n(a) m_n(a) = u_n^-1 gen(e) t_n^-1 gen(a) u_n
    identity, self.identity = self.identity, object()
    try:
        return _tower_entry_to_json(self, v)
    finally:
        self.identity = identity


def test_encoder_emitting_gen_e_fails_the_free_reduction_test(monkeypatch):
    # killed by tests/test_words.py::test_encoded_entries_are_freely_reduced
    test_words.test_encoded_entries_are_freely_reduced()
    monkeypatch.setattr(TowerAlgebra, "entry_to_json", _entry_to_json_emitting_gen_e)
    with pytest.raises(AssertionError):
        test_words.test_encoded_entries_are_freely_reduced()


def _count_psi_3(capsys):
    code = main(["count", "--op", "psi", "--dim", "3"])
    return code, capsys.readouterr().out.splitlines()[0]


def test_a_degenerate_norm_skipping_each_cylinders_last_term_fails_the_q_gate(monkeypatch, capsys):
    # killed by the q gate of ``count --op psi``: the certificate counts n - j
    # degenerate terms in an n-cylinder whose first front slot is j, the
    # length of its word after its leading back bytes, and the mutant, which
    # strips the first front byte too, n - 1 - j, so each P_n's degenerate
    # norm loses its 2^n - 1 cylinders with a front slot: q(1) = 1 - 1,
    # q(2) = 5 - 3 + 3 q(1) and q(3) = 17 - 7 + 6 q(1) + 4 q(2), against 1,
    # 8 and 55
    ok = "ok psi dim 3 level 3: diameter 152 expected 152, degenerate 55 expected 55"
    assert _count_psi_3(capsys) == (0, ok)
    monkeypatch.setattr(homotopy, "_table_norms", _recompiled(
        homotopy, "_table_norms", 'map(methodcaller("lstrip", back), words)',
        'map(methodcaller("lstrip", front[:1]), map(methodcaller("lstrip", back), words))'))
    assert _count_psi_3(capsys) == (1, "FAIL " + ok[3:].replace("degenerate 55", "degenerate 18"))


_shuffle_terms = shuffles.shuffle_terms


def _shuffle_terms_dropping_the_last(a, tau):
    # a correction's stream ends one raw term early, its count kept
    keys, coeffs, count = _shuffle_terms(a, tau)
    keys, coeffs = list(keys), list(coeffs)
    return iter(keys[:-1]), iter(coeffs[:-1]), count


def test_a_correction_stream_one_term_short_fails_the_stage_count_check(monkeypatch, capsys):
    # killed by induct_Q's stage count check: a stage whose stream holds
    # fewer terms than its count raises, so expand exits 1 at psi(2), the
    # first stage with a correction, before it writes
    assert main(["expand", "--op", "psi", "--dim", "5", "--out", os.devnull]) == 0
    monkeypatch.setattr(homotopy, "shuffle_terms", _shuffle_terms_dropping_the_last)
    assert main(["expand", "--op", "psi", "--dim", "5", "--out", os.devnull]) == 1
    assert capsys.readouterr() == ("", "error: ChainError: psi(2) on a 2-simplex: 23 distinct keys for 24 raw terms\n")


_conj = TowerAlgebra.conj
_context = MitosisTower.context
_pillar_table = homotopy._pillar_table


def _shuffle_places_with_two_ranks_on_one_position_set(p, q):
    # the second placement of a table of total 6 replaced by the first: at
    # m = 5 only the corrections of psi(5) read those tables
    signs, places = _shuffle_places(p, q)
    return signs, places[:1] + places[:1] + places[2:] if p + q == 6 and len(places) > 1 else places


def _g_as_k(ctx):
    # g(x) as k(x), in any context: the identity of the tower and the
    # instance, another formal letter
    return ctx._replace(g=ctx.k)


def _context_with_g_equal_to_k(tower, level):
    # g(x) coded as the identity, as k(x) is
    return _g_as_k(_context(tower, level))


def _pillar_of_the_inverse(ctx):
    # m(x) as m(x^-1), in any context
    return ctx._replace(m=lambda x: ctx.m(ctx.source.inv(x)))


def _context_with_the_pillar_of_the_inverse(tower, level):
    # m(x) coded as the pillar of x^-1: every table point is still a
    # level-n pillar word, and the pillar relations fail
    return _pillar_of_the_inverse(_context(tower, level))


def _shuffle_places_with_one_placement_twice(p, q):
    # the second placement of a table of two slots or more replaced by the
    # first: P_2's (1, 1) table is the first that P's tables meet
    signs, places = _shuffle_places(p, q)
    return signs, places[:1] + places[:1] + places[2:] if len(places) > 1 else places


def _pillar_table_with(change):
    """``_pillar_table`` with ``change(entries, n, table)`` applied to its
    table."""
    return lambda ctx, sigma: change(ctx.entries, len(sigma), _pillar_table(ctx, sigma))


def _whole_simplex_made_the_empty_interval(entries, n, table):
    # T[0][n], m(sigma), made T[0][0], m(e): a level-n pillar word, but the
    # wrong one
    return table[:n] + table[:1] + table[n + 1:]


def _first_point_made_the_identity(entries, n, table):
    return [entries.identity] + table[1:]


def _first_point_raised_a_level(entries, n, table):
    return [entries.code(entries.elems[table[0]]._replace(level=n + 1))] + table[1:]


_check_pillar_edges = homotopy._check_pillar_edges


def _pillar_outcomes(monkeypatch, ctx, sigma):
    """``(edges, cylinders)``: how the edge check of the pillar table ends,
    and how ``check_pillars`` on every cylinder of ``p_cylinder_data``,
    drawn with the edge check switched off, ends: "holds", or the name of
    what it raised, ``IncompatiblePillars`` or, for a product the algebra
    cannot form, ``NonNormalizable``."""
    def outcome(check):
        try:
            check()
        except (IncompatiblePillars, NonNormalizable) as exc:
            return type(exc).__name__
        return "holds"

    edges = outcome(lambda: _check_pillar_edges(ctx, sigma, homotopy._pillar_table(ctx, sigma)))
    with monkeypatch.context() as unchecked:
        unchecked.setattr(homotopy, "_check_pillar_edges", lambda ctx, sigma, table: None)
        cylinders = outcome(lambda: [check_pillars(ctx.entries, top, bottom, pillars)
                                     for *_, top, bottom, pillars in p_cylinder_data(ctx, sigma)])
    return edges, cylinders


def _pillar_context(mode, n):
    """The formal, word or concrete context of an n-simplex, with the
    simplex: the generic one, or one drawn from sym3."""
    free, sym3 = FreeGroup(n), SymmetricGroup(3)
    if mode == "concrete":
        return instance_context(VerificationInstance(sym3, 5)), checks.random_simplex(sym3, n, random.Random(n))
    return (formal_context(free) if mode == "formal" else MitosisTower(free).context(n)), tuple(free.gens())


@pytest.mark.parametrize("mode", ["formal", "word", "concrete"])
def test_the_edge_check_agrees_with_the_per_cylinder_check(monkeypatch, mode):
    # the oracle of the one pillar check P's builder and certificate run:
    # the per-cylinder check over p_cylinder_data, n 2^n relations, holds
    # exactly where the check of the table's n(n + 1) lattice edges holds,
    # on sound tables and on each pillar-table mutant, every mutant failing
    # both at some n <= 4.  Each mutant is (a change of the table, a change
    # of the context); "g as k" breaks only the edges down a column
    changes = {"sound": (None, None), "whole simplex": (_whole_simplex_made_the_empty_interval, None),
               "first point": (_first_point_made_the_identity, None),
               "pillar of the inverse": (None, _pillar_of_the_inverse), "g as k": (None, _g_as_k)}
    if mode == "word":
        # a level is a tower value's alone
        changes["raised level"] = (_first_point_raised_a_level, None)
    outcomes = {}
    for n in range(1, 5):
        for name, (table_change, context_change) in changes.items():
            ctx, sigma = _pillar_context(mode, n)
            with monkeypatch.context() as mutated:
                if table_change is not None:
                    mutated.setattr(homotopy, "_pillar_table", _pillar_table_with(table_change))
                if context_change is not None:
                    ctx = context_change(ctx)
                edges, cylinders = _pillar_outcomes(monkeypatch, ctx, sigma)
            assert edges == cylinders, (name, n)
            outcomes.setdefault(name, set()).add(edges)
    assert outcomes.pop("sound") == {"holds"}
    assert all(seen - {"holds"} for seen in outcomes.values()), outcomes


def _shuffle_places_with_two_back_entries_swapped(p, q):
    # the first placement of a table whose back block has two entries or
    # more puts its first two back entries in each other's slots, so the
    # path derived from it would step along to the wrong column
    signs, places = _shuffle_places(p, q)
    if q < 2:
        return signs, places
    slots = list(places[0](range(p + q)))
    a, b = slots.index(p), slots.index(p + 1)
    slots[a], slots[b] = p + 1, p
    return signs, (itemgetter(*slots),) + places[1:]


def _shuffle_places_with_a_sign_of_2(p, q):
    signs, places = _shuffle_places(p, q)
    return (2,) + signs[1:], places


def _shuffle_places_with_one_sign_short(p, q):
    # the last sign of a table of two places or more dropped: zip would
    # pair the last place with no sign
    signs, places = _shuffle_places(p, q)
    return signs[:-1] if len(places) > 1 else signs, places


def _shuffle_places_with_two_front_entries_swapped(p, q):
    # the first placement of a table whose front block has two entries or
    # more puts its first two front entries in each other's slots
    signs, places = _shuffle_places(p, q)
    if p < 2:
        return signs, places
    slots = list(places[0](range(p + q)))
    a, b = slots.index(0), slots.index(1)
    slots[a], slots[b] = 1, 0
    return signs, (itemgetter(*slots),) + places[1:]


def _conj_flattening_x_2(self, level, arg, tail=None):
    # F_level(x_2) flattened, as if x_2 were the identity
    return _conj(self, level, self.identity if arg == (2,) else arg, tail)


@pytest.mark.parametrize("mutants, premise", [
    ({"barhom.homotopy.shuffle_places": _shuffle_places_with_two_ranks_on_one_position_set},
     "the (1, 5) shuffle table: two places are equal"),
    ({"barhom.homotopy._pillar_table": _pillar_table_with(_first_point_made_the_identity)},
     "psi(1) on a 1-simplex: a pillar grid point is not a level-1 pillar word"),
    ({"barhom.homotopy._pillar_table": _pillar_table_with(_first_point_raised_a_level)},
     "psi(1) on a 1-simplex: a pillar grid point is not a level-1 pillar word"),
    ({"barhom.words.TowerAlgebra.conj": _conj_flattening_x_2},
     "psi(2) on a 2-simplex: an f or h entry is not a level-2 conjugate"),
    ({"barhom.homotopy.MitosisTower.context": _context_with_g_equal_to_k},
     "psi(1) on a 1-simplex: a g entry is the identity, a pillar word or not below level 1"),
    ({"barhom.homotopy._pillar_table": _pillar_table_with(_whole_simplex_made_the_empty_interval)},
     "pillar relation fails on the lattice edge [0, 0] -> [0, 1]"),
    ({"barhom.homotopy.MitosisTower.context": _context_with_the_pillar_of_the_inverse},
     "pillar relation fails on the lattice edge [0, 0] -> [0, 1]"),
    ({"barhom.homotopy.shuffle_places": _shuffle_places_with_one_placement_twice},
     "the (1, 1) shuffle table: two places are equal"),
    ({"barhom.homotopy.shuffle_places": _shuffle_places_with_two_back_entries_swapped},
     "the (0, 2) shuffle table: a place does not hold each block once, in order"),
    ({"barhom.homotopy.shuffle_places": _shuffle_places_with_a_sign_of_2},
     "the (0, 0) shuffle table: the signs are not one +-1 per place"),
    ({"barhom.homotopy.shuffle_places": _shuffle_places_with_one_sign_short},
     "the (1, 1) shuffle table: the signs are not one +-1 per place"),
    ({"barhom.homotopy.shuffle_places": _shuffle_places_with_two_front_entries_swapped},
     "the (2, 0) shuffle table: a place does not hold each block once, in order"),
], ids=["placements", "P term", "P entry above level", "tau identity", "g identity", "grid point",
        "pillar relation", "P position set", "path step", "sign", "sign count", "front swap"])
def test_a_stage_failing_a_premise_fails_the_count_certificate(monkeypatch, fresh_shuffle_table, mutants, premise):
    # killed by the level certificate of psi_counts: at the first table of
    # total 6 or less that the mutant reaches, in order of total and then of
    # p, as every table is certified before any dimension; else at the
    # first dimension whose letters or pillar table it reaches, where a
    # failing lattice edge is named as on every other path.  Each mutant
    # breaks one premise, on a fresh tower, whose contexts and codes are
    # built under the mutant.  "P term" and "P entry above level" are the
    # table points their P terms' pillars are drawn from
    base = FreeGroup(5)
    sigma = tuple(base.gens())
    assert homotopy.psi_counts(MitosisTower(base), sigma) == (9732, 3613)
    for target, mutant in mutants.items():
        monkeypatch.setattr(target, mutant)
    fresh_shuffle_table()
    with pytest.raises(ChainError, match=f"^{re.escape(premise)}$"):
        homotopy.psi_counts(MitosisTower(base), sigma)


def _run(argv, capsys):
    # exit code, standard output and standard error of one CLI run
    return main(argv), *capsys.readouterr()


def test_one_wrong_pillar_table_point_fails_every_path(monkeypatch, capsys):
    # P's builder and its certificate read the one table and run the one
    # edge check on it, so T[0][n] made T[0][0] fails the certificate of
    # count, the P of expand and the P of verify with the same text
    count = ["count", "--op", "psi", "--dim", "3"]
    expands = [["expand", "--op", "P", "--dim", "3", "--mode", mode, "--out", os.devnull]
               for mode in ("freesym", "word")]
    verify = ["verify", "--suite", "theorem45", "--maxdim", "2"]
    for argv in (count, *expands, verify):
        assert _run(argv, capsys)[0] == 0
    monkeypatch.setattr(homotopy, "_pillar_table", _pillar_table_with(_whole_simplex_made_the_empty_interval))
    failure = "IncompatiblePillars: pillar relation fails on the lattice edge [0, 0] -> [0, 1]"
    assert _run(count, capsys) == (1, "", f"error: {failure}\n")
    for argv in expands:
        assert _run(argv, capsys) == (1, "", "error: IncompatiblePillars: pillar relation fails on the lattice edge "
                                             "[0, 2] -> [0, 3]\n")
    code, out, _err = _run(verify, capsys)
    assert code == 1
    assert out.splitlines()[-2] == f"FAIL theorem45: {failure}"


def _expand_P_through_swapped_back_entries(monkeypatch, capsys, clear):
    # expand --op P --dim 3 with both readers of the shuffle tables,
    # ed_terms and the table check, reading the "path step" mutant
    for module in (shuffles, homotopy):
        monkeypatch.setattr(module, "shuffle_places", _shuffle_places_with_two_back_entries_swapped)
    clear()
    return _run(["expand", "--op", "P", "--dim", "3", "--out", os.devnull], capsys)


def test_homotopy_P_skipping_its_table_check_lets_a_swapped_place_through(monkeypatch, capsys, fresh_shuffle_table):
    # killed by the shuffle-table check of homotopy_P: a place that swaps two
    # back entries steps its cylinder along a lattice edge with the wrong
    # entries, and no lattice edge of the pillar table fails, so without
    # the table check, and with no cylinder checked term by term, expand
    # writes a wrong P and exits 0
    assert _expand_P_through_swapped_back_entries(monkeypatch, capsys, fresh_shuffle_table) == (
        1, "", "error: ChainError: the (0, 3) shuffle table: a place does not hold each block once, in order\n")
    monkeypatch.undo()
    skipping = _recompiled(homotopy, "homotopy_P", "_table_norms(n, p)", "None")
    for module in (homotopy, cli):
        monkeypatch.setattr(module, "homotopy_P", skipping)
    assert _expand_P_through_swapped_back_entries(monkeypatch, capsys, fresh_shuffle_table) == (0, "", "")


_psi = MitosisTower.psi


def _psi_storing_pushforwards(tower, level, sigma):
    # every psi stored, keyed by its level and simplex
    chain = tower._cache[level, sigma] = _psi(tower, level, sigma)
    return chain


def _psi_storing_the_concrete_top(tower, level, sigma):
    # the concrete top built through its private free tower's own psi, which
    # memoizes the generic top
    chain = _psi(tower, level, sigma)
    if tower._generic is not None:
        _psi(tower._generic, level, tuple(FreeGroup(len(sigma)).gens()))
    return chain


def _psi_building_then_pushing(tower, level, sigma):
    # the generic top built whole by induct_Q, then pushed forward
    m = len(sigma)
    generic = tuple(FreeGroup(m).gens())
    free = tower._generic or tower
    if free is tower and sigma == generic:
        return _psi(tower, level, sigma)
    h = tower.tower_map(sigma, level - m)
    chain = homotopy.induct_Q(free, generic)
    return pushforward(lambda c: tower.algebra.code(h(free.algebra.elems[c])), chain)


def test_building_the_generic_top_before_the_push_fails_the_no_top_build_test(monkeypatch):
    # killed by tests/test_homotopy.py::test_a_concrete_top_is_never_built_by_induct_Q;
    # the pushed chain is the same, so only the build itself tells
    test_homotopy.test_a_concrete_top_is_never_built_by_induct_Q(monkeypatch)
    monkeypatch.undo()
    base = parse_group("sym3")
    sigma = tuple(base.sample(random.Random(4)) for _ in range(4))
    streamed = list(MitosisTower(base).psi(4, sigma).terms.items())
    monkeypatch.setattr(MitosisTower, "psi", _psi_building_then_pushing)
    assert list(MitosisTower(base).psi(4, sigma).terms.items()) == streamed
    with pytest.raises(AssertionError):
        test_homotopy.test_a_concrete_top_is_never_built_by_induct_Q(monkeypatch)


@pytest.mark.parametrize("mutant", [_psi_storing_pushforwards, _psi_storing_the_concrete_top],
                         ids=["pushforwards stored", "concrete top stored"])
def test_a_memo_storing_more_than_generic_stages_fails_the_memo_test(monkeypatch, capsys, mutant):
    # killed by tests/test_homotopy.py::test_the_tower_memo_holds_generic_stages_only
    test_homotopy.test_the_tower_memo_holds_generic_stages_only(monkeypatch, capsys)
    monkeypatch.undo()
    monkeypatch.setattr(MitosisTower, "psi", mutant)
    with pytest.raises(AssertionError):
        test_homotopy.test_the_tower_memo_holds_generic_stages_only(monkeypatch, capsys)


def _compare_without(monkeypatch, cls, name):
    """Make the value record ``cls`` compare and hash as if it had no field
    ``name``, so one code stands for values that differ only there."""
    kept = [f for f in cls._fields if f != name]

    def key(value):
        return tuple(getattr(value, f) for f in kept)

    monkeypatch.setattr(cls, "__eq__", lambda self, other: type(other) is cls and key(self) == key(other))
    monkeypatch.setattr(cls, "__hash__", lambda self: hash(key(self)))


# conj_2(y) * x over FreeGroup(2), x = gen 1 and y = gen 2: u2^-1 gen(y) u2 gen(x)
CONJ_2_Y_TIMES_X = [
    {"letter": "u", "level": 2, "arg": None, "inv": True},
    {"letter": "gen", "level": 0, "arg": [2], "inv": False},
    {"letter": "u", "level": 2, "arg": None, "inv": False},
    {"letter": "gen", "level": 0, "arg": [1], "inv": False},
]


def _coded_tower_product_json():
    # conj_2(y) is coded before the product, whose tail is x
    ctx = homotopy.MitosisTower(FreeGroup(2)).context(2)
    y = ctx.f((2,))
    return ctx.entries.entry_to_json(ctx.entries.mul(y, ctx.g((1,))))


def test_conjugated_equality_ignoring_the_tail_changes_a_coded_tower_product(monkeypatch):
    # the product then shares the code of conj_2(y) and decodes without its
    # tail.  The psi identity misses this mutation: psi holds no tail, the
    # tails of the interior faces of d psi sum to zero, and merging values
    # keeps a zero sum zero
    assert _coded_tower_product_json() == CONJ_2_Y_TIMES_X
    _compare_without(monkeypatch, Conjugated, "tail")
    assert _coded_tower_product_json() == CONJ_2_Y_TIMES_X[:3]


def test_quintuple_equality_ignoring_g_changes_a_golden_hash(monkeypatch, tmp_path, capsys):
    # g(x) then shares the identity's code, so a pillar relation of P fails
    # on the formal 1-simplex: exit 1, one line on standard error, no file
    case = "P freesym json 1"
    assert _expand_sha256(tmp_path, case) == EXPAND_SHA256[case]
    _compare_without(monkeypatch, Quintuple, "g_arg")
    path = tmp_path / "mutated"
    assert main([*_expand_argv(case), "--out", str(path)]) == 1
    assert capsys.readouterr().err == ("error: IncompatiblePillars: pillar relation fails on the lattice edge "
                                       "[0, 1] -> [1, 1]\n")
    assert not path.exists()


def _instance_eval_swapping_f_and_g(inst, q):
    return instance_eval(inst, q._replace(f_arg=q.g_arg, g_arg=q.f_arg))


def test_instance_eval_swapping_f_and_g_fails_the_formal_instance_differential(monkeypatch):
    assert formal_through_instance_mismatch(CyclicGroup(3)) is None
    monkeypatch.setattr(quintuple, "instance_eval", _instance_eval_swapping_f_and_g)
    assert formal_through_instance_mismatch(CyclicGroup(3)) == ("P", 1)


_tower_eval = test_homotopy.tower_eval


def _tower_eval_swapping_f_and_g(words, level, q):
    return _tower_eval(words, level, q._replace(f_arg=q.g_arg, g_arg=q.f_arg))


def _tower_eval_dropping_h(words, level, q):
    return _tower_eval(words, level, q._replace(h_arg=words.identity))


@pytest.mark.parametrize("mutant", [_tower_eval_swapping_f_and_g, _tower_eval_dropping_h],
                         ids=["f and g swapped", "h dropped"])
def test_wrong_tower_evaluation_fails_the_formal_tower_differential(monkeypatch, mutant):
    # killed on each group by test_homotopy's formal -> tower differential,
    # at the first 1-simplex and level 1
    for group, maxdim in TOWER_DIFFERENTIAL_GROUPS:
        assert formal_through_tower_mismatch(group, maxdim, 1) is None
    monkeypatch.setattr(test_homotopy, "tower_eval", mutant)
    for group, maxdim in TOWER_DIFFERENTIAL_GROUPS:
        assert formal_through_tower_mismatch(group, maxdim, 1) == ("P", 1, 1)


_quintuple_mul = QuintupleAlgebra.mul


def _mul_crossing_g_without_the_inverse(self, left, right):
    # m(x) g(a) -> k(a) m(a x) in place of k(a) m(a^-1 x)
    out = _quintuple_mul(self, left, right)
    G, a = self.source, right.g_arg
    if left.m_arg is None or a == G.identity:
        return out
    return out._replace(m_arg=G.mul(a, G.mul(a, out.m_arg)))


def test_wrong_m_g_crossing_fails_the_formal_instance_differential(monkeypatch):
    assert formal_through_instance_mismatch(CyclicGroup(3)) is None
    monkeypatch.setattr(QuintupleAlgebra, "mul", _mul_crossing_g_without_the_inverse)
    with pytest.raises(IncompatiblePillars):
        formal_through_instance_mismatch(CyclicGroup(3))


def _induct_Q_adopting_every_dict(tower, sigma):
    # the stage dict taken without its length checks: a repeated raw key
    # keeps its first place and its last coefficient, and a sum of zero stays
    m = len(sigma)
    ctx = tower.context(m or 1)
    out = homotopy.homotopy_P(ctx, sigma)
    keys, coeffs = [out.terms], [out.terms.values()]
    for k in range(1, m):
        pushed = tuple(ctx.f(x) for x in sigma[k:])
        stream = homotopy.shuffle_terms(tower.psi(m - 1, sigma[:k]), pushed)
        keys.append(stream[0])
        coeffs.append(stream[1])
    out.terms = dict(zip(itertools.chain(*keys), itertools.chain(*coeffs)))
    return out


def test_stage_dict_without_its_length_check_fails_the_repeated_term_test(monkeypatch, capsys):
    # killed by tests/test_homotopy.py::test_a_repeated_raw_term_raises: the
    # generic simplex never repeats a raw key, so only a term yielded twice
    # can tell the check is gone
    test_homotopy.test_a_repeated_raw_term_raises(monkeypatch, capsys)
    monkeypatch.undo()
    monkeypatch.setattr(homotopy, "induct_Q", _induct_Q_adopting_every_dict)
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_homotopy.test_a_repeated_raw_term_raises(monkeypatch, capsys)


# the distinct keys and raw terms of each golden's top stage built by induct_Q
_CONCRETE_TOP_STAGE_KEYS = {("cyclic2", 4): (83, 169), ("cyclic3", 3): (47, 80), ("cyclic3", 4): (215, 309)}


@pytest.mark.parametrize("group, dim", list(_CONCRETE_TOP_STAGE_KEYS))
def test_stage_dict_without_its_length_check_changes_a_concrete_golden(monkeypatch, capsys, group, dim):
    # the top stage of each of these concrete psi goldens, built by induct_Q
    # on its own simplex, repeats a raw key: expand then exits 1, and under the
    # mutant it prints other bytes than the golden.  expand streams the generic
    # stage forward instead, so the mutant's tier-1 killer is the repeated-term
    # test above
    psi = MitosisTower.psi

    def top_stage_by_induct_Q(tower, level, sigma):
        if level == len(sigma) == dim:
            return homotopy.induct_Q(tower, sigma)
        return psi(tower, level, sigma)

    assert test_cli.concrete_psi_sha256(capsys, group, dim) == test_cli.PSI_CONCRETE_SHA256[group, dim]
    monkeypatch.setattr(MitosisTower, "psi", top_stage_by_induct_Q)
    argv = ["expand", "--op", "psi", "--mode", "concrete", "--seed", "1", "--group", group, "--dim", str(dim)]
    assert main(argv) == 1
    distinct, count = _CONCRETE_TOP_STAGE_KEYS[group, dim]
    message = f"psi({dim}) on a {dim}-simplex: {distinct} distinct keys for {count} raw terms"
    assert capsys.readouterr().err == f"error: ChainError: {message}\n"
    monkeypatch.setattr(homotopy, "induct_Q", _induct_Q_adopting_every_dict)
    assert test_cli.concrete_psi_sha256(capsys, group, dim) != test_cli.PSI_CONCRETE_SHA256[group, dim]


_image = TowerAlgebra.image


def _image_keeping_a_trivial_conjugation(self, v, base_map, shift):
    # F_L(a) * t goes to F_L(h(a)) * h(t) even where h(a) is the identity
    if isinstance(v, Conjugated):
        return Conjugated(v.level + shift, base_map(v.arg), self.image(v.tail, base_map, shift))
    return _image(self, v, base_map, shift)


def _image_swapping_f_and_m(self, v, base_map, shift):
    if isinstance(v, PillarWord):
        return PillarWord(v.level + shift, base_map(v.m_arg), base_map(v.f_arg))
    return _image(self, v, base_map, shift)


@pytest.mark.parametrize("mutant, mismatch", [
    (_image_keeping_a_trivial_conjugation, (1, 0)),
    (_image_swapping_f_and_m, (1, 1)),
], ids=["trivial conjugation kept", "f and m swapped"])
def test_wrong_tower_map_fails_the_naturality_differential(monkeypatch, mutant, mismatch):
    # killed by test_homotopy's naturality differential on the first cell of
    # its grid: ten cyclic2 2-simplices at level 2
    cases = list(itertools.islice(naturality_grid(10), 10))
    assert naturality_mismatch(cases) is None
    monkeypatch.setattr(TowerAlgebra, "image", mutant)
    assert naturality_mismatch(cases) == ("cyclic2", 2, mismatch)


def _image_shifting_no_pillar(self, v, base_map, shift):
    # F_L(f) * m_L(x) goes to F_L(h(f)) * m_L(h(x)) whatever the shift
    if isinstance(v, PillarWord):
        return _image(self, v, base_map, 0)
    return _image(self, v, base_map, shift)


def _psi_reading_the_memo_at_any_level(tower, level, sigma):
    # the memo of the generic m-simplex returned unshifted at every level
    m = len(sigma)
    if tower._generic is None and m in tower._cache and sigma == tuple(FreeGroup(m).gens()):
        return tower._cache[m]
    return _psi(tower, level, sigma)


@pytest.mark.parametrize("patch", [
    (TowerAlgebra, "image", _image_shifting_no_pillar),
    (MitosisTower, "psi", _psi_reading_the_memo_at_any_level),
], ids=["pillar levels kept", "memo unshifted"])
def test_a_wrong_level_shift_fails_the_shift_differential(monkeypatch, patch):
    # killed by tests/test_homotopy.py::test_induct_Q_fused_corrections_match_oracle,
    # whose oracle builds psi(3) at levels 4 and 5 stage by stage
    test_homotopy.test_induct_Q_fused_corrections_match_oracle(3)
    monkeypatch.setattr(*patch)
    with pytest.raises(AssertionError):
        test_homotopy.test_induct_Q_fused_corrections_match_oracle(3)


def _conj_admitting_a_tail_at_its_level(self, level, arg, tail=None):
    # the tail guard of conj with > in place of >=
    if tail is None:
        tail = self.identity
    if words.value_level(tail) > level:
        raise NonNormalizable("tail must live strictly below the conjugation level")
    if arg == self.identity:
        return tail
    return Conjugated(level, arg, tail)


def test_conj_admitting_a_tail_at_its_level_fails_the_guard_test(monkeypatch):
    # killed by tests/test_words.py::test_conj_needs_a_tail_strictly_below_its_level;
    # no construction builds such a tail, so nothing else sees the guard
    test_words.test_conj_needs_a_tail_strictly_below_its_level()
    monkeypatch.setattr(TowerAlgebra, "conj", _conj_admitting_a_tail_at_its_level)
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_words.test_conj_needs_a_tail_strictly_below_its_level()


def _tensor_boundary_with_the_koszul_sign_of_p_mod_3(alg, tc):
    # shuffles.tensor_boundary with p % 3 in place of p % 2: wrong from p = 3 on
    out = shuffles.TensorChain(tc.dim - 1)
    for (sigma, tau), coeff in tc:
        p, q = len(sigma), len(tau)
        if p > 0:
            sign = 1
            for i in range(p + 1):
                out.add_term((moore.face(alg, i, sigma), tau), sign * coeff)
                sign = -sign
        if q > 0:
            koszul = -1 if p % 3 else 1
            sign = koszul
            for i in range(q + 1):
                out.add_term((sigma, moore.face(alg, i, tau)), sign * coeff)
                sign = -sign
    return out


def test_koszul_sign_of_p_mod_3_fails_the_aw_chain_map_test(monkeypatch):
    # killed by tests/test_shuffles.py::test_aw_is_chain_map on its 4- and
    # 5-simplices; its 3-simplices alone miss it
    test_shuffles.test_aw_is_chain_map()
    monkeypatch.setattr(test_shuffles, "tensor_boundary", _tensor_boundary_with_the_koszul_sign_of_p_mod_3)
    with pytest.raises(AssertionError, match=r"^4\n"):
        test_shuffles.test_aw_is_chain_map()


def _shuffle_terms_without_the_sign(a, tau):
    # every placement's coefficient is -ca, as if each shuffle were even
    keys, _, count = _shuffle_terms(a, tau)
    placements = len(shuffles.shuffle_places(a.dim, len(tau))[0])
    coeffs = (-ca for ca in a.terms.values() for _ in range(placements))
    return keys, coeffs, count


def test_shuffle_terms_without_the_sign_changes_the_psi_3_golden(monkeypatch, tmp_path):
    # killed by the "psi 3" expand golden; the count gates stay blind to it,
    # since no free-tower key repeats and so no sign can cancel a term
    assert _expand_sha256(tmp_path, "psi 3") == EXPAND_SHA256["psi 3"]
    for module in (shuffles, homotopy):
        monkeypatch.setattr(module, "shuffle_terms", _shuffle_terms_without_the_sign)
    assert _expand_sha256(tmp_path, "psi 3") != EXPAND_SHA256["psi 3"]


def _shuffle_terms_counting_one_more(a, tau):
    keys, coeffs, count = _shuffle_terms(a, tau)
    return keys, coeffs, count + 1


def test_term_count_off_by_one_fails_the_fast_path_branch_test(monkeypatch):
    # killed by tests/test_homotopy.py::test_free_towers_never_repeat_a_stage_key:
    # every stage with a correction seems to repeat a raw key, and raises
    test_homotopy.test_free_towers_never_repeat_a_stage_key(4)
    monkeypatch.setattr(homotopy, "shuffle_terms", _shuffle_terms_counting_one_more)
    with pytest.raises(ChainError, match=r"^psi\(2\) on a 2-simplex: 24 distinct keys for 25 raw terms$"):
        test_homotopy.test_free_towers_never_repeat_a_stage_key(4)


def _add_terms_storing_zeros(self, items):
    # the one accumulation loop with a sum of zero stored, not popped
    terms = self.terms
    for simplex, coeff in items:
        terms[simplex] = terms.get(simplex, 0) + coeff


def test_add_terms_storing_zeros_changes_a_golden_hash(monkeypatch, tmp_path):
    # killed by the "P concrete json 3" expand golden, whose cylinder terms
    # cancel: every kernel sums through Chain.add_terms
    case = "P concrete json 3"
    assert _expand_sha256(tmp_path, case) == EXPAND_SHA256[case]
    monkeypatch.setattr(Chain, "add_terms", _add_terms_storing_zeros)
    assert _expand_sha256(tmp_path, case) != EXPAND_SHA256[case]


def _add_terms_adding_the_absolute_value(self, items):
    terms = self.terms
    for simplex, coeff in items:
        new = terms.get(simplex, 0) + abs(coeff)
        if new:
            terms[simplex] = new
        else:
            terms.pop(simplex, None)


def test_add_terms_adding_the_absolute_value_fails_theorem45(monkeypatch):
    # a subtracted chain is then added: at dim 0 the residual ed(f,g) - ed(h,k)
    # of the empty simplex is 2 [].  The psi count gates are blind to it,
    # since no free-tower term cancels and the signs do not enter them
    _theorem45_cyclic3()
    monkeypatch.setattr(Chain, "add_terms", _add_terms_adding_the_absolute_value)
    with pytest.raises(checks.CheckFailure, match=r"^theorem45 residual at dim 0: \{\"coeff\": 2, "):
        _theorem45_cyclic3()


def test_verify_without_its_size_refusals_fails_the_cli_fuzzer(monkeypatch, tmp_path, fresh_shuffle_table):
    # killed by tests/test_cli_fuzz.py::test_every_case_keeps_the_cli_contract:
    # the first case that needs a refusal runs past its deadline
    assert test_cli_fuzz.run_cases(tmp_path)[0] is None
    monkeypatch.setattr(cli, "_refuse_oversized", lambda args, names: None)
    (argv, reason), _ = test_cli_fuzz.run_cases(tmp_path)
    assert argv[0] == "verify"
    assert reason == f"past its {test_cli_fuzz.DEADLINE_S} s deadline"


def test_parse_group_without_its_degree_cap_fails_the_cli_fuzzer(monkeypatch, tmp_path, fresh_shuffle_table):
    # killed by tests/test_cli_fuzz.py::test_every_case_keeps_the_cli_contract:
    # no case meets the degree-cap refusal.  The one verify case over
    # sym1000000 that parses enumerates 171 of its elements before
    # theorem45's term cap refuses it, close to the deadline on a 2-core
    # x86-64 VM, so it either runs past the deadline or ends in that refusal
    test_cli_fuzz.test_every_case_keeps_the_cli_contract(tmp_path)
    monkeypatch.setattr(groups, "SYM_DEGREE_MAX", 10 ** 9)
    broken, refusals = test_cli_fuzz.run_cases(tmp_path)
    if broken is not None:
        argv, reason = broken
        assert "sym1000000" in argv and reason == f"past its {test_cli_fuzz.DEADLINE_S} s deadline"
    else:
        assert ("verify", "error: term cap exceeded: theorem45 enumerates sym1000000^3, "
                          "more than 5000000 simplices") in refusals
    with pytest.raises(AssertionError):
        test_cli_fuzz.test_every_case_keeps_the_cli_contract(tmp_path)


def test_argparse_own_error_fails_the_usage_error_table(monkeypatch, capsys, tmp_path):
    # killed by tests/test_cli.py::test_expand_op_Q_is_a_usage_error: exit 2
    # still, but after argparse's usage synopsis on standard error
    test_cli.test_expand_op_Q_is_a_usage_error(capsys, monkeypatch, tmp_path)
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(AssertionError):
        test_cli.test_expand_op_Q_is_a_usage_error(capsys, monkeypatch, tmp_path)


_cmd_count = cli.cmd_count


def _count_building_psi_before_its_cap_check(args):
    base = FreeGroup(max(args.dim, 1))
    MitosisTower(base).psi(args.dim, tuple(base.gens()[:args.dim]))
    return _cmd_count(args)


def test_count_checking_its_cap_after_psi_fails_the_usage_error_table(monkeypatch, capsys, tmp_path):
    # killed by tests/test_cli.py::test_count_psi_above_cap_is_refused: the
    # refusal keeps its exit code and line, but psi(4) is built first
    test_cli.test_count_psi_above_cap_is_refused(capsys, monkeypatch, tmp_path)
    monkeypatch.setattr(cli, "cmd_count", _count_building_psi_before_its_cap_check)
    with pytest.raises(AssertionError, match="a chain was built before the refusal"):
        test_cli.test_count_psi_above_cap_is_refused(capsys, monkeypatch, tmp_path)


def _chain_equality_ignoring_the_class(self, other):
    return isinstance(other, Chain) and self.dim == other.dim and self.terms == other.terms


def test_chain_equality_ignoring_the_class_fails_the_tensor_chain_test(monkeypatch):
    # killed by tests/test_shuffles.py::test_tensor_chain_never_equals_a_chain:
    # a tensor chain then equals the chain with its dim and dict
    test_shuffles.test_tensor_chain_never_equals_a_chain()
    monkeypatch.setattr(Chain, "__eq__", _chain_equality_ignoring_the_class)
    with pytest.raises(AssertionError):
        test_shuffles.test_tensor_chain_never_equals_a_chain()


_aw = shuffles.aw


def _aw_with_its_coordinates_swapped(chain):
    # front faces of the second coordinates tensor back faces of the first
    return _aw(pushforward(lambda pair: pair[::-1], chain))


def test_aw_with_its_coordinates_swapped_fails_the_edgewise_differential(monkeypatch):
    # killed by tests/test_shuffles.py::test_edgewise_paths_agree_bit_exact at
    # dim 2; at dim 1 the swap only reorders the two terms g(x) and f(x)
    test_shuffles.test_edgewise_paths_agree_bit_exact(2)
    monkeypatch.setattr(shuffles, "aw", _aw_with_its_coordinates_swapped)
    with pytest.raises(AssertionError):
        test_shuffles.test_edgewise_paths_agree_bit_exact(2)


def _mul_caching_a_product_that_raised(self, a, b):
    # the row's slot is filled before the product, so a product that raises
    # leaves the identity's code there
    row = self.rows[a]
    c = row.get(b)
    if c is None:
        row[b] = 0
        c = row[b] = self.code(self.algebra.mul(self.elems[a], self.elems[b]))
    return c


def test_coded_mul_caching_a_raise_fails_the_tower_memo_test(monkeypatch):
    # killed by tests/test_homotopy.py::test_tower_mul_memo_agrees_with_a_fresh_algebra,
    # which calls each product of the tower's coded rows twice
    test_homotopy.test_tower_mul_memo_agrees_with_a_fresh_algebra()
    monkeypatch.setattr(CodedAlgebra, "mul", _mul_caching_a_product_that_raised)
    with pytest.raises(AssertionError):
        test_homotopy.test_tower_mul_memo_agrees_with_a_fresh_algebra()


def test_a_degenerate_norm_counting_the_nondegenerate_terms_fails_the_count_gates(monkeypatch, capsys):
    # killed by tests/test_cli.py::test_count_pass (q) and test_count_phi (c):
    # a cylinder whose first front slot is j has j + 1 nondegenerate terms,
    # counted in place of its n - j degenerate ones.  Stripping the leading
    # front bytes instead is no mutation of the count: over every table of
    # one dimension, swapping the blocks keeps the sum
    test_cli.test_count_pass(capsys)
    test_cli.test_count_phi(capsys)
    monkeypatch.setattr(homotopy, "_table_norms", _recompiled(
        homotopy, "_table_norms", 'sum(map(len, map(methodcaller("lstrip", back), words)))',
        'sum(len(word) + 1 - len(word.lstrip(back)) for word in words)'))
    for test in (test_cli.test_count_pass, test_cli.test_count_phi):
        with pytest.raises(AssertionError):
            test(capsys)


def _cylinder_lemma_keyed_without_pillars(group, maxdim, samples, rng, emit=checks._quiet):
    # the seen-set keyed on top and bottom alone
    seen = set()
    for _ in range(samples):
        dim = rng.randrange(0, maxdim + 1)
        case = checks.random_compatible(group, dim, rng)
        if case[:2] not in seen:
            seen.add(case[:2])
            if checks.boundary(group, checks.cyl(group, *case)) != checks.cylinder_boundary_rhs(group, *case):
                raise checks.CheckFailure(f"cylinder boundary formula fails at dim {dim}")
    emit(f"cylinder boundary lemma on {samples} random compatible cylinders")


def test_cylinder_seen_set_without_the_pillars_fails_the_repeated_draw_test(monkeypatch, capsys):
    # killed by tests/test_cylinder.py::test_a_repeated_draw_cannot_hide_a_failing_cylinder:
    # the failing case differs from an earlier draw only in its pillars, so
    # it goes unchecked
    test_cylinder.test_a_repeated_draw_cannot_hide_a_failing_cylinder(monkeypatch, capsys)
    monkeypatch.undo()
    monkeypatch.setattr(checks, "cylinder_lemma", _cylinder_lemma_keyed_without_pillars)
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_cylinder.test_a_repeated_draw_cannot_hide_a_failing_cylinder(monkeypatch, capsys)


_boundary = moore.boundary


def _boundary_with_a_small_chain_face_sign_flipped(alg, chain):
    # the per-simplex path with the sign of each simplex's last face flipped
    n = chain.dim
    if n < 2 or not 0 < len(chain) < moore.SMALL_CHAIN:
        return _boundary(alg, chain)
    out = Chain(n - 1)
    for s, c in chain.terms.items():
        out.add_terms([(moore.face(alg, i, s), (-1) ** i * c) for i in range(n)] + [(s[:-1], (-1) ** (n + 1) * c)])
    return out


def test_small_chain_path_with_a_face_sign_flipped_fails_the_path_equality_test(monkeypatch):
    # killed by tests/test_moore.py::test_small_chain_path_equals_the_column_path
    test_moore.test_small_chain_path_equals_the_column_path("sym3", monkeypatch)
    monkeypatch.undo()
    monkeypatch.setattr(moore, "boundary", _boundary_with_a_small_chain_face_sign_flipped)
    with pytest.raises(AssertionError):
        test_moore.test_small_chain_path_equals_the_column_path("sym3", monkeypatch)


_theorem_identity_residual = checks.theorem_identity_residual


def _residual_keeping_every_exhaustive_top(ctx, sigma, face_P):
    # every exhaustive top marked to keep its P, met as a face later or not
    if len(sigma) <= checks.EXHAUSTIVE_DIM:
        face_P.setdefault(sigma, None)
    return _theorem_identity_residual(ctx, sigma, face_P)


def test_theorem45_keeping_every_exhaustive_top_fails_the_P_once_test(monkeypatch):
    # killed by tests/test_homotopy.py::test_theorem45_builds_P_once_per_distinct_simplex[sym3],
    # whose draws meet only some of sym3's 216 3-simplices; the verify row
    # of tests/ci_gates.py on cyclic20 sees it as a peak of about 45 MB
    test_homotopy.test_theorem45_builds_P_once_per_distinct_simplex(SymmetricGroup(3), monkeypatch)
    monkeypatch.undo()
    monkeypatch.setattr(checks, "theorem_identity_residual", _residual_keeping_every_exhaustive_top)
    with pytest.raises(AssertionError):
        test_homotopy.test_theorem45_builds_P_once_per_distinct_simplex(SymmetricGroup(3), monkeypatch)


_tower_mul = TowerAlgebra.mul


def _tower_mul_raising_a_level(self, v, w):
    # a product of two values above the base put one level too high
    product = _tower_mul(self, v, w)
    if value_level(v) and value_level(w) and value_level(product):
        return product._replace(level=product.level + 1)
    return product


def test_tower_mul_raising_a_level_fails_the_psi_identity(monkeypatch):
    # killed by tests/test_homotopy.py::test_psi_identity_small_levels[2-2].
    # The level certificate of psi_counts does not see it: its only products
    # are the pillar relations of the lattice edges.  Along an edge the
    # mutant raises both sides, a pillar times f(x) and h(x) times a pillar,
    # to one level, so they stay equal; down an edge one factor is a base
    # element or the identity, so it changes nothing.  Its letters and
    # pillars are built with no product
    test_homotopy.test_psi_identity_small_levels(2, 2)
    monkeypatch.setattr(TowerAlgebra, "mul", _tower_mul_raising_a_level)
    base = FreeGroup(5)
    assert homotopy.psi_counts(MitosisTower(base), tuple(base.gens())) == (9732, 3613)
    with pytest.raises(AssertionError):
        test_homotopy.test_psi_identity_small_levels(2, 2)
