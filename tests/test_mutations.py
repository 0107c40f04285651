"""Committed mutations: each deliberately wrong variant of the program, applied
with ``monkeypatch``, must fail the check named beside it, and the unmutated
program must pass that same check.  A mutation that nothing kills stays in
this file as a failing test; it is never dropped."""

import hashlib
import json
import random

import pytest

from barhom import checks, cylinder, homotopy, moore
from barhom.cli import main
from barhom.groups import CodedAlgebra, CyclicGroup
from barhom.moore import Chain, chain_payload, chain_to_json
from barhom.quintuple import VerificationInstance

from test_cli import EXPAND_SHA256, _expand_argv
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
    _theorem45_cyclic3()
    monkeypatch.setattr(CodedAlgebra, "mul", _mul_memo_ignores_the_right_factor)
    with pytest.raises(checks.CheckFailure):
        _theorem45_cyclic3()


def _psi_identity_4(capsys):
    # checks.psi_identity(4, 4), run as the CLI runs it
    code = main(["verify", "--suite", "psi", "--level", "4", "--maxdim", "4"])
    return code, capsys.readouterr().out.splitlines()[-2]


def test_coded_mul_ignoring_the_right_factor_fails_the_psi_identity(monkeypatch, capsys):
    # the same mutation, met by the tower's coded word algebra: a wrong
    # product breaks a pillar relation of P before any residual is formed
    assert _psi_identity_4(capsys) == (0, "ok psi identity level 4 dim 4: zero residual")
    monkeypatch.setattr(CodedAlgebra, "mul", _mul_memo_ignores_the_right_factor)
    code, fail = _psi_identity_4(capsys)
    assert code == 1
    assert fail.startswith("FAIL psi: IncompatiblePillars: pillar relation fails at index")


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
    code, fail = _constant_pillar_theorem45(capsys, monkeypatch)
    assert code == 1
    assert fail.startswith("FAIL theorem45: IncompatiblePillars: pillar relation fails at index")
    monkeypatch.setattr(cylinder, "check_pillars", lambda alg, top, bottom, pillars: None)
    code, fail = _constant_pillar_theorem45(capsys, monkeypatch)
    assert "IncompatiblePillars" not in fail


def _cyl_chain_keeping_zeros(alg, dim, terms):
    # the cylinder kernel with a coefficient that reaches zero left in place
    out = Chain(dim + 1)
    for coeff, top, bottom, pillars in terms:
        if len(top) != dim:
            raise cylinder.TermMismatch(f"cylinder term of dim {len(top)} in a sum over dim {dim}")
        cylinder.check_pillars(alg, top, bottom, pillars)
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


def _payloads_match_chain_to_json(cases):
    return [
        "".join(chain_payload(alg, {}, chain))
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
