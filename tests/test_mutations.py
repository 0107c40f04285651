"""Committed mutations: each deliberately wrong variant of the program, applied
with ``monkeypatch``, must fail the check named beside it, and the unmutated
program must pass that same check.  A mutation that nothing kills stays in
this file as a failing test; it is never dropped."""

import hashlib
import random

import pytest

from barhom import checks
from barhom.cli import main
from barhom.groups import CodedGroup, CyclicGroup

from test_cli import EXPAND_SHA256, _expand_argv


def _mul_memo_ignores_the_right_factor(self, a, b):
    # a coded product cached on the left factor alone
    row = self.rows[a]
    c = row.get(None)
    if c is None:
        c = row[None] = self.code(self.group.mul(self.elems[a], self.elems[b]))
    return c


def _theorem45_cyclic3():
    checks.theorem45(CyclicGroup(3), 5, 3, 5, random.Random(0))


def test_coded_mul_ignoring_the_right_factor_fails_theorem45(monkeypatch):
    _theorem45_cyclic3()
    monkeypatch.setattr(CodedGroup, "mul", _mul_memo_ignores_the_right_factor)
    with pytest.raises(checks.CheckFailure):
        _theorem45_cyclic3()


def _expand_sha256(tmp_path, case):
    path = tmp_path / "out"
    assert main([*_expand_argv(case), "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", ["P concrete json 2", "ed concrete tsv cyclic2*sym3 3"])
def test_entry_decoded_off_by_one_changes_a_golden_hash(monkeypatch, tmp_path, case):
    assert _expand_sha256(tmp_path, case) == EXPAND_SHA256[case]
    monkeypatch.setattr(CodedGroup, "entry_to_json",
                        lambda self, a: self.group.entry_to_json(self.elems[a - 1]))
    assert _expand_sha256(tmp_path, case) != EXPAND_SHA256[case]
