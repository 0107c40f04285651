"""The gate table of ``tests/ci_gates.py``: its argvs still parse, its
goldens are tier-1's, and its runner passes the refusal rows in real child
processes and fails them when a bound is tightened or a child's usage error
is more than one line."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ci_gates
from barhom.cli import build_parser
from ci_gates import GATES
from test_cli import PSI_6_SHA256, PSI_SYM3_6_SHA256

REFUSALS = [i for i, gate in enumerate(GATES) if gate.code == 2]

# run() in a fresh interpreter: a child's ru_maxrss starts at the RSS of the
# process that spawns it, and pytest's can be hundreds of MB here
RUN = """
import json, sys
import ci_gates
rows = [ci_gates.GATES[i]._replace(**changes) for i, changes in json.loads(sys.argv[1])]
print(json.dumps([ci_gates.run(row) for row in rows]))
"""


def _failures(rows):
    """The failures of ``run()`` on each (row index, changed fields)."""
    proc = subprocess.run([sys.executable, "-c", RUN, json.dumps(rows)], cwd=Path(ci_gates.__file__).parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("gate", [gate for gate in GATES if gate.argv], ids=lambda gate: " ".join(gate.argv))
def test_every_argv_parses(gate):
    build_parser().parse_args(gate.argv)


def test_every_golden_is_tier_1s():
    assert {gate.sha256 for gate in GATES if gate.sha256} == {PSI_6_SHA256, PSI_SYM3_6_SHA256}


def test_the_refusal_rows_pass_and_fail_when_a_bound_is_tightened():
    # one refusal row for each tightened bound keeps this under a second
    tightened = [{"peak_mb": 1}, {"code": 0}, {"sha256": PSI_6_SHA256}, {"timeout_s": 0.01}]
    failures = _failures([(i, {}) for i in REFUSALS] + list(zip(REFUSALS, tightened)))
    assert len(REFUSALS) == 6
    assert failures[:6] == [[]] * 6
    expected = ["peak above 1 MB", "exit code not 0", f"sha256 {hashlib.sha256().hexdigest()}",
                f"{GATES[REFUSALS[3]].argv}: past its 0.01 s timeout"]
    assert [reasons[0].startswith(prefix) for reasons, prefix in zip(failures[6:], expected)] == [True] * 4


@pytest.mark.parametrize("err, failures", [
    ("error: one line\n", []),
    ("usage: barhom ...\nerror: two lines\n", ["not one stderr line and no stdout"]),
])
def test_an_exit_2_must_be_one_stderr_line(err, failures):
    gate = GATES[REFUSALS[0]]
    assert ci_gates._failures(gate, gate.argv, Path(), 2, hashlib.sha256().hexdigest(), b"", err) == failures
