"""The gates CI runs beyond tier-1, one ``Gate`` row each, and one runner.

Run from anywhere, with no arguments::

    python tests/ci_gates.py

Each row runs ``python -m barhom.cli`` on its argv in a child process, one
child at a time and each in a fresh temporary directory, then prints one
line: the exit code, the wall time, the child's peak RSS and any failures.
The runner exits 1 if any row failed.  Pytest does not collect this file;
``tests/test_ci_gates.py`` guards the table and the runner.

A child's peak is its own ``ru_maxrss``, from ``os.wait4``:
``RUSAGE_CHILDREN`` keeps the largest child seen so far.  A child's
``ru_maxrss`` can start at the runner's own peak RSS, so the runner holds no
output: it hashes each in 1 MB chunks.
"""

import hashlib
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# expand --op psi --dim 6: 317 MB of JSON
PSI_6_SHA256 = "700e17a88a2476141b7ef924c7ec09ecb43206d6b1d288af68f9ca12c2517c46"
# expand --op psi --mode concrete --seed 1 --group sym3 --dim 6: 336 MB of JSON,
# without the newline standard output ends in (251f2a31... with it)
PSI_SYM3_6_SHA256 = "f57dc33d53c14471713a73edae4a645ff86424c5c0d4134c1a7e4508c4bb211f"
# RLIMIT_AS of each fuzzed child: a size that is not refused ends there in a
# MemoryError traceback, which the contract catches, not in the machine's memory
FUZZ_AS = 1536 << 20


class Gate(NamedTuple):
    """``barhom *argv`` in a child process, and what it must do."""

    argv: tuple = ()
    code: int = 0
    peak_mb: float | None = None
    # of the --out file, or of standard output, which must end in a newline,
    # without that newline
    sha256: str | None = None
    # a child still running then is killed, and fails
    timeout_s: float | None = None
    # in place of argv, the first ``fuzz_cases`` argvs of the tier-1 fuzzer,
    # each judged by its contract under an RLIMIT_AS of ``FUZZ_AS`` bytes
    fuzz_cases: int = 0


REFUSAL = dict(code=2, peak_mb=100, timeout_s=60)
GATES = [
    # a non-abelian instance of order 12: 1,885 simplices exhaustively to
    # dim 3, then 500 draws from 20,736 4-simplices, which rarely repeat
    Gate(("verify", "--suite", "theorem45", "--group", "cyclic2*sym3", "--maxdim", "4",
          "--samples", "500", "--seed", "1")),
    # 8,421 simplices exhaustively to dim 3, then 50 draws: P of each
    # distinct simplex is built once, and a 3-simplex keeps its P only if a
    # draw meets it as a face.  About 1.7 s and 18 MB on a 2-core x86-64 VM;
    # a theorem45 that keeps every exhaustive top peaks at 45 MB and fails
    Gate(("verify", "--suite", "theorem45", "--group", "cyclic20", "--maxdim", "4", "--samples", "50"),
         peak_mb=25),
    # the 317 MB document is streamed: the process peaks at 80 MB or less,
    # and the --out file holds the golden bytes
    Gate(("expand", "--op", "psi", "--dim", "6", "--out", "psi6.json"), peak_mb=80, sha256=PSI_6_SHA256),
    # the standard-output path of the same document, hashed as it is read:
    # the golden bytes, then exactly one newline
    Gate(("expand", "--op", "psi", "--dim", "6"), sha256=PSI_6_SHA256),
    # concrete psi is the generic stage of psi(6) streamed forward along
    # x_i -> sigma_i, at a size tier-1's concrete goldens (dim <= 4) do not
    # reach: about 38 MB, and a push that holds the generic top whole peaks
    # near 50 MB and fails
    Gate(("expand", "--op", "psi", "--mode", "concrete", "--seed", "1", "--group", "sym3", "--dim", "6"),
         peak_mb=45, sha256=PSI_SYM3_6_SHA256),
    # the tower identity at level = dim = 7, one level above tier-1's
    # criterion 9 (about 13 s and 500 MB on a 2-core x86-64 VM)
    Gate(("verify", "--suite", "psi", "--level", "7", "--maxdim", "7"), peak_mb=800),
    # gamma(8) = 14,737,536 and q(8) = 5,475,530, one above the enumerated
    # oracle tier-1 holds the count to (m = 7).  The norms are certified off
    # one P per dimension and no psi is built: about 0.15 s and 16.5 MB, so
    # a count that builds psi(7) (about 200 MB) fails
    Gate(("count", "--op", "psi", "--dim", "8", "--cap", "20000000"), peak_mb=40),
    # c(8) = 9,262,006 from the same P's, with no projected copy of psi
    Gate(("count", "--op", "phi", "--dim", "8", "--cap", "20000000"), peak_mb=40),
    # gamma(10) = 3,374,169,568: about 0.2 s and 19.4 MB
    Gate(("count", "--op", "psi", "--dim", "10", "--cap", "10000000000"), peak_mb=40),
    # d_cyl(24) = 419,430,400 terms of P need at least 147 GB at 350 B each,
    # so a cap that admits them is refused before P is built
    Gate(("count", "--op", "psi", "--dim", "24", "--cap", "10000000000"), **REFUSAL),
    # gamma(16) = 271,098,388,781,049,088 and q(16) = 100,722,984,316,460,322,
    # the largest certified count: about 9.5 s and 389 MB on a 2-core x86-64
    # VM, with P_16's 1,114,112 terms held
    Gate(("count", "--op", "psi", "--dim", "16"), peak_mb=450),
    # psi at level 8 is over the term cap on gamma(8), and theorem45 on
    # cyclic100000 would enumerate 10^10 2-simplices: each is refused before
    # anything is built
    Gate(("verify", "--suite", "psi", "--level", "8", "--maxdim", "8"), **REFUSAL),
    Gate(("verify", "--suite", "theorem45", "--group", "cyclic100000", "--maxdim", "2"), **REFUSAL),
    # the boundary of one 1000-cylinder has about 10^9 entries
    Gate(("verify", "--suite", "cylinder", "--maxdim", "1000"), **REFUSAL),
    # every product of sym1000000 takes a million steps: five 2-cylinders
    # ran 49 s before its degree was refused
    Gate(("verify", "--suite", "cylinder", "--group", "sym1000000", "--maxdim", "2", "--samples", "5"), **REFUSAL),
    # theorem45 over sym9 at --maxdim 1 is within the simplex cap, but its
    # instance codes 362,880 elements: it ran 54 s and peaked at 1,012 MB
    # before its order was refused
    Gate(("verify", "--suite", "theorem45", "--group", "sym9", "--maxdim", "1"), **REFUSAL),
    # the tier-1 fuzzer's grammar at more than three times its case count
    Gate(fuzz_cases=1000, timeout_s=20),
]


def _hash(stream, digest) -> bytes:
    """Feed ``stream`` to ``digest`` in 1 MB chunks, all but its last byte,
    and return that byte."""
    last = b""
    for chunk in iter(lambda: stream.read(1 << 20), b""):
        digest.update(last + chunk[:-1])
        last = chunk[-1:]
    return last


def _child(gate: Gate, argv, cwd: str):
    """Run barhom on ``argv`` in ``cwd``: its exit code, or None past the
    gate's timeout, its peak RSS in MB, the SHA-256 of its standard output
    without the last byte, that byte, and its standard error."""
    limit = (lambda: resource.setrlimit(resource.RLIMIT_AS, (FUZZ_AS, FUZZ_AS))) if gate.fuzz_cases else None
    killed, digest = [], hashlib.sha256()
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "barhom.cli", *argv], cwd=cwd, stdout=subprocess.PIPE,
                                stderr=err, env=dict(os.environ, PYTHONPATH=str(SRC)), preexec_fn=limit)
        signal.signal(signal.SIGALRM, lambda *_: killed.append(proc.kill()))
        signal.setitimer(signal.ITIMER_REAL, gate.timeout_s or 0)
        with proc.stdout:
            last = _hash(proc.stdout, digest)
        _, status, usage = os.wait4(proc.pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = None if killed else os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, usage.ru_maxrss / 1024, digest.hexdigest(), last, err.read().decode()


def _failures(gate: Gate, argv, cwd: Path, code, digest: str, last: bytes, err: str) -> list:
    """Why one child of ``gate``, run in ``cwd``, failed: a list of reasons."""
    if code is None:
        return [f"{argv}: past its {gate.timeout_s} s timeout"]
    if gate.fuzz_cases:
        reason = sys.modules["test_cli_fuzz"]._broken(code, err, cwd / "out")
        return [f"{argv}: {reason}"] if reason else []
    failures = [f"exit code not {gate.code}"] if code != gate.code else []
    # every exit 2 is one usage error: one line on standard error, nothing on
    # standard output
    if code == 2 and (len(err.splitlines()) != 1 or last):
        failures.append("not one stderr line and no stdout")
    out = cwd / argv[argv.index("--out") + 1] if "--out" in argv else None
    if gate.sha256 and out and out.exists():
        with open(out, "rb") as f:
            digest = hashlib.sha256()
            digest.update(_hash(f, digest))
        digest, last = digest.hexdigest(), b"\n"
    if gate.sha256 and (digest, last) != (gate.sha256, b"\n"):
        failures.append(f"sha256 {digest}, last byte {last!r}")
    return failures


def run(gate: Gate) -> list:
    """Run ``gate``'s children one at a time, print one line and return the
    gate's failures."""
    argvs = [gate.argv]
    if gate.fuzz_cases:
        sys.path[:0] = [str(SRC), str(TESTS)]
        import test_cli_fuzz
        argvs = test_cli_fuzz.cases(test_cli_fuzz.SEED, gate.fuzz_cases)
    codes, peak, failures, started = set(), 0.0, [], time.perf_counter()
    for argv in argvs:
        with tempfile.TemporaryDirectory() as cwd:
            code, child_peak, *output = _child(gate, argv, cwd)
            failures += _failures(gate, argv, Path(cwd), code, *output)
        codes.add(str(code))
        peak = max(peak, child_peak)
    if peak > (gate.peak_mb or float("inf")):
        failures.append(f"peak above {gate.peak_mb} MB")
    print(f"{' '.join(gate.argv) or f'{gate.fuzz_cases} fuzzed argvs'}: exit {'/'.join(sorted(codes))}, "
          f"wall {time.perf_counter() - started:.1f} s, peak {peak:.0f} MB"
          + "".join(f"; FAIL {reason}" for reason in failures[:3]), flush=True)
    return failures


if __name__ == "__main__":
    sys.exit(any([run(gate) for gate in GATES]))
