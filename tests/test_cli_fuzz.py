"""A seeded fuzzer of the CLI contract.

Each case is an argv built from the grammar below: a subcommand, its size
options (``SIZES``) and each of its other options with probability one half,
each with a value from that option's table of edge values.  It runs
in-process through ``main()`` and must end

* with exit code 0, 1, 2 or 141,
* with no ``Traceback`` on standard error,
* on exit 2, with exactly one line on standard error,
* after a nonzero exit, with no ``--out`` file,
* within ``DEADLINE_S``: every size is refused before work is spent, so a
  case that runs longer is a size that was not refused.

The tables hold a huge group (``cyclic100000``), a huge element
(``sym1000000``, whose every product takes a million steps), a huge level
(64), a huge sample count and a huge ``--max``, and the seeded cases reach
each of ``verify``'s size refusals, so a ``verify`` without them runs past
the deadline.  They leave out runs that are slow by design within every cap:
``theorem45`` at ``--maxdim 1`` enumerates a group of order up to
40,320 (6-9 s), and the 200 random cylinders of the ``cylinder`` suite
take about 1 s at ``--maxdim 64``, and longer over ``sym9``.
"""

import contextlib
import io
import random
import signal
import time

from barhom.cli import main

# the first seed whose cases reach all six of verify's size refusals, as
# the contract test asserts (none of 0-207 does with this grammar)
SEED = 208
CASES = 300
DEADLINE_S = 1.0
BUDGET_S = 5.0

INTS = ("0", "-1", "1", "2", "3", "64", "65", "x", "")
# the first dims above the caps of verify's psi (gamma(8) > 5,000,000) and
# chainmaps (2**23) suites, in place of 1 and 64, and one far above the
# cylinder suite's ((maxdim + 1)**3)
MAXDIMS = ("0", "-1", "2", "3", "9", "23", "1000", "x", "")
# one far above the caps on verify's --samples and on tables' --max
SAMPLES = ("0", "-1", "1", "2", "3", "64", "65", "1000000000", "x", "")
TABLES_MAXES = ("0", "-1", "1", "2", "3", "64", "65", "100000", "x", "")
GROUPS = ("cyclic3", "sym3", "free2", "cyclic3*", "free0", "cyclic100000", "sym1000000", "", "x")
# files in the test's directory: "out" is removed before each case, and
# "missing" is no directory
OUTS = ("out", "missing/out", "")

# each command's size options come first: argparse stops at the first bad
# option, so an option that comes early is reached by more cases
GRAMMAR = {
    "tables": {"--max": TABLES_MAXES, "--format": ("json", "tsv", "x"), "--out": OUTS},
    "expand": {"--dim": INTS, "--level": INTS, "--cap": INTS,
               "--op": ("ed", "P", "psi", "phi", "Q"), "--group": GROUPS,
               "--mode": ("concrete", "freesym", "word", "x"), "--modulus": INTS,
               "--format": ("json", "tsv"), "--seed": INTS, "--out": OUTS},
    "verify": {"--maxdim": MAXDIMS, "--level": INTS, "--samples": SAMPLES,
               "--suite": ("theorem45", "cylinder", "psi", "chainmaps", "all", "x"),
               "--group": GROUPS, "--modulus": INTS, "--seed": INTS},
    "count": {"--dim": INTS, "--level": INTS, "--cap": INTS, "--op": ("P", "psi", "phi", "x")},
    "bounds": {"--n": INTS, "--deg": INTS, "--out": OUTS},
}
SIZES = {"--max", "--dim", "--level", "--maxdim", "--n"}


def cases(seed=SEED, count=CASES):
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(sorted(GRAMMAR))
        argv = [command]
        for option, values in GRAMMAR[command].items():
            if option in SIZES or rng.random() < 0.5:
                argv += [option, rng.choice(values)]
        yield argv


class _PastDeadline(BaseException):
    """Raised in a case that runs past ``DEADLINE_S``; no handler in the CLI
    catches it."""


def _past_deadline(signum, frame):
    raise _PastDeadline


def _run(argv):
    """(exit code, standard error) of ``main(argv)``, or (None, reason)."""
    err = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()
    except _PastDeadline:
        return None, f"past its {DEADLINE_S} s deadline"
    except Exception as exc:
        return None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _broken(code, err, out):
    """Why a case that ended with ``code`` and ``err`` breaks the contract,
    or None."""
    if code not in (0, 1, 2, 141):
        return f"exit code {code}"
    if "Traceback" in err:
        return "a traceback on standard error"
    lines = err.splitlines()
    if code == 2 and len(lines) != 1:
        return f"{len(lines)} error lines on standard error"
    if code != 0 and out.exists():
        return "an --out file left after a nonzero exit"
    return None


def run_cases(directory, seed=SEED, count=CASES):
    """The first case that breaks the contract, as (argv, reason), or None,
    and the refusals met before it: the stderr lines of ``main`` returning
    2.  ``--out`` files go to ``directory``."""
    out = directory / "out"
    refusals = []
    previous = signal.signal(signal.SIGALRM, _past_deadline)
    try:
        for argv in cases(seed, count):
            argv = [str(directory / arg) if arg in OUTS[:2] else arg for arg in argv]
            out.unlink(missing_ok=True)
            code, err = _run(argv)
            reason = err if code is None else _broken(code, err, out)
            if reason is not None:
                return (argv, reason), refusals
            if code == 2:
                refusals.append((argv[0], err.rstrip("\n")))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return None, refusals


# verify's refusals, which a verify without them cannot finish: theorem45 on
# cyclic100000 above dim 1, psi at a level of 64 or 65 (the only levels of
# the table above the cap), the chainmaps subdivisions, the cylinders of
# dim 1000, 10^9 samples and the products of sym1000000
VERIFY_REFUSALS = ("error: term cap exceeded: theorem45 enumerates cyclic100000^",
                   "error: term cap exceeded: gamma(", "error: term cap exceeded: 2**",
                   "error: term cap exceeded: cylinder boundary",
                   "error: barhom verify: argument --samples: must be <= ",
                   "error: degree cap exceeded: 'sym1000000'")


def test_every_case_keeps_the_cli_contract(tmp_path):
    started = time.perf_counter()
    broken, refusals = run_cases(tmp_path)
    assert broken is None
    assert time.perf_counter() - started <= BUDGET_S
    for refusal in VERIFY_REFUSALS:
        assert any(line.startswith(refusal) for command, line in refusals if command == "verify"), refusal
