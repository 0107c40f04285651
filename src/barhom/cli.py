"""Command-line surface: tables, expansions, verification, counting, bounds.

Every command is deterministic for fixed flags and seed, and machine-readable
output carries the schema version.  Exit codes: 0 all checks pass, 1 a check
failed, a residual survived or a construction broke, 2 usage error or
output that cannot be written, 141 standard output closed by its reader.  A
usage error is one ``error:`` line on standard error, a parse error included.
Numbers out of range are usage errors caught at parse time, and
``expand``/``count`` refuse a chain whose known size exceeds ``--cap``, or
cannot fit in physical memory, before building anything; ``verify`` refuses
its suites above ``TERM_CAP`` alike, and a psi identity whose boundary's face
terms cannot fit in memory.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import sys
import time
from typing import Iterable

from . import bounds as bd
from . import checks
from .groups import FreeGroup, Group, parse_group
from .moore import Chain, ChainError, EntryText, chain_payload, count_degenerate, diameter
from .homotopy import (
    MitosisTower,
    P_counts,
    formal_context,
    homotopy_P,
    instance_context,
    psi_counts,
)
from .quintuple import NonNormalizable, VerificationInstance
from .shuffles import ed_terms, edgewise

SCHEMA = "barhom/1"
TERM_CAP = 5_000_000
# a floor on the bytes one chain term takes: psi's dict at m = 8 takes about
# 168 (expand)
TERM_BYTES = 100
# the bytes count is charged per term of P_dim, d_cyl(dim) terms, as when
# it held one P at a time: then it peaked at 308 B per term of P at dim 14
# (87 MB) and 312 B at dim 16 (346 MB), above the interpreter's 15 MB, on a
# 2-core x86-64 VM.  No count op holds a P now: each certifies P from its
# data and holds only the shuffle tables (81 MB at dim 16), so the charge
# overstates its peak.  It stays at the 350 B measured while the shuffle
# tables held each entry's blocks, so no refusal line changes, until one
# cost model predicts each run's peak
P_TERM_BYTES = 350
# a floor on the bytes the psi identity takes per face term of its boundary,
# (d + 1) gamma(d) at dim d: above the interpreter it peaks at 61-62 B per
# face term at d = 5, 6 and 7, since the boundary cancels as it is built
FACE_BYTES = 50
# pieces of a document joined into one buffer per write: a group's size only
# bounds its memory, so it is fixed, not read from sysconf's IOV_MAX
WRITE_GROUP = 1024
TOWER_OPS = ("psi", "phi")


def _write(pieces: Iterable[bytes], out: str | None) -> None:
    """Write a document, given as its UTF-8 pieces, to the file ``out`` or to
    standard output; on standard output it ends in exactly one newline.  An
    ``out`` that cannot be opened or written is a usage error.

    The pieces are joined in groups of at most ``WRITE_GROUP``, and each group
    goes out as one buffer, freed before the next group is joined: to ``out``
    by ``os.write`` (short writes completed), and to standard output through
    ``sys.stdout``.
    """
    pieces = iter(pieces)
    groups = iter(lambda: list(itertools.islice(pieces, WRITE_GROUP)), [])
    if out:
        try:
            fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                for group in groups:
                    _write_all(fd, b"".join(group))
            finally:
                os.close(fd)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None
        return
    last = b""
    for group in groups:
        last = group[-1]
        sys.stdout.write(b"".join(group).decode())
    if not last.endswith(b"\n"):
        sys.stdout.write("\n")


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` ``data`` to ``fd`` until every byte is written."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _report(command: str, status: str, started: float, artifacts=(), extra=None) -> dict:
    report = {
        "schema": SCHEMA,
        "command": command,
        "status": status,
        "artifacts": list(artifacts),
        "timing": round(time.time() - started, 6),
    }
    if extra:
        report.update(extra)
    return report


# -- tables -----------------------------------------------------------------------


def cmd_tables(args) -> int:
    started = time.time()
    rows = bd.table_rows(args.max)
    if args.format == "tsv":
        lines = ["m\tgamma\tq\tc\td\tdelta_bdh"]
        for row in rows:
            delta = "" if row["delta_bdh"] is None else row["delta_bdh"]
            lines.append(f"{row['m']}\t{row['gamma']}\t{row['q']}\t{row['c']}\t{row['d']}\t{delta}")
        _write([("\n".join(lines) + "\n").encode()], args.out)
    else:
        payload = {"schema": SCHEMA, "tables": rows}
        _write([json.dumps(payload, indent=2, sort_keys=True).encode()], args.out)
    report = _report("tables", "pass", started, [args.out] if args.out else [])
    if args.out:
        print(json.dumps(report, sort_keys=True))
    return 0


# -- expand -----------------------------------------------------------------------


def _base_group(args, dim: int) -> Group:
    if args.mode == "concrete":
        return parse_group(args.group)
    return FreeGroup(max(dim, 1))


def _generic_simplex(base: Group, dim: int, rng: random.Random):
    if isinstance(base, FreeGroup):
        if base.rank < dim:
            raise ValueError("free rank below dimension")
        return tuple(base.gens()[:dim])
    return tuple(base.sample(rng) for _ in range(dim))


def _level(args, dim: int) -> int:
    """``--level``, or the dimension.  The tower homotopy of level n behind
    psi/phi exists only on simplices of dim <= n."""
    level = args.level if args.level is not None else max(dim, 1)
    if args.op in TOWER_OPS and level < dim:
        raise ValueError(f"--level {level} is below --dim {dim}")
    return level


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    # sysconf returns -1 for a limit the system leaves indeterminate
    return page * pages if page > 0 and pages > 0 else None


def _check_cap(op: str, dim: int, cap: int, term_bytes: int = TERM_BYTES) -> None:
    """Refuse, before anything is built, an op whose chain on a dim-simplex
    has more than ``cap`` terms: gamma for the tower ops, d_cyl for P and one
    term per shuffle for ed.  A chain within the cap is refused too when its
    terms at ``term_bytes`` each exceed physical memory: ``TERM_BYTES`` for a
    chain that is only held, more for a check that also holds its boundary.
    ``count`` is charged as P at ``P_TERM_BYTES``, whatever its op, as when
    it built one P per dimension.  No ``count`` op builds a P now, ``--op P``
    included: each holds only the shuffle tables, so the charge overstates
    what it holds; the charge and every refusal line are kept unchanged
    until one cost model predicts each run's peak.

    Above dim 64 a cheap lower bound comes first, compared by bit length:
    gamma(dim) >= d_cyl(dim) = 2^dim (dim + 1), and 2^dim for ed.  A bound
    with more bits than ``cap`` refuses at once, where the exact gamma of a
    dim in the thousands takes minutes and the exact size of a dim in the
    millions has too many digits to print; those messages read ``name > cap``.
    """
    if op == "P":
        name, size = f"d_cyl({dim})", bd.d_cyl
    elif op == "ed":
        name, size = f"2**{dim}", lambda m: 2 ** m
    else:
        name, size = f"gamma({dim})", bd.gamma
    if dim > 64:
        low_bits = dim + 1 if op == "ed" else dim + (dim + 1).bit_length()
        # the bound is >= 2**(low_bits - 1), and cap < 2**cap.bit_length()
        if low_bits > cap.bit_length():
            raise ValueError(f"term cap exceeded: {name} > {cap}")
    exact = size(dim)
    if exact > cap:
        raise ValueError(f"term cap exceeded: {name} = {exact} > {cap}")
    memory = _physical_memory()
    if memory is not None and exact * term_bytes > memory:
        raise ValueError(f"out of memory: {name} = {exact} terms take at least "
                         f"{exact * term_bytes} B > {memory} B of physical memory")


def cmd_expand(args) -> int:
    if args.format == "tsv" and args.op != "ed":
        raise ValueError(f"--format tsv is only for --op ed, not --op {args.op}")
    dim = args.dim
    level = _level(args, dim)
    _check_cap(args.op, dim, args.cap)
    base = _base_group(args, dim)
    sigma = _generic_simplex(base, dim, random.Random(args.seed))

    if args.op in TOWER_OPS:
        tower = MitosisTower(base)
        chain = tower.psi(level, sigma) if args.op == "psi" else tower.phi(level, sigma)
        alg = tower.algebra
        summary = {
            "diameter": diameter(chain),
            "degenerate_count": count_degenerate(alg, chain),
            "expected_gamma": bd.gamma(dim),
            "expected_q": bd.q_count(dim),
        }
        head = {"schema": SCHEMA, "op": args.op, "dim": dim, "level": level, "summary": summary}
        _write(chain_payload(alg, head, chain), args.out)
        return 0

    if args.mode == "concrete":
        ctx = instance_context(VerificationInstance(base, args.modulus))
    elif args.mode == "word":
        ctx = MitosisTower(base).context(level)
    else:
        ctx = formal_context(base)
    alg = ctx.entries

    if args.op == "ed":
        if args.format == "tsv":
            # every entry of an image is some f(x) or g(x): serialize them all
            # before --out is opened, then stream one line per shuffle
            text = EntryText(alg)
            for x in sigma:
                text[ctx.f(x)]
                text[ctx.g(x)]
            lines = (f"{p}\t{q}\t{rank}\t{sign}\t{text.compact(image)}\n".encode()
                     for p, q, rank, sign, image in ed_terms(ctx.f, ctx.g, sigma))
            _write(itertools.chain([b"p\tq\trank\tsign\timage\n"], lines), args.out)
        else:
            chain = edgewise(ctx.f, ctx.g, Chain.of(sigma))
            head = {"schema": SCHEMA, "op": "ed", "dim": dim, "mode": args.mode,
                    "diameter": diameter(chain)}
            _write(chain_payload(alg, head, chain), args.out)
        return 0

    chain = homotopy_P(ctx, sigma)
    head = {"schema": SCHEMA, "op": "P", "dim": dim, "mode": args.mode,
            "diameter": diameter(chain), "expected_d": bd.d_cyl(dim)}
    _write(chain_payload(alg, head, chain), args.out)
    return 0


# -- count ------------------------------------------------------------------------


def cmd_count(args) -> int:
    started = time.time()
    dim = args.dim
    level = _level(args, dim)
    _check_cap("P", dim, args.cap, P_TERM_BYTES)
    base = FreeGroup(max(dim, 1))
    sigma = tuple(base.gens()[:dim])
    # every norm is certified off the data each P is built from, and no P
    # or psi is built.  P's diameter is read off the tower's P_dim: the
    # formal letters map onto the tower's, so the distinct keys the
    # certificate proves for the tower's P make the formal P's distinct too.
    # phi's diameter is psi's less its degenerate terms, since projecting
    # only deletes those
    if args.op == "P":
        got, expected = P_counts(MitosisTower(base), sigma)[0], bd.d_cyl(dim)
        ok = got == expected
        line = f"P dim {dim}: diameter {got} expected {expected}"
    else:
        diam, degen = psi_counts(MitosisTower(base), sigma)
        if args.op == "psi":
            ok = diam == bd.gamma(dim) and degen == bd.q_count(dim)
            line = (f"psi dim {dim} level {level}: diameter {diam} expected {bd.gamma(dim)}, "
                    f"degenerate {degen} expected {bd.q_count(dim)}")
        else:
            proj = diam - degen
            ok = proj == bd.c_bound(dim)
            line = f"phi dim {dim} level {level}: diameter {proj} expected {bd.c_bound(dim)}"
    print(("ok " if ok else "FAIL ") + line)
    print(json.dumps(_report("count", "pass" if ok else "fail", started), sort_keys=True))
    return 0 if ok else 1


# -- verify -----------------------------------------------------------------------


# suite name -> run(args, rng, emit); ``verify --suite all`` runs them in this
# order on one rng, so the draws of each suite decide the cases of the next
SUITES = {
    "theorem45": lambda args, rng, emit: checks.theorem45(
        parse_group(args.group), args.modulus, args.maxdim, args.samples, rng, emit),
    "cylinder": lambda args, rng, emit: checks.cylinder_lemma(
        parse_group(args.group), args.maxdim, args.samples, rng, emit),
    "psi": lambda args, rng, emit: checks.psi_identity(args.level, args.maxdim, emit),
    "chainmaps": lambda args, rng, emit: checks.chain_maps(
        parse_group(args.group), args.maxdim, args.samples // 10 + 1, rng, emit),
}


def _refuse_oversized(args, names: list) -> None:
    """Refuse, before any suite runs, a suite of ``names`` over its caps."""
    if "theorem45" in names:
        checks.theorem45_cap(parse_group(args.group), args.maxdim, TERM_CAP)
    if "cylinder" in names and (args.maxdim + 1) ** 3 > TERM_CAP:
        # the rough number of entries in the boundary of one maxdim-cylinder
        raise ValueError(f"term cap exceeded: cylinder boundary ({args.maxdim} + 1)**3 > {TERM_CAP}")
    if "psi" in names:
        dim = min(args.maxdim, args.level)
        _check_cap("psi", dim, TERM_CAP, (dim + 1) * FACE_BYTES)
    if "chainmaps" in names:
        # its edgewise subdivisions of the generic maxdim-simplex
        _check_cap("ed", args.maxdim, TERM_CAP)


def cmd_verify(args) -> int:
    started = time.time()
    rng = random.Random(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    _refuse_oversized(args, names)
    first = None
    for name in names:
        try:
            SUITES[name](args, rng, lambda msg: print(f"ok {msg}"))
        except (checks.CheckFailure, ChainError, NonNormalizable) as exc:
            # a construction that breaks inside a check is a failed check too
            first = str(exc) if isinstance(exc, checks.CheckFailure) else f"{type(exc).__name__}: {exc}"
            print(f"FAIL {name}: {first}")
            break
    status = "pass" if first is None else "residual"
    extra = {"first_offending": first} if first is not None else None
    print(json.dumps(_report(f"verify --suite {args.suite}", status, started, extra=extra), sort_keys=True))
    return 0 if status == "pass" else 1


# -- bounds -----------------------------------------------------------------------


def cmd_bounds(args) -> int:
    started = time.time()
    payload = {"schema": SCHEMA, "bounds": [r.to_json() for r in bd.bound_reports(args.n, args.deg)]}
    _write([json.dumps(payload, indent=2, sort_keys=True).encode()], args.out)
    if args.out:
        print(json.dumps(_report("bounds", "pass", started, [args.out]), sort_keys=True))
    return 0


# -- parser -----------------------------------------------------------------------


def _int_in(low: int, high: int | None = None):
    """An argparse ``type`` for integers >= ``low`` and, given ``high``,
    <= ``high``: anything else is a usage error (exit 2) before any work is
    done."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


NATURAL, POSITIVE = _int_in(0), _int_in(1)
# with N = 1 the connecting element of (G x G) x Z_N is the identity and the
# verification instance degenerates
MODULUS = _int_in(2)
# tables' time grows faster than m**3: --max 1000 takes about 20 s on a 2-core
# x86-64 VM
TABLES_MAX = 1_000
# each sample is bounded by the term caps, so this bounds a suite's time:
# 1,000 cylinders at --maxdim 169, the largest the cylinder cap admits, take
# 58 s on the same VM
SAMPLES_MAX = 1_000


class _Parser(argparse.ArgumentParser):
    """A parser whose errors are usage errors like every refusal: a
    ``ValueError``, one ``error:`` line and exit 2, not a usage synopsis."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="barhom",
        description="Controlled chain homotopies, diameter tables, and bound constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="gamma/q/c/d and comparison tables")
    t.add_argument("--max", type=_int_in(0, TABLES_MAX), default=7)
    t.add_argument("--format", choices=("json", "tsv"), default="tsv")
    t.add_argument("--out")
    t.set_defaults(func=cmd_tables)

    e = sub.add_parser("expand", help="chain expansions of ed/P/psi/phi")
    e.add_argument("--op", choices=("ed", "P", "psi", "phi"), required=True)
    e.add_argument("--dim", type=NATURAL, required=True)
    e.add_argument("--level", type=POSITIVE)
    e.add_argument("--group", default="cyclic3")
    e.add_argument("--mode", choices=("concrete", "freesym", "word"), default="freesym")
    e.add_argument("--modulus", type=MODULUS, default=5)
    e.add_argument("--format", choices=("json", "tsv"), default="json")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--cap", type=NATURAL, default=TERM_CAP)
    e.add_argument("--out")
    e.set_defaults(func=cmd_expand)

    v = sub.add_parser("verify", help="identity and property suites")
    v.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    v.add_argument("--group", default="cyclic3")
    v.add_argument("--maxdim", type=POSITIVE, default=3)
    v.add_argument("--level", type=POSITIVE, default=3)
    v.add_argument("--modulus", type=MODULUS, default=5)
    v.add_argument("--samples", type=_int_in(1, SAMPLES_MAX), default=200)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("count", help="free-symbol diameter and degeneracy counts")
    c.add_argument("--op", choices=("P", "psi", "phi"), default="psi")
    c.add_argument("--dim", type=NATURAL, required=True)
    c.add_argument("--level", type=POSITIVE)
    c.add_argument("--cap", type=NATURAL, default=TERM_CAP)
    c.set_defaults(func=cmd_count)

    b = sub.add_parser("bounds", help="bound constants with provenance")
    b.add_argument("--n", type=NATURAL, default=1)
    b.add_argument("--deg", type=int, default=1)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bounds)

    return parser


def _silence_stdout() -> None:
    """Point the standard output fd at /dev/null, so the flush at
    interpreter shutdown of what is still buffered fails silently too."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    CPython's cyclic garbage collector is paused for the command and turned
    back on afterwards only if it was on.  Its passes walk every tracked
    object, and a command holds millions of chain terms, but barhom builds
    no reference cycle per term: a command leaves only a bounded few hundred
    to few thousand cyclic objects (argparse, the json encoder), which the
    process frees when it exits.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    """The exit code of the command ``argv`` names, with each failure, a
    parse error included, mapped to its code."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        # -h has printed its help
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChainError, NonNormalizable) as exc:
        # a construction that breaks (incompatible pillars, a product outside
        # the rewrite system) is a failed check, raised before --out is opened
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed standard output (``| head``): exit as a shell
        # reports a writer killed by SIGPIPE
        _silence_stdout()
        return 141
    except OSError as exc:
        # ``_write`` turns errors on ``--out`` into usage errors, so this one
        # is from standard output (a full disk, /dev/full)
        _silence_stdout()
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
