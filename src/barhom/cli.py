"""Command-line surface: tables, expansions, verification, counting, bounds.

Every command is deterministic for fixed flags and seed, and machine-readable
output carries the schema version.  Exit codes: 0 all checks pass, 1 a check
failed or a residual survived, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time

from . import bounds as bd
from .groups import FreeGroup, Group, parse_group
from .moore import (
    Chain,
    boundary,
    cellular_boundary,
    chain_to_json,
    count_degenerate,
    degeneracy,
    diameter,
    face,
    project,
)
from .cylinder import cyl, face_pillar
from .homotopy import (
    MitosisTower,
    formal_context,
    homotopy_P,
    induct_Q,
    instance_context,
    mitosis_context,
    psi_identity_residual,
    theorem_identity_residual,
)
from .quintuple import VerificationInstance
from .shuffles import ed_terms, edgewise, edgewise_chain, edgewise_composite

SCHEMA = "barhom/1"
TERM_CAP = 5_000_000


class CheckFailure(Exception):
    pass


def _write(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


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
        _write("\n".join(lines) + "\n", args.out)
    else:
        payload = {"schema": SCHEMA, "tables": rows}
        _write(json.dumps(payload, indent=2, sort_keys=True), args.out)
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
        return tuple(base.gen(i + 1) for i in range(dim))
    return tuple(base.sample(rng) for _ in range(dim))


def _tower_level(args, dim: int) -> int:
    """The tower level of a psi/phi/Q run: ``--level``, or the dimension.
    The tower homotopy of level n exists only on simplices of dim <= n."""
    level = args.level if args.level is not None else max(dim, 1)
    if level < dim:
        raise ValueError(f"--level {level} is below --dim {dim}")
    return level


def cmd_expand(args) -> int:
    started = time.time()
    rng = random.Random(args.seed)
    dim = args.dim
    level = args.level if args.level is not None else max(dim, 1)
    base = _base_group(args, dim)
    sigma = _generic_simplex(base, dim, rng)

    if args.op in ("psi", "phi", "Q"):
        level = _tower_level(args, dim)
        expected_terms = bd.gamma(dim)
        if expected_terms > args.cap:
            print(f"term cap exceeded: gamma({dim}) = {expected_terms} > {args.cap}", file=sys.stderr)
            return 2
        tower = MitosisTower(base)
        if args.op == "psi":
            chain = tower.psi(level, sigma)
        elif args.op == "phi":
            chain = tower.phi(level, sigma)
        else:
            chain = induct_Q(lambda s: tower.psi(level - 1, s), level, base, sigma)
        alg = tower.algebra
        summary = {
            "diameter": diameter(chain),
            "degenerate_count": count_degenerate(alg, chain),
            "expected_gamma": bd.gamma(dim),
            "expected_q": bd.q_count(dim),
        }
        payload = {"schema": SCHEMA, "op": args.op, "dim": dim, "level": level,
                   "summary": summary, "chain": chain_to_json(alg, chain)}
        _write(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0

    if args.mode == "concrete":
        ctx = instance_context(VerificationInstance(base, args.modulus))
    elif args.mode == "word":
        ctx = mitosis_context(level, base)
    else:
        ctx = formal_context(base)
    alg = ctx.entries

    if args.op == "ed":
        if args.format == "tsv":
            lines = ["p\tq\trank\tsign\timage"]
            for term in ed_terms(ctx.f, ctx.g, sigma):
                image = json.dumps([alg.entry_to_json(e) for e in term.simplex], sort_keys=True)
                lines.append(f"{term.p}\t{term.q}\t{term.rank}\t{term.sign}\t{image}")
            _write("\n".join(lines) + "\n", args.out)
        else:
            chain = edgewise(alg, ctx.f, ctx.g, sigma)
            payload = {"schema": SCHEMA, "op": "ed", "dim": dim, "mode": args.mode,
                       "diameter": diameter(chain), "chain": chain_to_json(alg, chain)}
            _write(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0

    if args.op == "P":
        chain = homotopy_P(ctx, sigma)
        payload = {"schema": SCHEMA, "op": "P", "dim": dim, "mode": args.mode,
                   "diameter": diameter(chain), "expected_d": bd.d_cyl(dim),
                   "chain": chain_to_json(alg, chain)}
        _write(json.dumps(payload, indent=2, sort_keys=True), args.out)
        return 0

    print(f"unknown op {args.op!r}", file=sys.stderr)
    return 2


# -- count ------------------------------------------------------------------------


def cmd_count(args) -> int:
    started = time.time()
    dim = args.dim
    base = FreeGroup(max(dim, 1))
    sigma = tuple(base.gen(i + 1) for i in range(dim))
    # cap the size of the chain the op builds
    if args.op == "P":
        size_name, size = "d_cyl", bd.d_cyl(dim)
    else:
        level = _tower_level(args, dim)
        size_name, size = "gamma", bd.gamma(dim)
    if size > args.cap:
        print(f"term cap exceeded: {size_name}({dim}) = {size} > {args.cap}", file=sys.stderr)
        return 2
    status = "pass"
    lines = []
    if args.op == "P":
        ctx = formal_context(base)
        got = diameter(homotopy_P(ctx, sigma))
        expected = bd.d_cyl(dim)
        if got != expected:
            status = "fail"
        lines.append(f"P dim {dim}: diameter {got} expected {expected}")
    else:
        tower = MitosisTower(base)
        chain = tower.psi(level, sigma)
        alg = tower.algebra
        diam, degen = diameter(chain), count_degenerate(alg, chain)
        if args.op == "psi":
            ok = diam == bd.gamma(dim) and degen == bd.q_count(dim)
            lines.append(
                f"psi dim {dim} level {level}: diameter {diam} expected {bd.gamma(dim)}, "
                f"degenerate {degen} expected {bd.q_count(dim)}"
            )
        else:
            proj = diameter(project(alg, chain))
            ok = proj == bd.c_bound(dim)
            lines.append(f"phi dim {dim} level {level}: diameter {proj} expected {bd.c_bound(dim)}")
        if not ok:
            status = "fail"
    for line in lines:
        print(("ok " if status == "pass" else "FAIL ") + line)
    print(json.dumps(_report("count", status, started), sort_keys=True))
    return 0 if status == "pass" else 1


# -- verify -----------------------------------------------------------------------


def _simplices(group: Group, dim: int):
    return itertools.product(group.elements(), repeat=dim)


def _random_simplex(group: Group, dim: int, rng: random.Random):
    return tuple(group.sample(rng) for _ in range(dim))


def _suite_theorem45(args, rng, emit) -> None:
    group = parse_group(args.group)
    inst = VerificationInstance(group, args.modulus)
    ctx = instance_context(inst)
    for x in group.elements():
        if not inst.relation_holds(x):
            raise CheckFailure(f"instance relation fails at {group.describe(x)}")
    emit(f"instance relation holds on {group.name}")
    exhaustive_dim = min(args.maxdim, 3)
    for m in range(exhaustive_dim + 1):
        checked = 0
        for sigma in _simplices(group, m):
            residual = theorem_identity_residual(ctx, sigma)
            if not residual.is_zero():
                raise CheckFailure(f"theorem45 residual at dim {m}: {_first_term(ctx.entries, residual)}")
            checked += 1
        emit(f"theorem45 identity exhaustive dim {m} ({checked} simplices)")
    if args.maxdim >= 4:
        for _ in range(args.samples):
            sigma = _random_simplex(group, 4, rng)
            residual = theorem_identity_residual(ctx, sigma)
            if not residual.is_zero():
                raise CheckFailure(f"theorem45 residual at dim 4: {_first_term(ctx.entries, residual)}")
        emit(f"theorem45 identity randomized dim 4 ({args.samples} samples)")


def _random_compatible(group: Group, dim: int, rng: random.Random):
    top = _random_simplex(group, dim, rng)
    bottom = _random_simplex(group, dim, rng)
    pillars = [group.sample(rng)]
    for i in range(dim):
        # t_(i+1) = inv(b_(i+1)) t_i a_(i+1) keeps the defining relations
        pillars.append(group.mul(group.inv(bottom[i]), group.mul(pillars[i], top[i])))
    return top, bottom, tuple(pillars)


def _suite_cylinder(args, rng, emit) -> None:
    group = parse_group(args.group)
    count = 0
    for _ in range(args.samples):
        dim = rng.randrange(0, args.maxdim + 1)
        top, bottom, pillars = _random_compatible(group, dim, rng)
        chain = cyl(group, top, bottom, pillars)
        lhs = boundary(group, chain)
        rhs = Chain(dim)
        if dim > 0:
            rhs.add_term(top, 1)
            rhs.add_term(bottom, -1)
            sign = 1
            for i in range(dim + 1):
                side = cyl(group, face(group, i, top), face(group, i, bottom), face_pillar(i, pillars))
                for s, c in side:
                    rhs.add_term(s, -sign * c)
                sign = -sign
        else:
            rhs.add_term(top, 1)
            rhs.add_term(bottom, -1)
        if lhs != rhs:
            raise CheckFailure(f"cylinder boundary formula fails at dim {dim}")
        count += 1
    emit(f"cylinder boundary lemma on {count} random compatible cylinders")


def _suite_psi(args, rng, emit) -> None:
    level = args.level
    base = FreeGroup(max(args.maxdim, 1))
    tower = MitosisTower(base)
    for m in range(min(args.maxdim, level) + 1):
        sigma = tuple(base.gen(i + 1) for i in range(m))
        residual = psi_identity_residual(tower, level, sigma)
        if not residual.is_zero():
            raise CheckFailure(
                f"psi identity residual at level {level} dim {m}: "
                f"{_first_term(tower.algebra, residual)}"
            )
        emit(f"psi identity level {level} dim {m}: zero residual")


def _suite_chainmaps(args, rng, emit) -> None:
    group = parse_group(args.group)
    for _ in range(args.samples // 10 + 1):
        dim = rng.randrange(1, args.maxdim + 1)
        sigma = _random_simplex(group, dim, rng)
        chain = Chain.of(sigma)
        if not boundary(group, boundary(group, chain)).is_zero():
            raise CheckFailure("dd != 0")
        if project(group, boundary(group, chain)) != cellular_boundary(group, project(group, chain)):
            raise CheckFailure("projection is not a chain map")
    emit("dd = 0 and projection chain map on random simplices")
    for _ in range(args.samples // 10 + 1):
        dim = rng.randrange(2, max(args.maxdim, 2) + 1)
        sigma = _random_simplex(group, dim, rng)
        for j in range(dim + 1):
            for i in range(j):
                if face(group, i, face(group, j, sigma)) != face(group, j - 1, face(group, i, sigma)):
                    raise CheckFailure(f"face identity fails at ({i},{j})")
            sj = degeneracy(group, j, sigma)
            if face(group, j, sj) != sigma or face(group, j + 1, sj) != sigma:
                raise CheckFailure(f"degeneracy identity fails at {j}")
    emit("simplicial identities on random simplices")
    base = FreeGroup(args.maxdim)
    ctx = formal_context(base)
    for m in range(1, args.maxdim + 1):
        sigma = tuple(base.gen(i + 1) for i in range(m))
        one = edgewise(ctx.entries, ctx.f, ctx.g, sigma)
        two = edgewise_composite(ctx.entries, ctx.f, ctx.g, Chain.of(sigma))
        if one != two:
            raise CheckFailure(f"edgewise implementations disagree at dim {m}")
        lhs = boundary(ctx.entries, one)
        rhs = edgewise_chain(ctx.entries, ctx.f, ctx.g, boundary(base, Chain.of(sigma)))
        if lhs != rhs:
            raise CheckFailure(f"edgewise is not a chain map at dim {m}")
    emit(f"edgewise code paths agree and are chain maps, dims <= {args.maxdim}")


SUITES = {
    "theorem45": _suite_theorem45,
    "cylinder": _suite_cylinder,
    "psi": _suite_psi,
    "chainmaps": _suite_chainmaps,
}


def _first_term(alg, chain: Chain) -> str:
    simplex, coeff = next(iter(chain))
    entries = [alg.entry_to_json(e) for e in simplex]
    return json.dumps({"coeff": coeff, "simplex": entries}, sort_keys=True)


def cmd_verify(args) -> int:
    started = time.time()
    rng = random.Random(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    status = "pass"
    first = None
    for name in names:
        try:
            SUITES[name](args, rng, lambda msg: print(f"ok {msg}"))
        except CheckFailure as exc:
            status = "residual"
            first = str(exc)
            print(f"FAIL {name}: {exc}")
            break
    extra = {"first_offending": first} if first else None
    print(json.dumps(_report(f"verify --suite {args.suite}", status, started, extra=extra), sort_keys=True))
    return 0 if status == "pass" else 1


# -- bounds -----------------------------------------------------------------------


def cmd_bounds(args) -> int:
    started = time.time()
    reports = [
        bd.rho_bound("general", args.n),
        bd.rho_bound("cha_general", args.n),
        bd.rho_bound("spherical", args.n),
        bd.rho_bound("degree_map", args.n, deg=args.deg),
        bd.rho_bound("two_handle", d_zeta=args.n, d_u=bd.c_bound(3) * args.n),
        bd.rho_bound("du_general", args.n),
    ]
    reports.extend(bd.lens_bounds(max(args.n, 4) + 3))
    reports.extend(bd.chapter6_table())
    payload = {"schema": SCHEMA, "bounds": [r.to_json() for r in reports]}
    _write(json.dumps(payload, indent=2, sort_keys=True), args.out)
    if args.out:
        print(json.dumps(_report("bounds", "pass", started, [args.out]), sort_keys=True))
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barhom",
        description="Controlled chain homotopies, diameter tables, and bound constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="gamma/q/c/d and comparison tables")
    t.add_argument("--max", type=int, default=7)
    t.add_argument("--format", choices=("json", "tsv"), default="tsv")
    t.add_argument("--out")
    t.set_defaults(func=cmd_tables)

    e = sub.add_parser("expand", help="chain expansions of ed/P/Q/psi/phi")
    e.add_argument("--op", choices=("ed", "P", "Q", "psi", "phi"), required=True)
    e.add_argument("--dim", type=int, required=True)
    e.add_argument("--level", type=int)
    e.add_argument("--group", default="cyclic3")
    e.add_argument("--mode", choices=("concrete", "freesym", "word"), default="freesym")
    e.add_argument("--modulus", type=int, default=5)
    e.add_argument("--format", choices=("json", "tsv"), default="json")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--cap", type=int, default=TERM_CAP)
    e.add_argument("--out")
    e.set_defaults(func=cmd_expand)

    v = sub.add_parser("verify", help="identity and property suites")
    v.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    v.add_argument("--group", default="cyclic3")
    v.add_argument("--maxdim", type=int, default=3)
    v.add_argument("--level", type=int, default=3)
    v.add_argument("--modulus", type=int, default=5)
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("count", help="free-symbol diameter and degeneracy counts")
    c.add_argument("--op", choices=("P", "psi", "phi"), default="psi")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--level", type=int)
    c.add_argument("--cap", type=int, default=TERM_CAP)
    c.set_defaults(func=cmd_count)

    b = sub.add_parser("bounds", help="bound constants with provenance")
    b.add_argument("--n", type=int, default=1)
    b.add_argument("--deg", type=int, default=1)
    b.add_argument("--format", choices=("json",), default="json")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CheckFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
