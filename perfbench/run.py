"""Benchmark of the barhom CLI: verified count, expansion and verification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``WORKLOADS`` and README.md) from this single driver
process, one child interpreter per CLI operation and one child at a time.
For ``--seconds`` seconds it starts operations back to back; every
operation's output must pass the workload's exactness gate.

``--trace 0`` reports the end-to-end metrics: medians over the operations
of wall time, CPU time, peak RSS and the set-up time of a bare
``import barhom.cli`` interpreter probed before each operation, and
throughput.  Each time is scaled by a reference loop timed next to it, to
cancel changes in machine speed (README.md, "Scaled times").  ``--trace 1`` repeats
the untraced loop, then runs two operations under ``tracer.Tracer`` and
reports per-layer self times, exact counts that must agree between the two
traced operations, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation passed, 1 when one failed its gate, and 2 when the
program could not be set up.  Records of each run (environment, every
operation, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")

MIN_OPS = 3
PROBE_TIMEOUT_S = 30      # one set-up probe
# Times are scaled to the machine speed at which reference_loop() takes
# REFERENCE_S seconds; see README.md, "Scaled times".
REFERENCE_S = 0.1
REFERENCE_ROUNDS = 3
RUN_BUDGET_S = 170        # a run must end within 180 s; children are killed past this

# Published gamma(m) and q(m): diameter and degenerate count of the tower
# homotopy on the generic m-simplex.  Kept here, apart from barhom.bounds, so
# the gate does not trust the program it checks.
GAMMA = {3: 152, 5: 9732, 6: 98336}
Q = {3: 55, 5: 3613, 6: 36532}
# SHA-256 of `barhom expand --op psi --dim m --out f`, recorded at the commit
# that introduced this benchmark; any change to the written bytes fails.
EXPAND_SHA256 = {
    3: "e2772d9821c5413bd5883a8dac75bc74bbe5e9f8ad376d65f31a8c2f60ab8f65",
    5: "529460d9ad24bc450e4bc62141e9b1bca1e65f564290be4e73bcd891eb906d30",
}
VERIFY_GROUP_ORDER = 3   # cyclic3, the CLI's default group
VERIFY_LEVEL = 3         # the CLI's default --level


# -- workloads -------------------------------------------------------------------


@dataclass
class Gate:
    ok: bool
    detail: str
    terms: int = 0
    checks: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, str], list]        # (seed, out path) -> CLI arguments
    check: Callable[[int, str, str, bool], Gate]  # (rc, stdout, out path, first op)


def _report_ok(line: str, command: str) -> bool:
    try:
        report = json.loads(line)
    except ValueError:
        return False
    return report.get("command") == command and report.get("status") == "pass"


def count_workload(dim: int) -> Workload:
    expected = (
        f"ok psi dim {dim} level {dim}: diameter {GAMMA[dim]} expected {GAMMA[dim]}, "
        f"degenerate {Q[dim]} expected {Q[dim]}"
    )

    def check(rc, stdout, out_path, first):
        lines = stdout.splitlines()
        if rc != 0 or len(lines) != 2 or lines[0] != expected or not _report_ok(lines[1], "count"):
            return Gate(False, f"count: rc={rc}, output {lines!r}, expected {expected!r}")
        return Gate(True, "diameter = gamma, degenerate = q", terms=GAMMA[dim], checks=2)

    return Workload(f"count-psi-m{dim}", lambda seed, out: ["count", "--op", "psi", "--dim", str(dim)], check)


def expand_workload(dim: int) -> Workload:
    def check(rc, stdout, out_path, first):
        if rc != 0 or stdout:
            return Gate(False, f"expand: rc={rc}, stdout {stdout[:200]!r}")
        with open(out_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest != EXPAND_SHA256[dim]:
            return Gate(False, f"expand: sha256 {digest} != golden {EXPAND_SHA256[dim]}")
        # equal bytes give an equal summary, so the summary is parsed only
        # for the first operation of a run
        terms = GAMMA[dim]
        if first:
            payload = json.loads(data)
            summary = payload["summary"]
            want = {"diameter": GAMMA[dim], "degenerate_count": Q[dim],
                    "expected_gamma": GAMMA[dim], "expected_q": Q[dim]}
            terms = len(payload["chain"]["terms"])
            if summary != want or terms != GAMMA[dim]:
                return Gate(False, f"expand: summary {summary}, {terms} terms; expected {want}")
        return Gate(True, "summary = gamma/q, sha256 = golden", terms=terms, checks=3)

    def argv(seed, out):
        return ["expand", "--op", "psi", "--dim", str(dim), "--seed", str(seed), "--out", out]

    return Workload(f"expand-psi-m{dim}", argv, check)


def verify_workload(maxdim: int, samples: int) -> Workload:
    exhaustive = range(min(maxdim, 3) + 1)
    expected = ["ok instance relation holds on cyclic3"]
    expected += [
        f"ok theorem45 identity exhaustive dim {m} ({VERIFY_GROUP_ORDER ** m} simplices)"
        for m in exhaustive
    ]
    if maxdim >= 4:
        expected.append(f"ok theorem45 identity randomized dim 4 ({samples} samples)")
    expected.append(f"ok cylinder boundary lemma on {samples} random compatible cylinders")
    psi_dims = range(min(maxdim, VERIFY_LEVEL) + 1)
    expected += [f"ok psi identity level {VERIFY_LEVEL} dim {m}: zero residual" for m in psi_dims]
    expected += [
        "ok dd = 0 and projection chain map on random simplices",
        "ok simplicial identities on random simplices",
        f"ok edgewise code paths agree and are chain maps, dims <= {maxdim}",
    ]
    # cases checked: instance relation on each element, theorem 4.5 on each
    # simplex, the cylinder lemma on each cylinder, psi on each dimension,
    # two chain-map checks on samples // 10 + 1 simplices each, edgewise
    # on each dimension
    checks = (
        VERIFY_GROUP_ORDER
        + sum(VERIFY_GROUP_ORDER ** m for m in exhaustive)
        + (samples if maxdim >= 4 else 0)
        + samples
        + len(psi_dims)
        + 2 * (samples // 10 + 1)
        + maxdim
    )

    def check(rc, stdout, out_path, first):
        lines = stdout.splitlines()
        if rc != 0 or lines[:-1] != expected or not _report_ok(lines[-1], "verify --suite all"):
            return Gate(False, f"verify: rc={rc}, output {lines!r}")
        return Gate(True, "every suite line ok", terms=checks, checks=checks)

    def argv(seed, out):
        return ["verify", "--suite", "all", "--maxdim", str(maxdim),
                "--samples", str(samples), "--seed", str(seed)]

    return Workload(f"verify-all-m{maxdim}", argv, check)


WORKLOADS = {w.name: w for w in (count_workload(6), expand_workload(5), verify_workload(4, 800))}
# The same three paths at sizes that finish in well under a second.
SMOKE = {
    "count-psi-m6": count_workload(3),
    "expand-psi-m5": expand_workload(3),
    "verify-all-m4": verify_workload(3, 20),
}


# -- metrics ----------------------------------------------------------------------

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "terms_per_s": "1/s",
    "checks_per_s": "1/s",
}

# name -> unit; see README.md for the end-to-end metric each should move
PER_LAYER = {
    "shuffles.ez.self_s": "s",
    "shuffles.ez.terms_out": "count",
    "shuffles.mult_map.self_s": "s",
    "shuffles.mult_map.terms_out": "count",
    "shuffles.tensor_of_chains.self_s": "s",
    "moore.chain_sub.self_s": "s",
    "moore.chain_sub.terms_copied": "count",
    "moore.count_degenerate.self_s": "s",
    "moore.kept_ratio": "ratio",
    "homotopy.homotopy_P.calls": "count",
    "homotopy.homotopy_P.self_s": "s",
    "homotopy.homotopy_P.terms_out": "count",
    "homotopy.induct_Q.calls": "count",
    "homotopy.induct_Q.self_s": "s",
    "homotopy.tower.cache_hit_ratio": "ratio",
    "cylinder.cyl.calls": "count",
    "cylinder.cyl.self_s": "s",
    "cylinder.check_pillars.self_s": "s",
    "shuffles.shuffle_term.calls": "count",
    "shuffles.shuffle_term.self_s": "s",
    "shuffles.shuffle_at.calls": "count",
    "shuffles.shuffle_at.self_s": "s",
    "shuffles.shuffles.self_s": "s",
    "shuffles.edgewise.self_s": "s",
    "homotopy.pillar_of_term.self_s": "s",
    "moore.boundary.self_s": "s",
    "words.TowerAlgebra.mul.calls": "count",
    "groups.FreeGroup.mul.calls": "count",
    "groups.CyclicGroup.mul.calls": "count",
    "groups.DirectProduct.mul.calls": "count",
    "quintuple.QuintupleAlgebra.mul.calls": "count",
    "moore.chain_to_json.self_s": "s",
    "cli.json_dumps.self_s": "s",
    "cli.output_bytes": "B",
    "layer.homotopy.self_s": "s",
    "layer.shuffles.self_s": "s",
    "layer.cylinder.self_s": "s",
    "layer.moore.self_s": "s",
    "layer.cli.self_s": "s",
    "trace.spans": "count",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metric(name: str, op: dict):
    """One per-layer metric of one traced operation."""
    trace, counts = op["trace"], op["trace"]["counts"]
    if name == "moore.kept_ratio":
        return _ratio(counts.get("induct_Q.kept", 0), counts.get("induct_Q.emitted", 0))
    if name == "homotopy.tower.cache_hit_ratio":
        return _ratio(counts.get("homotopy.tower.cache_hits", 0), counts.get("homotopy.tower.lookups", 0))
    if name == "cli.output_bytes":
        return op["output_bytes"]
    if name == "trace.spans":
        return trace["spans"]
    if name == "trace.traced_wall_s":
        return op["wall_s"]
    if name.startswith("layer."):
        return trace["layer_self_s"].get(name.split(".")[1], 0.0)
    base, _, kind = name.rpartition(".")
    if kind == "self_s":
        return trace["self_s"].get(base, 0.0)
    if kind == "calls":
        return trace["calls"].get(base, 0)
    return counts.get(name, 0)


# -- running ----------------------------------------------------------------------


class SetupError(Exception):
    pass


def measure_setup() -> float:
    """Seconds to start an interpreter and import barhom.cli."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import barhom.cli"
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupError(f"import barhom.cli took over {PROBE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise SetupError(f"import barhom.cli failed:\n{proc.stderr}")
    return time.perf_counter() - start


def run_op(workload: Workload, seed: int, index: int, first: bool, deadline: float,
           spans_path: str | None = None) -> dict:
    """One CLI operation in a child interpreter, checked by the workload gate."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    stdout_path = os.path.join(tmp, f"{workload.name}-{index}.stdout")
    out_path = os.path.join(tmp, f"{workload.name}-{index}.out")
    cli_argv = workload.argv(seed, out_path)
    cmd = [sys.executable, "-I", CHILD, "--src", SRC, "--stdout", stdout_path]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd + ["--"] + cli_argv, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "detail": f"killed at the {RUN_BUDGET_S} s run budget", "argv": cli_argv}
    record = {"argv": cli_argv}
    try:
        record.update(json.loads(proc.stdout.splitlines()[-1]))
    except (IndexError, ValueError):
        record.update(ok=False, detail=f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        return record
    try:
        with open(stdout_path, encoding="utf-8") as fh:
            stdout = fh.read()
        # the artifact only: the CLI's report line on stdout carries its own
        # timing, so its length is not exact
        output_bytes = os.path.getsize(out_path) if os.path.exists(out_path) else 0
        if record["error"]:
            gate = Gate(False, record["error"])
        else:
            try:
                gate = workload.check(record["rc"], stdout, out_path, first)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                gate = Gate(False, f"unreadable output: {exc!r}")
    finally:
        for path in (stdout_path, out_path):
            if os.path.exists(path):
                os.remove(path)
    record.update(ok=gate.ok, detail=gate.detail, terms=gate.terms, checks=gate.checks,
                  output_bytes=output_bytes)
    return record


def reference_loop() -> float:
    """Seconds this process takes to fill a dict keyed by 120k nested
    tuples: a sample of how fast the machine runs barhom-like Python code
    (tuple keys, hashing, a working set of tens of MB) at this moment."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(120_000):
        key = ((i % 997,), (i // 997, i % 7))
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def reference_s() -> float:
    return statistics.median(reference_loop() for _ in range(REFERENCE_ROUNDS))


def run_loop(workload: Workload, seed: int, seconds: float, deadline: float) -> list:
    """Operations back to back until ``seconds`` have passed (at least
    MIN_OPS).  Each comes with a set-up probe, and with the reference loop
    timed just before and just after it."""
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        before = reference_s()
        setup = measure_setup()
        op = run_op(workload, seed, len(ops), not ops, deadline)
        op.update(setup_s=setup, reference_s=(before + reference_s()) / 2)
        ops.append(op)
    return ops


def scaled(ops: list, key: str) -> float:
    """Median over the operations of their ``key`` time, each scaled to the
    nominal machine speed by the reference loop timed next to it."""
    return statistics.median(op[key] * REFERENCE_S / op["reference_s"] for op in ops)


def end_to_end(ops: list) -> dict:
    wall = scaled(ops, "wall_s")
    return {
        "wall_s": wall,
        "cpu_s": scaled(ops, "cpu_s"),
        "peak_rss_mb": statistics.median(op["peak_rss_kb"] for op in ops) / 1024,
        "setup_s": scaled(ops, "setup_s"),
        "terms_per_s": ops[0]["terms"] / wall,
        "checks_per_s": ops[0]["checks"] / wall,
    }


def per_layer(traced: list, untraced: list) -> tuple[dict, list]:
    """Per-layer metrics of two traced operations, and the exact counts on
    which they disagree (which must be none)."""
    a, b = traced
    exact = [name for name, unit in PER_LAYER.items() if unit in ("count", "ratio", "B")]
    mismatched = [name for name in exact if layer_metric(name, a) != layer_metric(name, b)]
    if a["trace"]["calls"] != b["trace"]["calls"] or a["trace"]["counts"] != b["trace"]["counts"]:
        mismatched.append("calls/counts of some traced function")
    values = {
        name: layer_metric(name, a) if name in exact
        else statistics.median(layer_metric(name, op) for op in traced)
        for name in PER_LAYER
    }
    values["trace.overhead_s"] = (values["trace.traced_wall_s"]
                                  - statistics.median(op["wall_s"] for op in untraced))
    return values, mismatched


def environment(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _spread(values: list) -> str:
    return (f"{len(values)}: min {min(values):.4g}, median {statistics.median(values):.4g}, "
            f"max {max(values):.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its tiny size (see smoke.py)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]

    if not os.path.isdir(os.path.join(SRC, "barhom")):
        print(f"no barhom sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.seed)
    # the reference loop and the children share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}: {' '.join(workload.argv(args.seed, '<tmp>'))}")
    try:
        ops = run_loop(workload, args.seed, args.seconds, deadline)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    traced = []
    if args.trace:
        for i in range(2):
            spans = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}-{i}.jsonl")
            traced.append(run_op(workload, args.seed, len(ops) + i, True, deadline, spans))
    everything = ops + traced
    failed = [op for op in everything if not op["ok"]]
    for op in failed:
        print(f"FAIL {' '.join(op['argv'])}: {op['detail']}")
    correct = not failed

    walls = [op["wall_s"] for op in ops if op["ok"]]
    values, units, notes = {}, END_TO_END if args.trace == 0 else PER_LAYER, {}
    if correct and args.trace == 0:
        values = end_to_end(ops)
        notes = {
            "wall_s": "scaled median; raw " + _spread(walls),
            "cpu_s": "scaled median; raw " + _spread([op["cpu_s"] for op in ops]),
            "peak_rss_mb": f"median of {len(ops)} children",
            "setup_s": "scaled median; raw " + _spread([op["setup_s"] for op in ops]),
            "terms_per_s": "chain terms gated per second of wall_s",
            "checks_per_s": "gated checks per second of wall_s",
        }
    elif correct:
        values, mismatched = per_layer(traced, ops)
        notes = {"trace.overhead_s": f"traced median of 2 minus untraced median of {_spread(walls)}"}
        if mismatched:
            correct = False
            print("FAIL exact counts differ between the two traced operations: " + ", ".join(mismatched))

    for name, value in values.items():
        print(f"{name:<40} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    references = [op["reference_s"] for op in ops]
    print(f"{'reference_s':<40} {statistics.median(references):>14.6g} {'s':<6} "
          f"raw {_spread(references)}; each time above is scaled by {REFERENCE_S} / "
          "the reference next to it")
    print(f"{'fail_frac':<40} {len(failed) / len(everything):>14.6g} {'ratio':<6} "
          f"{len(failed)} failed / {len(everything)} attempted")

    record = {"workload": args.workload, "smoke": args.smoke, "trace": args.trace,
              "environment": env, "operations": everything,
              "metrics": values, "correct": correct}
    with open(os.path.join(OUT, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    result = {
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
