import errno
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from barhom import homotopy, moore
from barhom.cli import main
from barhom.homotopy import MitosisTower
from barhom.moore import Chain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_tables_tsv(capsys):
    code, out = run(capsys, "tables", "--max", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m\tgamma\tq\tc\td\tdelta_bdh"
    assert lines[1] == "0\t0\t0\t0\t0\t0"
    assert lines[4].startswith("3\t152\t55\t97\t32\t186")
    assert lines[8].startswith("7\t1135024\t421699\t713325\t1024")


def test_tables_json_deterministic(capsys):
    code1, out1 = run(capsys, "tables", "--max", "5", "--format", "json")
    code2, out2 = run(capsys, "tables", "--max", "5", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "barhom/1"


def test_count_pass(capsys):
    code, out = run(capsys, "count", "--op", "psi", "--dim", "3")
    assert code == 0
    assert "ok psi dim 3" in out
    assert '"status": "pass"' in out


def test_count_P_cap_is_on_the_cylinder_chain(capsys):
    # gamma(10) is far above the default cap; count --op P is charged only
    # d_cyl(10) terms, and builds none of them: it reads P's diameter off
    # the certificate
    code, out = run(capsys, "count", "--op", "P", "--dim", "10")
    assert code == 0
    assert "ok P dim 10: diameter 11264 expected 11264" in out


def test_memory_guard_is_skipped_without_sysconf(capsys, monkeypatch):
    # without os.sysconf, and where it reads -1 for every name, the memory
    # guard is skipped and the writing commands print what they print here
    from barhom import cli

    argvs = [["tables", "--max", "2"], ["expand", "--op", "psi", "--dim", "3"]]
    want = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _ in want] == [0, 0]
    for missing in (lambda: monkeypatch.delattr(os, "sysconf"),
                    lambda: monkeypatch.setattr(os, "sysconf", lambda name: -1)):
        monkeypatch.undo()
        missing()
        assert cli._physical_memory() is None
        code, out = run(capsys, "count", "--op", "psi", "--dim", "3")
        assert code == 0
        assert "ok psi dim 3" in out
        assert [run(capsys, *argv) for argv in argvs] == want


def test_count_phi(capsys):
    code, out = run(capsys, "count", "--op", "phi", "--dim", "3")
    assert code == 0
    assert "expected 97" in out


def count_without_the_top_chain(monkeypatch, capsys, op, dim):
    """``count --op op --dim dim`` while ``MitosisTower.psi`` raises on a
    dim-simplex and ``project`` raises everywhere: the exit code and the
    first line."""
    psi = MitosisTower.psi

    def psi_below_the_top(tower, level, sigma):
        if len(sigma) == dim:
            raise AssertionError("psi was built at the top key")
        return psi(tower, level, sigma)

    def no_project(alg, chain):
        raise AssertionError("project was called")

    monkeypatch.setattr(MitosisTower, "psi", psi_below_the_top)
    for module in (moore, homotopy):
        monkeypatch.setattr(module, "project", no_project)
    code, out = run(capsys, "count", "--op", op, "--dim", str(dim))
    return code, out.partition("\n")[0]


@pytest.mark.parametrize("op", ["psi", "phi"])
def test_count_builds_no_chain_at_the_top_key(monkeypatch, capsys, op):
    # the top stage's norms are read off its parts, and phi is psi's
    # diameter less its degenerate terms, so count never projects
    code, line = count_without_the_top_chain(monkeypatch, capsys, op, 6)
    assert code == 0
    assert line.startswith(f"ok {op} dim 6 level 6: diameter ")


def test_expand_psi_summary(capsys):
    code, out = run(capsys, "expand", "--op", "psi", "--dim", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "barhom/1"
    assert payload["summary"]["diameter"] == 24
    assert payload["summary"]["degenerate_count"] == 8
    assert payload["summary"]["expected_gamma"] == 24
    assert payload["summary"]["expected_q"] == 8
    assert payload["chain"]["dim"] == 3


def test_expand_ed_concrete(capsys):
    code, out = run(capsys, "expand", "--op", "ed", "--dim", "2", "--mode", "concrete",
                    "--group", "cyclic3")
    assert code == 0
    payload = json.loads(out)
    assert payload["diameter"] <= 4
    assert payload["chain"]["dim"] == 2


def test_expand_P_word_mode(capsys):
    code, out = run(capsys, "expand", "--op", "P", "--dim", "2", "--mode", "word",
                    "--level", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["diameter"] == 12
    assert payload["expected_d"] == 12


def test_expand_determinism(capsys):
    args = ("expand", "--op", "phi", "--dim", "3", "--seed", "0")
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_expand_ed_tsv(capsys):
    code, out = run(capsys, "expand", "--op", "ed", "--dim", "3", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p\tq\trank\tsign\timage"
    assert len(lines) == 9
    signs = [line.split("\t")[3] for line in lines[1:]]
    assert signs == ["1", "1", "-1", "1", "1", "-1", "1", "1"]


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "theorem45", "--maxdim", "2",
                    "--group", "cyclic2", "--samples", "5")
    assert code == 0
    assert '"status": "pass"' in out
    code, out = run(capsys, "verify", "--suite", "cylinder", "--samples", "50")
    assert code == 0
    code, out = run(capsys, "verify", "--suite", "psi", "--maxdim", "2", "--level", "2")
    assert code == 0
    code, out = run(capsys, "verify", "--suite", "chainmaps", "--maxdim", "3", "--samples", "30")
    assert code == 0


def test_bounds_json(capsys):
    code, out = run(capsys, "bounds")
    assert code == 0
    payload = json.loads(out)
    names = {entry["name"]: entry for entry in payload["bounds"]}
    assert names["general"]["value"] == 189540
    assert names["spherical"]["value"] == 2340
    assert names["heegaard_lickorish"]["provenance"] == "stored-from-paper"
    lens = names["lens_lower"]["value"]
    from fractions import Fraction
    assert Fraction(lens["num"], lens["den"]) == Fraction(4, 4043520)


# SHA-256 of standard output; bounds and tables have no other byte check
BOUNDS_TABLES_SHA256 = {
    "bounds": "28efd5ed6057dcc9f27fab1fc7988f05c7e8a84308aa923c2765a9e8e5507587",
    "bounds --n 5 --deg -2": "bda059c2eaad70db2547e5a2f16cee9797400c5684dea457a949d8fcc497f247",
    "tables --max 12 --format json": "562613ab84b4a14f4f1414472d16af2fb116843d1b89819ae4b7ffe3a091c8bf",
    "tables --max 12": "dadee26cca79ddcae9c20f20be50ebfd4045615b8b4d5c5c924aed02d10a03e6",
}


@pytest.mark.parametrize("case", sorted(BOUNDS_TABLES_SHA256))
def test_bounds_and_tables_bytes_are_golden(capsys, case):
    code, out = run(capsys, *case.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_TABLES_SHA256[case]


ROOT = Path(__file__).resolve().parents[1]


def _cli(*argv, stdout):
    """``barhom ARGV`` in a fresh interpreter on this checkout's sources."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "barhom.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


# stdlib modules every command would pay for at start-up: dataclasses brings
# inspect, ast and dis, and fractions brings decimal
HEAVY_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "fractions", "decimal")


def test_cli_import_loads_no_heavy_stdlib_module():
    # bounds still builds its rationals, importing fractions on demand
    code = f"""
import io, json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
import barhom.cli
loaded = [m for m in {HEAVY_IMPORTS!r} if m in sys.modules]
out, sys.stdout = sys.stdout, io.StringIO()
rc = barhom.cli.main(["bounds"])
sys.stdout = out
print(json.dumps([loaded, rc, "fractions" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], 0, True]


def test_closed_stdout_pipe_is_exit_141_without_a_traceback():
    # psi at dim 5 writes 27 MB, far more than a pipe buffer holds, so the
    # writer is still writing when the reader goes away: after the first
    # line, or after 64 KB, inside one of the large joined writes
    for read, want in [(lambda out: out.readline(), b"{\n"),
                       (lambda out: len(out.read(65536)), 65536)]:
        proc = _cli("expand", "--op", "psi", "--dim", "5", stdout=subprocess.PIPE)
        assert read(proc.stdout) == want
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def _not_a_usage_error(args):
    raise RuntimeError("not a usage error")


def _exit_code_case(monkeypatch, case):
    """The argv of a run ending as ``case`` names, with what it needs patched."""
    from barhom import cli
    from barhom.quintuple import VerificationInstance

    if case == "exit 1":
        # a constant pillar breaks the pillar relations of theorem45
        monkeypatch.setattr(VerificationInstance, "m", lambda self, x: self.ell)
    elif case == "exit 141":
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    elif case == "uncaught":
        monkeypatch.setattr(cli, "cmd_tables", _not_a_usage_error)
    return {
        "exit 0": ["count", "--op", "psi", "--dim", "2"],
        "exit 1": ["verify", "--suite", "theorem45", "--maxdim", "1"],
        "exit 2": ["count", "--op", "psi", "--dim", "4", "--cap", "1"],
        "parse exit 2": ["count", "--dim", "-1"],
        "help": ["count", "-h"],
        "exit 141": ["tables"],
        "uncaught": ["tables"],
    }[case]


@pytest.mark.parametrize("collecting", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("case, outcome", [
    ("exit 0", 0), ("exit 1", 1), ("exit 2", 2), ("parse exit 2", 2), ("help", 0), ("exit 141", 141),
    ("uncaught", RuntimeError),
])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, case, outcome, collecting):
    argv = _exit_code_case(monkeypatch, case)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


FULL = "/dev/full"
ED_TSV = ["expand", "--op", "ed", "--dim", "3", "--format", "tsv"]
PSI_3 = ["expand", "--op", "psi", "--dim", "3"]


@pytest.mark.skipif(not os.path.exists(FULL), reason=f"no {FULL} on this system")
@pytest.mark.parametrize("argv, target", [
    (["tables", "--out", FULL], f"--out {FULL}"),
    (["tables"], "standard output"),
    (["verify", "--suite", "psi"], "standard output"),
    ([*ED_TSV, "--out", FULL], f"--out {FULL}"),
    (ED_TSV, "standard output"),
    ([*PSI_3, "--out", FULL], f"--out {FULL}"),
    (PSI_3, "standard output"),
], ids=["tables-out", "tables-stdout", "verify-stdout", "ed-tsv-out", "ed-tsv-stdout",
        "psi-json-out", "psi-json-stdout"])
def test_write_error_is_a_usage_error(argv, target):
    # every write to /dev/full fails with ENOSPC: one line on standard
    # error, no traceback and exit 2, since exit 1 means a failed check
    with open(FULL, "wb") as full:
        proc = _cli(*argv, stdout=subprocess.PIPE if "--out" in argv else full)
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
    assert out in (None, b"")


@pytest.mark.parametrize("suite", ["cylinder", "chainmaps"])
@pytest.mark.parametrize("group", ["free2", "cyclic2*free1"])
def test_other_suites_run_on_infinite_groups(capsys, suite, group):
    code, out = run(capsys, "verify", "--suite", suite, "--group", group, "--maxdim", "3")
    assert code == 0
    assert out.startswith("ok ")
    assert '"status": "pass"' in out.splitlines()[-1]


def test_psi_identity_is_not_refused_above_its_measured_peak(monkeypatch):
    # the level-7 identity peaks at about 540 MB, so 600 MiB of physical
    # memory must pass the rule: it is a floor, not an estimate
    from barhom import cli

    monkeypatch.setattr(cli, "_physical_memory", lambda: 600 * 2 ** 20)
    cli._check_cap("psi", 7, cli.TERM_CAP, 8 * cli.FACE_BYTES)


def test_psi_identity_within_the_memory_of_its_boundary_runs(capsys, monkeypatch):
    # 6*gamma(5) = 58,392 face terms take 2.9 MB, under 10 MiB
    from barhom import cli

    monkeypatch.setattr(cli, "_physical_memory", lambda: 10 * 2 ** 20)
    code, out = run(capsys, "verify", "--suite", "psi", "--level", "5", "--maxdim", "5")
    assert code == 0
    assert '"status": "pass"' in out.splitlines()[-1]


@pytest.mark.parametrize("suite, cap, maxdim", [
    ("chainmaps", 8, 3), ("cylinder", 27, 2), ("theorem45", 9, 2), ("theorem45", 27, 4),
])
def test_a_suite_at_its_term_cap_runs(capsys, monkeypatch, suite, cap, maxdim):
    # the cap equals the suite's size: 2**3 edgewise terms, (2 + 1)**3
    # cylinder entries, cyclic3^2 and cyclic3^3 simplices (dim 3 is the last
    # exhaustive dim of theorem45 whatever --maxdim is)
    monkeypatch.setattr("barhom.cli.TERM_CAP", cap)
    code, out = run(capsys, "verify", "--suite", suite, "--maxdim", str(maxdim), "--samples", "5")
    assert code == 0
    assert '"status": "pass"' in out.splitlines()[-1]


def _memory(size):
    return {"barhom.cli._physical_memory": lambda: size}


# an --out that cannot be opened is met only when the built chain is written
CHAIN_BUILT_FIRST = {"barhom.moore.Chain.add_terms": Chain.add_terms}
D_CYL_65 = 2434970217729660813312
T45_CAP = "error: term cap exceeded: theorem45 enumerates cyclic100000^2, more than 5000000 simplices"

# Every usage error, under the name of the test that reports it, as cases of
# (id, argv, the one line on standard error, patches); the names and ids are
# those the cases have always been reported under.  Every case is checked the
# same way, by _assert_refused.
USAGE_ERRORS = {
    # count is charged as one P at a time, as when it built them, so its cap
    # and its memory guard are on d_cyl(dim), the terms of the largest
    "test_count_psi_above_cap_is_refused": [
        (None, "count --op psi --dim 7 --cap 1000", "error: term cap exceeded: d_cyl(7) = 1024 > 1000", {})],
    # d_cyl(18) = 4,980,736 terms at 350 B each exceed 1 GiB, and so does
    # d_cyl(65) under a cap that admits it
    "test_count_within_cap_above_memory_is_refused": [
        (None, "count --op psi --dim 18 --cap 20000000", "error: out of memory: d_cyl(18) = 4980736 terms take "
         "at least 1743257600 B > 1073741824 B of physical memory", _memory(2 ** 30))],
    "test_count_with_a_huge_cap_is_refused_on_memory": [
        (None, "count --op psi --dim 65 --cap " + "9" * 130, f"error: out of memory: d_cyl(65) = {D_CYL_65} terms "
         f"take at least {D_CYL_65 * 350} B > 1073741824 B of physical memory", _memory(2 ** 30))],
    "test_level_below_dim_is_usage_error": [
        (command, f"{command} --op psi --dim 3 --level 2", "error: --level 2 is below --dim 3", {})
        for command in ("count", "expand")],
    "test_usage_error_exit_code": [
        (None, "expand --op bogus --dim 1",
         "error: barhom expand: argument --op: invalid choice: 'bogus' (choose from 'ed', 'P', 'psi', 'phi')", {})],
    "test_expand_op_Q_is_a_usage_error": [
        (None, "expand --op Q --dim 1",
         "error: barhom expand: argument --op: invalid choice: 'Q' (choose from 'ed', 'P', 'psi', 'phi')", {})],
    "test_bad_group_exit_code": [
        (None, "verify --suite theorem45 --group quaternion8", "error: bad group spec: 'quaternion8'", {})],
    "test_free_rank_zero_is_a_bad_group_spec": [
        (suite, f"verify --suite {suite} --group free0", "error: bad group spec: 'free0'", {})
        for suite in ("theorem45", "cylinder", "chainmaps", "all")],
    "test_theorem45_on_an_infinite_group_is_a_usage_error": [
        (f"{group}-{name}-{suite}", f"verify --suite {suite} --group {group}",
         f"error: theorem45 enumerates the group, and {name} is infinite", {})
        for group, name in (("free2", "free2"), ("cyclic2*free1", "cyclic2xfree1")) for suite in ("theorem45", "all")],
    # listing 10^10 simplices, or psi at level 8, would take the machine's memory
    "test_oversized_verify_suites_are_refused_before_any_work": [
        ("theorem45", "verify --suite theorem45 --group cyclic100000 --maxdim 2", T45_CAP, {}),
        ("all", "verify --suite all --group cyclic100000 --maxdim 2", T45_CAP, {}),
        ("psi level 8", "verify --suite psi --level 8 --maxdim 8",
         "error: term cap exceeded: gamma(8) = 14737536 > 5000000", {}),
        ("psi level 64", "verify --suite psi --level 64 --maxdim 64",
         "error: term cap exceeded: gamma(64) = 274641742017719186870019941757010070209786151050722773208754801314"
         "386323695003196320032675003818562560 > 5000000", {})],
    # the identity holds the boundary of psi: (d + 1) gamma(d) face terms at
    # FACE_BYTES = 50, 454 MB at d = 7 and 34.4 MB at d = 6, each within the
    # term cap on gamma(d)
    "test_psi_identity_is_refused_on_the_memory_of_its_boundary": [
        (f"{memory}-{level}-{terms}", f"verify --suite psi --level {level} --maxdim {level}",
         f"error: out of memory: gamma({level}) = {terms} terms take at least {terms * (level + 1) * 50} B > "
         f"{memory} B of physical memory", _memory(memory))
        for memory, level, terms in ((400 * 2 ** 20, 7, 1135024), (10 * 2 ** 20, 6, 98336))],
    # 2**23 is the first power of two above the cap
    "test_chainmaps_above_the_cap_is_refused_before_any_work": [
        (suite, f"verify --suite {suite} --maxdim 23", "error: term cap exceeded: 2**23 = 8388608 > 5000000", {})
        for suite in ("chainmaps", "all")],
    "test_chainmaps_cap_is_on_two_to_the_maxdim": [
        ("8-4-2", "verify --suite chainmaps --maxdim 4", "error: term cap exceeded: 2**4 = 16 > 8",
         {"barhom.cli.TERM_CAP": 8})],
    # the boundary of one 1000-cylinder has about 10^9 entries
    "test_cylinder_above_the_cap_is_refused_before_any_work": [
        (suite, f"verify --suite {suite} --maxdim 1000",
         "error: term cap exceeded: cylinder boundary (1000 + 1)**3 > 5000000", {}) for suite in ("cylinder", "all")],
    "test_cylinder_cap_is_on_maxdim_plus_one_cubed": [
        ("26-2-2", "verify --suite cylinder --maxdim 2 --samples 5",
         "error: term cap exceeded: cylinder boundary (2 + 1)**3 > 26", {"barhom.cli.TERM_CAP": 26})],
    # sym9 at --maxdim 1 is within the simplex cap, but its instance codes
    # 362,880 elements: it ran 54 s and peaked at 1,012 MB
    "test_theorem45_above_the_order_cap_is_refused_before_any_work": [
        (suite, f"verify --suite {suite} --group sym9 --maxdim 1",
         "error: order cap exceeded: theorem45 enumerates sym9, more than 40320 elements", {})
        for suite in ("theorem45", "all")],
    "test_theorem45_cap_is_on_order_to_the_exhaustive_dim": [
        (f"{cap}-{maxdim}-2", f"verify --suite theorem45 --maxdim {maxdim} --samples 5",
         f"error: term cap exceeded: theorem45 enumerates cyclic3^{min(maxdim, 3)}, more than {cap} simplices",
         {"barhom.cli.TERM_CAP": cap}) for cap, maxdim in ((8, 2), (26, 4))],
    # a product of sym<n> costs O(n), and no cap sees the size of an element:
    # sym1000000 took about 49 s for five 2-cylinders
    "test_a_symmetric_group_above_the_degree_cap_is_refused_before_it_is_built": [
        (name, argv, f"error: degree cap exceeded: '{spec}' has degree {spec[3:]} > 9",
         {"barhom.groups.SymmetricGroup.__init__": None}) for name, argv, spec in [
            ("cylinder", "verify --suite cylinder --group sym1000000 --maxdim 2 --samples 5", "sym1000000"),
            ("expand", "expand --op P --mode concrete --group sym1000000 --dim 2", "sym1000000"),
            ("product", "verify --suite theorem45 --group cyclic2*sym10", "sym10"),
        ]],
    "test_out_of_range_numbers_are_usage_errors": [
        (argv, argv, f"error: barhom {argv.split()[0]}: argument {error}", {}) for argv, error in [
            ("expand --op ed --dim -1", "--dim: must be >= 0, got -1"),
            ("tables --max -1", "--max: must be >= 0, got -1"),
            ("tables --max 100000", "--max: must be <= 1000, got 100000"),
            ("verify --suite cylinder --samples 0", "--samples: must be >= 1, got 0"),
            ("verify --suite cylinder --samples -5", "--samples: must be >= 1, got -5"),
            ("verify --samples 1000000000", "--samples: must be <= 1000, got 1000000000"),
            ("verify --suite psi --level 0 --maxdim 3", "--level: must be >= 1, got 0"),
            ("verify --suite chainmaps --maxdim 0", "--maxdim: must be >= 1, got 0"),
            ("verify --suite theorem45 --modulus 1", "--modulus: must be >= 2, got 1"),
            ("expand --op P --mode concrete --dim 2 --modulus 1", "--modulus: must be >= 2, got 1"),
            ("count --op psi --dim 0 --cap -1", "--cap: must be >= 0, got -1"),
            ("expand --op ed --dim 0 --cap -1", "--cap: must be >= 0, got -1"),
        ]],
    "test_expand_above_cap_is_refused": [
        (f"{op}-{dim}-{size}", f"expand --op {op} --dim {dim} --cap 1000", f"error: term cap exceeded: {size} > 1000", {})
        for op, dim, size in (("P", 12, "d_cyl(12) = 53248"), ("ed", 11, "2**11 = 2048"))],
    # the exact gamma(3000) takes minutes, and d_cyl(10**8) has too many
    # digits for str(): a lower bound on the size refuses both at once.
    # count's psi and phi cases keep the ids they were first reported under,
    # when their cap was on gamma
    "test_huge_dims_are_refused_before_their_size_is_computed": [
        (f"{command}-{op}-{name}-{dim}", f"{command} --op {op} --dim {dim}",
         f"error: term cap exceeded: {size.format(dim)} > 5000000", {})
        for command, op, name, size in (("count", "psi", "gamma", "d_cyl({})"), ("count", "phi", "gamma", "d_cyl({})"),
                                        ("count", "P", "d_cyl", "d_cyl({})"), ("expand", "ed", "2**", "2**{}"))
        for dim in (3000, 10 ** 8)],
    # refused before the cap is looked at
    "test_expand_tsv_is_only_for_ed": [
        (op, f"expand --op {op} --dim 2 --format tsv --out out", f"error: --format tsv is only for --op ed, not --op {op}",
         {"barhom.cli._check_cap": None}) for op in ("P", "psi", "phi")],
    "test_unwritable_out_is_a_usage_error": [
        ("expand", "expand --op psi --dim 2 --out missing/x.json",
         "error: cannot write --out missing/x.json: No such file or directory", CHAIN_BUILT_FIRST),
        ("tables", "tables --out missing/t.tsv", "error: cannot write --out missing/t.tsv: No such file or directory", {}),
        ("bounds", "bounds --out missing/b.json", "error: cannot write --out missing/b.json: No such file or directory", {}),
        ("expand-to-a-directory", "expand --op psi --dim 2 --out .", "error: cannot write --out .: Is a directory",
         CHAIN_BUILT_FIRST)],
}


def _chain_built(self, items):
    raise AssertionError("a chain was built before the refusal")


def _assert_refused(capsys, monkeypatch, tmp_path, argv, line, patches):
    """``main(argv)`` in ``tmp_path``, after ``patches``, returns 2 within 1 s
    with ``line`` alone on standard error, nothing on standard output, no file
    left and no chain built, unless ``patches`` restore ``Chain.add_terms``."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Chain, "add_terms", _chain_built)
    for target, value in patches.items():
        monkeypatch.setattr(target, value)
    started = time.perf_counter()
    code = main(argv.split())
    elapsed = time.perf_counter() - started
    assert (code, *capsys.readouterr()) == (2, "", line + "\n")
    assert list(tmp_path.iterdir()) == []
    assert elapsed < 1


def _usage_error_test(cases):
    """A test of ``cases``, by their ids, or of one case without an id."""
    if len(cases) == 1 and cases[0][0] is None:
        return lambda capsys, monkeypatch, tmp_path: _assert_refused(capsys, monkeypatch, tmp_path, *cases[0][1:])

    @pytest.mark.parametrize("argv, line, patches", [pytest.param(*case, id=id) for id, *case in cases])
    def test(capsys, monkeypatch, tmp_path, argv, line, patches):
        _assert_refused(capsys, monkeypatch, tmp_path, argv, line, patches)
    return test


for _name, _cases in USAGE_ERRORS.items():
    globals()[_name] = _usage_error_test(_cases)


def _verify_failure(capsys, *argv):
    code, out = run(capsys, "verify", *argv)
    lines = out.splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_verify_residual_is_exit_1(capsys, monkeypatch):
    from barhom import checks
    from barhom.moore import Chain

    monkeypatch.setattr(checks, "theorem_identity_residual",
                        lambda ctx, sigma, face_P: Chain.of((ctx.m(ctx.source.identity),)))
    code, lines, report = _verify_failure(capsys, "--suite", "all")
    assert code == 1
    assert lines[-1] == 'FAIL theorem45: theorem45 residual at dim 0: {"coeff": 1, "simplex": [[0, 0, 1]]}'
    assert report["status"] == "residual"
    assert report["first_offending"] == 'theorem45 residual at dim 0: {"coeff": 1, "simplex": [[0, 0, 1]]}'


def test_verify_broken_construction_is_exit_1(capsys, monkeypatch):
    from barhom.quintuple import VerificationInstance

    # a constant pillar breaks the relations t_i a_(i+1) = b_(i+1) t_(i+1)
    monkeypatch.setattr(VerificationInstance, "m", lambda self, x: self.ell)
    code, lines, report = _verify_failure(capsys, "--suite", "theorem45", "--maxdim", "2")
    assert code == 1
    assert lines[-1] == "FAIL theorem45: IncompatiblePillars: pillar relation fails on the lattice edge [0, 0] -> [0, 1]"
    assert report["status"] == "residual"


def test_verify_all_stdout_is_fixed(capsys):
    # the exact lines perfbench gates the verify workload on
    code, out = run(capsys, "verify", "--suite", "all", "--maxdim", "3", "--samples", "20", "--seed", "0")
    assert code == 0
    assert re.sub(r'"timing": [0-9.e-]+', '"timing": T', out) == (
        "ok instance relation holds on cyclic3\n"
        "ok theorem45 identity exhaustive dim 0 (1 simplices)\n"
        "ok theorem45 identity exhaustive dim 1 (3 simplices)\n"
        "ok theorem45 identity exhaustive dim 2 (9 simplices)\n"
        "ok theorem45 identity exhaustive dim 3 (27 simplices)\n"
        "ok cylinder boundary lemma on 20 random compatible cylinders\n"
        "ok psi identity level 3 dim 0: zero residual\n"
        "ok psi identity level 3 dim 1: zero residual\n"
        "ok psi identity level 3 dim 2: zero residual\n"
        "ok psi identity level 3 dim 3: zero residual\n"
        "ok dd = 0 and projection chain map on random simplices\n"
        "ok simplicial identities on random simplices\n"
        "ok edgewise code paths agree and are chain maps, dims <= 3\n"
        '{"artifacts": [], "command": "verify --suite all", "schema": "barhom/1", '
        '"status": "pass", "timing": T}\n'
    )


# SHA-256 of the file written by `expand ... --out f`, recorded before expand
# streamed its JSON; "psi 5" is also the benchmark's golden hash.  Keys are
# "op dim" for psi/phi (freesym, json), "op mode format dim" for ed and
# "op mode json dim" for P (only ed has a TSV form), on the default group
# cyclic3; "op concrete format group dim" names another group.  Those were
# recorded when target entries were nested tuples, so they pin that coding
# them as ints changes no byte.  The generic simplex needs a free rank >= dim,
# so free2 stops at dim 2 and free3 has dim 3.
EXPAND_SHA256 = {
    "psi 0": "76ab15c250528e92429c7a0f5351a2e26247d025579b1bc0c1348510aab67a6d",
    "psi 1": "a84b7fedbf89c9c52b7dadbd09269391b8bdb41dc5427dc4818f90e9c9db3894",
    "psi 2": "6864af96d5cd3973d9bc24b34925965f8af0bb488cb7ac9b9ec0c8f259b872e7",
    "psi 3": "e2772d9821c5413bd5883a8dac75bc74bbe5e9f8ad376d65f31a8c2f60ab8f65",
    "psi 4": "47e173f2d306cb7e8e1881831b1e301ad5acacea0e8e03388ebd75b9a7c4e543",
    "psi 5": "529460d9ad24bc450e4bc62141e9b1bca1e65f564290be4e73bcd891eb906d30",
    "phi 0": "49fc42eb1cead3b022ce75f03c7266f541b627acf6e1621a5331cf1e6e73d6cb",
    "phi 1": "63c63a98f5fc232ea17f9c14cdd4e24f8f69f5674df74a136a615350601f9982",
    "phi 2": "47e3486c6bff50b6d4f1c941c1634db02e8ae35618c19d3b23fac63359fecbc9",
    "phi 3": "e8b2199a4a82554c3378db69cbf97de7768e160363c7553cec4bd916a6e8cc1e",
    "phi 4": "149627d01aa042ada9d5789e5f006d7c8a69b07e54aa95857eff252bb4eee6ec",
    "P concrete json 0": "f08dd1463c2bba26815d4dffcb901e8d3ecbc7fa63bc8bebb27ac566c5cfc50c",
    "P concrete json 1": "58a8848956430a0f977154fcaeede3b0ec9a9d849867b7723e53fa935f5a776f",
    "P concrete json 2": "67cb20725f303910b54bb5e51c8285014e4db02200325df30f351f895bfc9aa7",
    "P concrete json 3": "06a328b7c00b13cf2294ba08566fca7fae896d131b4c7f05160d1532a1e4c20f",
    "P freesym json 0": "cda1ea82379a63109144d2fa9a1f4ddc8d637857580d4a01339bdac018bb3474",
    "P freesym json 1": "72bccf55d1fbf81259c875952ba9b3b83a7154bda795c55d9d9d778ac5052529",
    "P freesym json 2": "337e43bdd4f713ed152c0210affba44bb0e3e5e7342d0ac2c8461d22f8861242",
    "P freesym json 3": "fb7ec6e72b975817af1c27261e2466d07e8cecbbd76c30e7a63c00bef0290c04",
    "P word json 0": "9d16557e812b949cada642bf3ea4219e80cbdbc9669bf324d44a8dd3261ade7e",
    "P word json 1": "3cf01759a9355d4e96f9469897e2824c46b4dad6cd76c019c052f583b9782537",
    "P word json 2": "2075d61be6e52f30c64021241c87d3f4ac7a904cf7ef72ff4449a0192f761898",
    "P word json 3": "85dc36faab656b6a6f940de13b14fe26cb1feb3b22fe6ce15c8eafb389af959d",
    "ed concrete json 0": "cf05dfdb071306c106e8cf3960e4b8125b1eea1fb649171625d739fadd46ef32",
    "ed concrete json 1": "0bd9c9e09fce2462015d0d42d1118130b07084fa6dfb79bfad500d7a3eb0ae68",
    "ed concrete json 2": "35421d37518ce41426d5c4d320b2fe040991b956b97529560bb9cf957e65254b",
    "ed concrete json 3": "e39efd60debaba66d736a8a58cd12db9d687bcb5fbcd4171732e507fcf02bd36",
    "ed concrete tsv 0": "f6e5cc4aeaf9abbff918d58d34982d21f84c08a40ef1be6244505d5c347067c4",
    "ed concrete tsv 1": "0b75707af6f74e024fcaa05472e0904e9bca4d80eb14d1d1d58260b86cb8c5da",
    "ed concrete tsv 2": "48b26ee63229527a28a089f33e02176669dfe34686284d36db5c81dd75afd926",
    "ed concrete tsv 3": "7e11c859c1518b1c83ff3da3520acfac280b5ce028d03336d91c68841fd2a60a",
    "ed freesym json 0": "cde2efda1610144d45c9e3843a3449dc6762b7253126620375d170e164a1ab1b",
    "ed freesym json 1": "94136cac6f1739020910ba8abd1996159c3d69c84ca32d1331b33884593baaf0",
    "ed freesym json 2": "8db915ae0c10016b466308475bdeeb9a257d0d50f58db27b37ad94d4465f875f",
    "ed freesym json 3": "089671669c65e0eb95a759321206ad247b067290afd72280feac977ba8e4a630",
    "ed freesym tsv 0": "f6e5cc4aeaf9abbff918d58d34982d21f84c08a40ef1be6244505d5c347067c4",
    "ed freesym tsv 1": "a964e021655b840f61b53a7c183492ec75f02817bbd3017c57a07b42d564ba2f",
    "ed freesym tsv 2": "5fa91b94a05d631a3bf652279cf3a36217ee4981507cc35df7514d53e823ca59",
    "ed freesym tsv 3": "aa8673e58a166c6564fbdb52d11c6a50b8f4e4c586e4d9d7e3b0506a7c1e92ed",
    "ed word json 0": "0f9830f0fe8754b5e5a8f761698f8b5f89337068d389f773a636f4ee3ca9fe4d",
    "ed word json 1": "e31f020ef57d9879fafba9555bafd34a41bc8c877ed3d405a3b19eb4ce574e63",
    "ed word json 2": "083bbd6480a7e204b2f49c334e93fd3e91d296919e94a9f1f32aeb4e07f21301",
    "ed word json 3": "badd0eb92ff3be448bef2b76052601ba5911877a1ece4a115eeb7f3ffe8ac81d",
    "ed word tsv 0": "f6e5cc4aeaf9abbff918d58d34982d21f84c08a40ef1be6244505d5c347067c4",
    "ed word tsv 1": "7e124905fbb4396402358ee062423fff0382af51a67f5453fd0000b095b88457",
    "ed word tsv 2": "cfff060c8f9a8a573ca84a6fb9670b6c5cfaec9ffaa943b29d92f1ca7d22707b",
    "ed word tsv 3": "3351bc1e510228b72342c3e1a4135ac7103359b00cc079d2328b8edc9a0742a3",
    "P concrete json sym3 0": "f08dd1463c2bba26815d4dffcb901e8d3ecbc7fa63bc8bebb27ac566c5cfc50c",
    "P concrete json sym3 1": "146d7eca5611785089fcd4145cfdd22754c36bd530cc75123b143cfc9afcec07",
    "P concrete json sym3 2": "e0fb851971ee3953ac6882b3376ae01debc4d04b990ceb23a935f7ec379d42ce",
    "P concrete json sym3 3": "1abefb80a0acf3d1b76ccb5927c20d2e94d1c7dee2b4b77036d9d9305f54b8f4",
    "ed concrete json sym3 0": "cf05dfdb071306c106e8cf3960e4b8125b1eea1fb649171625d739fadd46ef32",
    "ed concrete json sym3 1": "2278f33bf839b6e3e2516063fd7ac57d2368561bd7873ce5c9641232ecdadf15",
    "ed concrete json sym3 2": "7bd72ad975f302411e82814975409c0f8b89d5faca3c6ea8b8e00bc78e1f075d",
    "ed concrete json sym3 3": "71f8c1d9902e4c7199ba2b81220fccca2c59883bb56893fd87d9b2585f40e931",
    "ed concrete tsv sym3 0": "f6e5cc4aeaf9abbff918d58d34982d21f84c08a40ef1be6244505d5c347067c4",
    "ed concrete tsv sym3 1": "5642fd2e8ceac4aad79bdab7381b48d7caae65b6fc07d467088e978bca577068",
    "ed concrete tsv sym3 2": "f0a0f9fac33adf7cc1fc6d6ee906a17c7db74b8b0ec089dcbc14816166cee0ef",
    "ed concrete tsv sym3 3": "337f31b199f1fd215a87b2747a8a0a3e0eeead3123baa0e092e0275938692e12",
    "P concrete json cyclic2*sym3 0": "f08dd1463c2bba26815d4dffcb901e8d3ecbc7fa63bc8bebb27ac566c5cfc50c",
    "P concrete json cyclic2*sym3 1": "12c552fdb40aa73362fa75020fa61df2101c6fe2744e748fe52b10a1ec9f0e54",
    "P concrete json cyclic2*sym3 2": "fec1af66119cfe1a493b8568ff2a0242da5cf4e10b829edf75367f023561e4a3",
    "P concrete json cyclic2*sym3 3": "c4163b25459a7af8d23546320cc60e6236ac7f34f0574da798c8747898cd7444",
    "ed concrete json cyclic2*sym3 0": "cf05dfdb071306c106e8cf3960e4b8125b1eea1fb649171625d739fadd46ef32",
    "ed concrete json cyclic2*sym3 1": "baf8dbd1b2c0b558bdfde584e0508a299a2f61320ab8dc881d710c17bdbc17e4",
    "ed concrete json cyclic2*sym3 2": "545237ba5240290515e54ef9aff69408c8e9700abc4cb04ba90896ee849afca9",
    "ed concrete json cyclic2*sym3 3": "dd7c96a5b07dbd684789d1115819ee1427af9337ea525cdb7bc658c826b3b44a",
    "ed concrete tsv cyclic2*sym3 0": "f6e5cc4aeaf9abbff918d58d34982d21f84c08a40ef1be6244505d5c347067c4",
    "ed concrete tsv cyclic2*sym3 1": "b513a5919d96e9a322bfdfbcebaec5aa62544e36c87bcc15afacfed33136d2b6",
    "ed concrete tsv cyclic2*sym3 2": "af0fca8f89a59a97c8d7f29f0a850898e59fab402fa7b201562b654a70c0f80c",
    "ed concrete tsv cyclic2*sym3 3": "6a26a14ef3aa7306dff1c25aef0866502175a063d691c563fb5ddd3320dfe240",
    "P concrete json free2 0": "f08dd1463c2bba26815d4dffcb901e8d3ecbc7fa63bc8bebb27ac566c5cfc50c",
    "P concrete json free2 1": "1cf5099aa63c378195ec864c9e0445f4e30fdd2656ddd67cccad07bb309b6a30",
    "P concrete json free2 2": "30134ff6a4987b0c6386c5df663074f8fd6a8253b10b9034989a619a4bec7735",
    "ed concrete json free2 0": "cf05dfdb071306c106e8cf3960e4b8125b1eea1fb649171625d739fadd46ef32",
    "ed concrete json free2 1": "5c52ad145d9a335745add3dd4be8e69295275241628edf1c89eb82f8a2de9630",
    "ed concrete json free2 2": "d3b29d419ba06e37822e64169589aa127e0ab353e62b0e740cb1099fa6488861",
    "ed concrete tsv free2 0": "f6e5cc4aeaf9abbff918d58d34982d21f84c08a40ef1be6244505d5c347067c4",
    "ed concrete tsv free2 1": "24940565e5372cc312174edd0239b7b6513129f32a6d664a8c14aeddb464db5f",
    "ed concrete tsv free2 2": "dc42d352d5963f703af8df5e2280fba5c6e1064117b13b6ba82c9d86d9145cd0",
    "P concrete json free3 3": "e8d9305a3a85a89995425fb15832b53fcbadb09a5092c89b4d31670865c881b1",
    "ed concrete json free3 3": "45bad91f31a441faf5da216afad9bd860c5724315280bd950175d682bf60b9d7",
    "ed concrete tsv free3 3": "5d7943dc4424f57fb810debd5760f0bee713a7b0edb4fb5312ce96dc283c35af",
    # psi above its dimension, on the generic simplex and pushed into sym3
    "psi 4 --level 6": "9e3bc2df598d80e659bdf67ad58d84867851ebb4b4172ea624bdfcb27803892b",
    "phi 4 --level 6": "1b413a49c786e80145d6cc8345e2b0cdf458476b38517873a0e8d33e66a15cff",
    "psi concrete json sym3 4 --level 6 --seed 1": "28584ff9fcaadf2b0ba68e9e5749ab317a511c47343b0125c9172f5e65fd383f",
}


def _expand_argv(case):
    words, _, options = case.partition(" --")
    *rest, dim = words.split()
    flags = ["--op", rest[0]]
    if len(rest) > 1:
        flags += ["--mode", rest[1], "--format", rest[2]]
    if len(rest) > 3:
        flags += ["--group", rest[3]]
    return ["expand", *flags, "--dim", dim, *(f"--{options}".split() if options else ())]


@pytest.mark.parametrize("case", list(EXPAND_SHA256))
def test_expand_bytes_are_golden(capsys, tmp_path, case):
    argv = _expand_argv(case)
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EXPAND_SHA256[case]
    # standard output carries the same document, ending in exactly one newline
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert out == (data if data.endswith(b"\n") else data + b"\n")


# standard output of ``expand --op psi --mode concrete --seed 1 --group G
# --dim d``: the generic psi pushed forward, where the cyclic towers merge
# and cancel terms (sym3 at dim 6 is pinned below, with PSI_6_SHA256)
PSI_CONCRETE_SHA256 = {
    ("cyclic2", 4): "7757227e087e11e9c6d509248f71ed896dedecc2a1dffbcd3eed8ccab954feef",
    ("cyclic3", 3): "4a7b3662982cf7d2f5768d1a76a1a95a448ae073973e99052c98e169154aa750",
    ("cyclic3", 4): "1fec131aa1b79c0954457b3c6c7f3a8e5b1b8628a1d6deda58a9590da38b8abd",
    ("sym3", 3): "9b43e7c0142766cc54128bfa846ca066f580556accc02ed24356d1d4d72f73e1",
    ("cyclic2*sym3", 3): "3bd397efa2e7baab782e768cea2d36f377de50e2bda999826179e14513329cf5",
}


def concrete_psi_sha256(capsys, group, dim):
    code = main(["expand", "--op", "psi", "--mode", "concrete", "--seed", "1",
                 "--group", group, "--dim", str(dim)])
    assert code == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("group, dim", list(PSI_CONCRETE_SHA256))
def test_concrete_psi_stdout_is_golden(capsys, group, dim):
    assert concrete_psi_sha256(capsys, group, dim) == PSI_CONCRETE_SHA256[group, dim]


def _expand_psi_3_with_short_writes(monkeypatch, tmp_path):
    """SHA-256 of ``expand --op psi --dim 3 --out f`` (278 KB) when each
    ``os.write`` really writes at most 1,000 bytes and returns that count,
    with the number of writes made."""
    write, calls = os.write, []

    def short_write(fd, data):
        calls.append(fd)
        return write(fd, data[:1000])

    monkeypatch.setattr(os, "write", short_write)
    path = tmp_path / "out"
    assert main([*_expand_argv("psi 3"), "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest(), len(calls)


def test_short_writes_are_completed(monkeypatch, tmp_path):
    digest, calls = _expand_psi_3_with_short_writes(monkeypatch, tmp_path)
    assert digest == EXPAND_SHA256["psi 3"]
    assert calls >= 279   # 278,391 bytes


# the bytes of expand --op psi --dim 6, 317 MB of JSON
PSI_6_SHA256 = "700e17a88a2476141b7ef924c7ec09ecb43206d6b1d288af68f9ca12c2517c46"
# the bytes of expand --op psi --mode concrete --seed 1 --group sym3 --dim 6,
# 336 MB of JSON: the generic psi(6) pushed forward
PSI_SYM3_6_SHA256 = "f57dc33d53c14471713a73edae4a645ff86424c5c0d4134c1a7e4508c4bb211f"
# the bytes of expand --op psi --dim 6 --level 8, 317 MB of JSON: the
# generic psi(6) pushed through the level shift s_2 alone
PSI_6_LEVEL_8_SHA256 = "f6bed55b1823a0a78f0735e9edba1aa8c9db08548ca0a8acdc2e3548162f1f01"


def _expand_sha256_as_written(monkeypatch, *argv):
    # the pieces are hashed as they are written, not stored
    from barhom import cli

    digest = hashlib.sha256()

    def hash_pieces(pieces, out):
        for piece in pieces:
            digest.update(piece)

    monkeypatch.setattr(cli, "_write", hash_pieces)
    assert main(["expand", *argv, "--out", "unused"]) == 0
    return digest.hexdigest()


def test_expand_psi_6_bytes_are_golden(monkeypatch):
    assert _expand_sha256_as_written(monkeypatch, "--op", "psi", "--dim", "6") == PSI_6_SHA256


def test_expand_concrete_psi_sym3_6_bytes_are_golden(monkeypatch):
    argv = ("--op", "psi", "--mode", "concrete", "--seed", "1", "--group", "sym3", "--dim", "6")
    assert _expand_sha256_as_written(monkeypatch, *argv) == PSI_SYM3_6_SHA256


def test_expand_psi_6_at_level_8_bytes_are_golden(monkeypatch):
    argv = ("--op", "psi", "--dim", "6", "--level", "8")
    assert _expand_sha256_as_written(monkeypatch, *argv) == PSI_6_LEVEL_8_SHA256


def _assert_entry_error_leaves_no_file(tmp_path, monkeypatch, case):
    from barhom.quintuple import QuintupleAlgebra
    from barhom.words import TowerAlgebra

    def broken(self, v):
        raise RuntimeError("entry does not serialize")

    monkeypatch.setattr(TowerAlgebra, "entry_to_json", broken)
    monkeypatch.setattr(QuintupleAlgebra, "entry_to_json", broken)
    path = tmp_path / "out"
    with pytest.raises(RuntimeError):
        main([*_expand_argv(case), "--out", str(path)])
    assert not path.exists()


def test_expand_entry_error_leaves_no_file(tmp_path, monkeypatch):
    _assert_entry_error_leaves_no_file(tmp_path, monkeypatch, "psi 2")


def test_expand_ed_tsv_entry_error_leaves_no_file(tmp_path, monkeypatch):
    # the TSV is streamed piece by piece: a late error must still leave no file
    _assert_entry_error_leaves_no_file(tmp_path, monkeypatch, "ed freesym tsv 2")


def _readme_commands():
    """The ``barhom ...`` lines of README's "Command line" block, each as
    (argv, comment)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = command.split()
        if argv[:1] == ["barhom"]:
            commands.append((argv[1:], comment.strip()))
    return commands


def test_readme_command_lines_run(capsys, tmp_path):
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv, comment in commands:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path / "out")
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "count":
            # the numbers the comment states are the ones counted
            numbers = re.findall(r"\d{3,}", comment)
            assert numbers and set(numbers) <= set(re.findall(r"\d+", out)), (argv, out)
