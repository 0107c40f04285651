import hashlib
import json
import re

import pytest

from barhom.cli import main


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
    # gamma(10) is far above the default cap; P builds only d_cyl(10) terms
    code, out = run(capsys, "count", "--op", "P", "--dim", "10")
    assert code == 0
    assert "ok P dim 10: diameter 11264 expected 11264" in out


def test_count_psi_above_cap_is_refused(capsys):
    code = main(["count", "--op", "psi", "--dim", "4", "--cap", "1000"])
    assert code == 2
    assert "term cap exceeded: gamma(4) = 1120 > 1000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "expand"])
def test_level_below_dim_is_usage_error(capsys, command):
    code = main([command, "--op", "psi", "--dim", "3", "--level", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --level 2 is below --dim 3\n"


def test_count_phi(capsys):
    code, out = run(capsys, "count", "--op", "phi", "--dim", "3")
    assert code == 0
    assert "expected 97" in out


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["expand", "--op", "bogus", "--dim", "1"])
    assert err.value.code == 2


def test_bad_group_exit_code(capsys):
    code = main(["verify", "--suite", "theorem45", "--group", "quaternion8"])
    assert code == 2


@pytest.mark.parametrize("suite", ["theorem45", "all"])
@pytest.mark.parametrize("group, name", [("free2", "free2"), ("cyclic2*free1", "cyclic2xfree1")])
def test_theorem45_on_an_infinite_group_is_a_usage_error(capsys, monkeypatch, suite, group, name):
    from barhom import checks

    # refused before any work: no instance is built
    monkeypatch.setattr(checks, "VerificationInstance", None)
    code = main(["verify", "--suite", suite, "--group", group])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: theorem45 enumerates the group, and {name} is infinite\n"


@pytest.mark.parametrize("suite", ["cylinder", "chainmaps"])
@pytest.mark.parametrize("group", ["free2", "cyclic2*free1"])
def test_other_suites_run_on_infinite_groups(capsys, suite, group):
    code, out = run(capsys, "verify", "--suite", suite, "--group", group, "--maxdim", "3")
    assert code == 0
    assert out.startswith("ok ")
    assert '"status": "pass"' in out.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["expand", "--op", "ed", "--dim", "-1"],
    ["tables", "--max", "-1"],
    ["verify", "--suite", "cylinder", "--samples", "0"],
    ["verify", "--suite", "cylinder", "--samples", "-5"],
    ["verify", "--suite", "psi", "--level", "0", "--maxdim", "3"],
    ["verify", "--suite", "chainmaps", "--maxdim", "0"],
    ["verify", "--suite", "theorem45", "--modulus", "1"],
    ["expand", "--op", "P", "--mode", "concrete", "--dim", "2", "--modulus", "1"],
], ids=" ".join)
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert "must be >= " in captured.err


@pytest.mark.parametrize("op, dim, size", [("P", 12, "d_cyl(12) = 53248"), ("ed", 11, "2**11 = 2048")])
def test_expand_above_cap_is_refused(capsys, op, dim, size):
    code = main(["expand", "--op", op, "--dim", str(dim), "--cap", "1000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"term cap exceeded: {size} > 1000" in captured.err


@pytest.mark.parametrize("op", ["P", "psi", "phi", "Q"])
def test_expand_tsv_is_only_for_ed(capsys, tmp_path, monkeypatch, op):
    from barhom import cli

    # refused before any work: not even the cap is looked at
    monkeypatch.setattr(cli, "_check_cap", None)
    path = tmp_path / "out"
    code = main(["expand", "--op", op, "--dim", "2", "--format", "tsv", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --format tsv is only for --op ed, not --op {op}\n"
    assert not path.exists()


@pytest.mark.parametrize("argv, target, reason", [
    (["expand", "--op", "psi", "--dim", "2"], "missing/x.json", "No such file or directory"),
    (["tables"], "missing/t.tsv", "No such file or directory"),
    (["bounds"], "missing/b.json", "No such file or directory"),
    (["expand", "--op", "psi", "--dim", "2"], ".", "Is a directory"),
], ids=["expand", "tables", "bounds", "expand-to-a-directory"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, target, reason):
    out = str(tmp_path / target)
    code = main([*argv, "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {out}: {reason}\n"


def _verify_failure(capsys, *argv):
    code, out = run(capsys, "verify", *argv)
    lines = out.splitlines()
    return code, lines[:-1], json.loads(lines[-1])


def test_verify_residual_is_exit_1(capsys, monkeypatch):
    from barhom import checks
    from barhom.moore import Chain

    monkeypatch.setattr(checks, "theorem_identity_residual", lambda ctx, sigma, face_P: Chain.of((ctx.ell,)))
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
    assert lines[-1].startswith("FAIL theorem45: IncompatiblePillars: pillar relation fails at index")
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
# "op dim" for psi/phi/Q (freesym, json), "op mode format dim" for ed and
# "op mode json dim" for P (only ed has a TSV form).
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
    "Q 0": "03cba0274c04190368b7d65335bfde58247cd72724947b35b93d2da00eec6bae",
    "Q 1": "cd68a0fce97446ddbbbb2f7a0794bc33d5ea7dfc169bc0807fd2f548c1dbd8cd",
    "Q 2": "861c1487e6e8efe70948dbe3aacc278548eb37c3d19a4db0ba2b5b9a255624c8",
    "Q 3": "2f79403d08c9d141ffd0b0c91e2465a0a99798f4c462590b3a4c5576eca03660",
    "Q 4": "963b52c5f7b396a12348cc16e37964635d7b49147f314a09775e87e4156b2b7c",
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
}


def _expand_argv(case):
    *rest, dim = case.split()
    flags = ["--op", rest[0]] if len(rest) == 1 else ["--op", rest[0], "--mode", rest[1], "--format", rest[2]]
    return ["expand", *flags, "--dim", dim]


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


def test_expand_entry_error_leaves_no_file(tmp_path, monkeypatch):
    from barhom.words import TowerAlgebra

    def broken(self, v):
        raise RuntimeError("entry does not serialize")

    monkeypatch.setattr(TowerAlgebra, "entry_to_json", broken)
    path = tmp_path / "out"
    with pytest.raises(RuntimeError):
        main(["expand", "--op", "psi", "--dim", "2", "--out", str(path)])
    assert not path.exists()
