import json

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
