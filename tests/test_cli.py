import json

import pytest

from matlislab.cli import main

from conftest import FIXTURE_DIR


def fix(name):
    return str(FIXTURE_DIR / (name + ".json"))


def test_compute_gamma_regular(capsys):
    assert main(["compute", "gamma", "--fixture", fix("R3"), "--module", "regular"]) == 0
    out = capsys.readouterr().out
    assert out == "gamma = span{[0, 1, 0]; [0, 0, 1]}\n"


def test_compute_member_p(capsys):
    assert main(["compute", "member-P", "--fixture", fix("R3"), "--module", "R-mod-x2"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["compute", "member-P", "--fixture", fix("R3"), "--module", "regular"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_compute_uniserial_s(capsys):
    assert main(["compute", "uniserial-s", "--fixture", fix("R4"), "--module", "regular"]) == 0
    assert capsys.readouterr().out == "s=3 gamma=M_1 kappa=M_3\n"


def test_compute_uniserial_s_rejects_nonuniserial(capsys):
    rc = main(["compute", "uniserial-s", "--fixture", fix("KXY"), "--module", "regular"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_compute_dual_and_trace_basis(capsys):
    assert main(["compute", "dual", "--fixture", fix("R3"), "--module", "k"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dim = 1")
    assert main(["compute", "trace-basis", "--fixture", fix("R3"), "--module", "regular"]) == 0
    assert capsys.readouterr().out.startswith("hom-dim = 2")


def test_unknown_module_is_input_error(capsys):
    assert main(["compute", "gamma", "--fixture", fix("R3"), "--module", "zzz"]) == 2


def test_missing_fixture_is_input_error(capsys):
    assert main(["compute", "gamma", "--fixture", "no-such", "--module", "regular"]) == 2


def test_fixture_dir_env_var(monkeypatch, capsys):
    monkeypatch.setenv("MATLISLAB_FIXTURE_DIR", str(FIXTURE_DIR))
    assert main(["compute", "member-S", "--fixture", "R3", "--module", "R-mod-x2"]) == 0
    assert capsys.readouterr().out == "true\n"


def test_verify_suite_exit_zero(capsys):
    rc = main(["verify", "lemma11", "--fixture", fix("R3"), "--trials", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.endswith("SUITE lemma11 R3 total=8 pass=8 fail=0\n")
    for line in out.splitlines()[:-1]:
        assert line.startswith("CHECK ") and " PASS " in line


@pytest.mark.parametrize("flag", ["--trials"])
def test_verify_negative_count_is_input_error(capsys, flag):
    rc = main(["verify", "lemma11", "--fixture", fix("R3"), flag, "-5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


def test_verify_budget_flag_is_rejected(capsys):
    # satz25 builds its witness; there is no search budget to set
    with pytest.raises(SystemExit) as exc:
        main(["verify", "satz25", "--fixture", fix("R3"), "--budget", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget" in captured.err


def test_verify_json_variant(capsys):
    rc = main(["verify", "closure", "--fixture", fix("V2"), "--trials", "3", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fail"] == 0 and doc["fixture"] == "V2"


def test_verify_deterministic_bytes(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        rc = main(
            ["verify", "all", "--fixture", fix("R4"), "--seed", "7",
             "--trials", "4", "--out", str(out)]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_satz22_counterexample_witness(capsys):
    rc = main(["verify", "satz22", "--fixture", fix("KXY"), "--trials", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "criterion-false branch" in out


def test_ring_check(capsys):
    assert main(["ring", "check", "--fixture", fix("KXY")]) == 0
    assert capsys.readouterr().out.startswith("ring OK: dim=4")


def test_ring_check_bad_fixture(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "name": "bad", "field": "Q", "vars": ["x"],
        "relations": [[[1, 1, [3]]]], "nilpotency": 2,
    }))
    assert main(["ring", "check", "--fixture", str(p)]) == 2


def test_compute_out_file(tmp_path):
    out = tmp_path / "g.txt"
    rc = main(
        ["compute", "kappa", "--fixture", fix("R3"), "--module", "regular",
         "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text() == "kappa = span{[0, 0, 1]}\n"


def test_unexpected_exception_is_exit_three(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("matlislab.cli.run_suite", broken)
    assert main(["verify", "lemma11", "--fixture", fix("R3")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_are_not_caught(monkeypatch, exc):
    def interrupted(*args, **kwargs):
        raise exc()

    monkeypatch.setattr("matlislab.cli.run_suite", interrupted)
    with pytest.raises(exc):
        main(["verify", "lemma11", "--fixture", fix("R3")])


@pytest.mark.parametrize(
    "case", ["fixture-not-utf8", "out-in-missing-dir", "out-is-dir", "out-write-fails"]
)
def test_malformed_input_is_exit_two(tmp_path, monkeypatch, capsys, case):
    fixture, out = fix("R3"), ["--out", str(tmp_path / "report.txt")]
    if case == "fixture-not-utf8":
        fixture = tmp_path / "latin1.json"
        fixture.write_bytes('{"name": "R\xe9"}'.encode("latin-1"))
    elif case == "out-in-missing-dir":
        out = ["--out", str(tmp_path / "missing" / "report.txt")]
    elif case == "out-is-dir":
        out = ["--out", str(tmp_path)]
    if case == "out-write-fails":
        def refuse(*args, **kwargs):
            raise PermissionError("read-only")

        # only the CLI's own open, so the fixture still reads
        monkeypatch.setattr("matlislab.cli.open", refuse, raising=False)
        argv = ["compute", "kappa", "--module", "regular"]
    else:
        # rejected before the suite runs: reaching it would be exit 3
        def unreachable(*args, **kwargs):
            raise RuntimeError("the suite ran")

        monkeypatch.setattr("matlislab.cli.run_suite", unreachable)
        argv = ["verify", "lemma11"]
    assert main(argv + ["--fixture", str(fixture)] + out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
