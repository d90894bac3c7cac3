import json
import re

import pytest

from spinorbit import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deutsch_single_oracle(capsys):
    code, out, _ = run_cli(capsys, "deutsch", "--oracle", "cnot")
    assert code == 0
    assert "verdict=balanced" in out
    assert "p_D1=0.99999999999999978" in out or "p_D1=1" in out


def test_deutsch_json_report(capsys):
    code, out, _ = run_cli(capsys, "deutsch", "--oracle", "cnot", "--json")
    assert code == 0
    document = json.loads(out)
    assert document["schema_version"] == 1
    assert document["parameters"]["oracle"] == "cnot"
    (result,) = document["results"]
    assert result["verdict"] == "balanced"
    assert abs(result["p_D1"] - 1.0) <= 1e-12


def test_deutsch_all_realistic(capsys):
    code, out, _ = run_cli(capsys, "deutsch", "--oracle", "all", "--realistic", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 4
    for result in results:
        assert abs(result["survival"] - 0.9409) <= 1e-12


def test_deutsch_explicit_eta_beats_realistic(capsys):
    code, out, _ = run_cli(
        capsys, "deutsch", "--oracle", "identity", "--realistic", "--eta", "0.5", "--json"
    )
    assert code == 0
    assert json.loads(out)["parameters"]["eta"] == 0.5


def test_deutsch_shots_deterministic(capsys):
    args = ("deutsch", "--oracle", "identity", "--shots", "1000", "--seed", "7", "--json")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    tally = json.loads(out_a)["results"][0]["shots"]
    assert tally["n_D1"] + tally["n_D2"] + tally["n_lost"] == 1000


def test_deutsch_text_and_json_numbers_agree(capsys):
    _, text_out, _ = run_cli(capsys, "deutsch", "--oracle", "cnot", "--crosstalk", "0.3")
    _, json_out, _ = run_cli(
        capsys, "deutsch", "--oracle", "cnot", "--crosstalk", "0.3", "--json"
    )
    result = json.loads(json_out)["results"][0]
    text_p1 = float(re.search(r"p_D1=(\S+)", text_out).group(1))
    text_p2 = float(re.search(r"p_D2=(\S+)", text_out).group(1))
    assert text_p1 == result["p_D1"]  # 17 significant digits round-trip exactly
    assert text_p2 == result["p_D2"]


def test_deutsch_verify_ideal(capsys):
    code, _, err = run_cli(capsys, "deutsch", "--oracle", "all", "--verify")
    assert code == 0
    assert "consistent" in err


def test_deutsch_verify_noisy_still_consistent(capsys):
    code, _, _ = run_cli(capsys, "deutsch", "--oracle", "cnot", "--crosstalk", "0.6", "--verify")
    assert code == 0


def test_invalid_flag_exits_1(capsys):
    assert run_cli(capsys, "deutsch", "--oracle", "bogus")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1


def test_eta_out_of_range_exits_1(capsys):
    code, _, err = run_cli(capsys, "deutsch", "--eta", "1.5")
    assert code == 1
    assert "eta" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("deutsch", "--shots", "-5"), "--shots"),
        (("deutsch", "--seed", "-1", "--shots", "10"), "--seed"),
    ],
)
def test_negative_shots_and_seed_exit_1(capsys, argv, flag):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert flag in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "check"])
def test_bench_directory_exits_1(tmp_path, capsys, command):
    code, _, err = run_cli(capsys, "bench", command, str(tmp_path))
    assert code == 1
    assert "not found" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_lmax_above_cap_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "deutsch", "--lmax", "100000")
    assert code == 2
    assert "l_max" in err and len(err.splitlines()) == 1
    huge = tmp_path / "huge.bench"
    huge.write_text("space lmax=100000\nqplate q=1\nmeasure pbs\n")
    code, _, err = run_cli(capsys, "bench", "run", str(huge))
    assert code == 2
    assert "l_max" in err and len(err.splitlines()) == 1


def test_truncation_exits_2(capsys):
    code, _, err = run_cli(capsys, "deutsch", "--lmax", "3")
    assert code == 2
    assert "l_max" in err


def test_measure_oam_flag(capsys):
    code, out, _ = run_cli(capsys, "deutsch", "--oracle", "zcnot", "--measure", "oam", "--json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["measurement"] == "oam"
    assert result["verdict"] == "balanced"
    assert abs(result["oam_sorter"]["p_minus"] - 1.0) <= 1e-12


def test_bench_run_packaged_identity(capsys):
    code, out, _ = run_cli(capsys, "bench", "run", "identity.bench", "--json")
    assert code == 0
    document = json.loads(out)
    assert document["output"]["fidelity_vs_input"] >= 1.0 - 1e-12
    assert document["measurement"]["p_D2"] >= 1.0 - 1e-12


def test_bench_run_fig2_with_input(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "run", "fig2_cnot_gate.bench", "--input", "R,+2", "--json"
    )
    assert code == 0
    document = json.loads(out)
    assert document["output"]["dominant"] == "L,-2"
    (amp,) = document["output"]["amplitudes"]
    assert amp["pol"] == "L" and amp["l"] == -2
    assert abs(amp["re"] - 1.0) <= 1e-12 and abs(amp["im"]) <= 1e-12


def test_bench_run_zcnot_measurement(capsys):
    code, out, _ = run_cli(capsys, "bench", "run", "zcnot.bench", "--json")
    assert code == 0
    assert abs(json.loads(out)["measurement"]["p_D1"] - 1.0) <= 1e-12


def test_bench_run_bad_input_spec(capsys):
    code, _, err = run_cli(
        capsys, "bench", "run", "identity.bench", "--input", "L;2"
    )
    assert code == 1
    assert "--input" in err


def test_bench_run_input_outside_truncation(capsys):
    code, _, _ = run_cli(capsys, "bench", "run", "identity.bench", "--input", "L,9")
    assert code == 2


def test_bench_check_ok(capsys):
    code, out, _ = run_cli(capsys, "bench", "check", "cnot.bench")
    assert code == 0
    assert "ok" in out


def test_bench_check_syntax_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "broken.bench"
    bad.write_text("space lmax=6\nhwp theta=\nwat\n")
    code, _, err = run_cli(capsys, "bench", "check", str(bad))
    assert code == 1
    assert "line 2" in err and "line 3" in err


def test_bench_compile_error_exits_2(tmp_path, capsys):
    from importlib import resources

    text = (resources.files("spinorbit") / "benches" / "fig2_cnot_gate.bench").read_text()
    bad = tmp_path / "fig2_small.bench"
    bad.write_text(text.replace("lmax=4", "lmax=3"))
    code, _, err = run_cli(capsys, "bench", "run", str(bad))
    assert code == 2
    assert "truncation overflow" in err


def test_bench_missing_file(capsys):
    code, _, err = run_cli(capsys, "bench", "run", "no_such.bench")
    assert code == 1
    assert "not found" in err


def test_bench_corpus_flag(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "mini.bench").write_text("lens\nmeasure pbs\n")
    code, out, _ = run_cli(
        capsys, "bench", "run", "mini.bench", "--corpus", str(corpus), "--json"
    )
    assert code == 0
    assert json.loads(out)["output"]["fidelity_vs_input"] >= 1.0 - 1e-12


@pytest.mark.parametrize("suite,count", [("truth-tables", 16), ("cross-check", 4)])
def test_verify_suites_pass(capsys, suite, count):
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 0
    assert f"{count}/{count} assertions passed" in out


def test_verify_unitarity_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "unitarity")
    assert code == 0
    assert "FAIL" not in out


def test_verify_failure_exits_3(capsys, monkeypatch):
    from spinorbit.verify import CheckResult

    monkeypatch.setitem(
        cli.SUITES, "cross-check", lambda l_max=6: [CheckResult("forced", False, "")]
    )
    code, out, _ = run_cli(capsys, "verify", "cross-check")
    assert code == 3
    assert "FAIL forced" in out


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
