import dataclasses
import json
import os
import re
from pathlib import Path

import pytest

from spinorbit import cli, deutsch, reference


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
    for argv in (
        ("deutsch", "--oracle", "cnot", "--crosstalk", "0.3"),
        ("deutsch", "--oracle", "cnot", "--crosstalk", "0.3", "--realistic",
         "--measure", "oam", "--shots", "100000", "--seed", "5"),
    ):
        _, text_out, _ = run_cli(capsys, *argv)
        _, json_out, _ = run_cli(capsys, *argv, "--json")
        result = json.loads(json_out)["results"][0]
        # the tally's own "shots" count takes the place of the tally
        fields = {**result, **result["oam_sorter"], **(result["shots"] or {})}
        numbers = {
            key: value for key, value in fields.items()
            if isinstance(value, (int, float)) and key != "threshold"
        }
        text = dict(re.findall(r"(\w+)=(\S+)", text_out))
        assert set(text) == set(numbers) | {"oracle", "measurement", "verdict"}
        for key, value in numbers.items():
            # 17 significant digits round-trip exactly
            assert type(value)(text[key]) == value, key
    assert text["n_residual"] == "9718"


def test_deutsch_verify_ideal(capsys):
    code, _, err = run_cli(capsys, "deutsch", "--oracle", "all", "--verify")
    assert code == 0
    assert "consistent" in err


def test_deutsch_verify_noisy_still_consistent(capsys):
    code, _, _ = run_cli(capsys, "deutsch", "--oracle", "cnot", "--crosstalk", "0.6", "--verify")
    assert code == 0


def test_deutsch_verify_reads_the_oam_sorter_ports(capsys):
    code, _, err = run_cli(capsys, "deutsch", "--oracle", "all", "--measure", "oam", "--verify")
    assert code == 0
    assert err == "verify: 4 report(s) consistent\n"


def test_verify_report_names_each_inconsistency():
    report = deutsch.run("cnot")
    assert cli._verify_report(report) == []
    # the ports no longer sum to 1, and neither is above the threshold
    assert cli._verify_report(dataclasses.replace(report, p_d1=0.5)) == [
        "cnot: p_D1 + p_D2 != 1",
        "cnot: verdict inconsistent with probabilities",
    ]


def test_deutsch_verify_failure_exits_3(capsys, monkeypatch):
    # `_verify_report` imports the abstract classifier when it runs, so this reaches it
    monkeypatch.setattr(reference, "classify_abstract", lambda function: deutsch.CONSTANT)
    code, out, err = run_cli(capsys, "deutsch", "--oracle", "cnot", "--verify")
    assert code == 3
    assert "verdict=balanced" in out
    assert err == "verify: FAIL cnot: verdict disagrees with the abstract classifier\n"


def test_invalid_flag_exits_1(capsys):
    assert run_cli(capsys, "deutsch", "--oracle", "bogus")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1


def test_eta_out_of_range_exits_1(capsys):
    code, _, err = run_cli(capsys, "deutsch", "--eta", "1.5")
    assert code == 1
    assert "eta" in err


#: the one stderr line of each flag out of range: the library's rule, naming its parameter
_RANGE_LINES = {
    "--shots": "spinorbit deutsch: shots must be an integer in [0, 9223372036854775807], got -5\n",
    "--seed": "spinorbit deutsch: seed must be a non-negative integer, got -1\n",
}


@pytest.mark.parametrize(
    "argv,line",
    [
        (("--eta", "1.5"), "conversion efficiency eta must lie in (0, 1], got 1.5"),
        (("--crosstalk", "-0.1"), "crosstalk must lie in [0, 1], got -0.1"),
        # checked before the truncation, which alone would exit 2
        (("--eta", "0", "--lmax", "3"), "conversion efficiency eta must lie in (0, 1], got 0.0"),
    ],
)
def test_range_errors_read_as_the_library_wrote_them(capsys, argv, line):
    assert run_cli(capsys, "deutsch", *argv) == (1, "", f"spinorbit deutsch: {line}\n")


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
    assert err == _RANGE_LINES[flag]
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "check"])
def test_bench_directory_exits_1(tmp_path, capsys, command):
    code, _, err = run_cli(capsys, "bench", command, str(tmp_path))
    assert code == 1
    assert err == f"spinorbit bench: bench file {tmp_path} is a directory\n"
    # the same for a directory found in the corpus
    (tmp_path / "nested.bench").mkdir()
    code, _, err = run_cli(capsys, "bench", command, "nested.bench", "--corpus", str(tmp_path))
    assert code == 1
    assert err == f"spinorbit bench: bench file {tmp_path / 'nested.bench'} is a directory\n"


@pytest.mark.parametrize("command", ["run", "check"])
def test_bench_not_utf8_exits_1(tmp_path, capsys, command):
    bad = tmp_path / "latin.bench"
    bad.write_bytes(b"\xff\xfe bad\n")
    code, out, err = run_cli(capsys, "bench", command, str(bad))
    assert code == 1
    assert out == ""
    assert str(bad) in err and "UTF-8" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "check"])
def test_bench_unreadable_file_exits_1(tmp_path, capsys, monkeypatch, command):
    locked = tmp_path / "locked.bench"
    locked.write_text("lens\n")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "open", denied)
    code, out, err = run_cli(capsys, "bench", command, str(locked))
    assert code == 1
    assert out == ""
    assert str(locked) in err and "Permission denied" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "check"])
def test_bench_name_too_long_exits_1(tmp_path, capsys, command):
    # a name above the system's limit fails in the lookup, before a file is opened
    long_file, long_corpus = tmp_path / ("x" * 300 + ".bench"), tmp_path / ("d" * 300)
    for argv, named in (
        ((str(long_file),), long_file),
        (("zcnot.bench", "--corpus", str(long_corpus)), long_corpus / "zcnot.bench"),
    ):
        code, out, err = run_cli(capsys, "bench", command, *argv)
        assert (code, out) == (1, "")
        assert err == f"spinorbit bench: cannot read bench file {named}: File name too long\n"


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8", "name too long"])
def test_bench_json_unreadable_file_prints_the_errors_document(tmp_path, capsys, command, kind):
    path = tmp_path / ("x" * 300 + ".bench" if kind == "name too long" else "x.bench")
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"\xff\xfe bad\n")
    code, _, text_err = run_cli(capsys, "bench", command, str(path))
    code_json, out, err = run_cli(capsys, "bench", command, str(path), "--json")
    assert code == code_json == 1 and err == ""
    # the message the text mode prints on stderr, in the syntax-errors document
    assert json.loads(out) == {
        "schema_version": 1,
        "command": f"bench {command}",
        "file": str(path),
        "ok": False,
        "errors": [{"message": text_err.removeprefix("spinorbit bench: ").rstrip("\n")}],
    }


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


#: the CNOT bench with an imperfect l0 plate, read out by the OAM sorter
SORTER_BENCH = """space lmax=6
prepare polarizer V
prepare hologram oam=+2,-2
qplate q=1
hwp theta=0 aperture=l0 crosstalk=0.3
qplate q=1
measure oam_sorter
"""


def test_bench_run_json_reports_the_oam_sorter(tmp_path, capsys):
    from spinorbit import apply_chain, compile_bench, measure_oam_superposition, parse

    path = tmp_path / "sorter.bench"
    path.write_text(SORTER_BENCH)
    code, out, err = run_cli(capsys, "bench", "run", str(path), "--json")
    assert code == 0 and err == ""
    compiled = compile_bench(parse(SORTER_BENCH))
    output = apply_chain(compiled.elements, compiled.preparation.initial_state(compiled.space))
    assert json.loads(out)["measurement"] == {
        "kind": "oam_sorter", **measure_oam_superposition(output)._asdict()}
    assert list(json.loads(out)["measurement"]) == ["kind", "p_plus", "p_minus", "residual"]


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


def test_bench_run_json_syntax_errors_print_the_check_document(tmp_path, capsys):
    bad = tmp_path / "broken.bench"
    bad.write_text("space lmax=6\nhwp theta=\nwat\n")
    documents = {}
    for command in ("run", "check"):
        code, out, err = run_cli(capsys, "bench", command, str(bad), "--json")
        assert code == 1 and err == ""
        documents[command] = json.loads(out)
    assert documents["run"] == {**documents["check"], "command": "bench run"}
    assert documents["run"]["ok"] is False and documents["run"]["file"] == str(bad)
    assert [e["line"] for e in documents["run"]["errors"]] == [2, 3]


def test_bench_compile_error_exits_2(tmp_path, capsys):
    from importlib import resources

    text = (resources.files("spinorbit") / "benches" / "fig2_cnot_gate.bench").read_text()
    bad = tmp_path / "fig2_small.bench"
    bad.write_text(text.replace("lmax=4", "lmax=3"))
    code, _, err = run_cli(capsys, "bench", "run", str(bad))
    assert code == 2
    assert "truncation overflow" in err


@pytest.mark.parametrize("command", ["run", "check"])
def test_bench_element_count_cap(tmp_path, capsys, command):
    from spinorbit.dsl import MAX_ELEMENTS

    bench = tmp_path / "long.bench"
    bench.write_text("lens\n" * MAX_ELEMENTS)
    code, _, _ = run_cli(capsys, "bench", command, str(bench))
    assert code == 0
    bench.write_text("lens\n" * (MAX_ELEMENTS + 1))
    code, out, err = run_cli(capsys, "bench", command, str(bench))
    assert code == 2 and out == ""
    assert f"{MAX_ELEMENTS + 1} elements; the limit is {MAX_ELEMENTS}" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "check"])
def test_bench_file_size_cap(tmp_path, capsys, command):
    from spinorbit.dsl import MAX_BENCH_BYTES

    bench = tmp_path / "padded.bench"
    body = "qplate q=1\n#"
    bench.write_text(body + "x" * (MAX_BENCH_BYTES - len(body)))
    assert bench.stat().st_size == MAX_BENCH_BYTES
    code, _, _ = run_cli(capsys, "bench", command, str(bench))
    assert code == 0
    bench.write_text(body + "x" * (MAX_BENCH_BYTES + 1 - len(body)))
    code, out, err = run_cli(capsys, "bench", command, str(bench))
    assert code == 2 and out == ""
    assert f"is larger than the limit of {MAX_BENCH_BYTES} bytes" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "check"])
def test_bench_file_size_cap_ignores_reported_size(tmp_path, capsys, monkeypatch, command):
    # a file may report fewer bytes than it holds (procfs reports 0) or grow
    # after a stat, so the cap must hold on what is read
    from spinorbit.dsl import MAX_BENCH_BYTES

    bench = tmp_path / "padded.bench"
    bench.write_text("qplate q=1\n#" + "x" * (4 * MAX_BENCH_BYTES))
    real_stat = Path.stat

    def understated(self, *args, **kwargs):
        fields = tuple(real_stat(self, *args, **kwargs))
        return os.stat_result(fields[:6] + (0,) + fields[7:])

    monkeypatch.setattr(Path, "stat", understated)
    assert bench.is_file() and bench.stat().st_size == 0
    read_sizes = []
    real_open = Path.open

    def spied_open(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        real_read = handle.read
        handle.read = lambda size=-1: read_sizes.append(size) or real_read(size)
        return handle

    monkeypatch.setattr(Path, "open", spied_open)
    code, out, err = run_cli(capsys, "bench", command, str(bench))
    assert code == 2 and out == ""
    assert f"is larger than the limit of {MAX_BENCH_BYTES} bytes" in err
    assert read_sizes == [MAX_BENCH_BYTES + 1]


def test_bench_file_with_cr_line_ends_parses(tmp_path, capsys):
    bench = tmp_path / "crlf.bench"
    bench.write_bytes(b"space lmax=6\r\nlens\rmeasure pbs\r\n")
    code, out, _ = run_cli(capsys, "bench", "check", str(bench))
    assert code == 0, out


def test_bench_missing_file(capsys):
    code, _, err = run_cli(capsys, "bench", "run", "no_such.bench")
    assert code == 1
    assert "not found" in err


def test_bench_run_prefers_a_local_benches_directory(tmp_path, capsys, monkeypatch):
    # a `benches` directory in the working directory shadows the packaged corpus
    (tmp_path / "benches").mkdir()
    (tmp_path / "benches" / "identity.bench").write_text("lens\nmeasure pbs\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "bench", "run", "identity.bench", "--json")
    assert code == 0
    assert json.loads(out)["file"] == str(Path("benches") / "identity.bench")


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


def test_verify_unitarity_at_the_largest_truncation_holds_no_dense_matrix():
    import tracemalloc

    from spinorbit.state import MAX_L_MAX, make_space
    from spinorbit.verify import verify_unitarity

    tracemalloc.start()
    try:
        results = verify_unitarity(MAX_L_MAX)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = make_space(MAX_L_MAX).dimension
    assert len(results) == 26 and all(result.passed for result in results)
    # one dense complex matrix would take 16 * dim^2 bytes
    assert peak < dim * dim


@pytest.mark.parametrize("l_max", [6, 64])
def test_verify_unitarity_agrees_with_the_dense_product(monkeypatch, l_max):
    import numpy as np
    from dense import dense

    from spinorbit import verify

    ops = []

    def recording(factory):
        def build(*args, **kwargs):
            ops.append(factory(*args, **kwargs))
            return ops[-1]
        return build

    for name in ("lens", "dove_prism", "qplate", "hwp"):
        monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
    results = verify.verify_unitarity(l_max)
    assert len(ops) == len(results) == 26
    for op, result in zip(ops, results):
        matrix = dense(op)
        dense_deviation = np.abs(matrix.conj().T @ matrix - np.eye(op.space.dimension)).max()
        deviation = float(result.detail.rpartition("= ")[2])
        assert result.name == f"unitarity {op.label}" and result.passed
        assert abs(deviation - dense_deviation) <= 1e-15


def test_verify_unitarity_checks_what_the_constructor_let_through(monkeypatch):
    import numpy as np

    from spinorbit import elements, state
    from spinorbit.verify import verify_unitarity

    # a constructor that passes every block, and a plate that is not unitary
    monkeypatch.setattr(state, "_blocks_deviation", lambda blocks: 0.0)
    monkeypatch.setattr(
        elements, "_hwp_block_circular",
        lambda theta: np.array([[0.0, 1.0], [1.5, 0.0]], dtype=complex),
    )
    results = verify_unitarity(6)
    failed = [result.name for result in results if not result.passed]
    assert len(failed) == 16 and all(name.startswith("unitarity hwp") for name in failed)


def test_verify_unitarity_fails_a_gather_that_is_not_a_permutation(monkeypatch):
    import numpy as np

    from spinorbit import verify

    real = verify.dove_prism

    def dove_prism(space):
        # a prism the constructor accepted, then given a repeated index
        op = real(space)
        source = np.array(op.source)
        source[0] = source[1]
        object.__setattr__(op, "source", source)
        return op

    monkeypatch.setattr(verify, "dove_prism", dove_prism)
    failed = [result for result in verify.verify_unitarity(6) if not result.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("unitarity dove", "source is not a permutation of range(26)")
    ]


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
