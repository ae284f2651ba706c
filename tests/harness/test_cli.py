"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

SOURCE = """
global data[8];
global n = 0;
func main() {
    var s = 0;
    for (var i = 0; i < n; i = i + 1) { s = s + data[i]; }
    print(s);
}
"""
TRAIN = json.dumps({"data": [1, 2, 3, 4, 5, 6, 7, 8], "n": 8})


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.mc"
    path.write_text(SOURCE)
    return str(path)


def test_run_prints_output_and_stats(source_file, capsys):
    rc = main(["run", source_file, "--train", TRAIN])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out.splitlines()[0] == "36"
    assert "cycles=" in err and "oracle=OK" in err


def test_run_scalar_machine(source_file, capsys):
    rc = main(["run", source_file, "--machine", "scalar",
               "--model", "NoBoost", "--scheduler", "bb",
               "--train", TRAIN])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "scalar-r2000" in err


def test_compile_dumps_schedule(source_file, capsys):
    rc = main(["compile", source_file, "--model", "Boost7",
               "--train", TRAIN])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "proc main:" in out
    assert "<branch>" in out
    assert "boosted=" in out


def test_compile_with_unroll(source_file, capsys):
    rc = main(["compile", source_file, "--unroll", "2", "--train", TRAIN])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert ".u1" in out  # the unrolled copy's labels


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out, _ = capsys.readouterr()
    for name in ("awk", "compress", "eqntott", "espresso", "grep", "nroff",
                 "xlisp"):
        assert name in out


def test_models_listing(capsys):
    assert main(["models"]) == 0
    out, _ = capsys.readouterr()
    assert "MinBoost3" in out and "Squashing" in out


def test_bench_rejects_unknown_workload(capsys):
    assert main(["bench", "nonesuch"]) == 2


def test_bench_rejects_unknown_sabotage_target(capsys):
    assert main(["bench", "grep", "--sabotage", "nonesuch"]) == 2
    _, err = capsys.readouterr()
    assert "unknown sabotage workload" in err


@pytest.mark.parametrize("command", ["compile", "run"])
def test_missing_source_file_is_one_line_error(command, tmp_path, capsys):
    missing = str(tmp_path / "no" / "such.mc")
    rc = main([command, missing])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"repro: cannot read {missing}: ")


@pytest.mark.parametrize("command", ["compile", "run"])
def test_unreadable_source_file_is_one_line_error(command, tmp_path, capsys):
    # A directory triggers the OSError branch even when running as root.
    rc = main([command, str(tmp_path)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith(f"repro: cannot read {tmp_path}: ")


def test_verify_rejects_unknown_workload(capsys):
    rc = main(["verify", "--workloads", "nonesuch",
               "--seeds", "1", "--no-selftest"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "nonesuch" in err


def test_verify_rejects_unknown_model(capsys):
    rc = main(["verify", "--models", "nonesuch",
               "--seeds", "1", "--no-selftest"])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "nonesuch" in err


def test_verify_single_seed_runs(capsys):
    rc = main(["verify", "--workloads", "grep", "--models", "boost1",
               "--seed", "3", "--no-selftest"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "divergences: 0" in out


def test_bench_resume_refuses_a_foreign_journal(tmp_path, capsys):
    from repro.harness.resilience import Journal
    path = tmp_path / "bench.journal"
    Journal(path, "not-the-bench-fingerprint").close()
    rc = main(["bench", "grep", "--no-cache",
               "--journal", str(path), "--resume"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "different campaign" in err


def test_verify_journal_then_resume_is_byte_identical(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    journal = str(tmp_path / "verify.journal")
    args = ["verify", "--workloads", "grep", "--models", "boost1",
            "--seeds", "1", "--no-selftest", "--cache-dir", cache,
            "--journal", journal]
    assert main(args) == 0
    clean, _ = capsys.readouterr()
    assert main(args + ["--resume"]) == 0
    resumed, err = capsys.readouterr()
    assert resumed == clean
    assert "preparing" not in err  # fully journaled: nothing recomputed


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command", ["compile", "run"])
@pytest.mark.parametrize("bad_source, fragment", [
    ("func main() { var x = ; }", "parse"),          # parse error
    ("func main() { y = 1; }", "y"),                 # codegen: unknown var
    ("func main() { var a = `; }", "`"),             # lex error
])
def test_minic_errors_are_one_line_exit_2(command, bad_source, fragment,
                                          tmp_path, capsys):
    path = tmp_path / "bad.mc"
    path.write_text(bad_source)
    rc = main([command, str(path)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"repro: {path}: ")


def test_bench_journal_mismatch_names_the_diverged_field(tmp_path, capsys):
    from repro.harness.cache import CODE_VERSION
    from repro.harness.experiments import BENCH_CONFIG_KEYS
    from repro.harness.resilience import Journal

    # A real grep-only bench journal...
    facets = dict(command="bench", code_version=CODE_VERSION,
                  workloads=["grep"], sabotage=None,
                  configs=BENCH_CONFIG_KEYS, stats=False)
    path = tmp_path / "bench.journal"
    Journal(path, Journal.make_fingerprint(**facets), facets=facets).close()
    # ...resumed for a different workload set: the one-line exit-2 error
    # must say the workloads facet diverged (and not blame the others).
    rc = main(["bench", "awk", "--no-cache",
               "--journal", str(path), "--resume"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "different campaign" in err
    assert "workloads: ['grep'] -> ['awk']" in err
    assert "seeds" not in err and "configs" not in err


# ------------------------------------------------- argparse-time validation
@pytest.mark.parametrize("argv, fragment", [
    (["bench", "--jobs", "0"], "must be at least 1"),
    (["bench", "--jobs", "-3"], "must be at least 1"),
    (["bench", "--jobs", "two"], "expected a positive integer"),
    (["verify", "--jobs", "0"], "must be at least 1"),
    (["verify", "--jobs", "1.5"], "expected a positive integer"),
    (["bench", "--retries", "-2"], "must be at least 0"),
    (["bench", "--retries", "many"], "expected a non-negative integer"),
    (["bench", "--timeout", "0"], "must be greater than 0"),
    (["bench", "--timeout", "-1"], "must be greater than 0"),
    (["bench", "--timeout", "nan"], "must be greater than 0"),
    (["bench", "--timeout", "soon"], "expected a positive number"),
    (["bench", "--backoff", "-5"], "must be greater than 0"),
    (["fuzz", "--backoff", "nan"], "must be greater than 0"),
])
def test_bad_parallel_options_fail_at_parse_time(argv, fragment, capsys):
    # Bad values must die in argparse with exit code 2 and a one-line
    # message — not hours later inside a worker pool.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    # One diagnostic line after the usage text, fragment included.
    last = err.rstrip().splitlines()[-1]
    assert fragment in last
    assert last.startswith("repro")


def test_good_parallel_options_still_parse(tmp_path, capsys):
    rc = main(["bench", "awk", "--jobs", "2", "--timeout", "30",
               "--retries", "1", "--cache-dir", str(tmp_path / "cache")])
    assert rc == 0
