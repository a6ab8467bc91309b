"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main

CLEAN = """
    long color(blue) total = 0;
    entry long main(long n) {
        total = total + n;
        return 0;
    }
"""

BROKEN = """
    long color(blue) secret = 1;
    long out = 0;
    entry void main() { out = secret; }
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN)
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.c"
    path.write_text(BROKEN)
    return str(path)


def test_analyze_ok(clean_file, capsys):
    assert main(["analyze", clean_file, "--mode", "relaxed"]) == 0
    out = capsys.readouterr().out
    assert "analysis OK" in out
    assert "blue" in out


def test_analyze_reports_errors(broken_file, capsys):
    assert main(["analyze", broken_file]) == 1
    err = capsys.readouterr().err
    assert "[store]" in err or "incompatible colors" in err


def test_compile_to_directory(clean_file, tmp_path, capsys):
    out_dir = tmp_path / "parts"
    assert main(["compile", clean_file, "--mode", "relaxed",
                 "-o", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "blue.ir" in files and "S.ir" in files
    blue_text = (out_dir / "blue.ir").read_text()
    assert "@main$" in blue_text


def test_compile_to_stdout(clean_file, capsys):
    assert main(["compile", clean_file, "--mode", "relaxed"]) == 0
    out = capsys.readouterr().out
    assert "define" in out


def test_run_executes_entry(clean_file, capsys):
    assert main(["run", "--mode", "relaxed", "--entry",
                 "main", clean_file, "7"]) == 0
    out = capsys.readouterr().out
    assert "main(7) = 0" in out
    assert "messages:" in out


@pytest.mark.parametrize("engine", ["decoded", "legacy"])
def test_fptosi_overflow_is_a_typed_fault(tmp_path, capsys, engine):
    # inf has no long value: a typed RuntimeFault (exit 3) at run
    # time, not a traceback from constant folding.
    path = tmp_path / "overflow.c"
    path.write_text("long main() { return (long)(1e300 * 1e300); }\n")
    assert main(["run", str(path), "--mode", "relaxed",
                 "--engine", engine]) == 3
    assert "fault[RuntimeFault] exit=3: fptosi of inf" in \
        capsys.readouterr().err


def test_compile_error_is_reported(broken_file, capsys):
    assert main(["compile", broken_file]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file(capsys):
    assert main(["analyze", "/no/such/file.c"]) == 2


FIG7 = """
    int unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;
    void g(int n) { blue_g = n; red_g = n; }
    int f(int y) { g(21); return 42; }
    entry int main() { unsafe_g = 1; int x = f(blue_g); return x; }
"""


@pytest.fixture
def fig7_file(tmp_path):
    path = tmp_path / "fig7.c"
    path.write_text(FIG7)
    return str(path)


def test_run_engine_flag(fig7_file, capsys):
    for engine in ("decoded", "legacy"):
        assert main(["run", "--mode", "relaxed", "--engine", engine,
                     fig7_file]) == 0
        assert "main() = 42" in capsys.readouterr().out


def test_run_max_steps_exhaustion_is_an_error(fig7_file, capsys):
    # Exhausting the step budget is a WatchdogTimeout: exit code 7
    # and a structured one-line fault message.
    assert main(["run", "--mode", "relaxed", "--max-steps", "2",
                 fig7_file]) == 7
    err = capsys.readouterr().err
    assert "fault[WatchdogTimeout] exit=7:" in err
    assert "exceeded 2 steps" in err


def test_run_trace_writes_valid_chrome_json(fig7_file, tmp_path,
                                            capsys):
    from repro.obs.export import validate_chrome_trace_file

    trace_path = tmp_path / "trace.json"
    assert main(["run", "--mode", "relaxed", fig7_file,
                 "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert f"trace: wrote {trace_path}" in out
    assert validate_chrome_trace_file(str(trace_path)) > 0


def test_run_trace_survives_a_faulted_run(fig7_file, tmp_path,
                                          capsys):
    """A chaos run's trace is most valuable when the run faults:
    --trace must write a valid trace on the failure path too, with
    the fault events on it."""
    from repro.obs.export import (
        trace_event_names, validate_chrome_trace_file)
    import json

    trace_path = tmp_path / "trace.json"
    assert main(["run", "--mode", "relaxed", fig7_file,
                 "--inject", "channel-corrupt:*:spawn:1",
                 "--trace", str(trace_path)]) == 5
    err = capsys.readouterr().err
    assert f"trace: wrote {trace_path}" in err
    assert validate_chrome_trace_file(str(trace_path)) > 0
    with open(trace_path) as handle:
        names = trace_event_names(json.load(handle))
    assert "inject" in names and "detect" in names


def test_run_stats_prints_metrics(fig7_file, capsys):
    assert main(["run", "--mode", "relaxed", "--stats",
                 fig7_file]) == 0
    out = capsys.readouterr().out
    assert "messages:" in out  # the classic line survives
    assert "runtime.spawns = " in out
    assert "channel.total = " in out
    assert "interp.steps = " in out


def test_run_rejects_unknown_engine(fig7_file, capsys):
    for engine in ("turbo", "traced"):
        with pytest.raises(SystemExit):
            main(["run", "--engine", engine, fig7_file])


# -- pass-pipeline flags ------------------------------------------------------


def test_compile_passes_flag_without_partition(clean_file, capsys):
    assert main(["compile", clean_file, "--mode", "relaxed",
                 "--passes", "mem2reg,constfold,dce"]) == 0
    out = capsys.readouterr().out
    # No partition pass: the single optimized module is printed.
    assert "; module" in out
    assert "@main$" not in out             # no specialized clones


def test_compile_stats_reports_per_pass_metrics(clean_file, capsys):
    assert main(["compile", clean_file, "--mode", "relaxed",
                 "--stats"]) == 0
    out = capsys.readouterr().out
    assert "pipeline.pass.seconds[mem2reg] = " in out
    assert "pipeline.pass.runs[partition] = " in out
    assert "pipeline.analysis_cache.hits = " in out


def test_compile_time_passes_prints_the_table(clean_file, capsys):
    assert main(["compile", clean_file, "--mode", "relaxed",
                 "--time-passes"]) == 0
    err = capsys.readouterr().err
    assert "=== pass timings ===" in err
    assert "mem2reg" in err


def test_compile_print_after_each_dumps_ir(clean_file, capsys):
    assert main(["compile", clean_file, "--mode", "relaxed",
                 "--print-after-each"]) == 0
    err = capsys.readouterr().err
    assert "; === IR after mem2reg ===" in err
    assert "; === IR after partition ===" in err


def test_unknown_pass_is_an_error(clean_file, capsys):
    assert main(["compile", clean_file, "--passes", "typo"]) == 1
    assert "unknown pass 'typo'" in capsys.readouterr().err


def test_run_without_partition_pass_is_an_error(fig7_file, capsys):
    assert main(["run", "--mode", "relaxed",
                 "--passes", "mem2reg", fig7_file]) == 1
    assert "did not produce a partitioned program" in \
        capsys.readouterr().err


def test_analyze_without_secure_types_pass_is_an_error(clean_file,
                                                       capsys):
    assert main(["analyze", clean_file, "--mode", "relaxed",
                 "--passes", "mem2reg"]) == 1
    assert "secure-types" in capsys.readouterr().err


def test_analyze_error_names_the_source_line(broken_file, capsys):
    assert main(["analyze", broken_file]) == 1
    assert "source line 4:" in capsys.readouterr().err


# -- chaos / fault-injection flags --------------------------------------------


def test_run_inject_drop_faults_with_typed_exit_code(fig7_file,
                                                     capsys):
    """Dropping the first spawn parks the program forever: the CLI
    must exit with the DeadlockFault code and a structured line."""
    code = main(["run", "--mode", "relaxed", fig7_file,
                 "--inject", "channel-drop:*:spawn:1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "fault[DeadlockFault] exit=4:" in captured.err
    assert "chaos: injecting [channel-drop:*:spawn:1]" \
        in captured.err


def test_run_inject_corrupt_is_detected_as_iago(fig7_file, capsys):
    code = main(["run", "--mode", "relaxed", fig7_file,
                 "--inject", "channel-corrupt:*:spawn:1"])
    captured = capsys.readouterr()
    assert code == 5
    assert "fault[IagoFault] exit=5:" in captured.err
    assert "failed authentication" in captured.err


def test_run_inject_unmatched_entry_is_harmless(fig7_file, capsys):
    """An injection that never matches leaves the run identical."""
    assert main(["run", "--mode", "relaxed", fig7_file,
                 "--inject", "channel-drop:green->U:token:9"]) == 0
    captured = capsys.readouterr()
    assert "main() = 42" in captured.out
    assert "faults: injected=0 detected=0 of 1 armed" \
        in captured.out


def test_run_inject_bad_spec_is_an_error(fig7_file, capsys):
    assert main(["run", "--mode", "relaxed", fig7_file,
                 "--inject", "flip-bits:x:1"]) == 1
    assert "unknown fault action 'flip-bits'" in \
        capsys.readouterr().err


def test_run_chaos_seed_is_deterministic(fig7_file, capsys):
    """The same seed must draw the same plan (and outcome)."""

    def once():
        code = main(["run", "--mode", "relaxed", fig7_file,
                     "--chaos-seed", "11"])
        captured = capsys.readouterr()
        plan = [line for line in captured.err.splitlines()
                if line.startswith("chaos: injecting")]
        return code, plan

    first = once()
    second = once()
    assert first == second
    assert first[1]  # the plan line was printed


def test_run_watchdog_steps_flag(fig7_file, capsys):
    code = main(["run", "--mode", "relaxed", fig7_file,
                 "--watchdog-steps", "3"])
    captured = capsys.readouterr()
    assert code == 7
    assert "fault[WatchdogTimeout] exit=7:" in captured.err
    assert "watchdog budget of 3 step(s)" in captured.err


# -- exit-code table -----------------------------------------------------------


def test_exit_code_table_is_complete_and_consistent():
    """``exit_code_table()`` is the single source of truth: one row
    per code 0-9, and the fault rows agree with ``fault_exit_code``."""
    from repro.errors import (
        DeadlockFault,
        EnclaveCrash,
        IagoFault,
        NetworkFault,
        SGXAccessViolation,
        WatchdogTimeout,
        exit_code_table,
        fault_exit_code,
    )

    table = exit_code_table()
    assert [code for code, _, _ in table] == list(range(10))
    by_name = {name: code for code, name, _ in table}
    for cls in (DeadlockFault, IagoFault, EnclaveCrash,
                WatchdogTimeout, SGXAccessViolation, NetworkFault):
        assert by_name[cls.__name__] == fault_exit_code(cls("x"))
    assert by_name["success"] == 0
    assert by_name["PrivagicError"] == 1
    assert by_name["OSError"] == 2
    assert by_name["RuntimeFault"] == 3
    # Every meaning is a non-empty human sentence fragment.
    assert all(meaning.strip() for _, _, meaning in table)


def test_readme_exit_code_table_matches_source_of_truth():
    """The README table is asserted against the code, not hand-kept:
    every row generated from ``exit_code_table()`` must appear
    verbatim."""
    import os

    from repro.errors import exit_code_table

    readme = os.path.join(os.path.dirname(__file__), "..",
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    for code, name, meaning in exit_code_table():
        row = f"| {code} | `{name}` | {meaning} |"
        assert row in text, f"README is missing the row: {row}"


# -- placement optimization flags ---------------------------------------------

FIG7_EFFECTFUL = """
    int unsafe_g = 0;
    int color(blue) blue_g = 10;
    int color(red) red_g = 0;
    void g(int n) { blue_g = n; red_g = n; printf("Hello\\n"); }
    int f(int y) { g(21); return 42; }
    entry int main() { unsafe_g = 1; int x = f(blue_g); return x; }
"""


@pytest.fixture
def effectful_file(tmp_path):
    path = tmp_path / "fig7_effectful.c"
    path.write_text(FIG7_EFFECTFUL)
    return str(path)


def test_analyze_partition_stats_prints_the_color_table(
        effectful_file, capsys):
    assert main(["analyze", effectful_file, "--mode", "relaxed",
                 "--partition-stats"]) == 0
    out = capsys.readouterr().out
    assert "color" in out and "tcb" in out
    assert "blue" in out and "red" in out


def test_compile_optimize_kl_with_stats(effectful_file, capsys):
    assert main(["compile", effectful_file, "--mode", "relaxed",
                 "--optimize", "kl", "--partition-stats"]) == 0
    out = capsys.readouterr().out
    assert "placement report:" in out
    assert '"policy": "kl"' in out


def test_unknown_optimize_policy_suggests_a_fix(effectful_file,
                                                capsys):
    assert main(["compile", effectful_file, "--mode", "relaxed",
                 "--optimize", "k1"]) == 1
    err = capsys.readouterr().err
    assert "did you mean 'kl'" in err
    assert main(["compile", effectful_file, "--mode", "relaxed",
                 "--optimize", "profile"]) == 1
    assert "choose from: none, kl" in capsys.readouterr().err


def test_run_optimize_kl_is_behavior_preserving(effectful_file,
                                                capsys):
    assert main(["run", "--mode", "relaxed", effectful_file]) == 0
    baseline = capsys.readouterr().out
    assert main(["run", "--mode", "relaxed", "--optimize", "kl",
                 effectful_file]) == 0
    optimized = capsys.readouterr().out
    assert "main() = 42" in baseline and "main() = 42" in optimized
    assert "Hello" in baseline and "Hello" in optimized

    def messages(text):
        import ast
        for line in text.splitlines():
            if line.startswith("messages:"):
                stats = ast.literal_eval(line.split(":", 1)[1].strip())
                return stats["messages"]
        raise AssertionError(f"no messages line in {text!r}")

    assert messages(optimized) < messages(baseline)
