"""Unit tests for the command-line interface."""

import json
import logging
import pathlib
import shutil

import pytest

from repro.__main__ import main


class TestAnalyze:
    def test_default_family(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "regime=strong" in out
        assert "Theta" in out

    def test_with_infrastructure(self, capsys):
        assert main(["analyze", "--bs", "7/8", "--phi", "1"]) == 0
        out = capsys.readouterr().out
        assert "infrastructure term" in out

    def test_invalid_parameters_exit_code(self, capsys):
        assert main(["analyze", "--alpha", "3/4"]) == 2
        assert "invalid parameters" in capsys.readouterr().err

    def test_no_validate_bypasses(self, capsys):
        assert main(["analyze", "--alpha", "3/4", "--no-validate",
                     "--clusters", "1/4", "--radius", "1/4"]) == 0
        assert "trivial" in capsys.readouterr().out


class TestTable1:
    def test_renders_all_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "strong mobility" in out
        assert "trivial mobility" in out


class TestPhase:
    def test_renders_regions(self, capsys):
        assert main(["phase", "--phi", "0", "--grid", "7"]) == 0
        out = capsys.readouterr().out
        assert "M" in out and "I" in out

    def test_negative_phi(self, capsys):
        # argparse needs the = form for option values starting with '-'
        assert main(["phase", "--phi=-1/4", "--grid", "5"]) == 0


class TestSimulate:
    def test_runs_small_network(self, capsys):
        assert main(["simulate", "--n", "150", "--bs", "7/8"]) == 0
        out = capsys.readouterr().out
        assert "flow-level rate" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReproduce:
    def test_writes_report(self, tmp_path, capsys):
        assert main([
            "reproduce", "--out", str(tmp_path), "--grid", "120,240",
        ]) == 0
        report = (tmp_path / "reproduction.md").read_text()
        assert "Table I (closed form)" in report
        assert "measured slope" in report
        assert "phase 2" in report  # figure 2 trace
        assert "Quick mode" in report


SWEEP_ARGS = ["sweep", "--grid", "100,200", "--trials", "1",
              "--scheme", "A", "--seed", "3"]


def sweep_output(capsys, extra):
    assert main(SWEEP_ARGS + extra) == 0
    return capsys.readouterr().out


def digest_line(out):
    return next(line for line in out.splitlines() if line.startswith("digest:"))


class TestSweepStore:
    def test_second_invocation_hits_with_identical_digest(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        cold = sweep_output(capsys, ["--store", store])
        warm = sweep_output(capsys, ["--store", store])
        assert "cache: 0 hit(s), 2 miss(es)" in cold
        assert "cache: 2 hit(s), 0 miss(es)" in warm
        assert digest_line(warm) == digest_line(cold)

    def test_store_matches_storeless_digest(self, tmp_path, capsys):
        bare = sweep_output(capsys, [])
        stored = sweep_output(capsys, ["--store", str(tmp_path / "results")])
        assert digest_line(stored) == digest_line(bare)
        assert "cache:" not in bare

    def test_no_cache_forces_recompute(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        sweep_output(capsys, ["--store", store])
        refreshed = sweep_output(capsys, ["--store", store, "--no-cache"])
        assert "cache: 0 hit(s), 2 miss(es)" in refreshed


class TestRuns:
    def seed_store(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        sweep_output(capsys, ["--store", store])
        return store

    def test_list_shows_recorded_run(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["runs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "run id" in out
        assert "1 run(s), 2 journaled trial(s)" in out

    def test_list_empty_store(self, tmp_path, capsys):
        assert main(["runs", "list", "--store", str(tmp_path / "empty")]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_read_commands_never_create_a_missing_store(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        for argv, expected in [
            (["runs", "list"], f"no runs recorded in {missing}\n"),
            (["serve", "query"], f"no runs in {missing} match the query\n"),
            (["serve", "query", "--json"], "[]\n"),
            (["runs", "gc"], "removed 0 run manifest(s); journal: "
                             "0 entries kept, 0 dropped\n"),
        ]:
            assert main(argv + ["--store", missing]) == 0
            assert capsys.readouterr().out == expected
        assert main(["runs", "show", "abc", "--store", missing]) == 2
        assert main(["serve", "report", "--store", missing]) == 2
        assert not (tmp_path / "missing").exists()

    def test_read_commands_write_nothing_into_a_plain_directory(
        self, tmp_path, capsys
    ):
        plain = tmp_path / "plain"
        plain.mkdir()
        for argv in [["runs", "list"], ["serve", "query"],
                     ["serve", "regress"]]:
            assert main(argv + ["--store", str(plain)]) == 0
        assert main(["runs", "show", "abc", "--store", str(plain)]) == 2
        capsys.readouterr()
        assert list(plain.iterdir()) == []

    def test_report_into_a_plain_directory_adds_only_the_report(
        self, tmp_path, capsys
    ):
        plain = tmp_path / "plain"
        plain.mkdir()
        assert main(["serve", "report", "--store", str(plain),
                     "--format", "json"]) == 0
        capsys.readouterr()
        assert [path.name for path in plain.iterdir()] == ["serve"]
        report = json.loads((plain / "serve" / "report.json").read_text())
        assert report["total_runs"] == 0

    def test_list_counts_runs_without_a_journal(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        manifests_only = tmp_path / "manifests-only"
        shutil.copytree(pathlib.Path(store) / "runs", manifests_only / "runs")
        assert main(["runs", "list", "--store", str(manifests_only)]) == 0
        assert "1 run(s), 0 journaled trial(s)" in capsys.readouterr().out
        assert not (manifests_only / "trials.jsonl").exists()

    def test_show_on_a_missing_store_names_the_run(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert main(["runs", "show", "abc", "--store", missing]) == 2
        assert "no stored run matches 'abc'" in capsys.readouterr().err

    def test_regress_on_a_missing_store_is_clean(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert main(["serve", "regress", "--store", missing]) == 0
        assert capsys.readouterr().out == (
            "no regressions across 0 compared families (0 run(s))\n"
        )
        assert not (tmp_path / "missing").exists()

    def test_report_on_a_missing_store_needs_out(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert main(["serve", "report", "--store", missing]) == 2
        assert "pass --out" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_report_on_a_missing_store_writes_an_empty_report_to_out(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "missing")
        out_path = tmp_path / "elsewhere" / "report.json"
        assert main([
            "serve", "report", "--store", missing, "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        assert report["total_runs"] == 0
        assert report["regressions"]["ok"] is True
        assert not (tmp_path / "missing").exists()

    def test_show_dumps_manifest(self, tmp_path, capsys):
        import json

        store = self.seed_store(tmp_path, capsys)
        from repro.store import RunStore

        run_id = RunStore(store).list_runs()[0]["run_id"]
        assert main(["runs", "show", run_id[:12], "--store", store]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["command"] == "sweep"
        assert manifest["provenance"]["schema_version"] == 1

    def test_show_missing_id_errors(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["runs", "show", "nope", "--store", store]) == 2
        assert "no stored run" in capsys.readouterr().err

    def test_show_without_id_errors(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["runs", "show", "--store", store]) == 2
        assert "requires" in capsys.readouterr().err

    def test_gc_reports_and_keeps_cache_warm(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["runs", "gc", "--store", store]) == 0
        assert "2 entries kept" in capsys.readouterr().out
        warm = sweep_output(capsys, ["--store", store])
        assert "cache: 2 hit(s)" in warm

    def test_gc_keep_then_drop_orphans(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        for seed in ["3", "4"]:
            sweep_output(capsys, ["--store", store, "--seed", seed])
        assert main(["runs", "gc", "--keep", "1", "--store", store]) == 0
        assert capsys.readouterr().out == (
            "removed 1 run manifest(s); journal: 4 entries kept, 0 dropped\n"
        )
        assert main(["runs", "gc", "--keep", "1", "--drop-orphans",
                     "--store", store]) == 0
        assert capsys.readouterr().out == (
            "removed 0 run manifest(s); journal: 2 entries kept, 2 dropped\n"
        )
        assert main(["runs", "list", "--store", store]) == 0
        assert "1 run(s), 2 journaled trial(s)" in capsys.readouterr().out

    def test_sweep_has_no_backend_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(SWEEP_ARGS + ["--batch-trials", "2", "--backend", "numpy64"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_store_path_is_a_file_errors_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        for argv in [SWEEP_ARGS, ["runs", "list"], ["serve", "query"]]:
            assert main(argv + ["--store", str(blocker)]) == 2
            assert "store error" in capsys.readouterr().err


class TestServe:
    def seed_store(self, tmp_path, capsys, runs=2):
        """Two identical sweeps into one store: the second replays the
        journal, so the pair is digest-identical with the rerun fully
        cached -- the canonical regression-scan population."""
        store = str(tmp_path / "results")
        for _ in range(runs):
            sweep_output(capsys, ["--store", store])
        return store

    def test_query_finds_both_runs_with_identical_digests(
        self, tmp_path, capsys
    ):
        store = self.seed_store(tmp_path, capsys)
        assert main(["serve", "query", "--store", store, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert records[0]["digest"] == records[1]["digest"]
        assert records[0]["family"] == records[1]["family"]
        # the fully-cached rerun (newest first) makes no throughput claim
        assert records[0]["fresh_trials"] == 0
        assert records[1]["fresh_trials"] == 2

    def test_query_table_output(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main([
            "serve", "query", "--store", store,
            "--command", "sweep", "--scheme", "A", "--min-n", "150",
        ]) == 0
        out = capsys.readouterr().out
        assert "run id" in out and "family" in out
        assert "2 of 2 run(s) matched" in out

    def test_query_without_matches_says_so(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main([
            "serve", "query", "--store", store, "--command", "figure1",
        ]) == 0
        assert "match the query" in capsys.readouterr().out

    def test_malformed_param_filter_exits_2(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main([
            "serve", "query", "--store", store, "--param", "alpha",
        ]) == 2
        assert "NAME=FRACTION" in capsys.readouterr().err

    def test_regress_clean_pair_exits_0(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["serve", "regress", "--store", store]) == 0
        assert "no regressions" in capsys.readouterr().out

    def inject_drift(self, store):
        """Rewrite the newest manifest's digest, simulating a behaviour
        change that landed without a schema bump."""
        import pathlib

        from repro.store import RunStore

        run = RunStore(store).list_runs()[0]
        path = pathlib.Path(store) / RunStore.RUNS_DIR / f"{run['run_id']}.json"
        run["digest"] = "b" * 64
        path.write_text(json.dumps(run, indent=2))

    def test_regress_flags_injected_drift_with_exit_3(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        self.inject_drift(store)
        assert main(["serve", "regress", "--store", store]) == 3
        out = capsys.readouterr().out
        assert "digest-drift" in out
        assert "1 regression(s)" in out

    def test_regress_json_output(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        self.inject_drift(store)
        assert main(["serve", "regress", "--store", store, "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["regressions"][0]["kind"] == "digest-drift"

    def test_report_writes_valid_json(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        out_path = tmp_path / "report.json"
        assert main([
            "serve", "report", "--store", store,
            "--format", "json", "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        assert report["total_runs"] == 2
        assert report["regressions"]["ok"] is True

    def test_report_default_path_is_html_in_store(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main(["serve", "report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        page = (tmp_path / "results" / "serve" / "report.html").read_text()
        assert page.startswith("<!DOCTYPE html>")

    def test_report_default_json_path_in_store(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main(["serve", "report", "--store", store,
                     "--format", "json"]) == 0
        path = tmp_path / "results" / "serve" / "report.json"
        assert capsys.readouterr().out.endswith(f"wrote {path}\n")
        assert json.loads(path.read_text())["total_runs"] == 1

    def test_regress_counts_single_run_families(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main(["serve", "regress", "--store", store]) == 0
        assert "1 run(s) skipped as the only run of their family" in (
            capsys.readouterr().out
        )
        assert main(["serve", "regress", "--store", store, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["families"] == 0 and report["runs"] == 0
        assert report["singleton_runs"] == 1

    def test_query_has_no_backend_filter(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "query", "--store", store, "--backend", "numpy64"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_invalid_slowdown_threshold_exits_2(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main([
            "serve", "regress", "--store", store, "--slowdown", "2",
        ]) == 2
        assert "invalid arguments" in capsys.readouterr().err


def read_trace(directory):
    """Parse the single trace file in ``directory`` into records."""
    files = sorted(directory.glob("trace-*.jsonl"))
    assert len(files) == 1, files
    return [json.loads(line) for line in files[0].read_text().splitlines()]


class TestObservability:
    @pytest.fixture(autouse=True)
    def _drop_configured_handlers(self):
        # main() installs a stderr handler bound to capsys's stream; strip
        # it afterwards so later tests never log into a stale capture
        yield
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_configured", False):
                root.removeHandler(handler)

    def test_trace_covers_every_trial(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(SWEEP_ARGS + ["--trace", str(trace_dir)]) == 0
        err = capsys.readouterr().err
        assert "trace:" in err
        records = read_trace(trace_dir)
        started = {r["index"] for r in records if r["event"] == "trial_started"}
        ended = {
            r["index"]
            for r in records
            if r["event"] in ("trial_finished", "trial_cached", "trial_failed")
        }
        # two grid points x one trial: both announced and both resolved
        assert started == ended == {0, 1}
        assert any(r["event"] == "sweep_progress" for r in records)
        assert any(r["event"] == "span" for r in records)
        assert all("ts" in r for r in records)

    def test_bare_trace_lands_next_to_store(self, tmp_path, capsys):
        store = tmp_path / "results"
        assert main(SWEEP_ARGS + ["--store", str(store), "--trace"]) == 0
        records = read_trace(store)
        # journaled trials show up in the trace alongside the lifecycle
        assert any(r["event"] == "journal_appended" for r in records)

    def test_warm_run_traces_cache_hits(self, tmp_path, capsys):
        store = tmp_path / "results"
        assert main(SWEEP_ARGS + ["--store", str(store)]) == 0
        trace_dir = tmp_path / "traces"
        assert main(SWEEP_ARGS + ["--store", str(store),
                                  "--trace", str(trace_dir)]) == 0
        records = read_trace(trace_dir)
        cached = [r for r in records if r["event"] == "trial_cached"]
        assert {r["index"] for r in cached} == {0, 1}
        progress = [r for r in records if r["event"] == "sweep_progress"]
        assert progress[-1]["cached"] == 2

    def test_progress_forced_on_non_tty(self, capsys):
        assert main(SWEEP_ARGS + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "trials/s" in err
        assert "2/2" in err

    def test_no_progress_is_silent(self, capsys):
        assert main(SWEEP_ARGS + ["--no-progress"]) == 0
        assert "trials/s" not in capsys.readouterr().err

    def test_log_level_info_writes_to_stderr(self, capsys):
        assert main(["--log-level", "INFO"] + SWEEP_ARGS) == 0
        err = capsys.readouterr().err
        assert "INFO" in err
        assert "repro" in err

    def test_log_json_lines_parse(self, capsys):
        assert main(["--log-level", "INFO", "--log-json"] + SWEEP_ARGS) == 0
        lines = [l for l in capsys.readouterr().err.splitlines() if l]
        records = [json.loads(line) for line in lines]
        assert all(r["logger"].startswith("repro") for r in records)

    def test_unknown_log_level_exits_2(self, capsys):
        assert main(["--log-level", "LOUD", "table1"]) == 2
        assert "unknown log level" in capsys.readouterr().err


class TestOneStorePerCommand:
    @pytest.mark.parametrize("argv", [
        SWEEP_ARGS,
        ["reproduce", "--quick"],
        ["runs", "list"],
        ["runs", "gc"],
        ["serve", "query"],
        ["serve", "report"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_second_store_is_a_usage_error(self, tmp_path, capsys, argv):
        first, second = tmp_path / "a", tmp_path / "b"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--store", str(first), "--store", str(second)])
        assert exc.value.code == 2
        assert "--store takes one directory" in capsys.readouterr().err
        assert not first.exists() and not second.exists()


class TestResilienceFlags:
    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]],
                             ids=["inline", "pool"])
    def test_injected_kill_heals_to_the_clean_digest(self, capsys, workers):
        clean = sweep_output(capsys, workers)
        healed = sweep_output(capsys, workers + ["--inject-faults", "kill@0"])
        assert digest_line(healed) == digest_line(clean)
        assert "failures=0 retries=0 " in clean
        assert "failures=0 retries=0 " not in healed
        assert "failures=0 retries=" in healed

    def test_backoff_between_attempts_keeps_the_digest(self, capsys):
        clean = sweep_output(capsys, [])
        healed = sweep_output(
            capsys, ["--inject-faults", "raise@1", "--backoff", "0.01"]
        )
        assert digest_line(healed) == digest_line(clean)
        assert "failures=0 retries=1 " in healed

    def test_failure_without_retries_exits_1(self, capsys):
        assert main(SWEEP_ARGS + ["--inject-faults", "raise@0",
                                  "--retries", "0"]) == 1
        err = capsys.readouterr().err
        assert "trial failed for good" in err
        assert "--min-success" in err

    def test_tolerated_failure_records_a_partial_run(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        out = sweep_output(capsys, [
            "--inject-faults", "raise@0", "--retries", "0",
            "--min-success", "0.5", "--store", store,
        ])
        assert "failures=1 " in out
        assert main(["serve", "query", "--store", store, "--json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        assert record["status"] == "partial"
        assert record["digest"] == digest_line(out).split()[1]

    @pytest.mark.parametrize("fraction", ["0", "1.5"])
    def test_min_success_out_of_range_exits_2(self, capsys, fraction):
        assert main(SWEEP_ARGS + ["--min-success", fraction]) == 2
        assert "min_success_fraction" in capsys.readouterr().err
