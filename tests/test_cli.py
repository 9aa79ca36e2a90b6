"""Tests for the ``python -m repro`` command-line interface."""

import json
import random

import pytest

from repro.booldata import BooleanTable, Schema, save_table_csv, save_table_json
from repro.cli import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


@pytest.fixture
def log_csv(paper_log, tmp_path):
    path = tmp_path / "log.csv"
    save_table_csv(paper_log, path)
    return str(path)


@pytest.fixture
def log_json(paper_log, tmp_path):
    path = tmp_path / "log.json"
    save_table_json(paper_log, path)
    return str(path)


@pytest.fixture
def database_csv(paper_database, tmp_path):
    path = tmp_path / "db.csv"
    save_table_csv(paper_database, path)
    return str(path)


class TestAlgorithmsCommand:
    def test_lists_all(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "MaxFreqItemSets" in out
        assert "exact" in out and "greedy" in out


class TestSolveCommand:
    def test_solve_with_named_tuple(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv,
            "--tuple", "ac,four_door,power_doors,auto_trans,power_brakes",
            "--budget", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "queries satisfied: 3 of 5" in out
        assert "ac, four_door, power_doors" in out

    def test_solve_json_log(self, capsys, log_json):
        code = main([
            "solve", "--log", log_json,
            "--tuple", "ac,four_door,power_doors,auto_trans,power_brakes",
            "--budget", "3", "--algorithm", "ConsumeAttr",
        ])
        assert code == 0
        assert "heuristic" in capsys.readouterr().out

    def test_solve_with_tuple_row_from_database(self, capsys, log_csv, database_csv):
        code = main([
            "solve", "--log", log_csv, "--database", database_csv,
            "--tuple-row", "3", "--budget", "2",
        ])
        assert code == 0

    def test_against_database(self, capsys, log_csv, database_csv):
        code = main([
            "solve", "--log", log_csv, "--database", database_csv,
            "--tuple", "ac,four_door,power_doors,auto_trans,power_brakes",
            "--budget", "4", "--against-database",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows dominated: 4 of 7" in out

    def test_explain_flag(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv,
            "--tuple", "ac,four_door,power_doors",
            "--budget", "3", "--explain",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "retained attributes:" in out


class TestErrorHandling:
    def test_both_tuple_sources_rejected(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv, "--tuple", "ac", "--tuple-row", "0",
            "--budget", "1",
        ])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_tuple_source_rejected(self, capsys, log_csv):
        assert main(["solve", "--log", log_csv, "--budget", "1"]) == 2

    def test_tuple_row_out_of_range(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv, "--tuple-row", "99", "--budget", "1",
        ])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_unsupported_format(self, capsys, tmp_path):
        path = tmp_path / "log.xlsx"
        path.write_text("nope")
        code = main(["solve", "--log", str(path), "--tuple", "a", "--budget", "1"])
        assert code == 2

    def test_against_database_requires_database(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv, "--tuple", "ac", "--budget", "1",
            "--against-database",
        ])
        assert code == 2

    def test_schema_mismatch_detected(self, capsys, log_csv, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"attributes": ["x"], "rows": [["x"]]}))
        code = main([
            "solve", "--log", log_csv, "--database", str(other),
            "--tuple-row", "0", "--budget", "1",
        ])
        assert code == 2

    def test_unknown_algorithm(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv, "--tuple", "ac", "--budget", "1",
            "--algorithm", "Oracle",
        ])
        assert code == 2


class TestInventoryCommand:
    def test_inventory_over_log_rows(self, capsys, log_csv):
        code = main([
            "inventory", "--log", log_csv, "--budget", "2", "--jobs", "1",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "inventory:" in out
        assert "jobs 1" in out

    def test_inventory_with_database_and_row_spec(self, capsys, log_csv,
                                                  database_csv):
        code = main([
            "inventory", "--log", log_csv, "--database", database_csv,
            "--tuple-rows", "0,2-3", "--budget", "2", "--jobs", "1",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "3 listings" in out

    def test_inventory_matches_solve_for_single_listing(self, capsys, log_csv,
                                                        database_csv):
        """The batch path and the single-tuple path agree on the objective."""
        code = main([
            "solve", "--log", log_csv, "--database", database_csv,
            "--tuple-row", "0", "--budget", "2",
        ])
        assert code == EXIT_OK
        solve_out = capsys.readouterr().out
        code = main([
            "inventory", "--log", log_csv, "--database", database_csv,
            "--tuple-rows", "0", "--budget", "2", "--jobs", "1",
        ])
        assert code == EXIT_OK
        inventory_out = capsys.readouterr().out
        (satisfied,) = [
            line.split(":")[1].split("of")[0].strip()
            for line in solve_out.splitlines()
            if line.startswith("queries satisfied")
        ]
        assert f"total visibility: {satisfied}" in inventory_out

    def test_zero_index_threshold_is_exit_2(self, capsys, log_csv):
        """Regression: used to surface as an uncaught ValueError traceback."""
        code = main([
            "inventory", "--log", log_csv, "--budget", "2",
            "--index-threshold", "0", "--jobs", "1",
        ])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_invalid_jobs_is_exit_2(self, log_csv):
        assert main([
            "inventory", "--log", log_csv, "--budget", "2", "--jobs", "0",
        ]) == EXIT_VALIDATION

    def test_bad_row_spec_is_exit_2(self, log_csv):
        assert main([
            "inventory", "--log", log_csv, "--budget", "2", "--jobs", "1",
            "--tuple-rows", "0,99-101",
        ]) == EXIT_VALIDATION
        assert main([
            "inventory", "--log", log_csv, "--budget", "2", "--jobs", "1",
            "--tuple-rows", "banana",
        ]) == EXIT_VALIDATION


@pytest.fixture
def hard_log_csv(tmp_path):
    """A log where the pure-Python ILP needs far longer than any test
    deadline, so --deadline-ms reliably interrupts it."""
    rng = random.Random(3)
    width = 10
    schema = Schema.anonymous(width)
    log = BooleanTable(schema, [rng.getrandbits(width) or 1 for _ in range(200)])
    path = tmp_path / "hard.csv"
    save_table_csv(log, path)
    return str(path), ",".join(schema.names_of((1 << width) - 1))


class TestRuntimeFlags:
    def test_deadline_with_fallback_chain_degrades(self, capsys, hard_log_csv):
        path, names = hard_log_csv
        code = main([
            "solve", "--log", path, "--tuple", names, "--budget", "4",
            "--deadline-ms", "50", "--fallback",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "runtime:" in out
        assert "ILP: interrupted" in out
        assert "queries satisfied" in out

    def test_explicit_fallback_chain(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv,
            "--tuple", "ac,four_door,power_doors,auto_trans,power_brakes",
            "--budget", "3", "--fallback", "MaxFreqItemSets,ConsumeAttr",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "runtime: exact" in out
        assert "queries satisfied: 3 of 5" in out

    def test_deadline_without_fallback_bounds_chosen_algorithm(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv,
            "--tuple", "ac,four_door,power_doors,auto_trans,power_brakes",
            "--budget", "3", "--algorithm", "ConsumeAttr", "--deadline-ms", "5000",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "runtime: exact" in out
        assert "ConsumeAttr: completed" in out

    def test_empty_fallback_chain_rejected(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv, "--tuple", "ac", "--budget", "1",
            "--fallback", " , ",
        ])
        assert code == EXIT_VALIDATION


class TestExitCodes:
    def test_validation_error_is_2(self, log_csv):
        assert main(["solve", "--log", log_csv, "--budget", "1"]) == EXIT_VALIDATION

    def test_deadline_exhaustion_is_4(self, capsys, hard_log_csv):
        path, names = hard_log_csv
        code = main([
            "solve", "--log", path, "--tuple", names, "--budget", "4",
            "--algorithm", "ILP", "--deadline-ms", "40",
        ])
        assert code == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_solver_budget_exhaustion_is_4(self, capsys, hard_log_csv, monkeypatch):
        import repro.cli as cli
        from repro.common.errors import SolverBudgetExceededError

        def exploding(name, **kwargs):
            raise SolverBudgetExceededError("node budget exhausted")

        monkeypatch.setattr(cli, "make_solver", exploding)
        path, names = hard_log_csv
        code = main([
            "solve", "--log", path, "--tuple", names, "--budget", "4",
        ])
        assert code == EXIT_INTERRUPTED

    def test_infeasible_problem_is_3(self, capsys, log_csv, monkeypatch):
        import repro.cli as cli
        from repro.common.errors import InfeasibleProblemError

        def infeasible(name, **kwargs):
            raise InfeasibleProblemError("no feasible selection")

        monkeypatch.setattr(cli, "make_solver", infeasible)
        code = main(["solve", "--log", log_csv, "--tuple", "ac", "--budget", "1"])
        assert code == EXIT_INFEASIBLE
        assert "no feasible selection" in capsys.readouterr().err

    def test_other_library_errors_are_1(self, capsys, log_csv, monkeypatch):
        import repro.cli as cli
        from repro.common.errors import ReproError

        def broken(name, **kwargs):
            raise ReproError("internal failure")

        monkeypatch.setattr(cli, "make_solver", broken)
        code = main(["solve", "--log", log_csv, "--tuple", "ac", "--budget", "1"])
        assert code == EXIT_ERROR
        assert "internal failure" in capsys.readouterr().err

    def test_error_messages_are_one_line(self, capsys, log_csv, monkeypatch):
        import repro.cli as cli
        from repro.common.errors import ReproError

        def broken(name, **kwargs):
            raise ReproError("first line\nsecond line")

        monkeypatch.setattr(cli, "make_solver", broken)
        main(["solve", "--log", log_csv, "--tuple", "ac", "--budget", "1"])
        err = capsys.readouterr().err
        assert err == "error: first line\n"


class TestProfileCommand:
    def test_profiles_csv_log(self, capsys, log_csv):
        assert main(["profile", "--log", log_csv]) == 0
        out = capsys.readouterr().out
        assert "queries: 5" in out
        assert "power_doors" in out

    def test_pairs_flag(self, capsys, log_csv):
        assert main(["profile", "--log", log_csv, "--pairs", "0"]) == 0
        assert "co-occurring" not in capsys.readouterr().out

    def test_bad_format(self, capsys, tmp_path):
        path = tmp_path / "log.parquet"
        path.write_text("x")
        assert main(["profile", "--log", str(path)]) == 2


class TestCertifyFlag:
    def test_certificate_printed_for_greedy(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv,
            "--tuple", "ac,four_door,power_doors,auto_trans,power_brakes",
            "--budget", "3", "--algorithm", "ConsumeAttr", "--certify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "certificate:" in out

    def test_optimal_certified_as_optimal(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv,
            "--tuple", "ac,four_door,power_doors,auto_trans,power_brakes",
            "--budget", "3", "--certify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "provably optimal" in out or "of the optimum" in out


class TestAlternativeAlgorithms:
    def test_local_search_via_cli(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv,
            "--tuple", "ac,four_door,power_doors,auto_trans,power_brakes",
            "--budget", "3", "--algorithm", "LocalSearch",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "LocalSearch" in out
        assert "queries satisfied: 3 of 5" in out


class TestTelemetryFlags:
    TUPLE = "ac,four_door,power_doors,auto_trans,power_brakes"

    def _solve(self, log_csv, *extra):
        return main([
            "solve", "--log", log_csv, "--tuple", self.TUPLE,
            "--budget", "3", *extra,
        ])

    def test_metrics_to_stdout_prometheus(self, capsys, log_csv):
        assert self._solve(log_csv, "--metrics-out", "-") == EXIT_OK
        out = capsys.readouterr().out
        assert "# TYPE repro_solver_solves_total counter" in out
        assert 'repro_solver_solves_total{algorithm="MaxFreqItemSets"} 1' in out
        assert "repro_itemset_dfs_expansions_total" in out
        # zero-initialised families keep the exposition schema-stable
        assert "repro_simplex_pivots_total 0" in out
        assert 'repro_solver_solve_seconds_bucket{algorithm="MaxFreqItemSets",le="+Inf"} 1' in out

    def test_metrics_json_to_file(self, capsys, log_csv, tmp_path):
        target = tmp_path / "metrics.json"
        code = self._solve(
            log_csv, "--metrics-out", str(target), "--metrics-format", "json"
        )
        assert code == EXIT_OK
        snapshot = json.loads(target.read_text())
        solves = snapshot["repro_solver_solves_total"]
        assert solves["type"] == "counter"
        # the greedy seed pass runs ConsumeAttr inside MaxFreqItemSets,
        # so both algorithms appear in the samples
        assert {
            "labels": {"algorithm": "MaxFreqItemSets"}, "value": 1.0
        } in solves["samples"]
        assert "queries satisfied" in capsys.readouterr().out

    def test_trace_jsonl_nests_under_cli_spans(self, log_csv, tmp_path):
        target = tmp_path / "trace.jsonl"
        assert self._solve(log_csv, "--trace-out", str(target)) == EXIT_OK
        records = [json.loads(line) for line in target.read_text().splitlines()]
        by_name = {record["name"]: record for record in records}
        assert by_name["cli.solve"]["parent_id"] is None
        assert by_name["cli.load"]["parent_id"] == by_name["cli.solve"]["span_id"]
        assert by_name["solve"]["attributes"]["algorithm"] == "MaxFreqItemSets"

    def test_harness_run_emits_fallback_counters(self, capsys, log_csv):
        code = self._solve(
            log_csv, "--fallback", "MaxFreqItemSets,ConsumeAttrCumul",
            "--metrics-out", "-",
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert 'repro_harness_runs_total{status="exact"} 1' in out
        assert 'repro_harness_attempts_total{solver="MaxFreqItemSets",status="completed"} 1' in out
        assert "repro_harness_run_seconds_count 1" in out
        assert 'repro_index_bitmap_ops_total{op="popcount",kernel="python"}' in out

    def test_metrics_dumped_even_when_the_solve_fails(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv, "--tuple", self.TUPLE,
            "--budget", "3", "--algorithm", "NoSuchAlgorithm",
            "--metrics-out", "-",
        ])
        assert code == EXIT_VALIDATION
        out = capsys.readouterr().out
        # the exposition still arrives, with no solves recorded
        assert "# TYPE repro_solver_solves_total counter" in out
        assert "repro_solver_solves_total{" not in out

    def test_no_flags_means_no_recorder(self, capsys, log_csv):
        from repro.obs import NULL_RECORDER, get_recorder

        assert self._solve(log_csv) == EXIT_OK
        assert get_recorder() is NULL_RECORDER
        assert "repro_" not in capsys.readouterr().out

    def test_recorder_uninstalled_after_telemetry_run(self, capsys, log_csv):
        from repro.obs import NULL_RECORDER, get_recorder

        assert self._solve(log_csv, "--metrics-out", "-") == EXIT_OK
        assert get_recorder() is NULL_RECORDER

    def test_events_out_writes_the_journal(self, capsys, log_csv, tmp_path):
        target = tmp_path / "events.jsonl"
        code = self._solve(
            log_csv, "--events-out", str(target),
            "--fallback", "ILP,MaxFreqItemSets", "--deadline-ms", "0",
        )
        # a 0-ms deadline has expired before any solver starts, and so has
        # the terminal one's 0-ms grace window: every solver refuses
        assert code == EXIT_INTERRUPTED
        kinds = [
            json.loads(line)["kind"]
            for line in target.read_text().splitlines()
        ]
        assert "harness.fallback" in kinds or "harness.degraded" in kinds

    def test_flight_recorder_dump_fires_on_a_forced_failure(
        self, capsys, log_csv, tmp_path
    ):
        target = tmp_path / "flight.jsonl"
        code = self._solve(
            log_csv, "--events-out", str(target),
            "--fallback", "ILP", "--deadline-ms", "0",
        )
        assert code == EXIT_INTERRUPTED  # the run itself failed...
        records = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        assert records, "flight recorder must dump on failure"
        # ...and the journal says why, at error severity
        assert any(
            r["kind"] == "harness.degraded" and r["level"] == "error"
            for r in records
        )

    def test_profile_out_writes_collapsed_stacks(self, capsys, log_csv, tmp_path):
        target = tmp_path / "flame.txt"
        assert self._solve(log_csv, "--profile-out", str(target)) == EXIT_OK
        for line in target.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack  # phase;module:func;...

    def test_serve_metrics_announces_and_shuts_down(self, capsys, log_csv):
        assert self._solve(log_csv, "--serve-metrics", "0") == EXIT_OK
        err = capsys.readouterr().err
        assert "telemetry: serving on http://127.0.0.1:" in err
        # no stray daemon keeps the port: a fresh server binds port 0 fine
        from repro.obs import NULL_RECORDER, get_recorder

        assert get_recorder() is NULL_RECORDER


class TestHelpEpilog:
    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        for line in ("0  success", "3  ", "4  "):
            assert line in out


class TestStreamCommand:
    def test_replay_succeeds(self, capsys):
        code = main([
            "stream", "--width", "10", "--size", "300", "--window", "100",
            "--check-every", "25", "--chain", "ConsumeAttrCumul",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "stream: 300 queries" in out
        assert "reoptimizations:" in out
        assert "cache:" in out
        assert "index: epoch 300" in out

    def test_cache_can_be_disabled(self, capsys):
        code = main([
            "stream", "--width", "8", "--size", "120", "--window", "60",
            "--check-every", "30", "--chain", "ConsumeAttr", "--cache-size", "0",
        ])
        assert code == EXIT_OK
        assert "cache: disabled" in capsys.readouterr().out

    def test_bad_window_is_validation_error(self, capsys):
        assert main(["stream", "--window", "0"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "window" in err

    def test_bad_compact_threshold_is_validation_error(self, capsys):
        assert main(["stream", "--compact-threshold", "1.5"]) == EXIT_VALIDATION
        assert "compact-threshold" in capsys.readouterr().err

    def test_negative_cache_size_is_validation_error(self, capsys):
        assert main(["stream", "--cache-size", "-1"]) == EXIT_VALIDATION
        assert "cache-size" in capsys.readouterr().err

    def test_unknown_chain_algorithm_is_validation_error(self, capsys):
        assert main(["stream", "--chain", "NoSuchSolver"]) == EXIT_VALIDATION

    def test_deadline_exhaustion_is_4(self, capsys):
        """An ILP-only chain under a tiny deadline fails before any
        incumbent exists, and --no-stale leaves nothing to serve."""
        code = main([
            "stream", "--width", "10", "--size", "300", "--window", "250",
            "--check-every", "50", "--chain", "ILP", "--deadline-ms", "5",
            "--no-stale",
        ])
        assert code == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_stream_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["stream", "--help"])
        assert "exit codes:" in capsys.readouterr().out

    def test_stream_telemetry_flags(self, capsys, tmp_path):
        """The stream subcommand shares the solve telemetry surface."""
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.prom"
        code = main([
            "stream", "--width", "8", "--size", "200", "--window", "80",
            "--check-every", "40", "--chain", "ConsumeAttrCumul",
            "--events-out", str(events), "--metrics-out", str(metrics),
        ])
        assert code == EXIT_OK
        rendered = metrics.read_text()
        assert "repro_stream_appends_total 200" in rendered
        # the sliding tick-latency window made it into the exposition
        assert 'source="repro_stream_append_seconds"' in rendered
        assert events.exists()  # journal dumps even when nothing degraded

    def test_stream_serve_metrics_registers_health_sources(self, capsys):
        """--serve-metrics on a replay wires window health into /healthz."""
        import re
        import urllib.request

        from repro import cli as cli_module

        captured = {}
        original = cli_module._telemetry_scope

        def peeking_scope(args, span_name, **kwargs):
            scope = original(args, span_name, **kwargs)

            class Wrapper:
                def __enter__(self):
                    inner = scope.__enter__()
                    captured["server"] = inner.server
                    body = urllib.request.urlopen(
                        inner.server.url + "/healthz", timeout=5
                    ).read().decode()
                    captured["early_health"] = json.loads(body)
                    return inner

                def __exit__(self, *exc_info):
                    return scope.__exit__(*exc_info)

            return Wrapper()

        cli_module._telemetry_scope = peeking_scope
        try:
            code = main([
                "stream", "--width", "8", "--size", "150", "--window", "60",
                "--check-every", "30", "--chain", "ConsumeAttrCumul",
                "--serve-metrics", "0",
            ])
        finally:
            cli_module._telemetry_scope = original
        assert code == EXIT_OK
        assert not captured["server"].running  # clean shutdown
        # once the replay built its monitor it registered the probe
        assert "window" in captured["server"].health_checks
        err = capsys.readouterr().err
        assert re.search(r"serving on http://127\.0\.0\.1:\d+", err)

    def test_store_dir_then_resume(self, capsys, tmp_path):
        """The durability loop through the CLI: one run writes a store,
        a second run with --resume recovers it and keeps going."""
        store = str(tmp_path / "store")
        code = main([
            "stream", "--width", "8", "--size", "120", "--window", "60",
            "--check-every", "30", "--chain", "ConsumeAttrCumul",
            "--store-dir", store, "--fsync", "never",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"store: {store}" in out
        assert "WAL records" in out
        code = main([
            "stream", "--width", "8", "--size", "60", "--window", "60",
            "--check-every", "30", "--chain", "ConsumeAttrCumul",
            "--store-dir", store, "--resume", "--fsync", "never",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert f"store: resumed {store} from snapshot" in out
        assert "cache entries" in out

    def test_store_dir_refuses_nonempty_without_resume(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        args = [
            "stream", "--width", "8", "--size", "40", "--window", "40",
            "--check-every", "20", "--chain", "ConsumeAttrCumul",
            "--store-dir", store, "--fsync", "never",
        ]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        assert main(args) == EXIT_VALIDATION
        assert "already contains a store" in capsys.readouterr().err

    def test_resume_without_store_dir_is_validation_error(self, capsys):
        assert main([
            "stream", "--width", "8", "--size", "40", "--resume",
        ]) == EXIT_VALIDATION
        assert "store-dir" in capsys.readouterr().err

    def test_bad_snapshot_every_is_validation_error(self, capsys):
        assert main([
            "stream", "--width", "8", "--size", "40", "--snapshot-every", "0",
        ]) == EXIT_VALIDATION
        assert "snapshot-every" in capsys.readouterr().err


class TestKernelFlag:
    TUPLE = "ac,four_door,power_doors,auto_trans,power_brakes"

    @pytest.mark.parametrize("kernel", ["python", "numpy", "compressed", "auto"])
    def test_solve_accepts_every_kernel(self, capsys, log_csv, kernel):
        code = main([
            "solve", "--log", log_csv, "--tuple", self.TUPLE,
            "--budget", "3", "--kernel", kernel,
        ])
        assert code == EXIT_OK
        assert "queries satisfied: 3 of 5" in capsys.readouterr().out

    def test_unknown_kernel_is_an_argparse_error(self, log_csv):
        with pytest.raises(SystemExit):
            main([
                "solve", "--log", log_csv, "--tuple", self.TUPLE,
                "--budget", "3", "--kernel", "simd",
            ])

    def test_numpy_kernel_without_numpy_is_exit_2(
        self, capsys, log_csv, monkeypatch
    ):
        from repro.booldata import kernels

        monkeypatch.setattr(kernels, "_numpy_available", False)
        code = main([
            "solve", "--log", log_csv, "--tuple", self.TUPLE,
            "--budget", "3", "--kernel", "numpy",
        ])
        assert code == EXIT_VALIDATION
        assert "repro[fast]" in capsys.readouterr().err

    def test_metrics_carry_the_kernel_label(self, capsys, log_csv):
        code = main([
            "solve", "--log", log_csv, "--tuple", self.TUPLE,
            "--budget", "3", "--kernel", "compressed", "--metrics-out", "-",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert 'repro_index_bitmap_ops_total{op="popcount",kernel="compressed"}' in out

    def test_inventory_accepts_a_kernel(self, capsys, log_csv, database_csv):
        code = main([
            "inventory", "--log", log_csv, "--database", database_csv,
            "--budget", "3", "--jobs", "1", "--kernel", "compressed",
        ])
        assert code == EXIT_OK
        assert "listings" in capsys.readouterr().out

    def test_stream_accepts_a_kernel(self, capsys):
        code = main([
            "stream", "--width", "8", "--size", "120", "--window", "60",
            "--check-every", "30", "--chain", "ConsumeAttr",
            "--kernel", "compressed",
        ])
        assert code == EXIT_OK
        assert "stream: 120 queries" in capsys.readouterr().out
