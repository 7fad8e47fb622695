"""Tests for the command-line interface (``python -m repro``)."""

import pytest

from repro.cli import main
from repro.db import DatabaseBuilder, save_database


@pytest.fixture
def db_file(tmp_path):
    db = (
        DatabaseBuilder()
        .table("Flights", ["flightId", "destination"], key="flightId")
        .rows("Flights", [(101, "Zurich"), (102, "Paris")])
        .build()
    )
    path = tmp_path / "db.json"
    save_database(db, path)
    return str(path)


@pytest.fixture
def queries_file(tmp_path):
    path = tmp_path / "queries.eq"
    path.write_text(
        """
        gwyneth: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, 'Zurich');
        chris:   {} R(Chris, y) :- Flights(y, 'Zurich');
        """
    )
    return str(path)


class TestCheck:
    def test_reports_properties(self, db_file, queries_file, capsys):
        assert main(["check", db_file, queries_file]) == 0
        out = capsys.readouterr().out
        assert "safe: True" in out
        assert "unique: False" in out
        assert "SCC Coordination Algorithm" in out

    def test_unsafe_program_diagnosed(self, db_file, tmp_path, capsys):
        path = tmp_path / "unsafe.eq"
        path.write_text(
            """
            a: {R(y, f)} R(x, A) :- Flights(x, f), Flights(y, f);
            b: {} R(u, B) :- Flights(u, 'Zurich');
            c: {} R(v, C) :- Flights(v, 'Paris');
            """
        )
        assert main(["check", db_file, str(path)]) == 0
        out = capsys.readouterr().out
        assert "safe: False" in out
        assert "Consistent Coordination Algorithm" in out


class TestCoordinate:
    def test_scc_success(self, db_file, queries_file, capsys):
        assert main(["coordinate", db_file, queries_file]) == 0
        out = capsys.readouterr().out
        assert "coordinating set (2 queries)" in out
        assert "Definition 1 check: OK" in out

    def test_exact_algorithm(self, db_file, queries_file, capsys):
        assert main(
            ["coordinate", db_file, queries_file, "--algorithm", "exact"]
        ) == 0
        out = capsys.readouterr().out
        assert "coordinating set" in out

    def test_gupta_rejects_non_unique(self, db_file, queries_file, capsys):
        code = main(
            ["coordinate", db_file, queries_file, "--algorithm", "gupta"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unique" in err

    def test_failure_exit_code(self, db_file, tmp_path, capsys):
        path = tmp_path / "impossible.eq"
        path.write_text("a: {} R(x) :- Flights(x, 'Atlantis')")
        assert main(["coordinate", db_file, str(path)]) == 1
        assert "no coordinating set" in capsys.readouterr().out

    def test_trace_flag(self, db_file, queries_file, capsys):
        assert main(["coordinate", db_file, queries_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "selection:" in out

    def test_dot_output(self, db_file, queries_file, tmp_path, capsys):
        dot_path = tmp_path / "graph.dot"
        assert (
            main(
                ["coordinate", db_file, queries_file, "--dot", str(dot_path)]
            )
            == 0
        )
        content = dot_path.read_text()
        assert content.startswith("digraph")
        assert '"gwyneth" -> "chris";' in content

    def test_missing_file_is_clean_error(self, db_file, capsys):
        assert main(["coordinate", db_file, "/nonexistent.eq"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_schema_violation_is_clean_error(self, db_file, tmp_path, capsys):
        path = tmp_path / "bad.eq"
        path.write_text("a: {} R(x) :- NoSuchTable(x)")
        assert main(["coordinate", db_file, str(path)]) == 2


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "shared flight: 101" in out


class TestOnline:
    @pytest.fixture
    def stream_file(self, tmp_path):
        path = tmp_path / "stream.ops"
        path.write_text(
            """
            # Gwyneth waits for Chris, changes her mind, resubmits.
            submit gwyneth: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, 'Zurich');
            retract gwyneth
            submit gwyneth: {R(Chris, x)} R(Gwyneth, x) :- Flights(x, 'Zurich');
            submit chris: {} R(Chris, y) :- Flights(y, 'Zurich');
            # A loner to Atlantis waits until the flight exists.
            submit solo: {} S(z) :- Flights(z, 'Atlantis')
            flush
            insert Flights 103 'Atlantis'
            flush
            """
        )
        return str(path)

    def test_replays_lifecycle_stream(self, db_file, stream_file, capsys):
        assert main(["online", db_file, stream_file, "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "gwyneth: pending" in out
        assert "gwyneth: retracted" in out
        assert "satisfied {chris, gwyneth}" in out
        assert "nothing coordinated" in out  # solo before the insert
        assert "satisfied {solo}" in out  # ... and after
        assert "done: 0 pending" in out

    def test_replays_stream_with_workers(self, db_file, stream_file, capsys):
        """The concurrent executor replays the same stream with the
        same deterministic output (each line settles before printing)."""
        assert main(["online", db_file, stream_file, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "gwyneth: pending" in out
        assert "satisfied {chris, gwyneth}" in out
        assert "satisfied {solo}" in out
        assert "done: 0 pending" in out
        assert "2 workers" in out

    def test_replays_stream_with_process_executor(self, db_file, stream_file, capsys):
        """Process-hosted shards replay the same stream with the same
        deterministic output (replicas sync the mid-stream insert)."""
        assert (
            main(
                ["online", db_file, stream_file,
                 "--workers", "2", "--executor", "process"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "gwyneth: pending" in out
        assert "satisfied {chris, gwyneth}" in out
        assert "satisfied {solo}" in out
        assert "done: 0 pending" in out

    def test_durable_dir_persists_and_recovers(self, db_file, tmp_path, capsys):
        """A replay with --durable-dir leaves a directory a second run
        recovers from: the pending query survives the restart and is
        retired by the second stream's insert."""
        durable = str(tmp_path / "durable")
        first = tmp_path / "first.ops"
        first.write_text(
            "submit solo: {} S(z) :- Flights(z, 'Atlantis')\n"
        )
        args = ["--durable-dir", durable, "--fsync", "never"]
        assert main(["online", db_file, str(first)] + args) == 0
        out = capsys.readouterr().out
        assert "solo: pending" in out
        assert "done: 1 pending" in out

        second = tmp_path / "second.ops"
        second.write_text("insert Flights 103 'Atlantis'\nflush\n")
        assert main(["online", db_file, str(second)] + args) == 0
        out = capsys.readouterr().out
        assert f"recovered from {durable}" in out
        assert "WAL records replayed" in out
        assert "satisfied {solo}" in out
        assert "done: 0 pending" in out

    def test_backend_flag_is_a_usage_error(self, db_file, stream_file, capsys):
        # The shared store is the only in-process read path; the old
        # backend selector must fail loudly, not be silently ignored.
        with pytest.raises(SystemExit) as info:
            main(["online", db_file, stream_file, "--backend", "replicated"])
        assert info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["online", "DB", "--snapshot-store", "sqlite"],
            ["shard-host", "127.0.0.1:0", "--worker-threads", "8"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        # One snapshot store and a thread per shard-host lane: the old
        # selectors fail loudly instead of being silently ignored.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert argv[2] in capsys.readouterr().err

    def test_unsafe_submit_is_rejected_not_fatal(self, db_file, tmp_path, capsys):
        path = tmp_path / "unsafe.ops"
        path.write_text(
            """
            submit a: {P(m)} R(x, A) :- Flights(x, 'Zurich');
            submit b: {Q(n)} R(y, B) :- Flights(y, 'Paris');
            submit w: {R(u, v)} W(u) :- Flights(u, 'Zurich')
            submit c: {} S(z) :- Flights(z, 'Paris');
            """
        )
        assert main(["online", db_file, str(path)]) == 0
        out = capsys.readouterr().out
        assert "rejected" in out
        assert "satisfied {c}" in out  # the stream keeps going

    def test_unknown_operation_is_fatal(self, db_file, tmp_path, capsys):
        path = tmp_path / "bad.ops"
        path.write_text("frobnicate everything\n")
        assert main(["online", db_file, str(path)]) == 2
        assert "unknown operation" in capsys.readouterr().err

    def test_arrival_retiring_other_queries_is_reported(self, db_file, tmp_path, capsys):
        """An arrival can retire a set it does not belong to (a stalled
        component whose rows appeared); the replay must report it."""
        path = tmp_path / "bystander.ops"
        path.write_text(
            """
            submit a: {} A(x) :- Flights(x, 'Atlantis')
            insert Flights 103 'Atlantis'
            submit b: {A(u)} B(v) :- Flights(v, 'Nowhere')
            """
        )
        assert main(["online", db_file, str(path)]) == 0
        out = capsys.readouterr().out
        assert "submit b: pending" in out       # b itself still waits
        assert "submit b: satisfied {a}" in out  # ... but retired a


class TestStatsFlag:
    def test_coordinate_stats_prints_engine_counters(
        self, db_file, queries_file, capsys
    ):
        assert main(["coordinate", db_file, queries_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out
        assert "queries issued:" in out
        assert "index probes:" in out
        assert "plan cache:" in out
        assert "composite indexes built:" in out

    def test_coordinate_without_stats_is_silent(
        self, db_file, queries_file, capsys
    ):
        assert main(["coordinate", db_file, queries_file]) == 0
        assert "engine stats:" not in capsys.readouterr().out

    def test_online_stats_prints_engine_counters(self, db_file, tmp_path, capsys):
        path = tmp_path / "stats.ops"
        path.write_text(
            """
            submit a: {} A(x) :- Flights(x, 'Zurich')
            insert Flights 103 'Atlantis'
            """
        )
        assert main(["online", db_file, str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out
        assert "inserts:" in out


class TestOnlineBatchAndDrainOps:
    def test_batch_line_admits_together(self, db_file, tmp_path, capsys):
        # Two queries that only coordinate when admitted in one pass:
        # serial submits would retire the postcondition-free one alone.
        path = tmp_path / "batch.ops"
        path.write_text(
            "batch g: {R(Chris, x)} R(Gwyneth, x) :- "
            "Flights(x, 'Zurich'); c: {} R(Chris, y) :- "
            "Flights(y, 'Zurich')\n"
        )
        assert main(["online", db_file, str(path)]) == 0
        out = capsys.readouterr().out
        assert "satisfied {c, g}" in out

    def test_flush_drain_line(self, db_file, tmp_path, capsys):
        path = tmp_path / "drain.ops"
        path.write_text(
            """
            submit a: {R(y, 'b')} R(x, 'a') :- Flights(x, 'Zurich')
            flush_drain
            """
        )
        assert main(["online", db_file, str(path)]) == 0
        out = capsys.readouterr().out
        assert "flush_drain: nothing coordinated" in out


class TestScenario:
    def test_list_prints_catalog(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("partner", "keyword", "marketplace", "adversarial"):
            assert name in out

    def test_bare_scenario_lists_too(self, capsys):
        assert main(["scenario"]) == 0
        assert "marketplace" in capsys.readouterr().out

    def test_unknown_name_is_clean_error(self, capsys):
        assert main(["scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_runs_a_scenario_in_process(self, capsys):
        assert main(
            ["scenario", "marketplace", "--scale", "40", "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "marketplace (scale 40, seed 2012):" in out
        assert "0 pending" in out

    def test_backend_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scenario", "keyword", "--backend", "replicated"])
        assert info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_ablation_toggles_accepted(self, capsys):
        assert main(
            [
                "scenario", "keyword", "--scale", "16",
                "--no-plan-cache", "--no-composite-indexes", "--stats",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "composite indexes built: 0" in out

    def test_out_writes_replayable_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "adv")
        assert main(
            ["scenario", "adversarial", "--scale", "8", "--out", prefix]
        ) == 0
        out = capsys.readouterr().out
        assert f"{prefix}.db.json" in out
        assert main(
            ["online", f"{prefix}.db.json", f"{prefix}.ops"]
        ) == 0
        replay = capsys.readouterr().out
        assert "pending" in replay
