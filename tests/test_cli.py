"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.analysis import METHODS
from repro.cli import build_parser, main

QUICKSTART = (
    Path(__file__).resolve().parents[1] / "examples" / "systems" / "quickstart.json"
)

SYSTEM = {
    "policies": {"cpu": "spp"},
    "jobs": [
        {
            "id": "a",
            "deadline": 10.0,
            "arrivals": {"type": "periodic", "period": 5.0},
            "route": [["cpu", 1.0]],
        },
        {
            "id": "b",
            "deadline": 12.0,
            "arrivals": {"type": "periodic", "period": 6.0},
            "route": [["cpu", 2.0]],
        },
    ],
}


#: The commands that analyze, and so take ``--cache-size``.
ANALYSIS_COMMANDS = ["analyze", "validate", "trace", "audit", "batch"]


def assert_one_usage_error(err):
    """A usage error is one ``error: `` line on stderr, never a traceback."""
    assert err.startswith("error: ") and err.count("error: ") == 1, err
    assert "Traceback" not in err


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(SYSTEM))
    return str(path)


@pytest.fixture()
def missing_deadline_file(tmp_path):
    data = json.loads(json.dumps(SYSTEM))
    data["jobs"][1]["deadline"] = 0.5  # impossible: below its own wcet
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "x.json", "--method", "nope"])


class TestCommands:
    def test_methods(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "SPP/Exact" in out and "FCFS/App" in out

    def test_analyze_schedulable(self, system_file, capsys):
        assert main(["analyze", system_file, "--method", "SPP/Exact"]) == 0
        out = capsys.readouterr().out
        assert "schedulable=True" in out

    def test_analyze_miss_exit_code(self, missing_deadline_file, capsys):
        assert main(["analyze", missing_deadline_file]) == 1
        assert "MISS" in capsys.readouterr().out

    def test_simulate(self, system_file, capsys):
        assert main(["simulate", system_file, "--horizon", "30"]) == 0
        out = capsys.readouterr().out
        assert "max=" in out

    def test_validate(self, system_file, capsys):
        assert main(["validate", system_file, "--method", "SPP/Exact"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "VIOLATION" not in out

    def test_validate_spnp(self, system_file, capsys):
        assert main(["validate", system_file, "--method", "SPNP/App"]) == 0
        assert "[ok]" in capsys.readouterr().out


class TestJsonOutput:
    def test_analyze_json_round_trip(self, system_file, capsys):
        assert main(["analyze", system_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.analysis import make_analyzer
        from repro.model.io import load_system

        direct = make_analyzer("SPP/Exact").analyze(load_system(system_file))
        assert payload == direct.to_dict()
        assert payload["schema"] == 1
        assert payload["schedulable"] is True
        assert set(payload["jobs"]) == {"a", "b"}

    def test_analyze_json_unschedulable(self, missing_deadline_file, capsys):
        assert main(["analyze", missing_deadline_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedulable"] is False
        assert payload["jobs"]["b"]["meets_deadline"] is False

    def test_validate_json(self, system_file, capsys):
        assert main(["validate", system_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis"]["schema"] == 1
        sim = payload["simulation"]
        assert sim["all_bounds_hold"] is True
        for job_id, row in sim["jobs"].items():
            assert row["bound_holds"] is True
            assert row["observed"] <= row["bound"] + 1e-9
            assert job_id in payload["analysis"]["jobs"]


class TestSharedSoundnessCheck:
    """``validate`` and ``report`` run the audit's soundness check."""

    #: One SPP processor: FCFS would serve B first, SPP serves A first.
    FCFS_VS_SPP = {
        "policies": {"P1": "spp"},
        "priority_assignment": "explicit",
        "jobs": [
            {"id": "A", "deadline": 20.0,
             "arrivals": {"type": "periodic", "period": 10.0, "offset": 0.5},
             "route": [["P1", 5.0, 1]]},
            {"id": "B", "deadline": 20.0,
             "arrivals": {"type": "periodic", "period": 10.0, "offset": 0.0},
             "route": [["P1", 1.0, 2]]},
        ],
    }

    @pytest.fixture()
    def fcfs_vs_spp(self, tmp_path):
        path = tmp_path / "fcfs_vs_spp.json"
        path.write_text(json.dumps(self.FCFS_VS_SPP))
        return str(path)

    def test_validate_checks_a_forced_policy_against_its_own_schedule(
        self, fcfs_vs_spp, capsys
    ):
        assert main(["validate", fcfs_vs_spp, "--method", "FCFS/App"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" not in out
        assert "B: bound 1 vs simulated 1 [ok]" in out

    def test_report_checks_a_forced_policy_against_its_own_schedule(
        self, fcfs_vs_spp, capsys
    ):
        assert main(["report", fcfs_vs_spp, "--method", "FCFS/App"]) == 0
        out = capsys.readouterr().out
        assert "## Simulation cross-check" in out
        assert "VIOLATION" not in out
        assert "| B | 1 vs 1 ok |" in out

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_validate_runs_every_method(self, method, capsys):
        code = main(["validate", str(QUICKSTART), "--method", method])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert "Traceback" not in err and "[ok]" in out

    def test_validate_json_of_an_unbounded_horizon_free_bound(
        self, tmp_path, capsys
    ):
        data = json.loads(json.dumps(self.FCFS_VS_SPP))
        data["jobs"][0]["route"][0][1] = 9.5  # P1 overloaded: B unbounded
        path = tmp_path / "overloaded.json"
        path.write_text(json.dumps(data))
        argv = ["validate", str(path), "--method", "Stationary/NC", "--json"]
        # An infinite bound has not drained, as under SPP/S&L: exit 1 and
        # no simulation comparison.
        assert main(argv) == 1

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["analysis"]["drained"] is False
        assert payload["analysis"]["jobs"]["B"]["wcrt"] is None
        assert payload["simulation"] is None

    def test_report_cross_checks_a_horizon_free_first_method(
        self, fcfs_vs_spp, capsys
    ):
        argv = ["report", fcfs_vs_spp,
                "--method", "Stationary/NC", "--method", "SPP/Exact"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "## Simulation cross-check" in out
        assert "| A | 5 vs 5 ok | 5 vs 5 ok |" in out


class TestBatchCommand:
    def _write_items(self, tmp_path):
        lines = [
            json.dumps({"id": "one", "method": "SPP/Exact", "system": SYSTEM}),
            json.dumps({"id": "two", "system": SYSTEM}),  # falls back to --method
            json.dumps(SYSTEM),  # bare system line
            "# comment lines and blanks are skipped",
            "",
        ]
        path = tmp_path / "items.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_batch_file_input(self, tmp_path, capsys):
        path = self._write_items(tmp_path)
        assert main(["batch", path, "--method", "SPNP/App"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["id"] for r in records] == ["one", "two", "3"]
        assert [r["method"] for r in records] == ["SPP/Exact", "SPNP/App", "SPNP/App"]
        assert all(r["status"] == "ok" for r in records)
        assert all(r["schedulable"] is True for r in records)
        assert all(r["result"]["schema"] == 1 for r in records)
        assert "batch: 3 items" in captured.err

    def test_batch_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SYSTEM) + "\n"))
        assert main(["batch"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 1
        assert records[0]["id"] == "1"

    def test_batch_failure_exit_code(self, tmp_path, capsys):
        # A per-line method is not vetted by argparse; an unknown one
        # surfaces as a structured failure record and a non-zero exit.
        path = tmp_path / "items.jsonl"
        path.write_text(
            json.dumps({"id": "sick", "method": "No/Such", "system": SYSTEM})
            + "\n"
            + json.dumps(SYSTEM)
            + "\n"
        )
        assert main(["batch", str(path)]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records[0]["status"] == "error"
        assert records[0]["schedulable"] is None
        assert records[1]["status"] == "ok"

    def test_batch_no_cache_flag(self, tmp_path, capsys):
        path = self._write_items(tmp_path)
        assert main(["batch", path, "--no-cache"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(r["cache_hits"] == 0 and r["cache_misses"] == 0 for r in records)


class TestAuditCommand:
    def test_clean_campaign_passes(self, capsys):
        assert main([
            "audit", "--systems", "2", "--seed", "42",
            "--method", "SPP/App", "--fault", "none",
            "--sim-cap", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_corruption_is_flagged_and_shrunk(self, tmp_path, capsys):
        assert main([
            "audit", "--systems", "1", "--seed", "42",
            "--corrupt", "SPP/Exact", "--sim-cap", "60",
            "--artifact-dir", str(tmp_path),
        ]) == 3  # a soundness violation, not a usage error (2)
        out = capsys.readouterr().out
        assert "FAIL" in out
        artifacts = list(tmp_path.glob("*.json"))
        assert artifacts
        payload = json.loads(artifacts[0].read_text())
        assert payload["violations"]
        assert len(payload["system"]["jobs"]) <= 3

    def test_json_report(self, capsys):
        assert main([
            "audit", "--systems", "1", "--seed", "42",
            "--method", "SPP/App", "--fault", "none",
            "--sim-cap", "40", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_violations"] == 0
        assert payload["systems"][0]["fault"] == "none"

    def test_rejects_unknown_fault(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--fault", "gremlin"])


class TestReportCommand:
    def test_report(self, system_file, capsys):
        assert main(["report", system_file, "--method", "SPP/Exact",
                     "--no-simulate"]) == 0
        out = capsys.readouterr().out
        assert "## System" in out and "## Verdicts" in out

    def test_report_default_methods(self, system_file, capsys):
        assert main(["report", system_file, "--no-simulate"]) == 0
        out = capsys.readouterr().out
        assert "SPP/Exact" in out and "SPNP/App" in out

    def test_report_with_simulation(self, system_file, capsys):
        assert main(["report", system_file, "--method", "SPP/Exact"]) == 0
        assert "## Simulation cross-check" in capsys.readouterr().out


class TestBatchJournalCLI:
    def _write_items(self, tmp_path, n=3):
        path = tmp_path / "items.jsonl"
        path.write_text(
            "\n".join(
                json.dumps({"id": f"it{i}", "system": SYSTEM}) for i in range(n)
            )
            + "\n"
        )
        return str(path)

    def test_journal_then_resume(self, tmp_path, capsys):
        items = self._write_items(tmp_path)
        wal = str(tmp_path / "campaign.wal")
        assert main(["batch", items, "--journal", wal]) == 0
        first = capsys.readouterr()
        assert main(["batch", items, "--journal", wal, "--resume"]) == 0
        second = capsys.readouterr()
        assert "resumed=3" in second.err
        # Resumed records are byte-equal to the original run's.
        assert first.out == second.out

    def test_resume_requires_journal_flag(self, tmp_path, capsys):
        items = self._write_items(tmp_path)
        assert main(["batch", items, "--resume"]) == 2
        err = capsys.readouterr().err
        assert_one_usage_error(err)
        assert "--resume requires --journal" in err

    def test_retry_flag_accepted(self, tmp_path, capsys):
        items = self._write_items(tmp_path, n=1)
        assert main(["batch", items, "--retry", "2"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert records[0]["status"] == "ok"
        assert "attempts" not in records[0]  # clean run: no retry history


class TestBatchUsageErrors:
    """Usage errors exit 2 with ``error: ...``; exit 1 means failed items."""

    def _write_items(self, tmp_path, systems=(SYSTEM,)):
        path = tmp_path / "items.jsonl"
        path.write_text(
            "\n".join(
                json.dumps({"id": f"it{i}", "system": s})
                for i, s in enumerate(systems)
            )
            + "\n"
        )
        return str(path)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--retry", "-1"],
            ["--chunksize", "0"],
            ["--status-interval", "-1"],
            ["--cache-size", "0"],
            ["--compact-budget", "0"],
            ["--timeout", "-5"],
            ["--workers", "-2"],
        ],
        ids=" ".join,
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, flags):
        assert main(["batch", self._write_items(tmp_path)] + flags) == 2
        captured = capsys.readouterr()
        assert_one_usage_error(captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["batch"], ["shard", "plan"]])
    def test_unreadable_items_file_exits_2(self, tmp_path, capsys, command):
        argv = command + [str(tmp_path / "missing.jsonl")]
        if command == ["shard", "plan"]:
            argv += ["--shards", "2", "--out", str(tmp_path / "plan.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read ")
        assert_one_usage_error(captured.err)
        assert captured.out == ""

    def test_existing_journal_without_resume_exits_2(self, tmp_path, capsys):
        items = self._write_items(tmp_path)
        wal = str(tmp_path / "campaign.wal")
        assert main(["batch", items, "--journal", wal]) == 0
        capsys.readouterr()
        assert main(["batch", items, "--journal", wal]) == 2
        assert_one_usage_error(capsys.readouterr().err)

    def test_resume_of_another_campaign_exits_2(self, tmp_path, capsys):
        wal = str(tmp_path / "campaign.wal")
        assert main(["batch", self._write_items(tmp_path), "--journal", wal]) == 0
        capsys.readouterr()
        other = json.loads(json.dumps(SYSTEM))
        other["jobs"][0]["deadline"] = 11.0
        items = self._write_items(tmp_path, systems=(other,))
        assert main(["batch", items, "--journal", wal, "--resume"]) == 2
        assert_one_usage_error(capsys.readouterr().err)


class TestArgumentErrors:
    """Flags argparse rejects exit 2, like every other usage error."""

    def _argv(self, command, tmp_path):
        if command == "audit":
            return ["audit"]
        if command in ("batch", "shard plan"):
            path = tmp_path / "items.jsonl"
            path.write_text(json.dumps({"id": "it0", "system": SYSTEM}) + "\n")
        else:
            path = tmp_path / "system.json"
            path.write_text(json.dumps(SYSTEM))
        if command == "shard plan":
            return ["shard", "plan", str(path), "--shards", "2",
                    "--out", str(tmp_path / "plan.json")]
        return [command, str(path)]

    @pytest.mark.parametrize("command", ["analyze", "batch", "audit"])
    def test_compact_budget_and_max_error_exit_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(
                self._argv(command, tmp_path)
                + ["--compact-budget", "8", "--compact-max-error", "0.1"]
            )
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "audit"])
    def test_cache_dir_is_batch_only(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(self._argv(command, tmp_path) + ["--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags",
        [
            pytest.param(command, flags, id=f"{name}-{command}")
            for name, flags in [
                ("budget-1", ["--compact-budget", "1"]),
                ("max-error-neg", ["--compact-max-error", "-1"]),
                ("max-error-nan", ["--compact-max-error", "nan"]),
            ]
            for command in ANALYSIS_COMMANDS + ["shard plan"]
        ]
        + [
            pytest.param(command, ["--cache-size", "0"], id=f"cache-size-0-{command}")
            for command in ANALYSIS_COMMANDS
        ],
    )
    def test_option_values_exit_2(self, tmp_path, capsys, command, flags):
        # analyze exits 1 on a deadline miss, so a bad value must not
        # escape as a traceback, which exits 1 as well.
        assert main(self._argv(command, tmp_path) + flags) == 2
        assert_one_usage_error(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command,flag",
        [
            # shard plan runs no analysis: no curve cache to size and no
            # telemetry to record, and neither enters an item digest.
            ("shard plan", ["--cache-size", "64"]),
            ("shard plan", ["--convergence"]),
            # Chaos campaigns write their status after every item.
            ("chaos", ["--status-interval", "5"]),
        ],
        ids=["shard-plan-cache-size", "shard-plan-convergence",
             "chaos-status-interval"],
    )
    def test_flag_that_would_route_nowhere(self, tmp_path, capsys, command, flag):
        argv = ["chaos"] if command == "chaos" else self._argv(command, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--horizon", "-5"],
            ["--horizon", "0"],
            ["--horizon", "nan"],
            ["--horizon", "inf"],
            ["--report-window", "-1"],
            ["--report-window", "nan"],
        ],
        ids=["horizon-neg", "horizon-0", "horizon-nan", "horizon-inf",
             "window-neg", "window-nan"],
    )
    def test_simulate_window_values_exit_2(self, tmp_path, capsys, flags):
        assert main(self._argv("simulate", tmp_path) + flags) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --")
        assert_one_usage_error(err)


class TestSystemFileErrors:
    """A system file that cannot be loaded is a usage error on every command.

    Exit 1 means a deadline miss (or a failed simulation check), so a
    missing file, bad JSON or an invalid description must print
    ``error: ...`` and exit 2 instead of escaping as a traceback.
    """

    INVALID = {
        "policies": {"cpu": "spp"},
        "jobs": [
            {
                "id": "a",
                "deadline": 10.0,
                "arrivals": {"type": "periodic", "period": -5.0},
                "route": [["cpu", 1.0]],
            }
        ],
    }

    def _argv(self, command, path, tmp_path):
        argv = [command, path]
        if command == "trace":
            argv += ["--trace-out", str(tmp_path / "trace.json"),
                     "--metrics-out", str(tmp_path / "metrics.prom")]
        return argv

    @pytest.mark.parametrize(
        "command", ["analyze", "validate", "trace", "simulate", "report"]
    )
    @pytest.mark.parametrize("case", ["missing", "not-json", "invalid-system"])
    def test_exits_2_with_error(self, tmp_path, capsys, command, case):
        path = tmp_path / "system.json"
        if case == "not-json":
            path.write_text("{bad")
        elif case == "invalid-system":
            path.write_text(json.dumps(self.INVALID))
        assert main(self._argv(command, str(path), tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_usage_error(err)
        if case == "missing":
            assert str(path) in err
        if case == "invalid-system":
            # The SystemFormatError text as it is: every bad field listed.
            assert "job 'a', field 'arrivals.period': must be positive" in err
        if command == "trace":
            assert not (tmp_path / "trace.json").exists()


class TestViolationExitStatus:
    """A soundness violation exits 3, apart from usage errors (2)."""

    @staticmethod
    def _corrupt_audit_analyzers(monkeypatch):
        """Halve every bound the soundness check is handed."""
        from repro.audit import CorruptedAnalyzer, checks

        clean = checks.make_audit_analyzer
        monkeypatch.setattr(
            checks, "make_audit_analyzer",
            lambda method, horizon=None, options=None: CorruptedAnalyzer(
                clean(method, horizon, options=options), factor=0.5
            ),
        )

    def test_validate_violation_exits_3(self, system_file, capsys, monkeypatch):
        self._corrupt_audit_analyzers(monkeypatch)
        assert main(["validate", system_file, "--method", "SPP/Exact"]) == 3
        assert "VIOLATION" in capsys.readouterr().out

    def test_batch_audit_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        self._corrupt_audit_analyzers(monkeypatch)
        path = tmp_path / "items.jsonl"
        path.write_text(json.dumps({"id": "x", "system": SYSTEM}) + "\n")
        assert main(["batch", str(path), "--audit", "--no-cache"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["violations"]
        assert "soundness violation" in captured.err


class TestAnalyzerRefusals:
    """A system the method or the simulator refuses is a usage error.

    It prints ``error: ...`` and exits 2 instead of escaping as a
    traceback with exit 1, the status of a deadline miss.
    """

    #: Two jobs share priority 1 on P1.
    TIED = {
        "policies": {"P1": "spp"},
        "priority_assignment": "explicit",
        "jobs": [
            {
                "id": job,
                "deadline": 3.0,
                "arrivals": {"type": "periodic", "period": 5.0},
                "route": [["P1", 2.0, 1]],
            }
            for job in ("a", "b")
        ],
    }
    #: A chain revisiting P1 (a physical loop).
    LOOP = {
        "policies": {"P1": "spp", "P2": "spp"},
        "jobs": [
            {
                "id": "a",
                "deadline": 30.0,
                "arrivals": {"type": "periodic", "period": 10.0},
                "route": [["P1", 1.0], ["P2", 1.0], ["P1", 1.0]],
            }
        ],
    }

    def _run(self, tmp_path, capsys, data, command, *flags):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path), *flags]
        if command == "trace":
            argv += ["--trace-out", str(tmp_path / "trace.json"),
                     "--metrics-out", str(tmp_path / "metrics.prom")]
        code = main(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out, err

    @pytest.mark.parametrize(
        "command", ["analyze", "validate", "trace", "report", "simulate"]
    )
    def test_tied_priorities_exit_2(self, tmp_path, capsys, command):
        code, out, err = self._run(tmp_path, capsys, self.TIED, command)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "duplicate priorities" in err

    @pytest.mark.parametrize(
        "method", ["Fixpoint/App", "SPP/App", "SPNP/App", "Stationary/NC"]
    )
    def test_tied_priorities_exit_2_for_every_priority_method(
        self, tmp_path, capsys, method
    ):
        code, _, err = self._run(
            tmp_path, capsys, self.TIED, "analyze", "--method", method
        )
        assert code == 2 and "duplicate priorities" in err

    def test_fcfs_ignores_tied_priorities(self, tmp_path, capsys):
        code, out, _ = self._run(
            tmp_path, capsys, self.TIED, "analyze", "--method", "FCFS/App"
        )
        assert code == 1 and "wcrt=4" in out

    @pytest.mark.parametrize("method", ["SPNP/App", "FCFS/App", "Mixed/App"])
    def test_single_pass_on_loop_exits_2(self, tmp_path, capsys, method):
        code, out, err = self._run(
            tmp_path, capsys, self.LOOP, "analyze", "--method", method
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cyclic subjob dependencies")
        # ... and names the value --method takes for loops
        assert err.rstrip().endswith("use Fixpoint/App for systems with loops")

    def test_fixpoint_analyzes_the_loop(self, tmp_path, capsys):
        code, _, _ = self._run(
            tmp_path, capsys, self.LOOP, "analyze", "--method", "Fixpoint/App"
        )
        assert code == 0

    def test_spp_exact_on_fcfs_exits_2(self, tmp_path, capsys):
        data = dict(SYSTEM, policies={"cpu": "fcfs"})
        code, out, err = self._run(tmp_path, capsys, data, "analyze")
        assert code == 2 and out == ""
        assert "requires every processor to use SPP" in err
        # The way out names a --method value, not a class.
        assert err.rstrip().endswith(
            "use Mixed/App for mixed or non-preemptive systems"
        )


class TestOneUsageErrorPath:
    """Every usage error exits 2 with exactly one ``error: `` prefix.

    The input files are built once; each case is an argv whose ``{name}``
    placeholders name them.  ShardError and JournalError count as usage
    errors wherever they come from, including ``shard merge``, and so
    does a ``chaos`` flag value, refused before any campaign runs.  The
    other usage errors are covered where their inputs are tested.
    """

    CASES = {
        "items-line-not-json": ["batch", "{not_json}"],
        "items-line-not-a-system": [
            "shard", "plan", "{invalid}", "--shards", "2", "--out", "{out}"
        ],
        "shard-index-alone": ["batch", "{items}", "--shard-index", "0"],
        "shard-index-out-of-range": [
            "batch", "{items}", "--shard-index", "2", "--shard-count", "2"
        ],
        "shard-count-disagrees": [
            "batch", "{items}", "--shard-index", "0", "--shard-count", "3",
            "--shard-manifest", "{plan}",
        ],
        "manifest-unreadable": [
            "batch", "{items}", "--shard-index", "0", "--shard-manifest", "{missing}"
        ],
        "manifest-of-another-campaign": [
            "batch", "{other}", "--shard-index", "0", "--shard-manifest", "{plan}"
        ],
        "plan-without-shards": [
            "shard", "plan", "{items}", "--shards", "0", "--out", "{out}"
        ],
        "merge-nothing": ["shard", "merge", "--plan", "{plan}"],
        "merge-journals-without-out": [
            "shard", "merge", "--plan", "{plan}", "--journals", "{journal}"
        ],
        "merge-metrics-without-status": [
            "shard", "merge", "--plan", "{plan}", "--metrics-out", "{out}"
        ],
        "merge-status-without-metrics": [
            "shard", "merge", "--plan", "{plan}", "--status", "{status}",
            "--metrics-out", "{out}",
        ],
        "merge-unreadable-journal": [
            "shard", "merge", "--plan", "{plan}", "--journals", "{missing}",
            "--journal-out", "{out}",
        ],
        "merge-unreadable-plan": [
            "shard", "merge", "--plan", "{missing}", "--records", "{items}"
        ],
        "chaos-kill-points": [
            "chaos", "--journal", "{out}", "--kill-points", "1,x"
        ],
        "chaos-workers": ["chaos", "--journal", "{out}", "--workers", "-1"],
        "chaos-max-attempts": [
            "chaos", "--journal", "{out}", "--max-attempts", "0"
        ],
        "chaos-fault-rates": ["chaos", "--journal", "{out}", "--error-rate", "2"],
    }

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("usage")
        paths = {
            name: str(root / name)
            for name in ("missing", "out", "plan", "journal", "status")
        }
        for name, text in [
            ("not_json", "{bad\n"),
            ("invalid", json.dumps(TestSystemFileErrors.INVALID)),
            ("items", json.dumps({"id": "it0", "system": SYSTEM}) + "\n"),
            ("other", json.dumps(json.loads(QUICKSTART.read_text())) + "\n"),
        ]:
            paths[name] = str(root / name)
            (root / name).write_text(text)
        items = paths["items"]
        assert main(["shard", "plan", items, "--shards", "2",
                     "--out", paths["plan"]]) == 0
        assert main(["batch", items, "--journal", paths["journal"]]) == 0
        assert main(["batch", items, "--status", paths["status"]]) == 0
        return paths

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_one_error_prefix(self, files, capsys, case):
        argv = [arg.format(**files) for arg in self.CASES[case]]
        assert main(argv) == 2
        assert_one_usage_error(capsys.readouterr().err)
        assert not Path(files["out"]).exists()


class TestCacheSizeFlag:
    """``--cache-size N`` sizes the curve cache of the run and nothing else.

    It enters no journal digest and no result-cache key, so a run with
    another capacity resumes a journal and reads a cache as it is.
    """

    N_ITEMS = 4

    @pytest.fixture()
    def items(self, tmp_path):
        from repro.chaos import generate_campaign

        path = tmp_path / "items.jsonl"
        path.write_text(
            "".join(
                json.dumps(entry) + "\n"
                for entry in generate_campaign(self.N_ITEMS, seed=11)
            )
        )
        return str(path)

    @pytest.fixture()
    def cache_sizes(self, monkeypatch):
        """Capacities of the curve caches the command opens."""
        from repro.curves import memo

        sizes = []
        real = memo.curve_cache

        def spy(maxsize=memo.DEFAULT_CACHE_SIZE, cache=None):
            sizes.append(maxsize)
            return real(maxsize, cache)

        monkeypatch.setattr(memo, "curve_cache", spy)
        return sizes

    def _batch(self, argv, capsys):
        code = main(["batch"] + argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        return out, err

    def test_warm_run_with_a_cache_size_serves_every_record(
        self, tmp_path, items, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        cold, _ = self._batch([items, "--cache-dir", cache_dir], capsys)
        warm, err = self._batch(
            [items, "--cache-dir", cache_dir, "--cache-size", "64"], capsys
        )
        assert f"cached={self.N_ITEMS}" in err
        assert warm == cold

    @pytest.mark.parametrize(
        "flags",
        [["--cache-size", "64"], ["--convergence"]],
        ids=["cache-size", "convergence"],
    )
    def test_resume_with_a_performance_flag(self, tmp_path, items, capsys, flags):
        wal = str(tmp_path / "campaign.wal")
        first, _ = self._batch([items, "--journal", wal], capsys)
        resumed, err = self._batch(
            [items, "--journal", wal, "--resume"] + flags, capsys
        )
        assert f"resumed={self.N_ITEMS}" in err
        assert resumed == first

    @pytest.mark.parametrize("command", ["trace", "validate"])
    def test_command_runs_under_an_n_entry_cache(
        self, tmp_path, system_file, capsys, cache_sizes, command
    ):
        argv = [command, system_file, "--cache-size", "7"]
        if command == "trace":
            argv += ["--trace-out", str(tmp_path / "trace.json"),
                     "--metrics-out", str(tmp_path / "metrics.prom")]
        assert main(argv) == 0, capsys.readouterr().err
        assert cache_sizes == [7]
