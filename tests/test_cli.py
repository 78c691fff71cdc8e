"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("fig1", "thm11", "table1", "adv"):
            assert experiment_id in out

    def test_lists_dynamics(self, capsys):
        assert main(["dynamics"]) == 0
        out = capsys.readouterr().out
        assert "3-majority" in out
        assert "2-choices" in out

    def test_lists_engines_with_capabilities(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for engine in ("population", "agent", "async", "batch"):
            assert engine in out
        assert "adversary" in out

    def test_registered_engine_appears_in_listing(self, capsys):
        from repro.engine import register_engine, unregister_engine

        register_engine("toy-cli", lambda spec: [], description="toy")
        try:
            assert main(["engines"]) == 0
            assert "toy-cli" in capsys.readouterr().out
        finally:
            unregister_engine("toy-cli")


class TestRun:
    def test_run_prints_table_and_verdicts(self, capsys):
        main(["run", "lem41", "--preset", "micro"])
        out = capsys.readouterr().out
        assert "[lem41]" in out
        assert "| verdict |" in out
        assert "elapsed" in out

    def test_run_csv_output(self, tmp_path, capsys):
        main(
            [
                "run",
                "table1",
                "--preset",
                "micro",
                "--csv",
                str(tmp_path),
            ]
        )
        assert (tmp_path / "table1.csv").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_seed_flag(self, capsys):
        code = main(["run", "table1", "--preset", "micro", "--seed", "3"])
        assert code in (0, 1)


class TestSimulate:
    def test_runs_to_consensus(self, capsys):
        code = main(
            [
                "simulate",
                "--dynamics",
                "3-majority",
                "--n",
                "512",
                "--k",
                "4",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "consensus on opinion" in out
        assert "gamma=" in out

    def test_budget_exhaustion_exit_code(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "4096",
                "--k",
                "512",
                "--max-rounds",
                "2",
            ]
        )
        assert code == 1
        assert "no consensus" in capsys.readouterr().out

    def test_zipf_config(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "512",
                "--k",
                "8",
                "--config",
                "zipf",
            ]
        )
        assert code == 0

    def test_batch_replicas_print_aggregate(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "2048",
                "--k",
                "16",
                "--engine",
                "batch",
                "--replicas",
                "8",
                "--seed",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "8 runs, 8 converged" in out
        assert "consensus time: median" in out

    def test_async_batch_replicas_print_aggregate(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "128",
                "--k",
                "4",
                "--engine",
                "async-batch",
                "--replicas",
                "6",
                "--seed",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine=async-batch" in out
        assert "6 runs, 6 converged" in out

    def test_replicas_without_batch_aggregate(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "512",
                "--k",
                "4",
                "--replicas",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 runs, 3 converged" in out

    def test_aggregate_censoring_exit_code(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "4096",
                "--k",
                "512",
                "--engine",
                "batch",
                "--replicas",
                "4",
                "--max-rounds",
                "2",
            ]
        )
        assert code == 1
        assert "4 censored" in capsys.readouterr().out

    def test_adversarial_batch_aggregate(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "1024",
                "--k",
                "4",
                "--engine",
                "batch",
                "--replicas",
                "4",
                "--adversary",
                "runner-up",
                "--adversary-budget",
                "2",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "adversary=runner-up(F=2)" in out
        assert "4 runs, 4 converged" in out

    def test_adversarial_trajectory_reports_threshold(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "1024",
                "--k",
                "4",
                "--adversary",
                "runner-up",
                "--adversary-budget",
                "2",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "threshold of 1016 vertices" in out

    @pytest.mark.parametrize(
        "extra",
        [[], ["--adversary", "runner-up", "--adversary-budget", "2"]],
        ids=["consensus", "adversary"],
    )
    def test_trajectory_reports_the_batch_run(self, capsys, extra):
        """The trajectory runs the one-row population engine the spec
        describes, so it reports what ``--engine batch`` reports at the
        same seed."""
        args = ["simulate", "--n", "1024", "--k", "4", "--seed", "5"]
        assert main(args + extra) == 0
        trajectory = capsys.readouterr().out
        assert main(args + extra + ["--engine", "batch"]) == 0
        batch = capsys.readouterr().out
        (rounds,) = re.findall(r"after (\d+) rounds", trajectory)
        assert f"consensus time: median {rounds}, q10 {rounds}" in batch
        winner = re.findall(r"consensus on opinion (\d+)", trajectory)
        assert (
            f"opinion {winner[0]} won 1/1" in batch
            if winner
            else "winners:" not in batch
        )

    def test_adversary_without_budget_exit_2(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "512",
                "--k",
                "4",
                "--adversary",
                "runner-up",
            ]
        )
        assert code == 2
        assert "adversary_budget" in capsys.readouterr().out

    def test_bad_config_parameters_exit_2(self, capsys):
        code = main(
            [
                "simulate",
                "--n",
                "512",
                "--k",
                "8",
                "--config",
                "geometric_gamma",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().out


class TestSweepCommand:
    def test_prints_grid_table(self, capsys):
        code = main(
            [
                "sweep",
                "--n",
                "256",
                "512",
                "--k",
                "2",
                "4",
                "--runs",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Consensus-time sweep (4 points" in out
        assert "median T" in out

    @pytest.mark.parametrize("command", ["sweep", "submit"])
    def test_measure_flag_is_gone(self, command, capsys):
        args = [command, "--n", "256", "--k", "2", "--measure", "batch"]
        if command == "submit":
            args += ["--url", "http://127.0.0.1:9"]
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        assert "--measure" in capsys.readouterr().err

    def test_async_chain_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "--n",
                "128",
                "--k",
                "2",
                "--runs",
                "2",
                "--chain",
                "async",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "chain=async" in out

    def test_async_chain_rejects_graph(self, capsys):
        code = main(
            [
                "sweep",
                "--n",
                "128",
                "--k",
                "2",
                "--chain",
                "async",
                "--graph",
                "random-regular",
                "--degree",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "complete graph" in out

    def test_measure_modes_cache_separately(self, tmp_path, capsys):
        """A file left by an old sequential sweep (keyed by the params
        alone) sits beside the batch file and is never read."""
        args = [
            "sweep",
            "--n",
            "256",
            "--k",
            "2",
            "--runs",
            "2",
            "--cache",
            str(tmp_path),
        ]
        assert main(args) == 0
        table = capsys.readouterr().out.split("elapsed:")[0]
        (batch_file,) = tmp_path.glob("*.json")
        params = json.loads(batch_file.read_text())["params"]
        batch_file.unlink()
        canon = json.dumps(
            {k: params[k] for k in sorted(params)}, sort_keys=True
        )
        old = tmp_path / (
            hashlib.sha256(canon.encode()).hexdigest()[:16] + ".json"
        )
        old_document = json.dumps(
            {"params": params, "values": [-1.0, -1.0],
             "measure": "sequential"}
        )
        old.write_text(old_document)
        assert main(args) == 0
        assert capsys.readouterr().out.split("elapsed:")[0] == table
        assert sorted(tmp_path.glob("*.json")) == sorted([old, batch_file])
        assert old.read_text() == old_document

    def test_multiple_dynamics_axis(self, capsys):
        code = main(
            [
                "sweep",
                "--dynamics",
                "3-majority",
                "2-choices",
                "--n",
                "256",
                "--k",
                "4",
                "--runs",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3-majority" in out
        assert "2-choices" in out

    def test_adversary_budget_axis(self, capsys):
        code = main(
            [
                "sweep",
                "--n",
                "512",
                "--k",
                "4",
                "--runs",
                "1",
                "--adversary",
                "runner-up",
                "--adversary-budget",
                "0",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 points" in out
        assert "adversary=runner-up" in out
        assert "| F " in out or "F " in out.splitlines()[2]

    def test_adversary_budget_without_strategy_exit_2(self, capsys):
        code = main(
            [
                "sweep",
                "--n",
                "256",
                "--k",
                "4",
                "--adversary-budget",
                "2",
            ]
        )
        assert code == 2
        assert "--adversary" in capsys.readouterr().out

    def test_adversarial_cache_distinct_from_plain(self, tmp_path, capsys):
        plain = [
            "sweep",
            "--n",
            "256",
            "--k",
            "4",
            "--runs",
            "1",
            "--cache",
            str(tmp_path),
        ]
        attacked = plain + [
            "--adversary",
            "runner-up",
            "--adversary-budget",
            "2",
        ]
        assert main(plain) == 0
        assert main(attacked) == 0
        # Two distinct cache entries: plain and adversarial points
        # never share a key.
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_cache_reuse(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--n",
            "256",
            "--k",
            "4",
            "--runs",
            "2",
            "--cache",
            str(tmp_path),
        ]
        assert main(argv) == 0
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == 1
        stamp = files[0].stat().st_mtime_ns
        assert main(argv) == 0
        assert files[0].stat().st_mtime_ns == stamp


class TestReport:
    def test_writes_markdown(self, tmp_path, capsys):
        output = tmp_path / "EXPERIMENTS.md"
        code = main(
            [
                "report",
                "--preset",
                "micro",
                "--output",
                str(output),
            ]
        )
        assert code in (0, 1)
        body = output.read_text()
        assert "# EXPERIMENTS" in body
        assert "## Verdict summary" in body
        for experiment_id in ("fig1", "thm11", "table1"):
            assert f"## {experiment_id}" in body
        assert "| verdict |" in body


class TestServiceVerbs:
    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import SimulationService

        with SimulationService(
            tmp_path / "jobs.db",
            cache_dir=tmp_path / "cache",
            num_workers=1,
        ) as svc:
            yield svc

    def test_submit_wait_status_result(self, service, capsys):
        assert (
            main(
                [
                    "submit",
                    "--url", service.url,
                    "--n", "64", "128",
                    "--k", "2",
                    "--runs", "2",
                    "--seed", "1",
                    "--wait",
                    "--timeout", "60",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "submitted job" in out
        assert "median T" in out
        job_id = out.split("submitted job ")[1].split()[0]

        assert main(["status", "--url", service.url, job_id]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "2/2 points" in out

        assert main(["result", "--url", service.url, job_id]) == 0
        out = capsys.readouterr().out
        assert "3-majority" in out
        assert "median T" in out

    def test_submit_without_wait_prints_poll_hint(
        self, service, capsys
    ):
        assert (
            main(
                [
                    "submit",
                    "--url", service.url,
                    "--n", "64",
                    "--k", "2",
                    "--runs", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repro status --url" in out

    def test_status_unknown_job_exit_2(self, service, capsys):
        assert main(["status", "--url", service.url, "nope"]) == 2
        assert "no job" in capsys.readouterr().out

    def test_submit_bad_grid_exit_2(self, service, capsys):
        # --degree without --graph: same validation as local sweep.
        assert (
            main(
                [
                    "submit",
                    "--url", service.url,
                    "--n", "64",
                    "--k", "2",
                    "--degree", "4",
                ]
            )
            == 2
        )
        assert "--graph" in capsys.readouterr().out

    def test_unreachable_service_exit_2(self, capsys):
        assert (
            main(
                [
                    "status",
                    "--url", "http://127.0.0.1:9",  # discard port
                    "whatever",
                ]
            )
            == 2
        )
        assert "cannot reach" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
