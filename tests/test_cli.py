"""Tests for the command-line interface."""

import pytest

from repro import errors
from repro.cli import build_parser, main
from repro.errors import EXIT_CODES, exit_code_for


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_numbers_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "17"])

    def test_design_dataset_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "comcast"])


class TestCommands:
    def test_datasets(self, capsys):
        out = run_cli(capsys, "datasets")
        assert "eu_isp" in out and "internet2" in out and "Gbps" in out

    def test_table1(self, capsys):
        out = run_cli(capsys, "--flows", "30", "--seed", "2", "table1")
        assert "Table 1" in out
        assert "cdn" in out

    def test_figure1(self, capsys):
        out = run_cli(capsys, "figure", "1")
        assert "Figure 1" in out and "$2.25" in out

    def test_figure4(self, capsys):
        out = run_cli(capsys, "figure", "4")
        assert "p* = $2.00" in out

    def test_figure8_small(self, capsys):
        out = run_cli(capsys, "--flows", "24", "figure", "8")
        assert "profit capture" in out
        assert "optimal" in out and "profit-weighted" in out

    def test_figure13_small(self, capsys):
        out = run_cli(capsys, "--flows", "24", "figure", "13")
        assert "destination-type" in out

    def test_figure16_small(self, capsys):
        out = run_cli(capsys, "--flows", "24", "figure", "16")
        assert "s0 in" in out

    def test_design(self, capsys):
        out = run_cli(
            capsys,
            "--flows",
            "30",
            "design",
            "eu_isp",
            "--tiers",
            "3",
            "--demand",
            "logit",
        )
        assert "profit capture" in out
        assert "logit" in out

    def test_design_strategy_choice(self, capsys):
        out = run_cli(
            capsys, "--flows", "30", "design", "cdn", "--strategy", "optimal"
        )
        assert "strategy: optimal" in out

    def test_flows_flag_changes_market_size(self, capsys):
        out = run_cli(capsys, "--flows", "25", "design", "eu_isp")
        assert "n=25" in out


class TestRuntimeFlags:
    def test_jobs_flag_output_matches_serial(self, capsys):
        """--jobs exercises the process pool without changing the output.

        The parallel run also passes --no-cache so it cannot reuse the
        serial run's cached results: every work unit really crosses the
        process boundary.
        """
        serial = run_cli(capsys, "--flows", "24", "figure", "14")
        parallel = run_cli(
            capsys, "--flows", "24", "figure", "14", "--jobs", "2", "--no-cache"
        )
        assert parallel == serial

    def test_jobs_help_text(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "14", "--jobs", "4"])
        assert args.jobs == 4
        assert parser.parse_args(["figure", "14"]).jobs is None

    def test_no_cache_flag_output_matches_cached(self, capsys):
        """--no-cache disables every cache layer but changes nothing."""
        from repro.runtime import cache as runtime_cache
        from repro.obs import METRICS

        cached_run = run_cli(capsys, "--flows", "24", "figure", "10")
        before = METRICS.counter("cache_hits")
        uncached_run = run_cli(
            capsys, "--flows", "24", "figure", "10", "--no-cache"
        )
        assert uncached_run == cached_run
        # No cache traffic happened during the --no-cache run...
        assert METRICS.counter("cache_hits") == before
        # ...and the global toggle was restored afterwards.
        assert runtime_cache.cache_enabled()

    def test_no_cache_parses(self):
        args = build_parser().parse_args(["table1", "--no-cache"])
        assert args.no_cache is True

    def test_metrics_report_written(self, capsys, tmp_path):
        import json

        target = tmp_path / "metrics.json"
        run_cli(
            capsys,
            "--flows",
            "24",
            "figure",
            "10",
            "--metrics",
            str(target),
        )
        payload = json.loads(target.read_text())
        assert payload["command"] == "figure"
        assert payload["wall_time_s"] > 0
        assert payload["jobs"] == 1
        assert "counters" in payload and "stages" in payload


class TestReportAndExport:
    def test_report_to_stdout(self, capsys):
        out = run_cli(capsys, "--flows", "24", "report")
        assert "# Reproduction report" in out
        assert "## Table 1" in out
        assert "## Figure 16" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        out = run_cli(capsys, "--flows", "24", "report", "--output", str(target))
        assert "wrote" in out
        assert target.exists()
        assert "## Figure 8" in target.read_text()

    def test_export_roundtrips(self, capsys, tmp_path):
        from repro.io import load_flowset

        target = tmp_path / "matrix.csv"
        out = run_cli(capsys, "--flows", "25", "export", "cdn", str(target))
        assert "25 flows" in out
        flows = load_flowset(target)
        assert len(flows) == 25
        assert flows.aggregate_gbps() == pytest.approx(96.0)


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc_class,expected", sorted(EXIT_CODES.items(), key=lambda kv: kv[1])
    )
    def test_every_repro_error_has_a_distinct_code(self, exc_class, expected):
        assert exit_code_for(exc_class("boom")) == expected
        assert expected >= 10  # clear of 1 (generic) and 2 (argparse usage)

    def test_every_error_subclass_is_mapped(self):
        import inspect

        mapped = set(EXIT_CODES)
        for obj in vars(errors).values():
            if inspect.isclass(obj) and issubclass(obj, errors.ReproError):
                assert obj in mapped, f"{obj.__name__} needs an exit code"

    def test_subclasses_inherit_via_mro(self):
        class FutureCalibrationError(errors.CalibrationError):
            pass

        assert exit_code_for(FutureCalibrationError("x")) == 12
        assert exit_code_for(RuntimeError("x")) == 1

    def test_missing_trace_file_exits_with_data_error_code(self, capsys):
        code = main(["trace", "summarize", "/nonexistent/trace.jsonl"])
        assert code == EXIT_CODES[errors.DataError] == 16
        err = capsys.readouterr().err
        assert "DataError" in err

    def test_malformed_env_exits_with_configuration_code(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "many")
        code = main(["figure", "4"])
        assert code == EXIT_CODES[errors.ConfigurationError] == 15
        assert "REPRO_JOBS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "env, argv, message",
        [
            ({}, ["ecosystem", "--ases", "2"], "ases must be >= 5, got 2"),
            (
                {"REPRO_ECOSYSTEM_ASES": "3"},
                ["ecosystem"],
                "REPRO_ECOSYSTEM_ASES: ases must be >= 5, got 3",
            ),
        ],
    )
    def test_out_of_bound_value_names_field_bound_and_source(
        self, capsys, monkeypatch, env, argv, message
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv) == EXIT_CODES[errors.ConfigurationError] == 15
        assert message in capsys.readouterr().err


class TestOfferingsAndDrift:
    def test_offerings_linear(self, capsys):
        out = run_cli(capsys, "--flows", "40", "offerings", "eu_isp")
        assert "conventional-transit" in out
        assert "profit-weighted-3-tiers" in out

    def test_offerings_destination_type(self, capsys):
        out = run_cli(
            capsys,
            "--flows",
            "40",
            "offerings",
            "cdn",
            "--cost",
            "destination-type",
        )
        assert "paid-peering" in out

    def test_drift_cycle(self, capsys, tmp_path):
        """Design on a dataset, save everything, score it via the CLI."""
        from repro.accounting import TierDesign
        from repro.core import CEDDemand, LinearDistanceCost, Market
        from repro.core.bundling import ProfitWeightedBundling
        from repro.core.flow import FlowSet
        from repro.io import save_design, save_flowset

        import numpy as np

        rng = np.random.default_rng(6)
        flows = FlowSet(
            demands_mbps=rng.lognormal(3.0, 1.0, 30),
            distances_miles=rng.lognormal(3.5, 0.8, 30),
            dsts=[f"10.2.0.{i + 1}" for i in range(30)],
        )
        market = Market(flows, CEDDemand(1.1), LinearDistanceCost(0.2), 20.0)
        outcome = market.tiered_outcome(ProfitWeightedBundling(), 3)
        design_path = save_design(
            TierDesign.from_outcome(market, outcome), tmp_path / "d.json"
        )
        matrix_path = save_flowset(flows, tmp_path / "m.csv")

        out = run_cli(
            capsys, "drift", str(design_path), str(matrix_path), "--rate", "20.0"
        )
        assert "monthly regret" in out
        assert "keep current tiers" in out  # same traffic: no drift
