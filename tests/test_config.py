"""Tests for the unified configuration API: the explicit > CLI > env >
default precedence chain, env parsing, and validation."""

import argparse
import dataclasses
import os

import pytest

from repro.config import (
    FleetConfig,
    ObsConfig,
    RuntimeConfig,
    StreamConfig,
)
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.errors import ConfigurationError


def namespace(**attrs):
    return argparse.Namespace(**attrs)


class TestPrecedenceChain:
    def test_default_when_nothing_given(self):
        assert RuntimeConfig.resolve().jobs is None
        assert FleetConfig.resolve().shards == 2

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert RuntimeConfig.resolve().jobs == 6

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        cfg = RuntimeConfig.resolve(cli=namespace(jobs=3))
        assert cfg.jobs == 3

    def test_explicit_beats_cli_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        cfg = RuntimeConfig.resolve(cli=namespace(jobs=3), jobs=1)
        assert cfg.jobs == 1

    def test_none_explicit_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert RuntimeConfig.resolve(jobs=None).jobs == 6

    def test_none_cli_attribute_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_SHARDS", "5")
        cfg = FleetConfig.resolve(cli=namespace(shards=None))
        assert cfg.shards == 5

    def test_empty_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert RuntimeConfig.resolve().jobs is None

    def test_unknown_explicit_kwarg_rejected(self):
        with pytest.raises(ConfigurationError, match="threads"):
            RuntimeConfig.resolve(threads=4)


class TestEnvParsing:
    def test_garbage_jobs_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS.*'auto'"):
            RuntimeConfig.resolve()

    def test_garbage_float_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_TIMEOUT_MS", "soon")
        with pytest.raises(
            ConfigurationError, match="REPRO_FLEET_TIMEOUT_MS"
        ):
            FleetConfig.resolve()

    def test_no_cache_env_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert RuntimeConfig.resolve().cache is False

    def test_no_cache_cli_flag(self):
        assert RuntimeConfig.resolve(cli=namespace(no_cache=True)).cache is False
        assert RuntimeConfig.resolve(cli=namespace(no_cache=False)).cache is True

    def test_trace_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "/tmp/t.jsonl")
        cfg = ObsConfig.resolve()
        assert cfg.trace == "/tmp/t.jsonl"
        assert cfg.enabled
        assert not ObsConfig().enabled

    def test_stream_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_WINDOW_MS", "120000")
        monkeypatch.setenv("REPRO_STREAM_DRIFT", "0.25")
        cfg = StreamConfig.resolve()
        assert cfg.window_ms == 120_000
        assert cfg.drift_threshold == 0.25


class TestRuntimeConfig:
    def test_worker_count_rules(self):
        assert RuntimeConfig().worker_count() == 1
        assert RuntimeConfig(jobs=3).worker_count() == 3
        assert RuntimeConfig(jobs=0).worker_count() == (os.cpu_count() or 1)
        assert RuntimeConfig(jobs=-1).worker_count() == (os.cpu_count() or 1)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeConfig().jobs = 4


class TestStreamConfig:
    def test_importable_from_both_paths(self):
        from repro.stream import StreamConfig as via_stream
        from repro.stream.pipeline import StreamConfig as via_pipeline

        assert via_stream is StreamConfig
        assert via_pipeline is StreamConfig

    def test_digest_tracks_settings_and_models(self):
        demand, cost = CEDDemand(alpha=1.1), LinearDistanceCost(theta=0.2)
        base = StreamConfig().digest(demand, cost)
        assert base == StreamConfig().digest(demand, cost)
        assert base != StreamConfig(window_ms=1).digest(demand, cost)
        assert base != StreamConfig().digest(CEDDemand(alpha=1.3), cost)

