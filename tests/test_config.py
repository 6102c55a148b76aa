"""Tests for the unified configuration API: the explicit > CLI > env >
default precedence chain, env parsing, validation, and the field specs
that declare each setting's flag, variable and bound once."""

import argparse
import collections
import dataclasses
import os
import pathlib

import pytest

from repro.config import (
    EcosystemConfig,
    ExecutorConfig,
    FleetConfig,
    MechanismConfig,
    ObsConfig,
    RuntimeConfig,
    StreamConfig,
    add_flags,
)
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.errors import ConfigurationError

CONFIG_CLASSES = (
    RuntimeConfig,
    ExecutorConfig,
    StreamConfig,
    FleetConfig,
    EcosystemConfig,
    MechanismConfig,
    ObsConfig,
)

RUNTIME_DOC = pathlib.Path(__file__).parent.parent / "docs" / "runtime.md"
TABLE_HEADER = "| field | flag | environment | default |"


def namespace(**attrs):
    return argparse.Namespace(**attrs)


def spec_table_rows():
    """One docs row per config field with a flag or an env variable."""

    def code(text):
        return f"`{text}`" if text else "—"

    return [
        f"| `{cls.__name__}.{f.name}` | {code(f.metadata['flag'])} | "
        f"{code(f.metadata['env'])} | `{f.default}` |"
        for cls in CONFIG_CLASSES
        for f in dataclasses.fields(cls)
        if f.metadata["flag"] or f.metadata["env"]
    ]


def flag_sample(f):
    """``(argv, expected field value)`` for a valid, non-default flag use."""
    spec = f.metadata
    if spec["type"] is bool:
        return [spec["flag"]], not f.default
    if spec["choices"]:
        value = next(c for c in spec["choices"] if c != f.default)
    elif spec["type"] is str:
        value = "sample.out"
    else:
        value = spec["type"]((f.default or 0) + 1)
    return [spec["flag"], str(value)], value


class TestPrecedenceChain:
    def test_default_when_nothing_given(self):
        assert ExecutorConfig.resolve().jobs is None
        assert FleetConfig.resolve().shards == 2

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert ExecutorConfig.resolve().jobs == 6

    def test_cli_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        cfg = ExecutorConfig.resolve(cli=namespace(jobs=3))
        assert cfg.jobs == 3

    def test_explicit_beats_cli_and_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        cfg = ExecutorConfig.resolve(cli=namespace(jobs=3), jobs=1)
        assert cfg.jobs == 1

    def test_none_explicit_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert ExecutorConfig.resolve(jobs=None).jobs == 6

    def test_none_cli_attribute_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_SHARDS", "5")
        cfg = FleetConfig.resolve(cli=namespace(shards=None))
        assert cfg.shards == 5

    def test_empty_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert ExecutorConfig.resolve().jobs is None

    def test_unknown_explicit_kwarg_rejected(self):
        with pytest.raises(ConfigurationError, match="threads"):
            RuntimeConfig.resolve(threads=4)


class TestEnvParsing:
    def test_garbage_jobs_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS.*'auto'"):
            ExecutorConfig.resolve()

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
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeConfig().cache = False


class TestExecutorConfig:
    def test_worker_count_rules(self):
        assert ExecutorConfig().worker_count() == 1
        assert ExecutorConfig(jobs=3).worker_count() == 3
        assert ExecutorConfig(jobs=0).worker_count() == (os.cpu_count() or 1)
        assert ExecutorConfig(jobs=-1).worker_count() == (os.cpu_count() or 1)


class TestStreamConfig:
    def test_importable_from_both_paths(self):
        from repro.stream import StreamConfig as via_stream
        from repro.stream.pipeline import StreamConfig as via_pipeline

        assert via_stream is StreamConfig
        assert via_pipeline is StreamConfig

    def test_digest_is_pinned(self):
        """Checkpoints written by earlier builds must keep resuming."""
        from repro.mechanisms import tag_config_digest

        digest = StreamConfig().digest(
            CEDDemand(alpha=1.1), LinearDistanceCost(theta=0.2)
        )
        assert digest == (
            "7c09d2c41137eec510d40747e1f84d04f3e1af69f0fd6014a06d75344c1349fe"
        )
        assert tag_config_digest(digest, "posted-tiers") == digest
        assert tag_config_digest(digest, "hybrid") == (
            digest + "|mechanism=hybrid"
        )

    def test_digest_tracks_settings_and_models(self):
        demand, cost = CEDDemand(alpha=1.1), LinearDistanceCost(theta=0.2)
        base = StreamConfig().digest(demand, cost)
        assert base == StreamConfig().digest(demand, cost)
        assert base != StreamConfig(window_ms=1).digest(demand, cost)
        assert base != StreamConfig().digest(CEDDemand(alpha=1.3), cost)



class TestFieldSpecs:
    """Each setting is declared once, by its ``cfg_field``."""

    def test_each_env_variable_has_one_field(self):
        owners = collections.defaultdict(list)
        for cls in CONFIG_CLASSES:
            for f in dataclasses.fields(cls):
                if f.metadata["env"]:
                    owners[f.metadata["env"]].append(f"{cls.__name__}.{f.name}")
        shared = {env: names for env, names in owners.items() if len(names) > 1}
        assert not shared
        assert all(env.startswith("REPRO_") for env in owners)

    @pytest.mark.parametrize(
        "cls", CONFIG_CLASSES, ids=[c.__name__ for c in CONFIG_CLASSES]
    )
    def test_flags_default_to_none_and_land_on_their_field(self, cls):
        parser = argparse.ArgumentParser()
        add_flags(parser, cls)
        flagged = [f for f in dataclasses.fields(cls) if f.metadata["flag"]]
        declared = [a for a in parser._actions if a.dest != "help"]
        assert [a.option_strings for a in declared] == [
            [f.metadata["flag"]] for f in flagged
        ]
        assert all(a.default is None for a in declared)
        for f in flagged:
            argv, expected = flag_sample(f)
            config = cls.resolve(cli=parser.parse_args(argv))
            assert getattr(config, f.name) == expected, f.name

    def test_runtime_doc_table_matches_the_specs(self):
        lines = RUNTIME_DOC.read_text().splitlines()
        start = lines.index(TABLE_HEADER) + 2
        end = next(
            (i for i in range(start, len(lines)) if not lines[i].startswith("|")),
            len(lines),
        )
        assert lines[start:end] == spec_table_rows()


class TestBounds:
    def test_env_violation_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_QUEUE_DEPTH", "0")
        with pytest.raises(ConfigurationError) as info:
            FleetConfig.resolve()
        assert str(info.value) == (
            "REPRO_FLEET_QUEUE_DEPTH: queue_depth must be >= 1, got 0"
        )

    def test_explicit_violation_names_the_field(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_QUEUE_DEPTH", "0")
        assert FleetConfig.resolve(queue_depth=8).queue_depth == 8
        with pytest.raises(ConfigurationError) as info:
            FleetConfig(port=70_000)
        assert str(info.value) == "port must be in [0, 65535], got 70000"

    def test_choices_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MECHANISM", "sealed-bid")
        with pytest.raises(
            ConfigurationError, match="REPRO_MECHANISM: mechanism must be one of"
        ):
            MechanismConfig.resolve()

    def test_none_default_skips_its_bound(self):
        assert MechanismConfig(exchange_radius_miles=None).exchange_radius_miles is None
        with pytest.raises(ConfigurationError, match="positive"):
            MechanismConfig(exchange_radius_miles=-1.0)

    def test_whitespace_no_cache_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", " ")
        assert RuntimeConfig.resolve().cache is True
