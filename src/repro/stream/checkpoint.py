"""Checkpoint/restore for the streaming pipeline.

A checkpoint is one JSON document capturing everything the pipeline needs
to resume exactly where it stopped: the source cursor (records consumed),
the windower's buffered records and emission cursor, queued-but-unwindowed
records, the tier design in force, every window result so far, and the
backpressure counters.  All values are integers or ``repr``-round-tripping
floats, so a killed-and-restored run replays the remaining stream to
*bit-identical* window results — the end-to-end determinism test asserts
this.

Checkpoints embed a digest of the pipeline configuration; restoring under
a different window size, slide, threshold, or market model raises
:class:`~repro.errors.ConfigurationError` instead of silently mixing
incompatible state.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Optional, Union

from repro.accounting.tier_designer import TierDesign
from repro.errors import ConfigurationError, DataError
from repro.io import design_from_json, design_to_json
from repro.netflow.records import FlowKey, NetFlowRecord
from repro.stream.repricer import WindowResult

#: Schema version written into checkpoint files.
CHECKPOINT_FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]


@dataclasses.dataclass
class PipelineCheckpoint:
    """A resumable snapshot of a :class:`~repro.stream.pipeline.StreamingPipeline`."""

    config_digest: str
    records_consumed: int
    windower_state: dict
    queued_records: "list[NetFlowRecord]"
    queue_counters: dict
    design: "Optional[TierDesign]"
    results: "list[WindowResult]"


def record_to_dict(record: NetFlowRecord) -> dict:
    key = record.key
    return {
        "src": key.src_addr,
        "dst": key.dst_addr,
        "sport": key.src_port,
        "dport": key.dst_port,
        "proto": key.protocol,
        "octets": record.octets,
        "packets": record.packets,
        "first_ms": record.first_ms,
        "last_ms": record.last_ms,
        "router": record.router,
        "input_if": record.input_if,
        "output_if": record.output_if,
        "interval": record.sampling_interval,
    }


def record_from_dict(payload: dict) -> NetFlowRecord:
    try:
        return NetFlowRecord(
            key=FlowKey(
                src_addr=str(payload["src"]),
                dst_addr=str(payload["dst"]),
                src_port=int(payload["sport"]),
                dst_port=int(payload["dport"]),
                protocol=int(payload["proto"]),
            ),
            octets=int(payload["octets"]),
            packets=int(payload["packets"]),
            first_ms=int(payload["first_ms"]),
            last_ms=int(payload["last_ms"]),
            router=str(payload["router"]),
            input_if=int(payload["input_if"]),
            output_if=int(payload["output_if"]),
            sampling_interval=int(payload["interval"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint record is corrupt: {exc!r}") from exc


def checkpoint_to_json(checkpoint: PipelineCheckpoint) -> str:
    windower = dict(checkpoint.windower_state)
    windower["pending"] = [record_to_dict(r) for r in windower["pending"]]
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config_digest": checkpoint.config_digest,
        "records_consumed": checkpoint.records_consumed,
        "windower": windower,
        "queue": {
            "records": [record_to_dict(r) for r in checkpoint.queued_records],
            **checkpoint.queue_counters,
        },
        "design": (
            None
            if checkpoint.design is None
            else json.loads(design_to_json(checkpoint.design))
        ),
        "results": [dataclasses.asdict(r) for r in checkpoint.results],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def checkpoint_from_json(text: str, expected_digest: str) -> PipelineCheckpoint:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed checkpoint JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("checkpoint JSON must be an object")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"unsupported checkpoint format_version {version!r} "
            f"(this build reads {CHECKPOINT_FORMAT_VERSION})"
        )
    digest = payload.get("config_digest")
    if digest != expected_digest:
        raise ConfigurationError(
            "checkpoint was written under a different pipeline "
            f"configuration (digest {digest!r} != {expected_digest!r}); "
            "refusing to resume with mixed state"
        )
    try:
        windower = dict(payload["windower"])
        _check_cursor(windower)
        windower["pending"] = [
            record_from_dict(r) for r in windower["pending"]
        ]
        queue = dict(payload["queue"])
        queued = [record_from_dict(r) for r in queue.pop("records")]
        design_payload = payload["design"]
        design = (
            None
            if design_payload is None
            else design_from_json(json.dumps(design_payload))
        )
        results = [WindowResult(**r) for r in payload["results"]]
        consumed = int(payload["records_consumed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint JSON is missing or corrupt: {exc!r}") from exc
    return PipelineCheckpoint(
        config_digest=digest,
        records_consumed=consumed,
        windower_state=windower,
        queued_records=queued,
        queue_counters=queue,
        design=design,
        results=results,
    )


def _check_cursor(windower: dict) -> None:
    """The windower's cursor must be integers (``next_start`` may be null
    before the first record)."""
    for name in ("next_start", "max_ts", "late_dropped"):
        value = windower[name]
        if type(value) is not int and not (name == "next_start" and value is None):
            raise DataError(
                f"checkpoint windower {name} must be an integer, got {value!r}"
            )


def save_checkpoint(
    checkpoint: PipelineCheckpoint, path: PathLike
) -> pathlib.Path:
    """Write atomically (write-then-rename) so a kill mid-write never
    leaves a torn checkpoint behind."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(checkpoint_to_json(checkpoint))
    tmp.replace(path)
    return path


def load_checkpoint(path: PathLike, expected_digest: str) -> PipelineCheckpoint:
    path = pathlib.Path(path)
    if not path.exists():
        raise DataError(f"no such checkpoint file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"checkpoint {path} is not UTF-8: {exc}") from exc
    return checkpoint_from_json(text, expected_digest)
