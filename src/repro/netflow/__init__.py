"""NetFlow substrate: export records and record batches, sampling,
collection, aggregation, and the binary v5 wire codec."""

from repro.netflow.aggregation import aggregate_to_flowset
from repro.netflow.codec import (
    EngineMap,
    MAX_ENGINES,
    MAX_RECORDS_PER_PACKET,
    decode_packet,
    decode_packets,
    encode_packet,
    encode_packets,
)
from repro.netflow.collector import FlowCollector
from repro.netflow.records import (
    FlowKey,
    NetFlowRecord,
    PROTO_TCP,
    PROTO_UDP,
    RecordBatch,
)
from repro.netflow.sampling import PacketSampler, SampledCounters
from repro.netflow.v9 import V9Decoder, V9Encoder

__all__ = [
    "EngineMap",
    "FlowCollector",
    "FlowKey",
    "MAX_ENGINES",
    "MAX_RECORDS_PER_PACKET",
    "NetFlowRecord",
    "PROTO_TCP",
    "PROTO_UDP",
    "PacketSampler",
    "RecordBatch",
    "SampledCounters",
    "V9Decoder",
    "V9Encoder",
    "aggregate_to_flowset",
    "decode_packet",
    "decode_packets",
    "encode_packet",
    "encode_packets",
]
