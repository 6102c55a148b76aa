"""The NetFlow -> quote chain runs without scipy or networkx.

Only the paper's calibration and figure code needs them (curve fits,
the logit's log-sum-exp and Wright omega, Brent's method in the
synthetic calibration, PoP graphs), and importing scipy costs more
start-up time and memory than the rest of :mod:`repro`.  A fresh
interpreter imports the serving packages, streams seeded v5 packets
through ``StreamingPipeline`` (posted tiers, then ``hybrid``) into a
1-shard fleet and quotes through the front door, with every import of
either module refused.  The shard forks from that interpreter, so a
first-use import on its serving path fails its quotes too.  The
packages' self-tests (``repro.*.selftest``) load only when they run,
so none of them is loaded either.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CHAIN = r'''
import sys

BANNED = ("scipy", "networkx")
refused = []


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BANNED:
            refused.append(name)
            raise ImportError(f"{name} imported by the quote chain")
        return None


sys.meta_path.insert(0, Refuse())

import asyncio
import json

import numpy as np

import repro, repro.cli, repro.ecosystem, repro.fleet, repro.mechanisms
import repro.netflow, repro.serve, repro.stream
from repro.config import FleetConfig, StreamConfig
from repro.core.ced import CEDDemand
from repro.core.cost import LinearDistanceCost
from repro.fleet import FleetClient, FrontDoor, ShardFleet
from repro.mechanisms import mechanism_by_name
from repro.netflow.codec import EngineMap, encode_packets
from repro.netflow.records import FlowKey, NetFlowRecord
from repro.stream import StreamingPipeline, V5PacketSource

rng = np.random.default_rng(22)
dsts = [f"10.0.{i // 250}.{1 + i % 250}" for i in range(60)]
distances = {d: float(m) for d, m in zip(dsts, rng.lognormal(6.0, 1.0, 60))}
mbps = rng.lognormal(1.0, 1.0, len(dsts))
records = [
    NetFlowRecord(
        key=FlowKey(
            src_addr="192.0.2.1", dst_addr=d, src_port=1024 + i,
            dst_port=443, protocol=6,
        ),
        octets=max(1, int(rate * 7.5e6 * rng.lognormal(0.0, 0.1))),
        packets=1,
        first_ms=t - 59_999,
        last_ms=t,
        router="R1",
    )
    for t in range(60_000, 3_600_000, 60_000)
    for i, (d, rate) in enumerate(zip(dsts, mbps))
]
engines = EngineMap(["R1"])
packets = encode_packets(records, engines)
config = StreamConfig(window_ms=600_000)
cost_model = LinearDistanceCost(0.2)
windows = []
with ShardFleet(
    cost_model, FleetConfig(shards=1), fallback_blended_rate=config.blended_rate
) as fleet:
    for mechanism in (None, mechanism_by_name("hybrid", n_tiers=config.n_tiers)):
        pipeline = StreamingPipeline(
            V5PacketSource(packets, engines),
            distance_fn=lambda key: distances[key.dst_addr],
            demand_model=CEDDemand(1.1),
            cost_model=cost_model,
            config=config,
            mechanism=mechanism,
        )
        pipeline.repricer.subscribe(fleet.subscriber(pipeline.config_digest))
        report = pipeline.run()
        windows.append([r.status for r in report.results].count("priced"))

    async def quote():
        async with FrontDoor(fleet) as door:
            async with await FleetClient.connect(door.host, door.port) as client:
                return await client.quote_batch([{"dst": d} for d in dsts])

    answers = asyncio.run(quote())
print(json.dumps({
    "refused": refused,
    "loaded": sorted(m for m in sys.modules if m.partition(".")[0] in BANNED),
    "selftests": sorted(m for m in sys.modules if m.endswith(".selftest")),
    "windows": windows,
    "answered": len(answers),
    "priced": sum(1 for a in answers if "unit_price" in a and not a["degraded"]),
    "version": fleet.version,
}))
'''


def test_quote_chain_loads_neither_scipy_nor_networkx():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", CHAIN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["refused"] == [] and report["loaded"] == [], report
    assert report["selftests"] == [], report
    assert report["windows"] == [6, 6], report
    assert report["answered"] == report["priced"] == 60, report
    assert report["version"] >= 2, report
