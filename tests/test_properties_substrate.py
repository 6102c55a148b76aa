"""Property-based tests on the measurement/operations substrate.

Counterparts to ``test_properties.py`` (which covers the economics):
longest-prefix matching against a brute-force reference, codec roundtrip
over arbitrary records, token-bucket partition invariants, and billing
percentile monotonicity.
"""

import ipaddress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting.bgp import Community, Route, RoutingTable
from repro.accounting.billing import percentile_mbps
from repro.core.bundling import token_bucket_partition
from repro.netflow.codec import EngineMap, decode_packets, encode_packets
from repro.netflow.records import FlowKey, NetFlowRecord

addresses = st.integers(min_value=0, max_value=2**32 - 1)
prefix_lengths = st.integers(min_value=0, max_value=32)


def network_of(address: int, length: int) -> ipaddress.IPv4Network:
    return ipaddress.IPv4Network((address, length), strict=False)


class TestRoutingTableProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        routes=st.lists(
            st.tuples(addresses, prefix_lengths), min_size=1, max_size=25
        ),
        queries=st.lists(addresses, min_size=1, max_size=10),
    )
    def test_lpm_matches_bruteforce(self, routes, queries):
        rib = RoutingTable()
        table = {}
        for i, (address, length) in enumerate(routes):
            network = network_of(address, length)
            route = Route(prefix=network, next_hop=f"hop{i}")
            rib.insert(route)
            table[network] = route  # same last-wins semantics as the RIB
        for query in queries:
            query_ip = ipaddress.IPv4Address(query)
            candidates = [
                (network.prefixlen, route)
                for network, route in table.items()
                if query_ip in network
            ]
            got = rib.lookup(str(query_ip))
            if not candidates:
                assert got is None
            else:
                best_len = max(length for length, _ in candidates)
                expected = [r for length, r in candidates if length == best_len]
                assert got is not None
                assert got.prefix.prefixlen == best_len
                assert got in expected

    @settings(deadline=None, max_examples=40)
    @given(
        address=addresses,
        length=st.integers(min_value=1, max_value=32),
        tier=st.integers(min_value=1, max_value=9),
    )
    def test_tier_tag_roundtrip(self, address, length, tier):
        network = network_of(address, length)
        route = Route(prefix=network, next_hop="x").with_community(
            Community("tier", 64500, tier)
        )
        rib = RoutingTable()
        rib.insert(route)
        inside = str(network.network_address)
        assert rib.tier_for(inside, 64500) == tier


record_values = st.tuples(
    addresses,
    addresses,
    st.integers(0, 65535),
    st.integers(0, 65535),
    st.integers(0, 255),
    st.integers(1, 2**31),  # octets
    st.integers(0, 2**20),  # first_ms
    st.integers(0, 2**20),  # duration
    st.integers(0, 2),      # router index
    st.sampled_from([1, 10, 100, 1000]),
)


def build_record(values) -> NetFlowRecord:
    src, dst, sport, dport, proto, octets, first, duration, router, interval = values
    return NetFlowRecord(
        key=FlowKey(
            src_addr=str(ipaddress.IPv4Address(src)),
            dst_addr=str(ipaddress.IPv4Address(dst)),
            src_port=sport,
            dst_port=dport,
            protocol=proto,
        ),
        octets=octets,
        packets=max(1, octets // 800),
        first_ms=first,
        last_ms=first + duration,
        router=("R1", "R2", "R3")[router],
        input_if=1,
        output_if=2,
        sampling_interval=interval,
    )


class TestCodecProperties:
    @settings(deadline=None, max_examples=50)
    @given(values=st.lists(record_values, min_size=1, max_size=80))
    def test_roundtrip_is_identity_up_to_order(self, values):
        records = [build_record(v) for v in values]
        engines = EngineMap(["R1", "R2", "R3"])
        decoded = decode_packets(encode_packets(records, engines), engines).to_records()

        def key(r):
            # Total order over every encoded field, so records that differ
            # only in (say) sampling interval cannot interleave.
            return (
                r.router,
                r.sampling_interval,
                r.key.src_addr,
                r.key.dst_addr,
                r.key.src_port,
                r.key.dst_port,
                r.key.protocol,
                r.octets,
                r.packets,
                r.first_ms,
                r.last_ms,
            )

        assert sorted(decoded, key=key) == sorted(records, key=key)


class TestTokenBucketProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50
        ),
        n_bundles=st.integers(min_value=1, max_value=8),
    )
    def test_partition_exact_and_bounded(self, weights, n_bundles):
        w = np.asarray(weights)
        bundles = token_bucket_partition(w, n_bundles)
        flat = sorted(int(i) for b in bundles for i in b)
        assert flat == list(range(w.size))
        assert 1 <= len(bundles) <= n_bundles

    @settings(deadline=None, max_examples=40)
    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=1e6), min_size=3, max_size=50
        )
    )
    def test_first_bundle_holds_the_heaviest_flow(self, weights):
        w = np.asarray(weights)
        bundles = token_bucket_partition(w, 2)
        heaviest = int(np.argmax(w))
        assert heaviest in set(int(i) for i in bundles[0])


class TestBillingProperties:
    @settings(deadline=None, max_examples=60)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200
        ),
        p_low=st.floats(min_value=5.0, max_value=50.0),
        p_high=st.floats(min_value=51.0, max_value=100.0),
    )
    def test_percentile_monotone_and_bounded(self, samples, p_low, p_high):
        low = percentile_mbps(samples, p_low)
        high = percentile_mbps(samples, p_high)
        assert low <= high
        assert min(samples) <= low
        assert high <= max(samples)
        assert percentile_mbps(samples, 100.0) == max(samples)


def test_reference_sanity():
    """The brute-force LPM reference itself: /0 covers everything."""
    rib = RoutingTable()
    rib.insert(Route(prefix=ipaddress.IPv4Network("0.0.0.0/0"), next_hop="d"))
    assert rib.lookup("203.0.113.7").next_hop == "d"


@pytest.mark.parametrize("length", [0, 8, 16, 24, 32])
def test_mask_arithmetic_each_length(length):
    network = network_of(0xC0A80101, length)
    rib = RoutingTable()
    rib.insert(Route(prefix=network, next_hop=f"len{length}"))
    assert rib.lookup(str(network.network_address)).next_hop == f"len{length}"
