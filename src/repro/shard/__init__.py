"""Sharded field runtime: conservative-lookahead multiprocess simulation.

Partitions a deployment into spatial regions, runs one full simulator stack
(:class:`~repro.sim.kernel.Simulator` + :class:`~repro.radio.channel.Channel`)
per region, and keeps the seams honest by mirroring boundary motes read-only
into adjacent shards and replaying their frames from serialized transmission
envelopes.  See ``README.md`` ("Sharded runs") for the determinism contract
and the lookahead model.
"""

from repro.shard.envelope import Round, TxEnvelope
from repro.shard.partition import Partition, Region, RegionTopology, partition_topology
from repro.shard.runner import ShardedRunner

__all__ = [
    "Partition",
    "Region",
    "RegionTopology",
    "Round",
    "ShardedRunner",
    "TxEnvelope",
    "partition_topology",
]
