"""Shared test helpers: small networks and agent-running shortcuts."""

from __future__ import annotations

from repro.agilla.agent import Agent, AgentState
from repro.agilla.assembler import assemble
from repro.network import SensorNetwork
from repro.radio.linkmodels import PerfectLinks
from repro.topology import GridTopology


def single_node(seed: int = 0, **kwargs) -> SensorNetwork:
    """A lone mote at (1,1) with perfect radio silence around it."""
    kwargs.setdefault("link_model", PerfectLinks())
    kwargs.setdefault("beacons", False)
    return SensorNetwork(GridTopology(1, 1), seed=seed, base_station=False, **kwargs)


def corridor(length: int = 3, seed: int = 0, lossless: bool = True, **kwargs) -> SensorNetwork:
    """A 1-row corridor of `length` motes plus the base station at (0,0)."""
    if lossless:
        kwargs.setdefault("link_model", PerfectLinks())
    kwargs.setdefault("beacons", False)
    return SensorNetwork(GridTopology(length, 1), seed=seed, **kwargs)


def grid(seed: int = 0, lossless: bool = True, **kwargs) -> SensorNetwork:
    """The paper's 5x5 testbed (lossless by default for deterministic tests)."""
    if lossless:
        kwargs.setdefault("link_model", PerfectLinks())
    return SensorNetwork(GridTopology(5, 5), seed=seed, **kwargs)


def run_agent(
    net: SensorNetwork,
    source: str,
    at=(1, 1),
    name: str = "test",
    timeout_s: float = 10.0,
) -> Agent:
    """Inject an agent and run until it parks (dead/waiting/etc.)."""
    agent = net.inject(assemble(source, name=name), at=at)
    settled = (
        AgentState.DEAD,
        AgentState.WAIT_RXN,
        AgentState.BLOCKED_TS,
        AgentState.SLEEPING,
    )
    net.run_until(lambda: agent.state in settled, timeout_s)
    return agent


def run_to_death(net: SensorNetwork, agent: Agent, timeout_s: float = 10.0) -> bool:
    return net.run_until(lambda: agent.state == AgentState.DEAD, timeout_s)
