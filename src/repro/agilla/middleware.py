"""The assembled Agilla middleware for one node (paper Figure 4).

Wires the engine, agent/context/instruction/tuple-space managers, the agent
sender/receiver and the remote tuple-space operation manager over one mote's
TinyOS substrate and network stack.  Construction mirrors a TinyOS build:
every component registers its static RAM with the mote's 4 KB ledger and its
code footprint with the flash ledger, reproducing the paper's 41.6 KB code /
3.59 KB data figure.
"""

from __future__ import annotations

from repro.agilla.agent import Agent
from repro.agilla.assembler import Program
from repro.agilla.engine import AgillaEngine
from repro.agilla.instruction_manager import InstructionManager, ProgramTables
from repro.agilla.managers import AgentManager, ContextManager, TupleSpaceManager
from repro.agilla.migration import MigrationService
from repro.agilla.params import DEFAULT_PARAMS, FLASH_FOOTPRINTS, AgillaParams
from repro.agilla.remote_ops import RemoteTSOpManager
from repro.agilla.tuples import AgillaTuple
from repro.mote.mote import Mote
from repro.net.beacons import BeaconService
from repro.net.georouting import GeoMessaging
from repro.net.stack import NetworkStack

#: Static RAM claimed by the TinyOS base system (scheduler, radio driver
#: globals, C stacks) — the remainder of the paper's 3.59 KB data figure
#: after the itemized middleware components.
TINYOS_BASE_RAM = 728


class AgillaMiddleware:
    """One node's complete Agilla stack."""

    def __init__(
        self,
        mote: Mote,
        stack: NetworkStack,
        beacons: BeaconService,
        geo: GeoMessaging,
        params: AgillaParams | None = None,
        adaptive: bool = False,
        *,
        programs: ProgramTables,
    ):
        self.mote = mote
        self.stack = stack
        self.beacons = beacons
        self.geo = geo
        self.params = params if params is not None else DEFAULT_PARAMS
        #: Adaptive deployments surface neighborhood churn as context tuples
        #: (and therefore reactions) — see ContextManager.watch_neighborhood.
        self.adaptive = adaptive
        self.rng = mote.sim.rng(f"agilla/{mote.id}")

        mote.memory.allocate("TinyOS", "globals + stacks", TINYOS_BASE_RAM)
        self.instruction_manager = InstructionManager(
            mote.memory,
            block_bytes=self.params.code_block_bytes,
            num_blocks=self.params.code_blocks,
            programs=programs,
        )
        self.tuplespace_manager = TupleSpaceManager(self)
        self.agent_manager = AgentManager(self)
        self.engine = AgillaEngine(self)
        self.context_manager = ContextManager(self)
        self.migration = MigrationService(self)
        self.remote_ops = RemoteTSOpManager(self)
        for component, nbytes in FLASH_FOOTPRINTS.items():
            mote.memory.record_code(component, nbytes)
        self._booted = False

    # ------------------------------------------------------------------
    @property
    def acquaintances(self):
        """One-hop neighbor table maintained by the context manager."""
        return self.beacons.acquaintances

    @property
    def router(self):
        """Greedy geographic router over the acquaintance list."""
        return self.geo.router

    @property
    def location(self):
        return self.mote.location

    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Insert context tuples and open for business (idempotent)."""
        if self._booted:
            return
        self._booted = True
        self.context_manager.boot()
        if self.adaptive:
            # Subscribed at boot — after the deployment primed the list — so
            # the warm-start neighbors raise no churn events.
            self.context_manager.watch_neighborhood()

    def inject(self, program: Program, make_ready: bool = True) -> Agent:
        """Install an agent locally (the base station's injection path)."""
        agent = Agent(self.agent_manager.mint_id(), name=program.name)
        self.agent_manager.install(agent, program.code, make_ready=make_ready)
        return agent

    # ------------------------------------------------------------------
    # Introspection used by tests, examples, and benchmarks
    # ------------------------------------------------------------------
    def agents(self) -> list[Agent]:
        """Resident agents, ordered by id."""
        return self.agent_manager.resident()

    def tuples(self) -> list[AgillaTuple]:
        """Snapshot of the local tuple space."""
        return self.tuplespace_manager.space.tuples()

    def memory_report(self) -> str:
        """The mote's RAM/flash ledger (the paper's memory-footprint data)."""
        return self.mote.memory.report()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AgillaMiddleware mote={self.mote.id} @{self.mote.location} "
            f"agents={len(self.agent_manager.agents)}>"
        )
