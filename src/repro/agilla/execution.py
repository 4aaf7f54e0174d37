"""Shared types between the engine and the instruction handlers."""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Any

from repro.agilla.agent import Agent
from repro.agilla.isa import InstructionDef

if TYPE_CHECKING:  # pragma: no cover
    from repro.agilla.middleware import AgillaMiddleware


class Outcome(Enum):
    """What the engine should do after an instruction completes."""

    CONTINUE = "continue"  # next instruction, same slice
    HALT = "halt"  # agent died voluntarily
    YIELD = "yield"  # long-running op: context-switch now (§3.2)
    SLEEP = "sleep"  # timer armed; park until it fires
    WAIT = "wait"  # park until a reaction fires
    BLOCKED_TS = "blocked"  # in/rd missed; retry this instruction on insert
    MIGRATING = "migrating"  # handed to the agent sender
    REMOTE_WAIT = "remote"  # waiting for a remote tuple-space reply


class ExecContext:
    """Everything an instruction handler may touch.

    One is built per executed instruction, so it is a slotted class rather
    than a dataclass (cheaper to construct).
    """

    __slots__ = ("agent", "middleware", "idef", "operand", "pc_before")

    def __init__(
        self,
        agent: Agent,
        middleware: Any,  # AgillaMiddleware (typed loosely: import cycle)
        idef: InstructionDef,
        operand: bytes,
        pc_before: int,
    ):
        self.agent = agent
        self.middleware = middleware
        self.idef = idef
        self.operand = operand
        self.pc_before = pc_before

    @property
    def mote(self):
        return self.middleware.mote

    @property
    def params(self):
        return self.middleware.params

    @property
    def rng(self):
        return self.middleware.rng


#: Handler result: what next, plus runtime-dependent extra cycles.
HandlerResult = tuple[Outcome, int]
