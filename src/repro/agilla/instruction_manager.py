"""The instruction manager: dynamic code memory in 22-byte blocks.

Paper §3.2: TinyOS has no dynamic allocation, so Agilla implements its own.
"When an agent arrives, it specifies the amount of instruction memory it
requires, and the instruction manager allocates the minimum number of 22 byte
blocks necessary ... By default, the instruction manager is allocated 440
bytes (20 blocks) ... an agent can have up to 440 instructions."

Blocks are chained with forward pointers; fetching across a block boundary
costs an extra pointer chase, which is part of the instruction's decoded
issue cycles.

A fetch returns the instruction already decoded.  The decoded form belongs
to the program, not to the mote: :class:`ProgramTables`, owned by the
network, holds one lazily filled ``pc -> Decoded`` table per code image, so
every mote running one program decodes each of its instructions once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.agilla.execution import ExecContext, HandlerResult
from repro.agilla.isa import BY_OPCODE, NOW_PURE_OPCODES, InstructionDef
from repro.agilla.vm_ops import HANDLERS
from repro.errors import AgentError, CodeMemoryError
from repro.mote.memory import MemoryLedger

DEFAULT_BLOCK_BYTES = 22
DEFAULT_NUM_BLOCKS = 20
#: Extra cycles when a fetch crosses a 22-byte code-block boundary
#: (forward-pointer chase in the instruction manager).
BLOCK_CROSS_CYCLES = 60


class Decoded(NamedTuple):
    """One instruction of one program image, decoded at one PC."""

    idef: InstructionDef
    operand: bytes
    length: int
    #: Issue cycles: the ISA class cost, plus :data:`BLOCK_CROSS_CYCLES`
    #: when the instruction spans a code-block boundary.
    cycles: int
    handler: Callable[[ExecContext], HandlerResult]
    #: The opcode is in :data:`~repro.agilla.isa.NOW_PURE_OPCODES`.
    now_pure: bool


class ProgramTables:
    """The decoded-instruction tables of one network, one per code image.

    Tables fill lazily, one PC at a time, and only with successful decodes:
    a fetch that traps raises afresh each time, because its message names
    the faulting agent.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[bytes, int], dict[int, Decoded]] = {}

    def table(self, code: bytes, block_bytes: int) -> dict[int, Decoded]:
        """The shared table of ``code`` stored in ``block_bytes`` blocks (the
        block size decides which fetches pay the block-crossing charge)."""
        return self._tables.setdefault((code, block_bytes), {})


@dataclass
class _CodeImage:
    blocks: list[int]
    code: bytes
    decoded: dict[int, Decoded]


class InstructionManager:
    """Block-granular code storage for resident agents."""

    def __init__(
        self,
        memory: MemoryLedger | None = None,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
        num_blocks: int = DEFAULT_NUM_BLOCKS,
        programs: ProgramTables | None = None,
    ):
        self.block_bytes = block_bytes
        self.num_blocks = num_blocks
        self._programs = programs if programs is not None else ProgramTables()
        self._free: list[int] = list(range(num_blocks))
        self._images: dict[int, _CodeImage] = {}
        if memory is not None:
            memory.allocate(
                "InstructionManager", "code blocks", block_bytes * num_blocks
            )
            memory.allocate("InstructionManager", "block table", num_blocks)
        # Statistics.
        self.allocations = 0
        self.allocation_failures = 0

    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def capacity_bytes(self) -> int:
        return self.block_bytes * self.num_blocks

    def blocks_needed(self, code_size: int) -> int:
        """Minimum number of blocks for a program of ``code_size`` bytes."""
        return max(1, -(-code_size // self.block_bytes))

    def can_fit(self, code_size: int) -> bool:
        return (
            code_size <= self.capacity_bytes
            and self.blocks_needed(code_size) <= self.free_blocks
        )

    # ------------------------------------------------------------------
    def allocate(self, agent_id: int, code: bytes) -> None:
        """Store an agent's code, claiming the minimum number of blocks."""
        if agent_id in self._images:
            raise CodeMemoryError(f"agent {agent_id} already holds code memory")
        if not code:
            raise CodeMemoryError("empty code image")
        needed = self.blocks_needed(len(code))
        if needed > len(self._free):
            self.allocation_failures += 1
            raise CodeMemoryError(
                f"need {needed} code blocks for {len(code)} B, "
                f"only {len(self._free)} free"
            )
        blocks = [self._free.pop(0) for _ in range(needed)]
        code = bytes(code)
        self._images[agent_id] = _CodeImage(
            blocks, code, self._programs.table(code, self.block_bytes)
        )
        self.allocations += 1

    def free(self, agent_id: int) -> None:
        """Release an agent's blocks (departure or death)."""
        image = self._images.pop(agent_id, None)
        if image is not None:
            self._free.extend(image.blocks)
            self._free.sort()

    def holds(self, agent_id: int) -> bool:
        return agent_id in self._images

    # ------------------------------------------------------------------
    def code_size(self, agent_id: int) -> int:
        return len(self._image(agent_id).code)

    def code_of(self, agent_id: int) -> bytes:
        """The full code image (used when packaging a migration)."""
        return self._image(agent_id).code

    def fetch(self, agent_id: int, pc: int) -> Decoded:
        """The instruction at ``pc``; a fetch outside the image or of an
        invalid opcode is a trap."""
        image = self._image(agent_id)
        decoded = image.decoded.get(pc)
        if decoded is None:
            decoded = image.decoded[pc] = self._decode(agent_id, image.code, pc)
        return decoded

    def _decode(self, agent_id: int, code: bytes, pc: int) -> Decoded:
        size = len(code)
        if pc < 0 or pc >= size:
            raise AgentError(
                f"agent {agent_id}: code fetch [{pc}:{pc + 1}] "
                f"outside image of {size} B"
            )
        idef = BY_OPCODE.get(code[pc])
        if idef is None:
            raise AgentError(f"agent {agent_id}: invalid opcode 0x{code[pc]:02x}")
        length = idef.length
        if pc + length > size:
            raise AgentError(
                f"agent {agent_id}: code fetch [{pc}:{pc + length}] "
                f"outside image of {size} B"
            )
        cycles = idef.base_cycles
        if pc // self.block_bytes != (pc + length - 1) // self.block_bytes:
            cycles += BLOCK_CROSS_CYCLES
        return Decoded(
            idef,
            code[pc + 1 : pc + length],
            length,
            cycles,
            HANDLERS[idef.name],
            idef.opcode in NOW_PURE_OPCODES,
        )

    def _image(self, agent_id: int) -> _CodeImage:
        image = self._images.get(agent_id)
        if image is None:
            raise CodeMemoryError(f"agent {agent_id} holds no code memory")
        return image
