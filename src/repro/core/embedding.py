"""State embedding of a SASS schedule (§3.4, Figure 4 of the paper).

Every instruction becomes one row of the state matrix.  Fields are embedded
individually and concatenated:

* the six wait-barrier bits, the read barrier, the write barrier, the yield
  flag and the stall count from the control code (``-1`` when absent);
* the opcode channel, which only distinguishes memory instructions (their
  index among the actionable memory instructions) from non-memory ones (-1);
* the operand channels: each operand's index in the memory/operand table
  normalized by the table size, padded with ``-1`` up to the maximum operand
  count found in the file.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.memory_table import EmbeddingTables, build_embedding_tables
from repro.sass.control import NUM_BARRIERS
from repro.sass.instruction import Instruction
from repro.sass.kernel import SassKernel


class StateEmbedder:
    """Embeds a kernel's instructions into a fixed-width float matrix.

    The embedder is built once per assembly game from the initial kernel so
    the feature width (operand-table size, maximum operand count) stays fixed
    while the schedule mutates.

    A row depends only on its (immutable) instruction and memory rank, and
    the game only permutes the seed's instruction objects, so :meth:`embed`
    reuses rows keyed by ``(instruction identity, memory rank)``: a swap
    re-embeds nothing, and each instruction holds at most one row per memory
    rank it has occupied.  Each entry keeps its instruction alive, so an
    identity key is never reused by another object.
    """

    def __init__(self, kernel: SassKernel, tables: EmbeddingTables | None = None):
        self.tables = tables or build_embedding_tables(kernel)
        self.num_instructions = len(kernel.instructions)
        # 6 wait bits + read + write + yield + stall + opcode channel + operands
        self.num_features = NUM_BARRIERS + 5 + self.tables.max_operands
        self._rows: dict[tuple[int, int | None], tuple[Instruction, np.ndarray]] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_instructions, self.num_features)

    def embed_instruction(self, instr: Instruction, memory_rank: int | None) -> np.ndarray:
        row = np.full(self.num_features, -1.0, dtype=np.float64)
        control = instr.control
        for slot in range(NUM_BARRIERS):
            row[slot] = 1.0 if slot in control.wait_mask else -1.0
        row[NUM_BARRIERS] = control.read_barrier if control.read_barrier is not None else -1.0
        row[NUM_BARRIERS + 1] = control.write_barrier if control.write_barrier is not None else -1.0
        row[NUM_BARRIERS + 2] = 1.0 if control.yield_flag else -1.0
        row[NUM_BARRIERS + 3] = control.stall / 15.0
        row[NUM_BARRIERS + 4] = float(memory_rank) if memory_rank is not None else -1.0
        base = NUM_BARRIERS + 5
        for i, operand in enumerate(instr.operands[: self.tables.max_operands]):
            row[base + i] = self.tables.normalized_index(operand)
        return row

    def embed(self, kernel: SassKernel) -> np.ndarray:
        """The full state matrix: one row per instruction in listing order."""
        rows = []
        memory_rank = 0
        for line in kernel.lines:
            if not isinstance(line, Instruction):
                continue
            rank = None
            if line.is_actionable_memory:
                rank = memory_rank
                memory_rank += 1
            entry = self._rows.get((id(line), rank))
            if entry is None:
                entry = (line, self.embed_instruction(line, rank))
                self._rows[(id(line), rank)] = entry
            rows.append(entry[1])
        matrix = np.asarray(rows, dtype=np.float64)
        if matrix.shape[0] != self.num_instructions:
            # The game only reorders, so the instruction count is invariant;
            # guard against accidental insertion/removal.
            raise ValueError(
                f"instruction count changed: {matrix.shape[0]} != {self.num_instructions}"
            )
        return matrix
