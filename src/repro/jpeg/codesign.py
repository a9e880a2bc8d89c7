"""Hardware/software co-design of the JPEG compressor.

The paper implements the DCT in (reconfigurable) hardware and keeps
quantisation, zig-zag and Huffman coding in software on the host.  This module
provides:

* :class:`JpegCodesign` — the split itself, with a functional model of the
  hardware side that executes the 32-task DCT task graph *partition by
  partition*, staging intermediate results through the partition memory blocks
  exactly as the RTR design would.  Its output must equal the direct numpy
  DCT, which is the correctness argument for the whole decomposition
  (tested in the integration suite).
* software-cost estimates for the host-side stages, used by the end-to-end
  co-design example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..errors import CodecError
from ..partition.result import TemporalPartitioning
from .dct import dct_matrix, forward_dct
from .taskgraph_builder import DCT_SIZE, build_dct_task_graph, expected_paper_partitioning


@dataclass
class HardwareExecutionTrace:
    """What the functional hardware model did for one block."""

    per_partition_reads: Dict[int, int] = field(default_factory=dict)
    per_partition_writes: Dict[int, int] = field(default_factory=dict)

    def total_reads(self) -> int:
        """Total words read from the (modelled) board memory."""
        return sum(self.per_partition_reads.values())

    def total_writes(self) -> int:
        """Total words written to the (modelled) board memory."""
        return sum(self.per_partition_writes.values())


class JpegCodesign:
    """The DCT-in-hardware / rest-in-software split of the case study."""

    def __init__(self, partitioning: Optional[TemporalPartitioning] = None) -> None:
        self.graph = build_dct_task_graph()
        if partitioning is None:
            assignment = expected_paper_partitioning(self.graph)
            partitioning = TemporalPartitioning(
                graph=self.graph,
                assignment=assignment,
                partition_count=max(assignment.values()),
                reconfiguration_time=0.0,
                method="paper-reference",
            )
        if set(partitioning.assignment) != set(self.graph.task_names()):
            raise CodecError(
                "the supplied partitioning does not cover the DCT task graph"
            )
        self.partitioning = partitioning
        self._coefficients = dct_matrix(DCT_SIZE)

    # ------------------------------------------------------------------
    # Functional hardware model
    # ------------------------------------------------------------------

    def execute_block(
        self, block: np.ndarray, trace: Optional[HardwareExecutionTrace] = None
    ) -> np.ndarray:
        """Run one 4x4 block through the partitioned hardware model.

        The intermediate matrix ``T`` plays the role of the board memory: a
        partition may only read values produced by earlier partitions (or the
        environment) and writes its own results, mirroring the RTR data flow.
        """
        array = np.asarray(block, dtype=np.float64)
        if array.shape != (DCT_SIZE, DCT_SIZE):
            raise CodecError(f"expected a {DCT_SIZE}x{DCT_SIZE} block, got {array.shape}")
        c = self._coefficients
        intermediate = np.full((DCT_SIZE, DCT_SIZE), np.nan)
        output = np.full((DCT_SIZE, DCT_SIZE), np.nan)

        for partition_index in range(1, self.partitioning.partition_count + 1):
            reads = 0
            writes = 0
            for task_name in self.partitioning.tasks_in_partition(partition_index):
                task = self.graph.task(task_name)
                row = task.metadata["row"]
                column = task.metadata["column"]
                if task.task_type == "T1":
                    # T[row, column] = C[row, :] . X[:, column]
                    intermediate[row, column] = float(np.dot(c[row, :], array[:, column]))
                    reads += DCT_SIZE
                    writes += 1
                elif task.task_type == "T2":
                    operands = intermediate[row, :]
                    if np.any(np.isnan(operands)):
                        raise CodecError(
                            f"task {task_name!r} reads T row {row} before it was "
                            "produced — the partitioning violates the data flow"
                        )
                    output[row, column] = float(np.dot(operands, c[column, :]))
                    reads += DCT_SIZE
                    writes += 1
                else:
                    raise CodecError(f"unexpected task type {task.task_type!r}")
            if trace is not None:
                trace.per_partition_reads[partition_index] = reads
                trace.per_partition_writes[partition_index] = writes
        if np.any(np.isnan(output)):
            raise CodecError("some output elements were never computed")
        return output

    def reference_block(self, block: np.ndarray) -> np.ndarray:
        """The direct (numpy) DCT of the same block, for comparison."""
        return forward_dct(np.asarray(block, dtype=np.float64), DCT_SIZE)

    def max_error_against_reference(self, blocks: np.ndarray) -> float:
        """Largest absolute difference between the hardware model and numpy."""
        worst = 0.0
        for block in np.asarray(blocks):
            difference = np.abs(self.execute_block(block) - self.reference_block(block))
            worst = max(worst, float(difference.max()))
        return worst

    # ------------------------------------------------------------------
    # Software-side cost model
    # ------------------------------------------------------------------

    @staticmethod
    def software_operations_per_block(block_size: int = DCT_SIZE) -> Dict[str, float]:
        """Rough operation counts of the host-side stages per block.

        Quantisation: one divide+round per coefficient; zig-zag: one move per
        coefficient; Huffman: a few operations per non-zero coefficient
        (estimated at half the coefficients being non-zero).
        """
        coefficients = block_size * block_size
        return {
            "quantization": 2.0 * coefficients,
            "zigzag": 1.0 * coefficients,
            "huffman": 4.0 * (coefficients / 2.0),
        }

    @staticmethod
    def software_time_per_block(host_ops_per_second: float, block_size: int = DCT_SIZE) -> float:
        """Estimated host seconds spent on the software stages per block."""
        if host_ops_per_second <= 0:
            raise CodecError("host_ops_per_second must be positive")
        operations = sum(JpegCodesign.software_operations_per_block(block_size).values())
        return operations / host_ops_per_second
