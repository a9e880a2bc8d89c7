"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SpecificationError(ReproError):
    """An input specification (task graph, DFG, architecture) is malformed."""


class GraphError(SpecificationError):
    """A task graph or data-flow graph violates a structural requirement."""


class CycleError(GraphError):
    """A graph that must be acyclic contains a cycle."""


class UnknownTaskError(GraphError):
    """A task name was referenced that is not present in the task graph."""


class UnknownOperationError(SpecificationError):
    """An operation kind is not recognised by the component library."""


class ArchitectureError(SpecificationError):
    """A target-architecture description is inconsistent or incomplete."""


class WorkloadError(SpecificationError):
    """A workload registration or lookup in the workload registry failed."""


class EstimationError(ReproError):
    """The HLS estimator could not produce an estimate for a task."""


class SchedulingError(EstimationError):
    """A schedule could not be constructed under the given constraints."""


class AllocationError(EstimationError):
    """Resource allocation/binding failed for a data-flow graph."""


class IlpError(ReproError):
    """Base class for errors from the ILP modelling and solving layer."""


class SolverError(IlpError):
    """The solver failed for a reason other than infeasibility."""


class PartitioningError(ReproError):
    """Temporal partitioning failed or produced an invalid result."""


class PartitionValidationError(PartitioningError):
    """A temporal partitioning violates one of the problem constraints."""


class MemoryMappingError(ReproError):
    """Inter-partition data could not be mapped onto the on-board memory."""


class FissionError(ReproError):
    """Loop-fission analysis or transformation failed."""


class SynthesisError(ReproError):
    """RTL/controller synthesis for a temporal partition failed."""


class SimulationError(ReproError):
    """The RTR/static execution simulator detected an inconsistency."""


class CodecError(ReproError):
    """The JPEG-style codec was given invalid data."""


class ExplorationError(ReproError):
    """A design-space exploration (search space, strategy or run store) failed."""


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""
