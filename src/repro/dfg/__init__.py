"""Operation-level data-flow graphs (the behaviour inside each task).

The temporal partitioner works at *task* granularity, but the HLS estimator
(our substitute for the authors' DSS tool) needs the operation-level
behaviour of each task to estimate its FPGA resources and delay.  This
package provides the operation vocabulary, the DFG container, builders for
common DSP kernels (vector products, FIR taps, butterflies) and structural
analyses.
"""

from .analysis import (
    DfgProfile,
    asap_levels,
    io_words,
    max_parallelism,
    profile,
    software_operation_count,
)
from .builders import (
    DfgBuilder,
    butterfly_dfg,
    chain_dfg,
    fir_tap_dfg,
    sum_of_products_dfg,
    vector_product_dfg,
)
from .graph import DataFlowGraph
from .operations import (
    MEMORY_KINDS,
    ZERO_COST_KINDS,
    OpKind,
    Operation,
    expected_arity,
    make_operation,
    result_width,
)

__all__ = [
    "DataFlowGraph",
    "DfgBuilder",
    "DfgProfile",
    "MEMORY_KINDS",
    "OpKind",
    "Operation",
    "ZERO_COST_KINDS",
    "asap_levels",
    "butterfly_dfg",
    "chain_dfg",
    "expected_arity",
    "fir_tap_dfg",
    "io_words",
    "make_operation",
    "max_parallelism",
    "profile",
    "result_width",
    "software_operation_count",
    "sum_of_products_dfg",
    "vector_product_dfg",
]
