"""The JPEG case study: DCT task graph, codec stages and workloads.

Provides the functional JPEG-style codec (DCT, quantisation, zig-zag,
run-length, Huffman), the 32-task DCT task graph of Figure 8 with the paper's
reported costs, the image workload ladder behind Tables 1-2, and the
hardware/software co-design functional model.
"""

from .codec import EncodedImage, JpegLikeCodec
from .codesign import HardwareExecutionTrace, JpegCodesign
from .dct import (
    dct_accuracy,
    dct_matrix,
    forward_dct,
    forward_dct_by_vector_products,
    forward_dct_fixed_point,
    forward_dct_two_stage,
    inverse_dct,
    quantise_coefficients,
    vector_product,
)
from .huffman import HuffmanCode
from .quantize import default_table, dequantize, quantize, scale_table
from .taskgraph_builder import (
    DCT_SIZE,
    PARTITION1_CLOCK,
    PARTITION1_CYCLES,
    PARTITION23_CLOCK,
    PARTITION23_CYCLES,
    STATIC_CLOCK,
    STATIC_CYCLES,
    T1_CLBS,
    T1_DELAY,
    T2_CLBS,
    T2_DELAY,
    DctTaskCosts,
    build_dct_task_graph,
    expected_paper_partitioning,
    rtr_partition_delays,
    static_design_delay,
    t1_task_name,
    t2_task_name,
)
from .workload import (
    LARGEST_IMAGE_BLOCKS,
    ImageWorkload,
    synthetic_image,
    table_workloads,
    workload_from_blocks,
)
from .zigzag import inverse_zigzag, run_length_decode, run_length_encode, zigzag, zigzag_order

__all__ = [
    "DCT_SIZE",
    "DctTaskCosts",
    "EncodedImage",
    "HardwareExecutionTrace",
    "HuffmanCode",
    "ImageWorkload",
    "JpegCodesign",
    "JpegLikeCodec",
    "LARGEST_IMAGE_BLOCKS",
    "PARTITION1_CLOCK",
    "PARTITION1_CYCLES",
    "PARTITION23_CLOCK",
    "PARTITION23_CYCLES",
    "STATIC_CLOCK",
    "STATIC_CYCLES",
    "T1_CLBS",
    "T1_DELAY",
    "T2_CLBS",
    "T2_DELAY",
    "build_dct_task_graph",
    "dct_accuracy",
    "dct_matrix",
    "default_table",
    "dequantize",
    "expected_paper_partitioning",
    "forward_dct",
    "forward_dct_by_vector_products",
    "forward_dct_fixed_point",
    "forward_dct_two_stage",
    "inverse_dct",
    "inverse_zigzag",
    "quantise_coefficients",
    "quantize",
    "rtr_partition_delays",
    "run_length_decode",
    "run_length_encode",
    "scale_table",
    "static_design_delay",
    "synthetic_image",
    "t1_task_name",
    "t2_task_name",
    "table_workloads",
    "vector_product",
    "workload_from_blocks",
    "zigzag",
    "zigzag_order",
]
