"""Generate the per-configuration RTL and host code for the DCT RTR design.

Run with::

    python examples/generate_rtl_configurations.py [output_dir]

This is the hand-off point of the paper's flow: after temporal partitioning
and loop fission, each temporal partition is synthesised to RTL (datapath plus
the augmented Figure-7 controller) and the host sequencing code is emitted.
The original flow would pass the RTL to Synplify / Xilinx M1 for logic and
layout synthesis; here the VHDL-flavoured structural text, the memory layouts
and the host loops are written to files for inspection.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.arch import paper_case_study_system
from repro.fission import SequencingStrategy
from repro.hls import emit_vhdl_like
from repro.jpeg import build_dct_task_graph
from repro.synth import DesignFlow, FlowOptions


def main(output_dir: str = "build/dct_rtr") -> None:
    output = Path(output_dir)
    output.mkdir(parents=True, exist_ok=True)

    system = paper_case_study_system()
    graph = build_dct_task_graph(attach_dfgs=True)
    # Use the library's own estimator end to end (generate_rtl needs the DFGs).
    design = DesignFlow(system, FlowOptions(generate_rtl=True)).build(graph)

    print(design.describe())
    print()

    written = []
    for index in range(1, design.partition_count + 1):
        configuration = design.configuration(index)
        rtl_path = output / f"configuration{index}.vhd"
        rtl_path.write_text(emit_vhdl_like(configuration), encoding="utf-8")
        written.append(rtl_path)
        layout_path = output / f"configuration{index}_memory_layout.txt"
        layout_lines = [
            f"{segment:<40} offset {offset} words"
            for segment, offset in sorted(
                configuration.memory_layout.items(), key=lambda kv: kv[1]
            )
        ]
        layout_path.write_text("\n".join(layout_lines) + "\n", encoding="utf-8")
        written.append(layout_path)

    for strategy in SequencingStrategy:
        host_path = output / f"host_sequencer_{strategy.value}.c"
        host_path.write_text(design.host_code_for(strategy), encoding="utf-8")
        written.append(host_path)

    print("Wrote:")
    for path in written:
        print(f"  {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "build/dct_rtr")
