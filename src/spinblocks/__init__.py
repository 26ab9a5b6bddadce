"""Exact bar-partition and spin-block combinatorics for the double covers
of the symmetric and alternating groups."""

from .barpart import (
    EMPTY,
    BarPartition,
    abacus_core,
    bar_cores_up_to,
    bar_products,
    count_bar_lengths_divisible,
    format_partition,
    labels_with_core_and_weight,
    make_bar_partition,
    parse_partition,
    sigma,
    valuation,
    weight_tower,
    with_part,
)
from .spinchar import (
    character_count,
    check_group,
    spin_degree,
)
from .blocks import (
    SpinBlock,
    block_targets,
    equal_degree_test,
    spin_block,
    spin_blocks,
)
from .constructions import (
    ComparisonResult,
    CoreDecomposition,
    add_part_ratio,
    compare_chain,
    decompose_core,
    grow_class,
    grow_class_ratio,
    verify_ratio_chain,
)
from .witness import (
    ABELIAN,
    DEFECT_ZERO,
    NON_ABELIAN,
    ScanSummary,
    WitnessCertificate,
    build_witness,
    scan,
    verify_witness,
)

__version__ = "0.1.0"

