"""Exact bar-partition and spin-block combinatorics for the double covers
of the symmetric and alternating groups."""

from .barpart import (
    EMPTY,
    Bar,
    BarPartition,
    BarTable,
    bar_core_and_weight,
    bar_cores_up_to,
    bars,
    enumerate_bar_partitions,
    format_partition,
    is_bar_core,
    labels_with_core_and_weight,
    make_bar_partition,
    parse_partition,
    remove_bar,
    valuation,
    weight_tower,
)
from .spinchar import (
    GroupTag,
    SpinCharacter,
    alt,
    alt_degree,
    characters_of_label,
    degree_valuation,
    sigma,
    spin_degree_sym,
    sym,
)
from .blocks import (
    ABELIAN,
    DEFECT_ZERO,
    NON_ABELIAN,
    SpinBlock,
    block_targets,
    equal_degree_test,
    height_zero_by_criterion,
    height_zero_valuation,
    spin_block,
    spin_blocks,
)
from .constructions import (
    ComparisonResult,
    CoreDecomposition,
    GapResult,
    RatioReport,
    add_part_pw,
    add_part_ratio,
    add_part_ratio_parts,
    compare_constructions,
    decompose_core,
    grow_class,
    grow_class_ratio,
    grow_class_ratio_parts,
    principal_gap_check,
    principal_pair,
    verify_ratio_identities,
)
from .witness import (
    BlockReport,
    ScanSummary,
    WitnessCertificate,
    build_witness,
    check_conjecture,
    scan,
    verify_witness,
)

__version__ = "0.1.0"
