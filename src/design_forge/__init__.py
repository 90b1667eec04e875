"""Construction and certification of Shrikhande-graph and L(K_{4,4}) designs.

A design of order n partitions the edges of the complete graph K_n into
copies of a fixed 16-vertex, 48-edge target graph; such designs exist
exactly for n = 1 and n = 96t + 1.  This package builds them for
t <= 5 (n <= 481) from its own ingredients, for larger t from an
ingredient GDD supplied in a store, and independently verifies any
claimed decomposition by exact pair counting.
"""

from .algebra import NotASubgroupError, Ring, signed_power_subgroup, unit_group_coset_partition
from .assemble import ConstructionError, admissible, construct_design
from .blocks import (
    BaseBlock,
    DevelopmentError,
    NotInCatalogError,
    catalog,
    develop,
    difference_transversal_check,
    k4444_decomposition,
    paper_base_blocks,
)
from .certify import (
    Certificate,
    CertificateParseError,
    CertMode,
    CertReport,
    certify,
    certify_file,
    certify_raw_edges,
    read_certificate,
    write_certificate,
)
from .gdd import (
    BudgetExhaustedError,
    Gdd,
    GddType,
    IngredientStore,
    IngredientUnavailableError,
    exact_cover_search,
    gdd_24_t,
    inflate,
    mols_for_order,
    td_from_mols,
    verify_gdd,
)
from .targets import SmallGraph, TargetGraph, TargetId, line_k44, shrikhande, srg_parameters

__all__ = [
    "BaseBlock",
    "BudgetExhaustedError",
    "CertMode",
    "CertReport",
    "Certificate",
    "CertificateParseError",
    "ConstructionError",
    "DevelopmentError",
    "Gdd",
    "GddType",
    "IngredientStore",
    "IngredientUnavailableError",
    "NotASubgroupError",
    "NotInCatalogError",
    "Ring",
    "SmallGraph",
    "TargetGraph",
    "TargetId",
    "admissible",
    "catalog",
    "certify",
    "certify_file",
    "certify_raw_edges",
    "construct_design",
    "develop",
    "difference_transversal_check",
    "exact_cover_search",
    "gdd_24_t",
    "inflate",
    "k4444_decomposition",
    "line_k44",
    "mols_for_order",
    "paper_base_blocks",
    "read_certificate",
    "shrikhande",
    "signed_power_subgroup",
    "srg_parameters",
    "td_from_mols",
    "unit_group_coset_partition",
    "verify_gdd",
    "write_certificate",
]
