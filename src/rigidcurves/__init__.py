"""Exact certification and counting of rigid curves on complete
intersection Calabi-Yau threefolds."""

from .series import (
    NonUnitError,
    OrderMismatchError,
    TruncatedSeries,
    binomial_series,
    int_pow,
    invert,
    mul,
)
from .chern import (
    BundleExpr,
    ExcessProblem,
    HyperplaneSheaf,
    HypothesisError,
    InvalidEmbeddingError,
    LineTwist,
    ProjectiveCotangent,
    WorkBoundError,
    degeneracy_count,
    excess_bundle,
    excess_count,
    rigid_count,
    total_chern,
)
from .k3 import (
    CURVE,
    HYPERPLANE,
    DegreeRangeError,
    DivisorClass,
    KnutsenVerdict,
    LatticeCorruptionError,
    NonspecialStatus,
    NonspecialVerdict,
    NonspecialityRoute,
    PicardLattice,
    RouteResult,
    UnsupportedPolarizationError,
    euler_char,
    knutsen_exists,
    lattice_nonspecial,
    nonspeciality_route,
    pair,
)
from .certify import (
    Certificate,
    CicyType,
    Clause,
    DerivedVerdict,
    EmbeddingRow,
    RowAssessment,
    StatedVerdict,
    TableCheck,
    certify,
    derived_conditions,
    enumerate_region,
    node_table,
    stated_conditions,
    verify_node_table,
)

__version__ = "0.1.0"
