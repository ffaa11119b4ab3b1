"""Intersection-covering constant-weight codes, end to end.

The pieces: word types, metric helpers and the one whole-space scan
engine (``words``), the covering property and its verifiers (``codes``),
covering designs (``covering``), lower/upper bounds and the exact-value
table (``bounds``), constructions (``construct``), exhaustive minimum
search (``search``, on the minimum-set-cover engine in ``cover``), q-ary
and fixed-weight-scheme transfer (``schemes``), and the multi-server
retrieval protocol (``protocol``).  ``cli`` fronts all of it.
"""

from .codes import (
    PpricCode,
    Verdict,
    full_sphere_identity_holds,
    make_code,
    min_multihit_weight,
    mippr_min_weight,
    pad_coordinate,
    scale_code,
    verify_enumeration,
    verify_exact,
)
from .covering import (
    CoveringDesign,
    all_pairs_design,
    complement_design,
    design_9_5_2,
    exact_covering_number,
    fano_plane,
    load_design,
    parse_design,
    schoenheim_bound,
    serialize_design,
    singleton_design,
    verify_covering,
)
from .bounds import (
    BoundReport,
    best_lower,
    compute_report,
    exact_n,
    lb_covering_chain,
    lb_mills,
    lb_repeat,
    lb_todorov,
)
from .construct import (
    Recipe,
    available_recipes,
    build_disjoint,
    build_eps8,
    build_extremal,
    build_full,
    build_recipe,
    build_superset,
    construction1,
    construction2,
    construction3,
    design422_code,
    design952_code,
    doubling,
    doubling_params,
)
from .errors import (CapacityError, ConstructionError, FormatError,
                     ParameterError)
from .protocol import (
    Database,
    ProtocolTranscript,
    Query,
    SplitMix64,
    generate_queries,
    load_database,
    privacy_level,
    reconstruct,
    records_of,
    run_simulation,
    server_answer,
)
from .schemes import (
    JohnsonCoveringCode,
    JohnsonPpricCode,
    johnson_construction,
    johnson_exact_check,
    johnson_verify,
    product_covering_code,
    qary_verify,
    verify_johnson_covering,
    verify_symmetric_sphere_identity,
)
from .search import (
    SearchResult,
    conjecture_probe,
    exact_n_search,
    minimal_codes_enumerate,
)
from .words import (
    BinaryWord,
    JohnsonWord,
    QaryWord,
    SchemeParams,
    ball_size,
    binom,
    diameter,
    distance,
    enumerate_ball,
    enumerate_sphere,
    enumerate_weight_class,
    hamming_distance,
    johnson_distance,
    sphere_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
