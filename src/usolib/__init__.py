"""Unique sink orientations of hypercubes.

Dense-table model of cube orientations with validators, reachmap and
niceness analysis, the standard construction toolbox, sink-finding
algorithms, and exhaustive small-dimension enumeration.
"""

from .bitops import bit, coords, from_coords, full_mask, popcount
from .core import (
    MAX_DIMENSION,
    EvalCounter,
    Face,
    NotUSOError,
    Orientation,
    canonical_form,
    face_sink,
    is_acyclic,
    is_decomposable,
    validate_orientation,
    validate_uso,
)
from .reach import NicenessReport, ReachTable, niceness_index, reach_table
from .construct import (
    FlipPreconditionViolated,
    HypersinkViolated,
    auso_lower_bound,
    cyclic_full_reach,
    flip_edge,
    flip_matching,
    hypersink_reorient,
    klee_minty,
    product,
    random_fmo,
    random_maximal_matching,
    random_target_combed,
    reverse_orientation,
    target_combed,
    uniform,
)
from .algo import (
    RunStats,
    SeesawTrace,
    TrialsSummary,
    bottom_antipodal,
    derandomized_re,
    fibonacci_seesaw,
    find_sink_by_scan,
    fs_revisited,
    join_pair,
    join_set,
    markov_upper_bound,
    neighbor_join,
    random_edge_walk,
    re_trials,
    source_vertex,
)
from .enumeration import Census, census, enumerate_all, recurrence_check
from .io import ParseError, read_orientation, write_orientation
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"
