"""Unique sink orientations of hypercubes.

Dense-table model of cube orientations with validators, reachmap and
niceness analysis, the standard construction toolbox, sink-finding
algorithms, and exhaustive small-dimension enumeration.
"""

from .bitops import bit, coords, full_mask, popcount
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
    sink_and_source,
    validate_orientation,
    validate_uso,
)
from .reach import NicenessReport, ReachTable, niceness_index, reach_table, reachmap, reachmaps
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
    derandomized_re,
    fibonacci_seesaw,
    fs_revisited,
    join_pair,
    join_set,
    markov_upper_bound,
    neighbor_join,
    walk_batch,
)
from .enumeration import Census, census, enumerate_all
from .io import ParseError, read_orientation, write_orientation
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"
