"""Exact invariants of weighted one-dimensional foams and interval exchanges.

Weights live in a declared finite-dimensional Q-vector space of reals; all
arithmetic is exact, with signs decided by interval enclosures.  The library
computes the SAF invariant of interval exchange transformations, the nu
invariant of closed foam diagrams, bracket calculus on planar foams, flip
elimination certificates, and label invariants of decorated diagrams.  The
`foamcalc` command line exposes all of it over a small text format.
"""

from .errors import (
    BasisMismatch,
    DslSemanticError,
    FlippedIet,
    FoamError,
    FoamSyntaxError,
    InternalError,
    NonPositiveWeight,
    OpenDiagram,
    OutOfDomain,
    PrecisionExhausted,
    SchemaMismatch,
    TotalMismatch,
    UnsupportedDecoration,
)
from .exterior import (
    TensorH1Value,
    WedgeValue,
    wedge,
)
from .weights import (
    NEGATIVE,
    POSITIVE,
    UNIT,
    ZERO,
    Generator,
    GeneratorBasis,
    Weight,
    weight_cmp,
    weight_from_json,
)
from .iet import (
    Iet,
    iet_apply,
    iet_compose,
    iet_inverse,
    saf,
)
from .foamdiag import (
    Cap,
    Cross,
    Cup,
    Dir,
    Dot,
    FoamDiagram,
    Label,
    Merge,
    Order,
    Split,
    Strand,
    apply_event,
    circle,
    disjoint_union,
    event_to_json,
    iet_closure,
    mirror,
    nu,
    nu_events,
    u_block_events,
    u_diagram,
    zerofoam_class,
)
from .moves import (
    ALL_SCHEMAS,
    FLIP_SCHEMAS,
    NU_SCHEMAS,
    MoveInstance,
    apply_move,
    enumerate_moves,
    move_from_json,
)
from .planar import (
    DEFAULT_EUCLID_BOUND,
    BracketSum,
    PCap,
    PCup,
    PMerge,
    PSplit,
    PlanarFoam,
    PlanarVerdict,
    apply_pevent,
    bracket,
    bracket_make_positive,
    bracket_simplify,
    bracket_sum_make_positive,
    classify_bracket,
    foam_make_positive,
    planar_classify,
    psi_pair,
    psi_sum,
    standard_tripod,
    theta,
    tripod_block,
    tripod_decompose,
    verify_z4,
)
from .decorated import (
    AbelianGroupSpec,
    GroupLabel,
    TraceCheck,
    empty_diagram,
    flip_reduce,
    gamma,
    label_merge,
    label_split,
    trace_from_json,
    trace_to_json,
    validate_trace,
)
from .dsl import (
    ITEM_KINDS,
    RESERVED,
    Document,
    parse_bytes,
    parse_document,
    parse_weight,
    print_document,
    weight_to_text,
)

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# The public names imported above; importing them also binds the submodules
# (``foamcalc.dsl`` and so on) in this namespace, and those stay out.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
