"""Names, units and bounds of everything the benchmark reports.

BENCHMARK.json at the repository root lists the same workloads and metrics;
the benchmark's tests check that the two agree with what a run prints.
This module imports nothing from foamcalc, so run.py can use it before any
worker has started.
"""

DEFAULT_SEED = 20260814

RUN_SECONDS = 40

# The workloads BENCHMARK.json lists: together they reach every layer.
WORKLOADS = (
    ("flip-closures",
     "flip_reduce + validate_trace on dotted braid closures, r 6-12: the flip_reduce cliff; "
     "slice rebuilds, moves and repeated sign queries dominate"),
    ("cli-docs",
     "in-process CLI calls over all 14 document subcommands on 3-30 KB documents: parsing "
     "and the CLI dominate; long Euclid chains in planar"),
    ("battery",
     "the 13 acceptance criteria of foamcalc selftest, one op each: the release gate, and "
     "the only user of enumerate_moves and the byte fuzzer"),
)

# Runnable with run.py but not in BENCHMARK.json: four workloads leave each
# run 25 s within the time the whole benchmark may take, too few passes for
# figures that stay within their bounds from seed to seed.  It is the
# workload on which a sign cache finds few repeats.
EXTRA_WORKLOADS = (
    ("iet-compose",
     "iet_compose, saf and nu of the closure on IET pairs, r 16-32: weights and wedge sums "
     "on fresh, rarely repeated weights"),
)

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

MOVE_SCHEMAS = (
    "circle_birth", "circle_death", "cross_smooth", "crossing_splitoff",
    "dot_cancel", "dot_pair_birth", "dot_splitoff", "dot_through_vertex",
    "dotted_circle_death", "exchange", "kink", "r2", "r3", "saddle",
    "singular_cap", "singular_cup", "singular_saddle", "u_ab_death",
    "vertex_cobordism", "vertex_flip", "vertex_slide",
)

CRITERIA = tuple(range(1, 14))

# (name, unit, better)
PER_LAYER = (
    (
        ("weights.sign.calls", "count", "lower"),
        ("weights.sign.s", "s", "lower"),
        ("weights.sign.exhausted", "count", "lower"),
        ("weights.sign.repeat_frac", "ratio", "higher"),
        ("weights.interval.calls", "count", "lower"),
        ("weights.new.calls", "count", "lower"),
        ("weights.cmp.calls", "count", "lower"),
        ("exterior.wedge.calls", "count", "lower"),
        ("exterior.wedge.s", "s", "lower"),
        ("exterior.add.calls", "count", "lower"),
        ("iet.compose.calls", "count", "lower"),
        ("iet.compose.s", "s", "lower"),
        ("iet.compose.pieces_out", "count", "lower"),
        ("iet.saf.s", "s", "lower"),
        ("foamdiag.build.calls", "count", "lower"),
        ("foamdiag.build.s", "s", "lower"),
        ("foamdiag.apply_event.calls", "count", "lower"),
        ("foamdiag.apply_event.per_step", "slices/step", "lower"),
        ("foamdiag.nu.s", "s", "lower"),
        ("foamdiag.closure.s", "s", "lower"),
        ("moves.apply.calls", "count", "lower"),
        ("moves.apply.s", "s", "lower"),
        ("moves.apply.mismatch", "count", "lower"),
        ("moves.apply.useful_frac", "ratio", "higher"),
        ("moves.enumerate.s", "s", "lower"),
    )
    + tuple((f"moves.apply.calls.{schema}", "count", "lower") for schema in MOVE_SCHEMAS)
    + (
        ("decorated.flip_reduce.s", "s", "lower"),
        ("decorated.validate_trace.s", "s", "lower"),
        ("decorated.trace_steps", "count", "lower"),
        ("decorated.gamma.s", "s", "lower"),
        ("planar.classify.s", "s", "lower"),
        ("planar.bracket_simplify.s", "s", "lower"),
        ("planar.make_positive.s", "s", "lower"),
        ("planar.tripod_decompose.s", "s", "lower"),
        ("planar.theta.s", "s", "lower"),
        ("planar.cmp_calls", "count", "lower"),
        ("dsl.parse.calls", "count", "lower"),
        ("dsl.parse.s", "s", "lower"),
        ("dsl.parse.bytes_per_s", "B/s", "higher"),
        ("dsl.print.s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
    )
    + tuple((f"acceptance.c{num:02d}_s", "s", "lower") for num in CRITERIA)
    + (("trace.overhead_frac", "ratio", "lower"),)
)
