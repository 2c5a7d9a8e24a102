"""Per-layer metrics of the traced run, and what each is expected to move.

Times and counts are per item of the workload (an RK4 step, a curvature
plane, a rot_report call), times normalized to host speed like the
end-to-end ones; `.ms` is inclusive time, `.self_ms` excludes the traced
calls made inside.  `moves` names the end-to-end metric and
workloads a change in the figure should show up in; "accuracy" marks a
guard that a speed change must leave where it is.  BENCHMARK.json lists
the same names, units and directions.
"""

PER_ITEM = "items_per_s"

# (name, unit, better, moves)
PER_LAYER = (
    ("harmonics.grid_builds", "builds/item", "lower", PER_ITEM + " on flow, curvature_table; ~0 on rot_suite"),
    ("harmonics.grid_build.self_ms", "ms/item", "lower", PER_ITEM + " on flow, curvature_table; ~0 on rot_suite"),
    ("harmonics.grid_distinct_frac", "frac", "higher", PER_ITEM + " on flow, curvature_table (share a plan cache cannot save)"),
    ("harmonics.legendre_tables.calls", "calls/item", "lower", PER_ITEM + " on all three"),
    ("harmonics.legendre_tables.self_ms", "ms/item", "lower", PER_ITEM + " on all three"),
    ("harmonics.legendre_tables.bytes_computed", "B/item", "lower", PER_ITEM + " on all three (computed from array sizes)"),
    ("harmonics.synthesize.calls", "calls/item", "lower", PER_ITEM + " on curvature_table, flow"),
    ("harmonics.synthesize.self_ms", "ms/item", "lower", PER_ITEM + " on curvature_table, flow"),
    ("harmonics.analyze.calls", "calls/item", "lower", PER_ITEM + " on curvature_table, flow"),
    ("harmonics.analyze.self_ms", "ms/item", "lower", PER_ITEM + " on curvature_table, flow"),
    ("harmonics.adjoint_analyze.calls", "calls/item", "lower", PER_ITEM + " on rot_suite"),
    ("harmonics.adjoint_analyze.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite"),
    ("harmonics.evaluate_base.calls", "calls/item", "lower", PER_ITEM + " on rot_suite"),
    ("harmonics.evaluate_base.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite"),
    ("harmonics.evaluate_base.points", "points/item", "lower", PER_ITEM + " on rot_suite"),
    ("harmonics.roundtrip_err.L32", "abs", "lower", "accuracy"),
    ("harmonics.roundtrip_err.L64", "abs", "lower", "accuracy"),
    ("harmonics.roundtrip_err.L128", "abs", "lower", "accuracy"),
    ("bracket.lagrange_bracket.calls", "calls/item", "lower", PER_ITEM + " on flow, curvature_table; 0 on rot_suite"),
    ("bracket.lagrange_bracket.self_ms", "ms/item", "lower", PER_ITEM + " on flow, curvature_table"),
    ("bracket.structure_constants.ms", "ms/item", "lower", PER_ITEM + " on curvature_table only"),
    ("flow.rhs.calls", "calls/item", "lower", PER_ITEM + " on flow only"),
    ("flow.rhs.ms", "ms/item", "lower", PER_ITEM + " and item_ms.p50 on flow only"),
    ("flow.casimirs.ms", "ms/item", "lower", PER_ITEM + " on flow only"),
    ("flow.kinetic_energy.ms", "ms/item", "lower", PER_ITEM + " on flow only"),
    ("flow.energy_drift", "rel", "lower", "accuracy"),
    ("flow.casimir_drift", "rel", "lower", "accuracy"),
    ("metrics.inner.calls", "calls/item", "lower", PER_ITEM + " on curvature_table"),
    ("metrics.inner.self_ms", "ms/item", "lower", PER_ITEM + " on curvature_table"),
    ("curvature.k_biinvariant.ms", "ms/item", "lower", PER_ITEM + " on curvature_table only"),
    ("curvature.k_right_invariant.direct.ms", "ms/item", "lower", PER_ITEM + " on curvature_table only"),
    ("curvature.k_right_invariant.assembled.ms", "ms/item", "lower", PER_ITEM + " on curvature_table only"),
    ("curvature.k_eigen.ms", "ms/item", "lower", PER_ITEM + " on curvature_table only"),
    ("curvature.k_structural.ms", "ms/item", "lower", PER_ITEM + " on curvature_table only"),
    ("curvature.quad_inner_M.calls", "calls/item", "lower", PER_ITEM + " on curvature_table only"),
    ("curvature.quad_inner_M.self_ms", "ms/item", "lower", PER_ITEM + " on curvature_table only"),
    ("curvature.route_gap_max", "abs", "lower", "accuracy"),
    ("fields.contact_field_at.calls", "calls/item", "lower", PER_ITEM + " on rot_suite"),
    ("fields.contact_field_at.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite"),
    ("fields.FrameField.components.calls", "calls/item", "lower", PER_ITEM + " on rot_suite"),
    ("fields.FrameField.components.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite"),
    ("geometry.qmul.calls", "calls/item", "lower", PER_ITEM + " on rot_suite; setup_s everywhere"),
    ("geometry.qmul.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite; setup_s everywhere"),
    ("geometry.QuadratureS3.build.calls", "calls/item", "lower", PER_ITEM + " on rot_suite; setup_s everywhere"),
    ("geometry.QuadratureS3.build.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite; setup_s everywhere"),
    ("geometry.frame_derivative.calls", "calls/item", "lower", PER_ITEM + " on rot_suite; setup_s everywhere"),
    ("geometry.frame_derivative.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite; setup_s everywhere"),
    ("rot3d.curl.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite"),
    ("rot3d.dmu_inner.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite"),
    ("rot3d.divergence_fd.self_ms", "ms/item", "lower", PER_ITEM + " on rot_suite"),
    ("rot3d.worst_residual_over_tol", "ratio", "lower", "accuracy"),
    ("cli.evolve.wall_s", "s", "lower", "raw wall time of the flow workload's CLI command (evolve); setup_s"),
    ("cli.curvature.wall_s", "s", "lower", "raw wall time of the curvature_table workload's CLI command; setup_s"),
    ("cli.rot.wall_s", "s", "lower", "raw wall time of the rot_suite workload's CLI command (rot); setup_s"),
    ("run.item_ms.tail", "ms", "lower", "item time at the highest percentile with 10 items beyond it"),
    ("run.item_ms.tail_pct", "pct", "higher", "which percentile run.item_ms.tail is"),
    ("run.failed_frac", "frac", "lower", "failed items / attempted; 0 when every output check passes"),
    ("trace.overhead_frac", "frac", "lower", "1 - traced / untraced " + PER_ITEM),
    ("trace.callsite_check", "ok", "higher", "1 when every import site of a traced name is wrapped"),
)
