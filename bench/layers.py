"""The layers of mecoff as the traced run sees them.

Each target wraps a public function at the name its caller looks up, so the
span covers exactly the call into that layer. `mecoff.model` is not wrapped:
its functions take well under a microsecond and run about a million times a
sweep, so a timer there would mostly measure itself; its time shows in the
self time of its callers.
"""

from __future__ import annotations

from spans import Target, Tracer, totals_by_name

METHODS = ("M1", "M2", "M3", "M4", "M5")
RUN_METHOD = "mecoff.harness.run_method"


def _cell_from_seed(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    # The harness seeds each cell with a SeedSequence whose spawn key is
    # (snr index, replication).
    seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
    tracer.cell = tuple(getattr(seed, "spawn_key", ())) or None


def _scenario_drawn(tracer: Tracer, args, kwargs, scenario) -> None:
    for user in scenario.users:
        tracer.add("scenario.units_drawn", len(user.units))
        tracer.add("scenario.frames_drawn", sum(len(f) for f in user.frames.values()))


def _solve_start(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    method = args[0] if args else kwargs.get("method_id")
    user = args[2] if len(args) > 2 else kwargs.get("user_index")
    tracer.solve = (*(tracer.cell or (None, None)), method, user)


def _solve_end(tracer: Tracer, args, kwargs, result) -> None:
    tracer.solve = None
    tracer.add("methods.solves")


def _filtered(tracer: Tracer, args, kwargs, decisions) -> None:
    tracer.add("correlation.frames_compared", max(len(args[0]) - 1, 0))
    tracer.add("correlation.decisions", len(decisions))
    tracer.add("correlation.kept_sum", sum(d.kept_fraction for d in decisions))


def _deduped(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("correlation.units_in", len(args[0]))


def _merged(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("correlation.units_out", len(result[0]))


def _enumerated(tracer: Tracer, args, kwargs, feasible) -> None:
    k = len(args[0])
    leaves = len(feasible.bits)
    tracer.counts["allocate.depth_max"] = max(tracer.counts.get("allocate.depth_max", 0), k)
    tracer.add("allocate.leaf_space", 2**k)
    tracer.add("allocate.leaves_feasible", leaves)
    if not leaves:
        tracer.add("allocate.trees_empty")


def _optimized(tracer: Tracer, args, kwargs, solution) -> None:
    if solution is None:
        tracer.add("tune.users_infeasible")


TARGETS = [
    Target("mecoff.cli.main", "cli"),
    Target("mecoff.cli.load_config", "scenario.load_config"),
    Target("mecoff.cli.run_sweep", "harness.sweep"),
    Target("mecoff.cli.emit", "harness.emit"),
    Target("mecoff.harness.generate", "scenario.generate", enter=_cell_from_seed, leave=_scenario_drawn),
    Target(RUN_METHOD, "methods.run", enter=_solve_start, leave=_solve_end, required=True),
    Target("mecoff.methods.filter_multi", "correlation.filter", leave=_filtered),
    Target("mecoff.methods.filter_single", "correlation.filter", leave=_filtered),
    Target("mecoff.methods.dedup", "correlation.reduce", leave=_deduped),
    Target("mecoff.methods.merge_shared_source", "correlation.reduce", leave=_merged),
    Target("mecoff.methods.enumerate_feasible", "allocate.enumerate", leave=_enumerated),
    Target("mecoff.tune.enumerate_feasible", "allocate.enumerate", leave=_enumerated),
    Target("mecoff.methods.optimize_user", "tune.optimize", leave=_optimized),
    Target("mecoff.tune.min_feasible_frequency", "tune.min_freq"),
    Target("mecoff.tune.min_feasible_power", "tune.min_power"),
    Target("mecoff.methods.evaluate", "schedule.evaluate"),
    Target("mecoff.tune.evaluate", "schedule.evaluate"),
    Target("mecoff.tune.check_constraints", "schedule.check"),
]

# (metric, unit, better); the per-method solve metrics come from the
# untraced sweeps of the same run and are listed by `method_metrics`.
_COUNTED = [
    ("scenario.units_drawn", "count", "lower"),
    ("scenario.frames_drawn", "count", "lower"),
    ("correlation.frames_compared", "count", "lower"),
    ("correlation.units_in", "count", "lower"),
    ("correlation.units_out", "count", "lower"),
    ("allocate.depth_max", "count", "lower"),
    ("allocate.leaf_space", "count", "lower"),
    ("allocate.leaves_feasible", "count", "lower"),
    ("allocate.trees_empty", "count", "lower"),
    ("tune.users_infeasible", "count", "lower"),
]
_SPANS = (  # span names that each give <name>.calls and <name>.self_s
    "scenario.generate",
    "correlation.filter",
    "allocate.enumerate",
    "tune.optimize",
    "tune.min_freq",
    "tune.min_power",
    "schedule.evaluate",
    "schedule.check",
)
_SELF_ONLY = {  # metric -> span name
    "correlation.reduce.self_s": "correlation.reduce",
    "methods.run.self_s": "methods.run",
    "harness.sweep.self_s": "harness.sweep",
    "cli.self_s": "cli",
}
_TOTAL_ONLY = {  # metric -> span name
    "harness.emit_s": "harness.emit",
    "scenario.load_config_s": "scenario.load_config",
}
# Layer -> span names whose self time it owns, for the shares in the report.
LAYER_SPANS = {
    "scenario": ("scenario.generate", "scenario.load_config"),
    "correlation": ("correlation.filter", "correlation.reduce"),
    "allocate": ("allocate.enumerate",),
    "tune": ("tune.optimize", "tune.min_freq", "tune.min_power"),
    "schedule": ("schedule.evaluate", "schedule.check"),
    "methods": ("methods.run",),
    "harness": ("harness.sweep", "harness.emit"),
    "cli": ("cli",),
}


def method_metrics() -> list[tuple[str, str, str]]:
    out = []
    for m in METHODS:
        out += [
            (f"methods.{m}.solve_p50_ms", "ms", "lower"),
            (f"methods.{m}.solve_tail_ms", "ms", "lower"),
            (f"methods.{m}.failed_task_share", "ratio", "lower"),
        ]
    return out


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for span in _SPANS:
        spec += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    spec += [(name, "s", "lower") for name in _SELF_ONLY]
    spec += [(name, "s", "lower") for name in _TOTAL_ONLY]
    spec += _COUNTED
    spec += [
        ("correlation.kept_fraction", "ratio", "lower"),
        ("allocate.feasible_ratio", "ratio", "higher"),
        ("schedule.evaluate_per_solve", "ratio", "lower"),
        ("harness.cells", "count", "lower"),
    ]
    return spec + method_metrics()


def traced_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced sweep (method metrics excluded)."""
    by_name = totals_by_name(tracer.spans)

    def calls(span):
        return by_name.get(span, (0, 0.0, 0.0))[0]

    def total(span):
        return by_name.get(span, (0, 0.0, 0.0))[1]

    def own(span):
        return by_name.get(span, (0, 0.0, 0.0))[2]

    counts = tracer.counts
    out: dict[str, float] = {}
    for span in _SPANS:
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_s"] = own(span)
    out.update({name: own(span) for name, span in _SELF_ONLY.items()})
    out.update({name: total(span) for name, span in _TOTAL_ONLY.items()})
    out.update({name: counts.get(name, 0) for name, _, _ in _COUNTED})
    decisions = counts.get("correlation.decisions", 0)
    out["correlation.kept_fraction"] = counts.get("correlation.kept_sum", 0.0) / decisions if decisions else 0.0
    space = counts.get("allocate.leaf_space", 0)
    out["allocate.feasible_ratio"] = counts.get("allocate.leaves_feasible", 0) / space if space else 0.0
    solves = counts.get("methods.solves", 0)
    out["schedule.evaluate_per_solve"] = calls("schedule.evaluate") / solves if solves else 0.0
    out["harness.cells"] = calls("scenario.generate")
    return out


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's self time as a share of the traced sweep's wall time."""
    by_name = totals_by_name(tracer.spans)
    wall = by_name.get("cli", (0, 0.0, 0.0))[1]
    if wall <= 0:
        return {}
    return {
        layer: sum(by_name.get(s, (0, 0.0, 0.0))[2] for s in names) / wall
        for layer, names in LAYER_SPANS.items()
    }
