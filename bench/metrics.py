"""Metric names and units, shared by run.py, its child processes and the self-test.

End-to-end metrics come from untraced passes.  Per-layer metrics come from
traced passes: each span name below yields `<span>.s` (seconds per pass) and
`<span>.calls` (layer calls per pass); the counts are sizes the program
reported during the pass.  A workload that does not touch a layer reports 0
for it.
"""

from __future__ import annotations

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SPANS = (
    "words.enumerate", "words.count_oracle", "words.power",
    "words.cyclic_canonical",
    "braid.census", "braid.theta_preimages", "braid.normal_form",
    "braid.equal", "braid.matrix_image", "braid.theta", "braid.lemma4",
    "braid.lambda_tr",
    "config3.decode_braid", "config3.decode_word", "config3.winding_numbers",
    "config3.load",
    "cli.main",
    "bounds",
    "conformal.build", "conformal.solve",
    "dbar.kernel", "dbar.quadrature", "dbar.solve", "dbar.f_first", "dbar.f",
    "dbar.diagnostics", "dbar.demo",
)

COUNTS = {
    "words.enumerate.words": "count",
    "braid.census.elements": "count",
    "braid.census.preimages": "count",
    "config3.decode_braid.samples": "count",
    "config3.decode_word.samples": "count",
    "conformal.unknowns": "count",
    "conformal.iterations": "count",
    "dbar.kernel.points": "count",
    "dbar.cells": "count",
    "dbar.targets": "count",
    "dbar.sup_f": "1",
    "dbar.residual": "1",
    "dbar.fd_residual": "1",
}

# one entry per grid solve of the numeric workload; span "conformal.solve.<label>"
GRID_SOLVES = ("annulus_coarse", "annulus_mid", "annulus_fine", "cylinder",
               "rect_h", "rect_v")
GRID_COUNTS = {"unknowns": "count", "iterations": "count", "residual": "1",
               "rel_err": "1"}

DERIVED = {
    "braid.census.unique_ratio": "1",
    "braid.normal_form.us_per_call": "us",
    "bounds.us_per_call": "us",
    "dbar.f.us_per_target": "us",
}

# filled by run.py from the set-up probes and the traced/untraced pass walls
FROM_RUNS = {
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in SPANS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTS)
    for label in GRID_SOLVES:
        units[f"conformal.{label}.solve.s"] = "s"
        for key, unit in GRID_COUNTS.items():
            units[f"conformal.{label}.{key}"] = unit
    units.update(DERIVED)
    units.update(FROM_RUNS)
    return units


PER_LAYER = _per_layer_units()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_values(summary: dict[str, dict], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the FROM_RUNS ones)."""

    def total(prefix: str, key: str) -> float:
        return sum(v[key] for n, v in summary.items()
                   if n == prefix or n.startswith(prefix + "."))

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.s"] = total(name, "total_s")
        out[f"{name}.calls"] = total(name, "calls")
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    for label in GRID_SOLVES:
        out[f"conformal.{label}.solve.s"] = total(f"conformal.solve.{label}", "total_s")
        for key in GRID_COUNTS:
            out[f"conformal.{label}.{key}"] = counts.get(f"conformal.{label}.{key}", 0)
    out["braid.census.unique_ratio"] = _ratio(
        counts.get("braid.census.elements", 0), counts.get("braid.census.preimages", 0))
    out["braid.normal_form.us_per_call"] = _ratio(
        out["braid.normal_form.s"], out["braid.normal_form.calls"], 1e6)
    out["bounds.us_per_call"] = _ratio(out["bounds.s"], out["bounds.calls"], 1e6)
    out["dbar.f.us_per_target"] = _ratio(
        out["dbar.f.s"], out["dbar.f.calls"] * counts.get("dbar.targets", 0), 1e6)
    return out
