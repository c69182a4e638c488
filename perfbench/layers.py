"""Per-layer metrics from the spans of a traced run and from ``python -X importtime``."""

from __future__ import annotations

from collections import defaultdict

from tracer import SUITE_FUNCTIONS

SAMPLERS = ("sample_karlin", "sample_mstar", "sample_coupled", "sample_on_window",
            "sample_top_m_process")
QUERIES = ("karlin_sim.top_m", "karlin_sim.empirical_sup", "karlin_sim.variant_star_sup",
           "karlin_sim.pattern_counts")
STATISTICS = ("verify.ks_statistic", "verify.ks_critical", "verify.two_sample_ks",
              "verify.two_sample_ks_critical", "verify.wilson_ci")

# name -> (unit, better); BENCHMARK.json lists the same metrics.
METRICS = {
    "distributions.zeta_s": ("s", "lower"),
    "distributions.ns_per_label": ("ns", "lower"),
    "karlin_sim.simulate_self_s": ("s", "lower"),
    "karlin_sim.runs": ("count", "lower"),
    "karlin_sim.draws": ("count", "lower"),
    "karlin_sim.k_n_mean": ("count", "lower"),
    "karlin_sim.object_label_runs": ("count", "lower"),
    "karlin_sim.query_s": ("s", "lower"),
    "karlin_sim.query_self_s": ("s", "lower"),
    "interval_sets.contains_points_s": ("s", "lower"),
    "interval_sets.points_tested": ("count", "lower"),
    **{f"limit_sim.{name}_s": ("s", "lower") for name in SAMPLERS},
    "limit_sim.replicas": ("count", "lower"),
    "limit_sim.us_per_replica": ("us", "lower"),
    "limit_sim.atoms_per_replica": ("count", "lower"),
    "limit_sim.atoms_max": ("count", "lower"),
    "verify.stream_s": ("s", "lower"),
    "cli.replica_rng_s": ("s", "lower"),
    "choquet_oracle.s": ("s", "lower"),
    "choquet_oracle.queries": ("count", "lower"),
    "verify.suite_s": ("s", "lower"),
    **{f"verify.{suite}_s": ("s", "lower") for suite in SUITE_FUNCTIONS.values()},
    "verify.self_s": ("s", "lower"),
    "verify.stats_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "verify.thread_util": ("ratio", "higher"),
    "verify.scaling_eff": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_s": ("s", "lower"),
    "cli.import_numpy_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def span_metrics(calls: list) -> dict:
    """Layer metrics summed over the span lists of one traced round, one list per call.

    Sampler times count the outermost sampler call only (``sample_on_window``
    calls ``sample_karlin``), so the five add up to the time spent sampling.
    A suite's busy time is its own time plus that of its direct children on
    every thread; ``verify.thread_util`` divides it by wall time x threads.
    """
    acc = defaultdict(float)
    atoms_max = 0
    for spans in calls:
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s[4]].append(s)
        acc["trace.spans"] += len(spans)
        for span_id, name, start, end, parent, _thread, counts in spans:
            dur = end - start
            kids = children[span_id]
            own = dur - _covered([(c[2], c[3]) for c in kids], start, end)
            parent_name = by_id[parent][1] if parent in by_id else ""
            short = name.split(".", 1)[1]
            if name == "distributions.zeta_sample_batch":
                acc["distributions.zeta_s"] += dur
                acc["labels"] += counts["labels"]
            elif name == "karlin_sim.simulate":
                acc["karlin_sim.simulate_self_s"] += own
                acc["karlin_sim.runs"] += 1
                acc["karlin_sim.draws"] += counts["n"]
                acc["k_n"] += counts["k_n"]
                acc["karlin_sim.object_label_runs"] += counts["object_labels"]
            elif name in QUERIES:
                acc["karlin_sim.query_s"] += dur
                acc["karlin_sim.query_self_s"] += own
            elif name == "interval_sets.contains_points":
                acc["interval_sets.contains_points_s"] += dur
                acc["interval_sets.points_tested"] += counts["points"]
            elif short in SAMPLERS and name.startswith("limit_sim."):
                if parent_name.split(".", 1)[-1] in SAMPLERS:
                    continue
                acc[f"{name}_s"] += dur
                acc["sampler_s"] += dur
                acc["limit_sim.replicas"] += 1
                if "atoms" in counts:
                    acc["atoms"] += counts["atoms"]
                    acc["atom_replicas"] += 1
                    atoms_max = max(atoms_max, counts["atoms"])
            elif name == "verify._replica_stream_map":
                acc["verify.stream_s"] += own
            elif name == "karlin_sim.replica_rng" and parent_name == "cli.main":
                acc["cli.replica_rng_s"] += dur
            elif name.startswith("choquet_oracle."):
                if not parent_name.startswith("choquet_oracle."):
                    acc["choquet_oracle.s"] += dur
                    acc["choquet_oracle.queries"] += 1
            elif name == "verify.run_suite":
                acc["verify.suite_s"] += dur
                acc["verify.checks"] += counts["checks"]
                acc["verify.checks_failed"] += counts["checks_failed"]
            elif short in SUITE_FUNCTIONS:
                acc[f"verify.{SUITE_FUNCTIONS[short]}_s"] += dur
                acc["verify.self_s"] += own
                acc["busy"] += own + sum(c[3] - c[2] for c in kids)
                acc["capacity"] += dur * counts["threads"]
            elif name in STATISTICS and parent_name not in STATISTICS:
                acc["verify.stats_s"] += dur

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return scale * acc[num] / acc[den] if acc[den] else 0.0

    out = {name: acc[name] for name in METRICS}
    out["distributions.ns_per_label"] = ratio("distributions.zeta_s", "labels", 1e9)
    out["karlin_sim.k_n_mean"] = ratio("k_n", "karlin_sim.runs")
    out["limit_sim.us_per_replica"] = ratio("sampler_s", "limit_sim.replicas", 1e6)
    out["limit_sim.atoms_per_replica"] = ratio("atoms", "atom_replicas")
    out["limit_sim.atoms_max"] = atoms_max
    out["verify.thread_util"] = ratio("busy", "capacity")
    return out


def import_times(stderr: str) -> dict:
    """Cumulative import seconds of karlin_rsm, scipy and numpy from ``-X importtime``.

    Each package counts at its outermost import only: scipy imports numpy,
    and karlin_rsm imports both.
    """
    entries = []
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            cumulative = int(fields[1])
        except ValueError:  # the header line
            continue
        raw = fields[2]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), cumulative))

    totals = {"karlin_rsm": 0, "scipy": 0, "numpy": 0}
    ancestors = []
    # the lines come children first; reversed, each follows its ancestors
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        root = name.split(".")[0]
        if root in totals and root not in ancestors:
            totals[root] += cumulative
        ancestors.append(root)
    return {"cli.import_s": totals["karlin_rsm"] / 1e6,
            "cli.import_scipy_s": totals["scipy"] / 1e6,
            "cli.import_numpy_s": totals["numpy"] / 1e6}
