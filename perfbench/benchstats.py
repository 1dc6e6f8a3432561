"""Arithmetic of the S3D++ benchmark: percentiles, quartile spreads,
throughput and operation counting. Pure functions over the raw record the
s3d_perfbench binary prints, so test_benchstats.py can pin them."""

import math
import statistics

# Samples that must lie strictly above the 90th percentile before it is
# reported: below that the tail estimate rests on a handful of steps.
P90_MIN_BEYOND = 10


def percentile(xs, q):
    """q-th percentile (0..100) with linear interpolation between order
    statistics (the 'inclusive' definition: p0 = min, p100 = max)."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def beyond(xs, threshold):
    return sum(1 for x in xs if x > threshold)


def p90_if_supported(xs):
    """(p90, samples beyond it), with p90 None when fewer than
    P90_MIN_BEYOND samples lie beyond it."""
    if not xs:
        return None, 0
    p = percentile(xs, 90)
    n = beyond(xs, p)
    return (p if n >= P90_MIN_BEYOND else None), n


def quartile_spread(values):
    """(q3 - q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them: the run-to-run spread the benchmark's bounds are set
    against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cell_steps_per_s(cells, steps, wall_s):
    """Global interior cells x committed steps / wall seconds."""
    if wall_s <= 0:
        raise ValueError("non-positive loop wall time")
    return cells * steps / wall_s


def ops_counts(rec):
    """(attempted, failed) operations of one run.

    Attempted: committed steps, checkpoint generations, analysis
    invocations, final restores. Failed: unrecovered breaches,
    invalidated or persist-failed generations, dropped emissions, failed
    restores; a failed correctness check fails every operation of the
    run. Faults the recovery ladder absorbs are not failures."""
    ops = rec["ops"]
    attempted = (ops["steps"] + ops["ckpt_generations"] +
                 ops["analysis_invocations"] + ops["restores"])
    failed = (ops["unrecovered"] + ops["ckpt_failed"] +
              ops["emissions_dropped"] + ops["restores_failed"])
    attempted = max(attempted, 1)
    if not all(c["ok"] for c in rec["checks"]):
        failed = attempted
    return attempted, min(failed, attempted)


def end_to_end(rec):
    """Every end-to-end metric of an untraced record, as
    name -> (value, unit, sample count). step_ms_p90 is absent when the
    tail is too thin to report."""
    steps = rec["step_ms"]
    out = {}
    if steps:
        out["step_ms_p50"] = (percentile(steps, 50), "ms", len(steps))
        p90, _ = p90_if_supported(steps)
        if p90 is not None:
            out["step_ms_p90"] = (p90, "ms", len(steps))
    if rec["loop_wall_s"] > 0:
        out["cell_steps_per_s"] = (
            cell_steps_per_s(rec["global_cells"], rec["loop_steps"],
                             rec["loop_wall_s"]), "1/s", len(steps))
        out["sim_us_per_wall_s"] = (
            1e6 * rec["loop_sim_s"] / rec["loop_wall_s"], "us/s", len(steps))
    out["setup_s"] = (statistics.median(rec["setup_s"]), "s",
                      len(rec["setup_s"]))
    out["peak_rss_mb"] = (rec["peak_rss_mb"], "MB", 1)
    attempted, failed = ops_counts(rec)
    out["ops_failed_frac"] = (failed / attempted, "ratio", attempted)
    return out
