"""Pure helpers of the plant-throughput benchmark: order statistics,
failed-op counting and the metric tables. No I/O, so the tests can pin them.
"""

import statistics

# The seed the golden artifact fingerprints were recorded at.
DEFAULT_SEED = 1

# Artifact fingerprint of each workload at DEFAULT_SEED: the campus, skewed
# campus and radio-floor export fingerprints the repository pins, and the
# expiry-order fingerprint of the flowmon plant-tier meter.
GOLDEN = {
    "campus_uniform": "4c0aba8306081ee5",
    "campus_skew": "ed59b5a6a50b1754",
    "radio_floor": "301b7df05e86c83d",
    "flowmon_plant_tier": "c735b4daa7df05e1",
}

# End-to-end metric -> (the sample series of plant_bench it is the median
# of, whether the series is a rate or a time). Units live in BENCHMARK.json.
END_TO_END = {
    "sim_frames_per_s": ("frames_per_s_1", "rate"),
    "sim_frames_per_s_2shard": ("frames_per_s_2", "rate"),
    "setup_s": ("setup_s", "time"),
}

# How strongly timings are corrected for the host's speed: a rate is
# multiplied by slowdown ** SPEED_EXPONENT, a time divided by it. The
# workloads' measured elasticity to the probe (the slope of log(timing) over
# log(slowdown)) lies between 0.2 and 1.2, about 0.5 for most of them; a
# full correction (1.0) over-corrects those and none (0.0) leaves their
# drift in. perfbench/README.md has the measurements.
SPEED_EXPONENT = 0.5


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, beyond=10, worse="higher"):
    """The most extreme whole percentile on the worse side that still has at
    least `beyond` samples beyond it, as (percentile, value), or None when
    there are too few samples. With 100 samples and worse="higher" (a
    time) this is p90, the 91st-smallest value; with worse="lower" (a
    throughput) it is p10, the 11th-smallest."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    k = n - beyond  # ordered[k:] are the `beyond` samples above the cut
    if worse == "lower":
        return 100 - (100 * k) // n, ordered[beyond]
    return (100 * k) // n, ordered[k - 1]


def count_failed(checks, workload, seed, golden=GOLDEN):
    """Failed ops of one run. A whole-run check that fails fails every op:
    a fingerprint that drifts between iterations, the workload invariant,
    and at the default seed the golden fingerprint and the shape check
    pinned there (radio: degradation_monotone). Otherwise the per-op
    failures stand."""
    attempted = checks["attempted"]
    if not checks["fp_stable"] or not checks["invariant_ok"]:
        return attempted
    if seed == DEFAULT_SEED and (checks["fingerprint"] != golden[workload]
                                 or not checks["default_seed_ok"]):
        return attempted
    return checks["bad"]


def host_slowdown(doc):
    """The run's median host-speed probe time over the reference time; 1.0
    when the document has no probe samples."""
    probes = doc["samples"].get("host_slowdown")
    return median(probes) if probes else 1.0


def end_to_end_metrics(doc):
    """{name: (value, samples)} of the untraced metrics of one plant_bench
    document, corrected for the host's speed (see SPEED_EXPONENT)."""
    correction = host_slowdown(doc) ** SPEED_EXPONENT
    out = {}
    for name, (series, kind) in END_TO_END.items():
        scale = correction if kind == "rate" else 1.0 / correction
        samples = [v * scale for v in doc["samples"][series]]
        out[name] = (median(samples), samples)
    out["peak_rss_mb"] = (doc["peak_rss_mb"], [doc["peak_rss_mb"]])
    return out


def layer_metrics(doc, declared):
    """{name: (value, unit)} for every declared per-layer metric. A layer the
    workload never reaches reports 0 -- it did no work there. A timed series
    of END_TO_END declared per-layer (the 2-shard rung) is computed as the
    end-to-end metrics are."""
    layers = doc["layers"]
    timed = end_to_end_metrics(doc)
    out = {}
    for spec in declared:
        if spec["name"] in END_TO_END:
            out[spec["name"]] = (timed[spec["name"]][0], spec["unit"])
            continue
        values = layers.get(spec["name"])
        out[spec["name"]] = (median(values) if values else 0.0, spec["unit"])
    on = layers.get("trace.iter_s_on")
    off = layers.get("trace.iter_s_off")
    if "trace.overhead_frac" in out and on and off:
        out["trace.overhead_frac"] = (median(on) / median(off) - 1.0,
                                      out["trace.overhead_frac"][1])
    return out
