//! Reading the server's `/metrics` exposition: cumulative histogram
//! buckets and plain counters.

/// Cumulative `(upper bound, count)` buckets of one histogram series,
/// e.g. `buckets(text, "hopi_stage_duration_seconds", "stage=\"eval\"")`.
pub fn buckets(text: &str, name: &str, labels: &str) -> Vec<(f64, u64)> {
    let prefix = format!("{name}_bucket{{{labels},le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, rest) = rest.split_once("\"}")?;
            let upper = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((upper, rest.trim().parse().ok()?))
        })
        .collect()
}

/// The `q` quantile of cumulative buckets, as the upper bound of the
/// first bucket holding it (the last finite bound when it falls in
/// `+Inf`); 0 for an empty histogram.
pub fn quantile(buckets: &[(f64, u64)], q: f64) -> f64 {
    let total = buckets.last().map_or(0, |b| b.1);
    if total == 0 {
        return 0.0;
    }
    let want = (q * total as f64).ceil().max(1.0) as u64;
    let mut last_finite = 0.0;
    for &(upper, cum) in buckets {
        if upper.is_finite() {
            last_finite = upper;
        }
        if cum >= want {
            return if upper.is_finite() {
                upper
            } else {
                last_finite
            };
        }
    }
    last_finite
}

/// An unlabelled counter or gauge.
pub fn scalar(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok()).flatten()
    })
}
