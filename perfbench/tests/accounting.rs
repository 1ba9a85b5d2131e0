//! The percentile rule, failure accounting, the result line, and the
//! `/metrics` reader.

use perfbench::metrics::{result_line, Values, END_TO_END, PER_LAYER};
use perfbench::prom;
use perfbench::stats::{beyond, rank_index, tail_permille, Samples, Tally, MIN_BEYOND};

#[test]
fn rank_index_is_nearest_rank() {
    assert_eq!(rank_index(1, 500), 0);
    assert_eq!(rank_index(10, 500), 4);
    assert_eq!(rank_index(11, 500), 5);
    assert_eq!(rank_index(100, 990), 98);
    assert_eq!(rank_index(1000, 999), 998);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // Too few samples for even the median.
    assert_eq!(tail_permille(0), None);
    assert_eq!(tail_permille(19), None);
    // 20 samples: the median (10th) has exactly ten beyond it.
    assert_eq!(tail_permille(20), Some(500));
    assert_eq!(tail_permille(99), Some(500));
    // 100 samples: p90 is the 90th, ten beyond.
    assert_eq!(tail_permille(100), Some(900));
    assert_eq!(tail_permille(199), Some(900));
    assert_eq!(tail_permille(200), Some(950));
    assert_eq!(tail_permille(240), Some(950));
    assert_eq!(tail_permille(1000), Some(990));
    assert_eq!(tail_permille(9_999), Some(990));
    assert_eq!(tail_permille(10_000), Some(999));
    // The rule holds everywhere, and the next rung up would break it.
    for n in 21..3000 {
        let p = tail_permille(n).unwrap();
        assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        if let Some(higher) = [500, 900, 950, 990, 999].into_iter().find(|&q| q > p) {
            assert!(
                beyond(n, higher) < MIN_BEYOND,
                "n={n}: p{higher} also qualifies"
            );
        }
    }
}

#[test]
fn samples_report_the_rule_tail() {
    let mut s = Samples::new();
    for v in 1..=200 {
        s.push(v as f64);
    }
    assert_eq!(s.p50(), 100.0);
    assert_eq!(s.tail(), (950, 190.0));
    assert_eq!(s.max(), 200.0);
    assert_eq!(s.mean(), 100.5);
    let mut small = Samples::new();
    small.push(3.0);
    small.push(1.0);
    // Too small for the rule: the tail falls back to the median.
    assert_eq!(small.tail(), (500, 1.0));
    assert_eq!(Samples::new().p50(), 0.0);
}

#[test]
fn tally_counts_failures_against_attempts() {
    let mut t = Tally::new();
    t.ok();
    t.ok();
    t.fail("first");
    t.check(true, || unreachable!());
    t.check(false, || "second".to_string());
    assert_eq!((t.attempted, t.failed), (5, 2));
    assert_eq!(t.failed_ratio(), 0.4);
    assert!(!t.all_ok());
    assert_eq!(t.reasons, ["first", "second"]);

    let mut total = Tally::new();
    total.ok();
    total.merge(t);
    assert_eq!((total.attempted, total.failed), (6, 2));
    assert_eq!(Tally::new().failed_ratio(), 0.0);
}

fn all_end_to_end() -> Values {
    let mut v = Values::new();
    for d in END_TO_END {
        v.set(d.name, 1.5);
    }
    v
}

#[test]
fn result_line_carries_counts_and_every_metric() {
    let mut t = Tally::new();
    t.ok();
    t.fail("x");
    let line = result_line(false, &t, false, &all_end_to_end()).unwrap();
    let parsed = hopi_server::json::parse(&line).unwrap();
    assert_eq!(parsed.get("correct").and_then(|j| j.as_bool()), Some(false));
    assert_eq!(parsed.get("attempted").and_then(|j| j.as_u64()), Some(2));
    assert_eq!(parsed.get("failed").and_then(|j| j.as_u64()), Some(1));
    let metrics = parsed.get("metrics").and_then(|j| j.as_obj()).unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());

    // A traced line reports every per-layer metric, unmeasured ones as 0.
    let traced = result_line(true, &t, true, &Values::new()).unwrap();
    let parsed = hopi_server::json::parse(&traced).unwrap();
    assert_eq!(
        parsed
            .get("metrics")
            .and_then(|j| j.as_obj())
            .unwrap()
            .len(),
        PER_LAYER.len()
    );

    // An unmeasured end-to-end metric, or nothing attempted, is an error.
    assert!(result_line(true, &t, false, &Values::new()).is_err());
    assert!(result_line(true, &Tally::new(), false, &all_end_to_end()).is_err());
}

#[test]
fn prometheus_buckets_give_quantiles() {
    let text = "\
# TYPE hopi_stage_duration_seconds histogram
hopi_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.000002\"} 50
hopi_stage_duration_seconds_bucket{stage=\"eval\",le=\"0.00001\"} 99
hopi_stage_duration_seconds_bucket{stage=\"eval\",le=\"+Inf\"} 100
hopi_stage_duration_seconds_bucket{stage=\"read\",le=\"+Inf\"} 0
hopi_requests_shed_total 3
";
    let b = prom::buckets(text, "hopi_stage_duration_seconds", "stage=\"eval\"");
    assert_eq!(b.len(), 3);
    assert_eq!(prom::quantile(&b, 0.5), 0.000002);
    assert_eq!(prom::quantile(&b, 0.99), 0.00001);
    // The +Inf bucket reports the last finite bound.
    assert_eq!(prom::quantile(&b, 1.0), 0.00001);
    let empty = prom::buckets(text, "hopi_stage_duration_seconds", "stage=\"read\"");
    assert_eq!(prom::quantile(&empty, 0.5), 0.0);
    assert_eq!(prom::scalar(text, "hopi_requests_shed_total"), Some(3.0));
    assert_eq!(prom::scalar(text, "missing"), None);
}

#[test]
fn descendants_fingerprint_ignores_order_but_not_content() {
    use perfbench::workloads::id_set_hash;
    assert_eq!(id_set_hash(&[3, 1, 2]), id_set_hash(&[1, 2, 3]));
    assert_ne!(id_set_hash(&[1, 2, 3]), id_set_hash(&[1, 2, 4]));
    assert_ne!(id_set_hash(&[1, 2]), id_set_hash(&[1, 2, 2]));
}

#[test]
fn read_time_shares_cover_every_read() {
    use perfbench::workloads::ReadSamples;
    let mut s = ReadSamples::new(false);
    s.record("probe_batch", 1.0);
    s.record("path", 6.0);
    s.record("content", 3.0);
    let shares = s.time_shares();
    assert_eq!(shares.iter().map(|x| x.1).sum::<f64>(), 100.0);
    assert_eq!(shares[0], ("probe_batch", 10.0));
    assert_eq!(shares[2], ("path", 60.0));
    let mut values = Values::new();
    s.report_layers(&mut values);
    assert_eq!(values.get("bench.read_time_pct.content"), Some(30.0));
    // Untraced logs keep no per-class samples, so no class percentiles.
    assert_eq!(values.get("query.path_us.p50"), None);
}

#[test]
fn timings_scale_by_the_reference_over_the_kernels_lower_quartile() {
    use perfbench::speed::{Speed, REFERENCE_MS};
    let mut speed = Speed::new();
    for _ in 0..8 {
        speed.sample();
    }
    assert_eq!(speed.samples(), 8);
    let quartile = speed.quartile_ms();
    assert!(quartile > 0.0 && quartile.is_finite());
    assert_eq!(speed.scale(), REFERENCE_MS / quartile);
}
