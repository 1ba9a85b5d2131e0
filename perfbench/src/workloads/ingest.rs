//! `ingest`: durable inserts beside reads over loopback HTTP.
//!
//! An in-process `hopi_server` with two workers serves a durable
//! `OnlineHopi` (group commit) over the INEX-linked collection. One
//! connection runs a fixed plan of inserts in a closed loop; a second
//! reads at a fixed rate in an open loop, timing each read from when it
//! was due. After the plan the state directory is reopened (checkpoint
//! plus WAL replay) and every acknowledged insert is looked up.

use super::{
    build_values, check_connected, expected_connected, freeze_ms, measured_overhead_pct,
    CheckedMix, ReadSamples,
};
use crate::inputs::{check_pairs, inex_linked, ingest_plan, Insert, ReadOp};
use crate::metrics::{self, per_layer};
use crate::oracle::Oracle;
use crate::prom;
use crate::speed::Speed;
use crate::stats::{median, Samples, Tally};
use crate::trace::Tracer;
use crate::workloads::query::{checked_mix, input_sizes};
use crate::{secs, Outcome, RunConfig};
use hopi_build::{DurableConfig, Hopi, OnlineHopi, SyncPolicy, CHECKPOINT_FILE};
use hopi_server::json::{self, Json};
use hopi_server::{serve, Client, ServerConfig, ServerHandle};
use hopi_xml::ElemId;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Server worker threads.
const WORKERS: usize = 2;

/// The server's request stages, as labelled on `/metrics`.
const STAGES: [&str; 5] = ["read", "route", "eval", "serialize", "write"];

fn durable_config(dir: &Path) -> DurableConfig {
    DurableConfig::new(dir).policy(SyncPolicy::GroupCommit)
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", dir.display())),
    }
}

/// Percent-encodes a query-string value.
fn url_encode(s: &str) -> String {
    s.bytes()
        .map(|b| match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                (b as char).to_string()
            }
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// A running server over a durable engine.
struct Live {
    handle: ServerHandle,
    online: OnlineHopi,
}

impl Live {
    /// Stops the server and releases the state directory.
    fn stop(self) {
        self.handle.shutdown();
        drop(self.online);
    }
}

/// One set-up: generate, build, bootstrap the state directory (initial
/// checkpoint), start the server, and wait for its first answer. Returns
/// the set-up time without the replica clone a traced run takes.
fn setup_once(
    config: &RunConfig,
    dir: &Path,
    i: u64,
    tracer: &mut Tracer,
    replica: &mut Option<Hopi>,
) -> Result<(Live, f64, f64), String> {
    remove_dir(dir)?;
    let start = Instant::now();
    let collection = tracer.span("bench.generate", i, |_| {
        inex_linked(config.sizes.inex_scale)
    });
    let build_start = Instant::now();
    let hopi = tracer
        .span("build.build", i, |_| Hopi::build(collection))
        .map_err(|e| format!("build failed: {e}"))?;
    let build_s = secs(build_start);
    let mut excluded = 0.0;
    if config.trace {
        let clone_start = Instant::now();
        *replica = Some(hopi.clone());
        excluded = secs(clone_start);
    }
    let online = tracer
        .span("store.bootstrap", i, |_| {
            OnlineHopi::bootstrap_durable(&durable_config(dir), hopi)
        })
        .map_err(|e| format!("durable bootstrap failed: {e}"))?;
    let handle = tracer
        .span("server.start", i, |_| {
            serve(
                online.clone(),
                ServerConfig {
                    addr: ([127, 0, 0, 1], 0).into(),
                    threads: WORKERS,
                    ..ServerConfig::default()
                },
            )
        })
        .map_err(|e| format!("server start failed: {e}"))?;
    let live = Live { handle, online };
    let ready = Client::connect(live.handle.addr()).and_then(|mut c| c.get("/healthz"));
    match ready {
        Ok(r) if r.status == 200 => Ok((live, secs(start) - excluded, build_s)),
        Ok(r) => {
            live.stop();
            Err(format!("server not healthy: {} {}", r.status, r.body))
        }
        Err(e) => {
            live.stop();
            Err(format!("server unreachable: {e}"))
        }
    }
}

/// A rendered HTTP request.
struct Request {
    method: &'static str,
    path: String,
    body: String,
}

fn reader_requests(mix: &CheckedMix) -> Vec<Request> {
    mix.mix
        .ops
        .iter()
        .map(|op| match *op {
            ReadOp::ProbeBatch(b) => {
                let pairs: Vec<String> = mix.mix.batches[b]
                    .iter()
                    .map(|(u, v)| format!("[{u},{v}]"))
                    .collect();
                Request {
                    method: "POST",
                    path: "/connected_many".into(),
                    body: format!("{{\"pairs\":[{}]}}", pairs.join(",")),
                }
            }
            ReadOp::Descendants(u) => Request {
                method: "GET",
                path: format!("/descendants?u={u}"),
                body: String::new(),
            },
            ReadOp::Path(p) => Request {
                method: "GET",
                path: format!("/query?expr={}", url_encode(&mix.paths[p])),
                body: String::new(),
            },
            ReadOp::Content(c) => Request {
                method: "GET",
                path: format!("/query?expr={}", url_encode(&mix.contents[c])),
                body: String::new(),
            },
        })
        .collect()
}

fn writer_request(insert: &Insert) -> Request {
    match insert {
        Insert::Doc { name, xml } => Request {
            method: "POST",
            path: format!("/documents?name={}", url_encode(name)),
            body: xml.clone(),
        },
        Insert::Link { from, to } => Request {
            method: "POST",
            path: "/links".into(),
            body: format!("{{\"from\":{from},\"to\":{to}}}"),
        },
    }
}

/// Checks a read answered during inserts. Inserts only add reachability,
/// so every pair BFS connected before the plan stays connected and no
/// result count shrinks below its pre-plan value.
fn check_read(mix: &CheckedMix, op: ReadOp, body: &Json) -> Result<(), String> {
    let count = body.get("count").and_then(Json::as_u64).unwrap_or(0) as usize;
    match op {
        ReadOp::ProbeBatch(b) => {
            let got = body.get("results").and_then(Json::as_arr).unwrap_or(&[]);
            let expected = &mix.expected.batches[b];
            let lost = expected
                .iter()
                .enumerate()
                .any(|(k, &want)| want && got.get(k).and_then(Json::as_bool) != Some(true));
            if got.len() != expected.len() || lost {
                return Err(format!("probe batch {b} lost a connection BFS found"));
            }
        }
        ReadOp::Descendants(u) => {
            let before = mix.expected.descendants.get(&u).map_or(0, |e| e.0);
            if count < before {
                return Err(format!("descendants({u}) shrank from {before} to {count}"));
            }
        }
        ReadOp::Path(p) if count < mix.expected.paths[p] => {
            return Err(format!(
                "{} shrank below {}",
                mix.paths[p], mix.expected.paths[p]
            ));
        }
        ReadOp::Content(c) if count < mix.expected.contents[c] => {
            return Err(format!(
                "{} shrank below {}",
                mix.contents[c], mix.expected.contents[c]
            ));
        }
        _ => {}
    }
    Ok(())
}

/// The open-loop reader: read `i` is due at `i / rate` seconds; its
/// latency runs from when it was due. Stops once `done` is set, after at
/// least one read.
fn reader(
    addr: std::net::SocketAddr,
    mix: &CheckedMix,
    rate: f64,
    done: &AtomicBool,
    tracer: &mut Tracer,
) -> (ReadSamples, Tally, f64) {
    let mut samples = ReadSamples::default();
    let mut tally = Tally::new();
    let mut max_lag_ms: f64 = 0.0;
    let requests = reader_requests(mix);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("reader cannot connect: {e}"));
            return (samples, tally, 0.0);
        }
    };
    let t0 = Instant::now();
    for i in 0.. {
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if i > 0 && done.load(Ordering::Acquire) {
            break;
        }
        max_lag_ms = max_lag_ms.max(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let op = mix.mix.ops[i % mix.mix.ops.len()];
        let req = &requests[i % requests.len()];
        let resp = tracer.span("server.read", i as u64, |_| {
            client.request(req.method, &req.path, &req.body)
        });
        samples.record(
            op.class(),
            Instant::now().duration_since(due).as_secs_f64() * 1e6,
        );
        let verdict = match resp {
            Err(e) => Err(format!("read failed: {e}")),
            Ok(r) if r.status != 200 => Err(format!("read answered {}: {}", r.status, r.body)),
            Ok(r) => json::parse(&r.body)
                .map_err(|e| format!("unparsable read answer: {e}"))
                .and_then(|body| check_read(mix, op, &body)),
        };
        match verdict {
            Ok(()) => tally.ok(),
            Err(e) => tally.fail(e),
        }
    }
    (samples, tally, max_lag_ms)
}

/// What the writer acknowledged.
#[derive(Default)]
struct Acked {
    docs: Vec<String>,
    links: Vec<(ElemId, ElemId)>,
}

/// The closed-loop writer: every insert of the plan, each timed from
/// sending to its durable acknowledgement (milliseconds, in plan order).
/// The host's speed is sampled before each insert.
fn writer(
    addr: std::net::SocketAddr,
    plan: &[Insert],
    tracer: &mut Tracer,
    speed: &mut Speed,
) -> (Vec<f64>, Tally, Acked) {
    let mut latency = Vec::with_capacity(plan.len());
    let mut tally = Tally::new();
    let mut acked = Acked::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("writer cannot connect: {e}"));
            return (latency, tally, acked);
        }
    };
    for (k, insert) in plan.iter().enumerate() {
        let req = writer_request(insert);
        speed.sample();
        let sent = Instant::now();
        let resp = tracer.span("server.insert", k as u64, |_| {
            client.request(req.method, &req.path, &req.body)
        });
        latency.push(secs(sent) * 1e3);
        match resp {
            Ok(r) if r.status == 200 => {
                tally.ok();
                match insert {
                    Insert::Doc { name, .. } => acked.docs.push(name.clone()),
                    Insert::Link { from, to } => acked.links.push((*from, *to)),
                }
            }
            Ok(r) => tally.fail(format!("insert {k} answered {}: {}", r.status, r.body)),
            Err(e) => tally.fail(format!("insert {k} failed: {e}")),
        }
    }
    (latency, tally, acked)
}

/// What one round of the plan measured.
struct Round {
    /// Each insert's latency, milliseconds, in plan order.
    insert_ms: Vec<f64>,
    cover_entries_per_element: f64,
    read_p50_us: f64,
    read_tail_us: f64,
    reader_lag_ms: f64,
    acked: Acked,
}

/// The reader's mix (with its pre-plan answers) and the insert plan,
/// derived from the collection every set-up builds, before the first
/// build.
fn round_inputs(config: &RunConfig, out: &mut Outcome) -> (CheckedMix, Vec<Insert>) {
    let collection = inex_linked(config.sizes.inex_scale);
    let mix = checked_mix(config, &collection, config.sizes.reader_ops, out);
    let plan = ingest_plan(
        &collection,
        config.sizes.ingest_docs,
        config.sizes.ingest_links,
        config.seed,
    );
    (mix, plan)
}

/// Input sizes and build report of the first set-up's engine.
fn engine_values(config: &RunConfig, live: &Live, out: &mut Outcome) {
    live.online.read(|hopi| {
        out.inputs = input_sizes(hopi);
        build_values(&mut out.values, hopi.report());
        if config.trace {
            let ms = freeze_ms(hopi, &mut out.tracer);
            out.values.set("core.freeze_ms", ms);
        }
    });
}

/// One round: the insert plan on a fresh server, with the reader beside
/// it.
fn plan_round(
    config: &RunConfig,
    live: &Live,
    mix: &CheckedMix,
    plan: &[Insert],
    out: &mut Outcome,
    thread: usize,
) -> Round {
    let addr = live.handle.addr();
    let done = AtomicBool::new(false);
    let mut reader_tracer = out.tracer.fork();
    let ((mut reads, read_tally, reader_lag_ms), (insert_ms, write_tally, acked)) =
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                reader(
                    addr,
                    mix,
                    config.sizes.reader_rate,
                    &done,
                    &mut reader_tracer,
                )
            });
            let w = writer(addr, plan, &mut out.tracer, &mut out.speed);
            done.store(true, Ordering::Release);
            let r = reader.join().unwrap_or_else(|_| {
                let mut t = Tally::new();
                t.fail("reader thread panicked");
                (ReadSamples::default(), t, 0.0)
            });
            (r, w)
        });
    out.tracer.absorb(reader_tracer, thread);
    out.tally.merge(read_tally);
    out.tally.merge(write_tally);
    let after = live.online.snapshot_stats();
    Round {
        insert_ms,
        cover_entries_per_element: after.cover_entries as f64 / after.elements.max(1) as f64,
        read_p50_us: reads.all.p50(),
        read_tail_us: reads.all.tail().1,
        reader_lag_ms,
        acked,
    }
}

/// Runs the `ingest` workload.
pub fn run(config: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let dir = config.work_dir.join(format!("ingest-{}", config.seed));
    let mut replica = None;
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let (mix, plan) = round_inputs(config, out);
    let mut rounds = Vec::new();
    let mut last = None;
    let n = config.sizes.setups.max(1);
    for i in 0..n {
        out.speed.sample();
        let (live, setup_s, build_s) =
            setup_once(config, &dir, i as u64, &mut out.tracer, &mut replica)?;
        setups.push(setup_s);
        builds.push(build_s);
        if i == 0 {
            engine_values(config, &live, out);
        }
        let round = plan_round(config, &live, &mix, &plan, out, i + 1);
        rounds.push(round);
        if i == 0 {
            // Later rounds repeat the first; what the allocator keeps
            // from an earlier round would only blur the high-water mark.
            out.values.set("peak_rss_mb", metrics::peak_rss_mb());
        }
        if i + 1 < n {
            live.stop();
        } else {
            last = Some(live);
        }
    }
    let live = last.ok_or("no set-up ran")?;
    out.values.set("setup_s", median(&setups));
    out.values.set("build.build_ms", median(&builds) * 1e3);
    let med = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    // Every round runs the same plan from the same state, so insert `k`
    // does the same work in each; its fastest round is its least
    // disturbed cost (see `CheckedMix::fastest_of_passes`).
    let fastest: Vec<f64> = (0..plan.len())
        .map(|k| {
            rounds
                .iter()
                .filter_map(|r| r.insert_ms.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let round_s: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.2}", r.insert_ms.iter().sum::<f64>() / 1e3))
        .collect();
    out.notes
        .push(format!("insert time per round: {} s", round_s.join(", ")));
    let mut inserts = Samples::new();
    for &ms in &fastest {
        inserts.push(ms);
    }
    let (tail_permille, op_tail_ms) = inserts.tail();
    out.values.set(
        "ops_per_s",
        fastest.len() as f64 * 1e3 / fastest.iter().sum::<f64>().max(1e-9),
    );
    out.values.set("op_p50_ms", inserts.p50());
    out.values.set("op_tail_ms", op_tail_ms);
    out.values.set(
        "cover_entries_per_element",
        med(|r| r.cover_entries_per_element),
    );
    out.values.set("ingest.read_p50_us", med(|r| r.read_p50_us));
    out.values
        .set("ingest.read_tail_us", med(|r| r.read_tail_us));
    out.values
        .set("ingest.reader_lag_ms.max", med(|r| r.reader_lag_ms));
    let addr = live.handle.addr();
    // Server and WAL state after the last round.
    match Client::connect(addr).and_then(|mut c| c.get("/metrics")) {
        Ok(r) if r.status == 200 => server_values(out, &r.body),
        Ok(r) => out.notes.push(format!("/metrics answered {}", r.status)),
        Err(e) => out.notes.push(format!("/metrics unreachable: {e}")),
    }
    if let Some(h) = live.online.wal_histograms() {
        out.values.set(
            "store.wal_fsync_us.p50",
            h.fsync.quantile_micros(0.5) as f64,
        );
        out.values.set(
            "store.wal_fsync_us.p99",
            h.fsync.quantile_micros(0.99) as f64,
        );
        out.values
            .set("store.wal_batch_records.mean", h.batch.mean_micros());
    }
    let replay = live
        .online
        .wal_stats()
        .map_or(0, |w| w.records_since_checkpoint);
    out.values.set("store.replayed_records", replay as f64);
    live.stop();

    let acked = &rounds.last().ok_or("no round ran")?.acked;
    reopen(config, &dir, &mix, acked, out)?;
    if let Some(replica) = replica {
        replay_on_replica(replica, &plan, out);
    }
    remove_dir(&dir)?;
    let r = rounds.last().ok_or("no round ran")?;
    out.notes.push(format!(
        "{} rounds of {} inserts (last: {} acked); each insert counts at its fastest round, \
         op tail at p{}; reads at {} /s, their metrics medians over rounds",
        rounds.len(),
        plan.len(),
        r.acked.docs.len() + r.acked.links.len(),
        tail_permille as f64 / 10.0,
        config.sizes.reader_rate
    ));
    Ok(())
}

/// Stage latencies and shed count from the server's `/metrics`.
fn server_values(out: &mut Outcome, text: &str) {
    for stage in STAGES {
        let b = prom::buckets(
            text,
            "hopi_stage_duration_seconds",
            &format!("stage=\"{stage}\""),
        );
        for (q, suffix) in [(0.5, "p50"), (0.99, "p99")] {
            if let Some(name) = per_layer(&format!("server.stage_us.{stage}.{suffix}")) {
                out.values.set(name, prom::quantile(&b, q) * 1e6);
            }
        }
    }
    out.values.set(
        "server.shed",
        prom::scalar(text, "hopi_requests_shed_total").unwrap_or(0.0),
    );
}

/// Reopens the state directory (checkpoint plus WAL replay) until the
/// first query answers, then checks every acknowledged insert and a
/// sample of connections against BFS.
fn reopen(
    config: &RunConfig,
    dir: &Path,
    mix: &CheckedMix,
    acked: &Acked,
    out: &mut Outcome,
) -> Result<(), String> {
    let checkpoint_bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE)).map_or(0, |m| m.len());
    out.values
        .set("store.checkpoint_bytes", checkpoint_bytes as f64);
    let start = Instant::now();
    let online = out
        .tracer
        .span("store.recover", 0, |_| {
            OnlineHopi::open_durable(&durable_config(dir), Hopi::builder(), None)
        })
        .map_err(|e| format!("reopen failed: {e}"))?;
    let snapshot = online.snapshot();
    let first = out
        .tracer
        .span("query.path", 0, |_| snapshot.query(&mix.paths[0]));
    out.values.set("store.recover_ms", secs(start) * 1e3);
    out.tally.check(first.is_ok(), || {
        format!("first query after reopen failed: {first:?}")
    });

    let missing_docs = acked
        .docs
        .iter()
        .filter(|name| snapshot.resolve(name, "").is_err())
        .count();
    let missing_links = online.read(|h| {
        acked
            .links
            .iter()
            .filter(|&&(f, t)| !h.collection().has_link(f, t))
            .count()
    });
    out.tally.check(missing_docs + missing_links == 0, || {
        format!("after reopen, {missing_docs} acked documents and {missing_links} acked links are missing")
    });
    let collection = snapshot.collection();
    let pairs = check_pairs(collection, config.sizes.check_pairs, config.seed);
    let expected = expected_connected(&mut Oracle::new(collection), &pairs);
    check_connected(
        &expected,
        &pairs,
        |p, got| snapshot.connected_many(p, got),
        "after reopen",
        &mut out.tally,
    );
    if config.trace {
        // The mix's in-process reads on the recovered snapshot: the same
        // spans as the HTTP reader's, around cheaper calls, so an upper
        // bound on what tracing adds to them.
        out.values
            .set("trace.overhead_pct", measured_overhead_pct(mix, &*snapshot));
    }
    Ok(())
}

/// Replays the plan on an in-process replica of the engine, timing the
/// maintenance call and the snapshot capture `OnlineHopi` runs per
/// mutation.
fn replay_on_replica(mut replica: Hopi, plan: &[Insert], out: &mut Outcome) {
    let (mut insert_ms, mut publish_ms, mut added) =
        (Samples::new(), Samples::new(), Samples::new());
    let tracer = &mut out.tracer;
    for (k, insert) in plan.iter().enumerate() {
        let size = replica.index().size();
        let start = Instant::now();
        let result = tracer.span("maintenance.insert", k as u64, |_| match insert {
            Insert::Doc { name, xml } => replica.insert_xml(name, xml).map(drop),
            Insert::Link { from, to } => replica.insert_link(*from, *to).map(drop),
        });
        insert_ms.push(secs(start) * 1e3);
        if let Err(e) = result {
            out.tally.fail(format!("replica insert {k} failed: {e}"));
            continue;
        }
        added.push(replica.index().size().saturating_sub(size) as f64);
        let start = Instant::now();
        let snapshot = tracer.span("build.publish", k as u64, |_| replica.snapshot());
        publish_ms.push(secs(start) * 1e3);
        drop(snapshot);
    }
    out.values.set("maintenance.insert_ms.p50", insert_ms.p50());
    out.values
        .set("maintenance.insert_ms.p95", insert_ms.permille(950));
    out.values.set("build.publish_ms.p50", publish_ms.p50());
    out.values
        .set("build.publish_ms.p95", publish_ms.permille(950));
    out.values
        .set("core.entries_added_per_insert", added.mean());
}
