//! The traced run: replays a workload's request sequence in-process
//! through the layers' public functions, with a span around each call,
//! and turns the spans plus the server's own accessors into the
//! per-layer metrics.
//!
//! Kernel spans (`diagram.sweep`, `pairset.venn`) re-run the kernel on
//! the request's inputs next to the `api::handle` call that contains
//! it, since the benchmark cannot open a span inside the program.

use crate::client::request_bytes;
use crate::inputs::{append_op, import_layers, View};
use crate::load::{import_name, Op, Outcome, PoolEntry, COLD_SESSIONS};
use crate::trace::Tracer;
use crate::util::{percentile, FAILED};
use frost_core::clustering::Clustering;
use frost_core::dataset::{choose_pair_engine, ChunkedPairSet, PairAlgebra, PairEngine, PairSet};
use frost_core::diagram::DiagramEngine;
use frost_core::explore::setops::venn_regions;
use frost_server::http::{Parsed, RequestBuffer};
use frost_server::ServerState;
use frost_storage::wal::WalOp;
use frost_storage::{api, BenchmarkStore, DurableStore, FsyncPolicy};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Times of the set-up layers: `snapshot::from_bytes` on the snapshot
/// file, then scanning and applying the WAL over it.
pub fn trace_setup(tr: &mut Tracer, snapshot: &Path, reps: usize) -> Result<(), String> {
    let wal_path = frost_storage::durable::wal_path_for(snapshot);
    for rep in 0..reps {
        let req = rep as u32;
        let root = tr.begin("setup", 0, req);
        let bytes = std::fs::read(snapshot).map_err(|e| e.to_string())?;
        let mut store = tr
            .span("snapshot.load", root.id, req, || {
                frost_storage::snapshot::from_bytes(&bytes)
            })
            .map_err(|e| e.to_string())?;
        let wal = std::fs::read(&wal_path).map_err(|e| e.to_string())?;
        tr.span("durable.replay", root.id, req, || -> Result<(), String> {
            let scan = frost_storage::wal::scan(&wal).map_err(|e| e.to_string())?;
            for op in &scan.ops {
                op.apply(&mut store).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        tr.end(root);
    }
    Ok(())
}

struct Env<'a> {
    state: &'a ServerState,
    durable: &'a Mutex<DurableStore>,
    pool: &'a [PoolEntry],
}

/// Replays `outcome`'s script over a fresh copy of the store in
/// `pristine`; returns the tracer (empty when `on` is false) and the
/// replay's wall time.
pub fn replay(
    outcome: &Outcome,
    pristine: &Path,
    scratch: &Path,
    on: bool,
) -> Result<(Tracer, Duration), String> {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    for name in ["store.frostb", "store.frostb.wal"] {
        std::fs::copy(pristine.join(name), scratch.join(name)).map_err(|e| e.to_string())?;
    }
    let (store, durable, _) = DurableStore::open(scratch.join("store.frostb"), FsyncPolicy::Always)
        .map_err(|e| e.to_string())?;
    let state = ServerState::new(store);
    let durable = Mutex::new(durable);
    let env = Env {
        state: &state,
        durable: &durable,
        pool: &outcome.pool,
    };
    let epoch = Instant::now();
    let mut main = Tracer::new(on, epoch, 1);
    let started = Instant::now();
    let mut req = 0u32;
    for op in &outcome.replay_warm {
        req += 1;
        run_op(&mut main, req, &env, op)?;
    }
    for (w, views) in outcome.replay_windows.iter().enumerate() {
        if w > 0 {
            reset(&state);
        }
        let next = AtomicUsize::new(0);
        let parts: Vec<Result<Tracer, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..COLD_SESSIONS)
                .map(|k| {
                    let (next, state) = (&next, &state);
                    scope.spawn(move || {
                        let mut tr = Tracer::new(on, epoch, (w * COLD_SESSIONS + k) as u32 + 2);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(view) = views.get(i) else { break };
                            let req = ((w as u32) << 16) + i as u32 + 1;
                            replay_read(&mut tr, req, state, view)?;
                        }
                        Ok(tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread"))
                .collect()
        });
        for tr in parts {
            main.absorb(tr?);
        }
    }
    let results: Vec<Result<Tracer, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = outcome
            .replay
            .iter()
            .enumerate()
            .map(|(k, ops)| {
                let env = &env;
                scope.spawn(move || {
                    let mut tr = Tracer::new(on, epoch, k as u32 + 2);
                    let base = (k as u32 + 1) << 24;
                    for (i, op) in ops.iter().enumerate() {
                        run_op(&mut tr, base + i as u32, env, op)?;
                    }
                    Ok(tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    for tr in results {
        main.absorb(tr?);
    }
    Ok((main, elapsed))
}

/// explore-cold's cache reset: every gold standard re-set to itself.
fn reset(state: &ServerState) {
    state.with_store_mut(|s| {
        for dataset in s.dataset_names() {
            let gold = s.gold_standard(&dataset).expect("listed dataset").clone();
            s.set_gold_standard(&dataset, gold).expect("listed dataset");
        }
    });
}

fn run_op(tr: &mut Tracer, req: u32, env: &Env, op: &Op) -> Result<(), String> {
    match op {
        Op::Read(view) => replay_read(tr, req, env.state, view),
        Op::Import(n) => {
            let entry = &env.pool[n % env.pool.len()];
            let name = import_name(*n);
            let root = tr.begin("req.import", 0, req);
            let target = format!("/experiments?dataset={}&name={name}", entry.dataset);
            parse(
                tr,
                root.id,
                req,
                &request_bytes("POST", &target, entry.csv.as_bytes()),
            )?;
            let lock = tr.begin("store.lock_wait", root.id, req);
            let stored = env.state.with_store(|s| {
                tr.end(lock);
                import_layers(tr, root.id, req, s, &entry.dataset, &name, &entry.csv)
            })?;
            let op = WalOp::add_experiment(&entry.dataset, &stored.experiment, None);
            append_op(
                tr,
                root.id,
                req,
                &mut env.durable.lock().expect("durable lock"),
                &op,
            )?;
            tr.span("store.write", root.id, req, || {
                env.state.with_store_mut(|s| s.insert_stored(stored))
            })
            .map_err(|e| e.to_string())?;
            tr.end(root);
            Ok(())
        }
        Op::Delete(n) => {
            let name = import_name(*n);
            let root = tr.begin("req.delete", 0, req);
            parse(
                tr,
                root.id,
                req,
                &request_bytes("DELETE", &format!("/experiments/{name}"), &[]),
            )?;
            let op = WalOp::DeleteExperiment { name: name.clone() };
            append_op(
                tr,
                root.id,
                req,
                &mut env.durable.lock().expect("durable lock"),
                &op,
            )?;
            tr.span("store.write", root.id, req, || {
                env.state.with_store_mut(|s| s.remove_experiment(&name))
            })
            .map_err(|e| e.to_string())?;
            tr.end(root);
            Ok(())
        }
        Op::Save => {
            let root = tr.begin("req.save", 0, req);
            let mut durable = env.durable.lock().expect("durable lock");
            tr.span("durable.compact", root.id, req, || {
                env.state.with_store(|s| durable.compact(s))
            })
            .map_err(|e| e.to_string())?;
            tr.end(root);
            Ok(())
        }
    }
}

fn parse(tr: &mut Tracer, parent: u32, req: u32, bytes: &[u8]) -> Result<(), String> {
    let parsed = tr.span("http.parse", parent, req, || {
        let mut buf = RequestBuffer::new();
        buf.extend(bytes);
        buf.next_request()
    });
    match parsed {
        Parsed::Request(_) => Ok(()),
        other => Err(format!("the server's parser rejected a request: {other:?}")),
    }
}

fn root_name(view: &View) -> &'static str {
    match view.endpoint() {
        "metrics" => "req.metrics",
        "matrix" => "req.matrix",
        "diagram" => "req.diagram",
        "compare" => "req.compare",
        "cluster_metrics" => "req.cluster_metrics",
        "errors" => "req.errors",
        "quality" => "req.quality",
        "ratios" => "req.ratios",
        "profile" => "req.profile",
        _ => "req.experiments",
    }
}

fn api_span(view: &View) -> &'static str {
    match view.endpoint() {
        "metrics" => "api.metrics",
        "matrix" => "api.matrix",
        "diagram" => "api.diagram",
        "compare" => "api.compare",
        "cluster_metrics" => "api.cluster_metrics",
        "errors" => "api.errors",
        "quality" => "api.quality",
        "ratios" => "api.ratios",
        "profile" => "api.profile",
        _ => "api.experiments",
    }
}

/// One `GET` through parse → body-tier probe → store → render.
fn replay_read(tr: &mut Tracer, req: u32, state: &ServerState, view: &View) -> Result<(), String> {
    let root = tr.begin(root_name(view), 0, req);
    let target = view.target();
    parse(tr, root.id, req, &request_bytes("GET", &target, &[]))?;
    let hit = tr.span("cache.probe", root.id, req, || state.cache().get(&target));
    if hit.is_none() {
        let observed = state.cache().begin();
        let lock = tr.begin("store.lock_wait", root.id, req);
        let response = state
            .with_store(|s| {
                tr.end(lock);
                if let Some((exp, samples)) = view.sweep() {
                    let memo = s.diagram_cached(exp, DiagramEngine::Optimized, samples);
                    tr.count(
                        if memo {
                            "store.memo_hits"
                        } else {
                            "store.memo_misses"
                        },
                        1,
                    );
                }
                let response = tr.span(api_span(view), root.id, req, || {
                    api::handle(s, view.request())
                });
                kernels(tr, root.id, req, s, view);
                response
            })
            .map_err(|e| format!("{}: {e}", view.target()))?;
        let body = tr.span("json.render", root.id, req, || {
            serde_json::to_string(&frost_server::json::response_to_json(&response))
        });
        tr.value("json.bytes", body.len() as u64);
        state
            .cache()
            .insert(target, Arc::from(body.as_str()), observed);
    }
    tr.end(root);
    Ok(())
}

/// The kernel calls inside a view, re-run on the same inputs.
fn kernels(tr: &mut Tracer, parent: u32, req: u32, s: &BenchmarkStore, view: &View) {
    if let Some((exp, samples)) = view.sweep() {
        let Ok(stored) = s.experiment(exp) else {
            return;
        };
        let (Ok(ds), Ok(truth)) = (s.dataset(&stored.dataset), s.gold_standard(&stored.dataset))
        else {
            return;
        };
        let points = tr.span("diagram.sweep", parent, req, || {
            DiagramEngine::Optimized.confusion_series(ds.len(), truth, &stored.experiment, samples)
        });
        std::hint::black_box(points);
        tr.count("diagram.sweeps", 1);
    }
    if let View::Compare { experiments, venn } = view {
        let stored: Vec<_> = experiments
            .iter()
            .filter_map(|e| s.experiment(e).ok())
            .collect();
        let Some(first) = stored.first() else { return };
        let truth = if *venn {
            s.gold_standard(&first.dataset).ok()
        } else {
            None
        };
        let engine = PairEngine::combined(
            stored
                .iter()
                .map(|e| choose_pair_engine(e.pair_set.len(), e.pair_set.chunk_count())),
        );
        match engine {
            PairEngine::Roaring => {
                tr.count("pairset.engine.roaring", 1);
                venn_timed(
                    tr,
                    parent,
                    req,
                    stored.iter().map(|e| e.pair_set.clone()).collect(),
                    truth,
                )
            }
            PairEngine::Chunked => {
                tr.count("pairset.engine.chunked", 1);
                venn_timed::<ChunkedPairSet>(
                    tr,
                    parent,
                    req,
                    stored.iter().map(|e| e.experiment.pair_set_as()).collect(),
                    truth,
                )
            }
            PairEngine::Packed => {
                tr.count("pairset.engine.packed", 1);
                venn_timed::<PairSet>(
                    tr,
                    parent,
                    req,
                    stored.iter().map(|e| e.experiment.pair_set_as()).collect(),
                    truth,
                )
            }
        }
    }
}

fn venn_timed<S: PairAlgebra>(
    tr: &mut Tracer,
    parent: u32,
    req: u32,
    mut sets: Vec<S>,
    truth: Option<&Clustering>,
) {
    if let Some(truth) = truth {
        sets.push(S::from_pairs(truth.intra_pairs()));
    }
    let regions = tr.span("pairset.venn", parent, req, || venn_regions(&sets));
    std::hint::black_box(regions);
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn p50(tr: &Tracer, name: &str, scale: f64) -> f64 {
    percentile(&tr.durations(name), 0.5) as f64 / scale
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Computes the per-layer metrics from the merged spans (`tr`), the
/// socket run (`outcome`) and the tracing overhead.
pub fn layer_metrics(tr: &Tracer, outcome: &Outcome, overhead_pct: f64) -> Vec<Metric> {
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let after = |k: &str| outcome.stats_after.get(k).copied().unwrap_or(0.0);
    let delta = |k: &str| after(k) - outcome.stats_before.get(k).copied().unwrap_or(0.0);

    // Transport: per endpoint, the socket p50 minus the replay's
    // root-span p50 (without the kernel re-runs, which the server does
    // not do), weighted by the endpoint's share of requests.
    let mut rerun: HashMap<u32, u64> = HashMap::new();
    for s in &tr.spans {
        if s.name == "diagram.sweep" || s.name == "pairset.venn" {
            *rerun.entry(s.parent).or_insert(0) += s.dur_ns();
        }
    }
    let (mut weighted, mut total) = (0.0, 0.0);
    for (endpoint, lat) in &outcome.by_endpoint {
        let mut ok: Vec<u64> = lat.iter().copied().filter(|&l| l != FAILED).collect();
        ok.sort_unstable();
        let name = format!("req.{endpoint}");
        let mut root: Vec<u64> = tr
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() - rerun.get(&s.id).copied().unwrap_or(0))
            .collect();
        root.sort_unstable();
        if ok.is_empty() || root.is_empty() {
            continue;
        }
        let gap = percentile(&ok, 0.5) as f64 - percentile(&root, 0.5) as f64;
        weighted += gap * ok.len() as f64;
        total += ok.len() as f64;
    }
    let bytes_lookups = delta("bytes_hits") + delta("bytes_misses");
    let body_lookups = delta("body_hits") + delta("body_misses");
    let memo = (tr.counted("store.memo_hits") + tr.counted("store.memo_misses")) as f64;
    let mut json_bytes = tr.values.get("json.bytes").cloned().unwrap_or_default();
    json_bytes.sort_unstable();
    vec![
        ("event_loop.transport_us", ratio(weighted, total) / US, "us"),
        (
            "event_loop.queue_wait_us",
            after("queue_wait_p50_ns") / US,
            "us",
        ),
        ("event_loop.handoff_us", after("handoff_p50_ns") / US, "us"),
        ("http.parse_us", p50(tr, "http.parse", US), "us"),
        ("http.admitted", after("admitted"), "count"),
        ("http.shed", after("shed"), "count"),
        ("cache.probe_us", p50(tr, "cache.probe", US), "us"),
        (
            "cache.bytes_tier.hit_ratio",
            ratio(delta("bytes_hits"), bytes_lookups),
            "ratio",
        ),
        ("cache.bytes_tier.lookups", bytes_lookups, "count"),
        (
            "cache.body_tier.hit_ratio",
            ratio(delta("body_hits"), body_lookups),
            "ratio",
        ),
        ("cache.body_tier.lookups", body_lookups, "count"),
        (
            "cache.resident_bytes",
            after("bytes_resident") + after("body_resident"),
            "bytes",
        ),
        ("api.diagram_ms", p50(tr, "api.diagram", MS), "ms"),
        ("api.compare_ms", p50(tr, "api.compare", MS), "ms"),
        ("api.metrics_ms", p50(tr, "api.metrics", MS), "ms"),
        ("api.matrix_ms", p50(tr, "api.matrix", MS), "ms"),
        (
            "api.cluster_metrics_ms",
            p50(tr, "api.cluster_metrics", MS),
            "ms",
        ),
        ("api.errors_ms", p50(tr, "api.errors", MS), "ms"),
        ("api.quality_ms", p50(tr, "api.quality", MS), "ms"),
        ("api.ratios_ms", p50(tr, "api.ratios", MS), "ms"),
        ("api.profile_ms", p50(tr, "api.profile", MS), "ms"),
        ("store.lock_wait_us", p50(tr, "store.lock_wait", US), "us"),
        (
            "store.memo_hit_ratio",
            ratio(tr.counted("store.memo_hits") as f64, memo),
            "ratio",
        ),
        ("diagram.sweep_ms", p50(tr, "diagram.sweep", MS), "ms"),
        (
            "diagram.sweeps",
            tr.counted("diagram.sweeps") as f64,
            "count",
        ),
        ("pairset.venn_ms", p50(tr, "pairset.venn", MS), "ms"),
        (
            "pairset.engine.packed",
            tr.counted("pairset.engine.packed") as f64,
            "count",
        ),
        (
            "pairset.engine.chunked",
            tr.counted("pairset.engine.chunked") as f64,
            "count",
        ),
        (
            "pairset.engine.roaring",
            tr.counted("pairset.engine.roaring") as f64,
            "count",
        ),
        ("json.render_us", p50(tr, "json.render", US), "us"),
        ("json.bytes", percentile(&json_bytes, 0.5) as f64, "bytes"),
        ("import.parse_ms", p50(tr, "import.parse", MS), "ms"),
        ("import.cluster_ms", p50(tr, "import.cluster", MS), "ms"),
        (
            "import.pairset_build_ms",
            p50(tr, "import.pairset_build", MS),
            "ms",
        ),
        ("durable.append_ms", p50(tr, "durable.append", MS), "ms"),
        ("durable.fsyncs", after("fsyncs"), "count"),
        ("durable.compact_ms", p50(tr, "durable.compact", MS), "ms"),
        (
            "wal.bytes_per_record",
            ratio(
                tr.counted("wal.bytes") as f64,
                tr.counted("wal.records") as f64,
            ),
            "bytes",
        ),
        ("snapshot.load_ms", p50(tr, "snapshot.load", MS), "ms"),
        ("durable.replay_ms", p50(tr, "durable.replay", MS), "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.spans", tr.spans.len() as f64, "count"),
    ]
}
