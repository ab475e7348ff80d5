//! The three workloads, run over loopback sockets against a server
//! process, with every response checked.
//!
//! * `explore-hot` — 2 closed-loop keep-alive sessions revisiting a
//!   Zipf-skewed working set of 63 views that fits the bytes tier.
//! * `explore-cold` — 1 closed-loop session over windows of distinct
//!   targets; the server's caches and store memos are reset between
//!   windows, so every request is computed.
//! * `import-mixed` — an open-loop writer (imports, deletes, snapshot
//!   saves on a fixed schedule) beside a reader that opens each newly
//!   acknowledged experiment.

use crate::client::Conn;
use crate::inputs::{expected_body, Inputs, View, AXES};
use crate::server::ServerProc;
use crate::util::{hash_of, Rng, FAILED};
use frost_core::dataset::CsvOptions;
use frost_storage::{BenchmarkStore, DurableStore, FsyncPolicy};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Untimed warm-up before the measured window of the closed loops.
const WARM_UP: Duration = Duration::from_millis(1000);
/// Client sessions (threads and connections) of explore-hot.
pub const SESSIONS: usize = 2;
/// Client sessions of explore-cold: one, because a diagram sweep already
/// runs on every core; a second request in flight measures the
/// scheduler, not the program.
pub const COLD_SESSIONS: usize = 1;
/// Requests per session kept for the traced replay of explore-hot.
const HOT_REPLAY_PER_SESSION: usize = 20_000;
/// Operations of import-mixed kept for the traced replay.
const IMPORT_REPLAY: usize = 1_500;
/// Requests of explore-cold kept for the traced replay (whole windows).
const COLD_REPLAY: usize = 1_200;

/// Zipf exponent of the explore-hot view popularity.
const HOT_ZIPF: f64 = 1.0;

/// Diagrams per explore-cold window; with the other views of a window
/// they are about two thirds of all requests.
const COLD_DIAGRAMS: usize = 192;
const COLD_MIN_SAMPLES: usize = 8;
const COLD_MAX_SAMPLES: usize = 256;

/// import-mixed: imports per second (each followed half an interval
/// later by a delete), pairs per imported CSV, distinct CSV bodies,
/// and imports between snapshot saves.
const IMPORT_RATE: f64 = 20.0;
const IMPORT_PAIRS: usize = 5_000;
const IMPORT_POOL: usize = 64;
/// All imports go to one dataset: a view's cost differs several-fold
/// between datasets (a `/diagram` of 5k pairs takes ~2 ms on
/// altosight-x4, ~4.5 ms on cora and ~14 ms on freedb-cds), and mixing
/// them puts the read p50 and p99 on the seams between those modes.
const IMPORT_DATASET: &str = "cora";
const SAVE_EVERY: usize = 80;
/// The generator is behind its schedule when its own send lateness
/// (p99) reaches this share of the write interval: it lost a slot.
const MAX_LATE_SHARE: f64 = 1.0;

/// One operation of the traced replay.
#[derive(Clone, Debug)]
pub enum Op {
    Read(View),
    Import(usize),
    Delete(usize),
    Save,
}

/// What a socket run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Client-side `GET`s in the timed window: completion time and
    /// latency (ns; failures are `FAILED`).
    pub reads: Vec<(Instant, u64)>,
    /// When the timed window started.
    pub read_start: Option<Instant>,
    /// Write ack latencies from their scheduled send times.
    pub writes: Vec<u64>,
    /// How late the generator itself sent each write.
    pub late: Vec<u64>,
    pub saves: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Timed-window `GET` latencies per endpoint label.
    pub by_endpoint: BTreeMap<&'static str, Vec<u64>>,
    pub stats_before: BTreeMap<String, f64>,
    pub stats_after: BTreeMap<String, f64>,
    pub write_amp: Option<f64>,
    /// Hash of the workload's request sequence.
    pub seq_hash: u64,
    /// Replay script: run first on one thread, then one list per thread
    /// (import-mixed: one list, writer and reader merged in send order).
    pub replay_warm: Vec<Op>,
    pub replay: Vec<Vec<Op>>,
    /// explore-cold's replay instead: windows of requests, shared by
    /// the replay threads, with a cache reset between windows.
    pub replay_windows: Vec<Vec<View>>,
    /// Import CSVs by pool slot (import-mixed).
    pub pool: Vec<PoolEntry>,
}

#[derive(Clone)]
pub struct PoolEntry {
    pub dataset: String,
    pub csv: String,
    pub pairs: usize,
}

pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    /// The store state the server starts from, in memory.
    pub oracle: &'a BenchmarkStore,
    /// The store files this trial's server opens.
    pub snapshot: &'a Path,
    pub seed: u64,
    pub seconds: f64,
}

/// Per-session tallies, merged after the sessions end.
#[derive(Default)]
struct Tally {
    reads: Vec<(Instant, u64)>,
    by_endpoint: BTreeMap<&'static str, Vec<u64>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    replay: Vec<Op>,
}

impl Tally {
    fn record(&mut self, endpoint: &'static str, ns: u64, ok: bool, done: Instant) {
        self.attempted += 1;
        let ns = if ok { ns } else { FAILED };
        if !ok {
            self.failed += 1;
        }
        self.reads.push((done, ns));
        self.by_endpoint.entry(endpoint).or_default().push(ns);
    }

    fn merge_into(self, out: &mut Outcome) {
        out.reads.extend(self.reads);
        for (k, v) in self.by_endpoint {
            out.by_endpoint.entry(k).or_default().extend(v);
        }
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.problems.extend(self.problems);
        if !self.replay.is_empty() {
            out.replay.push(self.replay);
        }
    }
}

fn problem(list: &mut Vec<String>, msg: String) {
    if list.len() < 20 {
        list.push(msg);
    }
}

/// One `GET`: `(status, body hash, ns)`; a transport error is status 0.
fn timed_get(conn: &mut Conn, target: &str) -> (u16, u64, u64) {
    let t = Instant::now();
    match conn.get(target) {
        Ok(reply) => (
            reply.status,
            hash_of(&reply.body[..]),
            t.elapsed().as_nanos() as u64,
        ),
        Err(_) => (0, 0, t.elapsed().as_nanos() as u64),
    }
}

fn expected_hash(store: &BenchmarkStore, view: &View) -> Result<u64, String> {
    expected_body(store, view).map(|b| hash_of(&b[..]))
}

// ---------------------------------------------------------------------
// explore-hot
// ---------------------------------------------------------------------

/// The hot working set: `/metrics`, `/matrix`, the default `/diagram`
/// and a sibling `/compare` for every experiment, plus each dataset's
/// profile and heavy views of one of its experiments.
pub fn hot_views(inputs: &Inputs) -> Vec<View> {
    let mut views = Vec::new();
    for dataset in &inputs.datasets {
        let exps = inputs.experiments_of(dataset);
        for (i, e) in exps.iter().enumerate() {
            let sibling = &exps[(i + 1) % exps.len()].name;
            views.push(View::Metrics(e.name.clone()));
            views.push(View::Matrix(e.name.clone()));
            views.push(View::DefaultDiagram(e.name.clone()));
            views.push(View::Compare {
                experiments: vec![e.name.clone(), sibling.clone()],
                venn: false,
            });
        }
        let first = exps[0].name.clone();
        views.push(View::Profile(dataset.clone()));
        views.push(View::ClusterMetrics(first.clone()));
        views.push(View::Errors(first.clone()));
        views.push(View::Quality(first.clone()));
        views.push(View::Ratios(first, false));
    }
    views
}

/// Cumulative Zipf weights over a seeded ranking of `n` views.
fn zipf_cdf(n: usize, rng: &mut Rng) -> (Vec<usize>, Vec<f64>) {
    let mut rank: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut rank);
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += 1.0 / ((r + 1) as f64).powf(HOT_ZIPF);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    (rank, cdf)
}

fn zipf_pick(rank: &[usize], cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    let r = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
    rank[r]
}

pub fn explore_hot(ctx: &Ctx, srv: &mut ServerProc) -> Result<Outcome, String> {
    let views = hot_views(ctx.inputs);
    let targets: Vec<String> = views.iter().map(View::target).collect();
    let expected: Vec<u64> = views
        .iter()
        .map(|v| expected_hash(ctx.oracle, v))
        .collect::<Result<_, _>>()?;
    let mut out = Outcome::default();
    let mut seq = Vec::new();
    for s in 0..SESSIONS {
        let mut rng = Rng::derived(ctx.seed, &format!("hot-session-{s}"));
        let (rank, cdf) = zipf_cdf(views.len(), &mut rng);
        seq.extend((0..4096).map(|_| zipf_pick(&rank, &cdf, &mut rng)));
    }
    out.seq_hash = hash_of(&(hash_of(&targets), seq));

    // Untimed warm-up pass: fills both cache tiers, checks each body.
    let mut conn = Conn::new(srv.addr);
    let mut working_set = 0usize;
    for (i, target) in targets.iter().enumerate() {
        let reply = conn
            .get(target)
            .map_err(|e| format!("warm-up {target}: {e}"))?;
        if reply.status != 200 || hash_of(&reply.body[..]) != expected[i] {
            problem(
                &mut out.problems,
                format!("warm-up {target}: status {} or wrong body", reply.status),
            );
        }
        working_set += reply.body.len() + 256;
    }
    drop(conn);
    // The bytes tier gets half of frostd's cache budget, split over 16
    // shards: the whole working set must fit one shard's share.
    let tier_budget = 128 * 1024 * 1024;
    if working_set >= tier_budget / 16 {
        problem(
            &mut out.problems,
            format!("hot working set of {working_set} bytes does not fit the bytes tier"),
        );
    }
    out.replay_warm = views.iter().cloned().map(Op::Read).collect();

    let start = Instant::now();
    let timed_from = start + WARM_UP;
    let end = timed_from + Duration::from_secs_f64(ctx.seconds);
    let addr = srv.addr;
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let (views, targets, expected) = (&views, &targets, &expected);
                let seed = ctx.seed;
                scope.spawn(move || {
                    let mut rng = Rng::derived(seed, &format!("hot-session-{s}"));
                    let (rank, cdf) = zipf_cdf(views.len(), &mut rng);
                    let mut conn = Conn::new(addr);
                    let mut tally = Tally::default();
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let i = zipf_pick(&rank, &cdf, &mut rng);
                        let (status, hash, ns) = timed_get(&mut conn, &targets[i]);
                        let ok = status == 200 && hash == expected[i];
                        if status == 200 && !ok {
                            problem(
                                &mut tally.problems,
                                format!("wrong body for {}", targets[i]),
                            );
                        }
                        if tally.replay.len() < HOT_REPLAY_PER_SESSION {
                            tally.replay.push(Op::Read(views[i].clone()));
                        }
                        if now >= timed_from {
                            tally.record(views[i].endpoint(), ns, ok, Instant::now());
                        }
                    }
                    tally
                })
            })
            .collect();
        std::thread::sleep(timed_from.saturating_duration_since(Instant::now()));
        let before = srv.stats();
        let tallies = handles
            .into_iter()
            .map(|h| h.join().expect("hot session"))
            .collect();
        out.stats_before = before.unwrap_or_default();
        tallies
    });
    out.read_start = Some(timed_from);
    for t in tallies {
        t.merge_into(&mut out);
    }
    out.stats_after = srv.stats()?;
    let lookups = out.stats_after["bytes_hits"] + out.stats_after["bytes_misses"]
        - out.stats_before.get("bytes_hits").copied().unwrap_or(0.0)
        - out.stats_before.get("bytes_misses").copied().unwrap_or(0.0);
    let misses = out.stats_after["bytes_misses"]
        - out.stats_before.get("bytes_misses").copied().unwrap_or(0.0);
    if lookups > 0.0 && misses / lookups > 0.001 {
        problem(
            &mut out.problems,
            format!("hot working set missed the bytes tier {misses} of {lookups} times"),
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// explore-cold
// ---------------------------------------------------------------------

/// The requests of cold window `w`: distinct targets, shuffled.
pub fn cold_window(inputs: &Inputs, seed: u64, w: usize) -> Vec<View> {
    let mut rng = Rng::derived(seed, &format!("cold-window-{w}"));
    let mut views = Vec::new();
    let exps = &inputs.experiments;
    // The same number of sweeps of every experiment, with `samples`
    // stratified over 8..=256 (and below the experiment's distinct
    // threshold count), so every window costs about the same.
    let per_experiment = COLD_DIAGRAMS / exps.len();
    for (e, input) in exps.iter().enumerate() {
        let top = COLD_MAX_SAMPLES.min(input.distinct_thresholds.saturating_sub(1));
        let width = (top + 1 - COLD_MIN_SAMPLES) as f64 / per_experiment as f64;
        for k in 0..per_experiment {
            let lo = COLD_MIN_SAMPLES + (k as f64 * width) as usize;
            let hi = (COLD_MIN_SAMPLES + ((k + 1) as f64 * width) as usize).max(lo + 1);
            let x = rng.below(AXES.len());
            let y = (x + 1 + rng.below(AXES.len() - 1)) % AXES.len();
            views.push(View::Diagram {
                experiment: exps[e].name.clone(),
                x,
                y,
                samples: lo + rng.below(hi - lo),
            });
        }
    }
    for dataset in &inputs.datasets {
        let names: Vec<String> = inputs
            .experiments_of(dataset)
            .iter()
            .map(|e| e.name.clone())
            .collect();
        for mask in 1u32..(1 << names.len()) {
            if mask.count_ones() < 2 {
                continue;
            }
            for venn in [false, true] {
                let mut operands: Vec<String> = names
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, n)| n.clone())
                    .collect();
                rng.shuffle(&mut operands);
                views.push(View::Compare {
                    experiments: operands,
                    venn,
                });
            }
        }
    }
    for e in exps {
        views.push(View::Metrics(e.name.clone()));
        views.push(View::Matrix(e.name.clone()));
    }
    // Heavy views rotate over the experiments window by window.
    let offset = Rng::derived(seed, "cold-heavy").below(exps.len());
    let heavy = |k: usize| exps[(offset + w * 5 + k) % exps.len()].name.clone();
    views.push(View::ClusterMetrics(heavy(0)));
    views.push(View::Errors(heavy(1)));
    views.push(View::Quality(heavy(2)));
    views.push(View::Ratios(heavy(3), w % 2 == 1));
    views.push(View::Profile(
        inputs.datasets[(offset + w) % inputs.datasets.len()].clone(),
    ));
    rng.shuffle(&mut views);
    views
}

/// The window's self-checks: distinct targets and sweeps, `samples`
/// below the experiment's distinct-threshold count, at most 4
/// `/compare` operands.
fn check_cold_window(inputs: &Inputs, views: &[View]) -> Result<(), String> {
    let mut targets = HashSet::new();
    let mut sweeps = HashSet::new();
    let mut diagrams = 0;
    for v in views {
        if !targets.insert(v.target()) {
            return Err(format!("cold window repeats {}", v.target()));
        }
        if let Some((exp, samples)) = v.sweep() {
            diagrams += 1;
            if !sweeps.insert((exp.to_string(), samples)) {
                return Err(format!("cold window repeats the sweep {exp}/{samples}"));
            }
            let e = inputs
                .experiments
                .iter()
                .find(|e| e.name == exp)
                .ok_or("unknown experiment")?;
            if samples >= e.distinct_thresholds {
                return Err(format!(
                    "samples={samples} reaches {exp}'s {} distinct thresholds",
                    e.distinct_thresholds
                ));
            }
        }
        if let View::Compare { experiments, .. } = v {
            if experiments.len() > 4 {
                return Err("more than 4 /compare operands".into());
            }
        }
    }
    if diagrams * 2 < views.len() {
        return Err("diagrams are less than half of a cold window".into());
    }
    Ok(())
}

struct Dispatch<'a> {
    window: usize,
    views: Vec<View>,
    pos: usize,
    outstanding: usize,
    srv: &'a mut ServerProc,
    error: Option<String>,
}

pub fn explore_cold(ctx: &Ctx, srv: &mut ServerProc) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut hashes = Vec::new();
    for w in 0..8 {
        let views = cold_window(ctx.inputs, ctx.seed, w);
        check_cold_window(ctx.inputs, &views)?;
        hashes.push(hash_of(&views.iter().map(View::target).collect::<Vec<_>>()));
    }
    out.seq_hash = hash_of(&hashes);
    let addr = srv.addr;
    let first = cold_window(ctx.inputs, ctx.seed, 0);
    let dispatch = Mutex::new(Dispatch {
        window: 0,
        views: first,
        pos: 0,
        outstanding: 0,
        srv,
        error: None,
    });
    let wake = Condvar::new();
    let start = Instant::now();
    let timed_from = start + WARM_UP;
    let end = timed_from + Duration::from_secs_f64(ctx.seconds);
    // (window, position, status, body hash, ns, timed, completed at)
    type Sample = (usize, usize, u16, u64, u64, bool, Instant);
    let results: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..COLD_SESSIONS)
            .map(|_| {
                let (dispatch, wake) = (&dispatch, &wake);
                let inputs = ctx.inputs;
                let seed = ctx.seed;
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut samples: Vec<Sample> = Vec::new();
                    loop {
                        let job = {
                            let mut d = dispatch.lock().expect("dispatch lock");
                            loop {
                                if Instant::now() >= end || d.error.is_some() {
                                    break None;
                                }
                                if d.pos < d.views.len() {
                                    d.pos += 1;
                                    d.outstanding += 1;
                                    break Some((d.window, d.pos - 1, d.views[d.pos - 1].target()));
                                }
                                if d.outstanding == 0 {
                                    if let Err(e) = d.srv.reset() {
                                        d.error = Some(e);
                                        continue;
                                    }
                                    d.window += 1;
                                    d.views = cold_window(inputs, seed, d.window);
                                    d.pos = 0;
                                    continue;
                                }
                                d = wake.wait(d).expect("dispatch lock");
                            }
                        };
                        let Some((w, pos, target)) = job else { break };
                        let sent = Instant::now();
                        let (status, hash, ns) = timed_get(&mut conn, &target);
                        {
                            let mut d = dispatch.lock().expect("dispatch lock");
                            d.outstanding -= 1;
                        }
                        wake.notify_all();
                        samples.push((
                            w,
                            pos,
                            status,
                            hash,
                            ns,
                            sent >= timed_from,
                            Instant::now(),
                        ));
                    }
                    wake.notify_all();
                    samples
                })
            })
            .collect();
        std::thread::sleep(timed_from.saturating_duration_since(Instant::now()));
        let before = dispatch.lock().expect("dispatch lock").srv.stats();
        out.stats_before = before.unwrap_or_default();
        handles
            .into_iter()
            .map(|h| h.join().expect("cold session"))
            .collect()
    });
    let dispatch = dispatch.into_inner().expect("dispatch lock");
    if let Some(e) = dispatch.error {
        return Err(e);
    }
    out.stats_after = dispatch.srv.stats()?;
    out.read_start = Some(timed_from);

    // Check every response against the in-process rendering.
    let windows: Vec<Vec<View>> = (0..=dispatch.window)
        .map(|w| cold_window(ctx.inputs, ctx.seed, w))
        .collect();
    let mut distinct: Vec<&View> = results
        .iter()
        .flat_map(|s| s.iter().map(|&(w, p, ..)| &windows[w][p]))
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    distinct.sort_by_key(|v| v.target());
    let expected = oracle_parallel(ctx.oracle, &distinct)?;
    let mut dispatched = vec![0usize; windows.len()];
    for &(w, p, ..) in results.iter().flatten() {
        dispatched[w] = dispatched[w].max(p + 1);
    }
    let mut kept = 0;
    for (w, n) in dispatched.into_iter().enumerate() {
        if kept >= COLD_REPLAY {
            break;
        }
        kept += n;
        out.replay_windows.push(windows[w][..n].to_vec());
    }
    for samples in results {
        let mut tally = Tally::default();
        for (w, p, status, hash, ns, timed, done) in samples {
            let view = &windows[w][p];
            let ok = status == 200 && expected.get(view) == Some(&hash);
            if status == 200 && !ok {
                problem(
                    &mut tally.problems,
                    format!("wrong body for {}", view.target()),
                );
            }
            if timed {
                tally.record(view.endpoint(), ns, ok, done);
            }
        }
        tally.merge_into(&mut out);
    }
    Ok(out)
}

/// Expected body hashes of `views`, computed on `SESSIONS` threads.
fn oracle_parallel<'v>(
    store: &BenchmarkStore,
    views: &[&'v View],
) -> Result<HashMap<&'v View, u64>, String> {
    let chunk = views.len().div_ceil(SESSIONS).max(1);
    let parts: Vec<Result<Vec<(&View, u64)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = views
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|v| expected_hash(store, v).map(|h| (*v, h)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let mut out = HashMap::new();
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// import-mixed
// ---------------------------------------------------------------------

/// Seeded import CSVs (~5k pairs each) on `IMPORT_DATASET`.
pub fn import_pool(store: &BenchmarkStore, seed: u64) -> Result<Vec<PoolEntry>, String> {
    let mut rng = Rng::derived(seed, "imports");
    (0..IMPORT_POOL)
        .map(|k| {
            let dataset = IMPORT_DATASET.to_string();
            let ds = store.dataset(&dataset).map_err(|e| e.to_string())?;
            let truth = store.gold_standard(&dataset).map_err(|e| e.to_string())?;
            // Fixed shapes by slot; the seed picks pairs and scores.
            let exp = frost_datagen::experiments::synthetic_experiment(
                format!("pool-{k}"),
                truth,
                IMPORT_PAIRS,
                0.9 - 0.1 * (k % 4) as f64,
                rng.next_u64(),
            );
            let csv = frost_storage::import::export_experiment(ds, &exp, CsvOptions::comma());
            let pairs = frost_storage::api::parse_experiment_csv(store, &dataset, "probe", &csv)
                .map_err(|e| e.to_string())?
                .len();
            Ok(PoolEntry {
                dataset,
                csv,
                pairs,
            })
        })
        .collect()
}

pub fn import_name(n: usize) -> String {
    format!("imp-{n}")
}

/// The views the reader opens for import `n` (the last is the list).
/// The `/venn` costs about twice the `/metrics` that computes the new
/// experiment's matrix, and two views are cheaper, so the read median
/// sits inside the `/metrics` latencies, not on a seam between views.
pub fn reader_views(inputs: &Inputs, pool: &[PoolEntry], n: usize) -> Vec<View> {
    let name = import_name(n);
    // The baseline rotates over the dataset's experiments, so no single
    // seeded experiment sets the cost of every comparison.
    let base = inputs.experiments_of(&pool[n % pool.len()].dataset);
    let baseline = base[n % base.len()].name.clone();
    vec![
        View::Metrics(name.clone()),
        View::Matrix(name.clone()),
        View::DefaultDiagram(name.clone()),
        View::Compare {
            experiments: vec![baseline, name],
            venn: true,
        },
        View::Experiments,
    ]
}

/// import-mixed's untimed warm-up: every view of the base experiments
/// that the reader does not open.
fn import_warm_views(inputs: &Inputs) -> Vec<View> {
    let mut views: Vec<View> = inputs.datasets.iter().cloned().map(View::Profile).collect();
    for e in &inputs.experiments {
        let n = e.name.clone();
        views.push(View::Metrics(n.clone()));
        views.push(View::Matrix(n.clone()));
        views.push(View::ClusterMetrics(n.clone()));
        views.push(View::Errors(n.clone()));
        views.push(View::Quality(n.clone()));
        views.push(View::Ratios(n, false));
    }
    views
}

/// Shared writer/reader state of import-mixed.
#[derive(Default)]
struct Live {
    /// Acknowledged imports not yet chosen for deletion.
    live: BTreeSet<usize>,
    /// The import the reader is reading (never deleted meanwhile).
    pinned: Option<usize>,
    done: bool,
}

#[derive(Default)]
struct Writer {
    writes: Vec<u64>,
    late: Vec<u64>,
    saves: Vec<u64>,
    acked_imports: Vec<(usize, usize)>,
    acked_deletes: Vec<usize>,
    uncertain: Vec<usize>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    csv_bytes: u64,
    disk_bytes: u64,
    /// When the previous write completed.
    prev_done: Option<Instant>,
}

impl Writer {
    /// Sends one write due at `due` (open loop: its latency counts from
    /// `due`, so a stall delays every later write too). Returns the
    /// status (0 = transport failure), the body and the latency.
    fn send(
        &mut self,
        conn: &mut Conn,
        due: Instant,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> (u16, Vec<u8>, u64) {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let free = self.prev_done.map_or(due, |p| p.max(due));
        self.late
            .push(sent.saturating_duration_since(free).as_nanos() as u64);
        let reply = conn.send(method, target, body);
        let done = Instant::now();
        self.prev_done = Some(done);
        self.attempted += 1;
        let ns = done.saturating_duration_since(due).as_nanos() as u64;
        match reply {
            Ok(r) => (r.status, r.body, ns),
            Err(_) => (0, Vec::new(), ns),
        }
    }
}

/// What import-mixed's durability check needs after the server stops.
#[derive(Default)]
pub struct Acks {
    /// `(import index, acked pair count)`.
    pub imports: Vec<(usize, usize)>,
    pub deletes: Vec<usize>,
    /// Writes whose outcome the client never learned.
    pub uncertain: Vec<usize>,
}

/// import-mixed's inputs and expected bodies, prepared once per run.
pub struct ImportPlan {
    pool: Vec<PoolEntry>,
    /// Expected body hash of reader view `j` of pool slot `k`.
    expected: HashMap<(usize, usize), u64>,
    /// The warm-up views with their expected body hashes.
    warm: Vec<(View, u64)>,
    seq_hash: u64,
}

pub fn import_plan(ctx: &Ctx) -> Result<ImportPlan, String> {
    let pool = import_pool(ctx.oracle, ctx.seed)?;
    // The bodies do not depend on the experiment's name, so one oracle
    // store holds each pool CSV once, under its slot's name.
    let mut oracle = frost_storage::snapshot::from_bytes(
        &frost_storage::snapshot::to_bytes(ctx.oracle).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    for (k, entry) in pool.iter().enumerate() {
        let exp = frost_storage::api::parse_experiment_csv(
            &oracle,
            &entry.dataset,
            &import_name(k),
            &entry.csv,
        )
        .map_err(|e| e.to_string())?;
        oracle
            .add_experiment(&entry.dataset, exp, None)
            .map_err(|e| e.to_string())?;
    }
    let mut expected = HashMap::new();
    for k in 0..IMPORT_POOL {
        let views = reader_views(ctx.inputs, &pool, k);
        for (j, v) in views.iter().enumerate().take(views.len() - 1) {
            expected.insert((k, j), expected_hash(&oracle, v)?);
        }
    }
    let warm = import_warm_views(ctx.inputs)
        .into_iter()
        .map(|v| expected_hash(ctx.oracle, &v).map(|h| (v, h)))
        .collect::<Result<_, _>>()?;
    let seq_hash = hash_of(
        &pool
            .iter()
            .map(|p| (&p.dataset, &p.csv))
            .collect::<Vec<_>>(),
    );
    Ok(ImportPlan {
        pool,
        expected,
        warm,
        seq_hash,
    })
}

pub fn import_mixed(
    ctx: &Ctx,
    plan: &ImportPlan,
    srv: &mut ServerProc,
) -> Result<(Outcome, Acks), String> {
    let mut out = Outcome {
        seq_hash: plan.seq_hash,
        ..Outcome::default()
    };
    let (pool, expected) = (&plan.pool, &plan.expected);
    let base_names: Vec<String> = ctx
        .inputs
        .experiments
        .iter()
        .map(|e| e.name.clone())
        .collect();
    let snapshot = ctx.snapshot;
    let wal_path = frost_storage::durable::wal_path_for(snapshot);
    let size = |p: &std::path::Path| std::fs::metadata(p).map_or(0, |m| m.len());

    // Untimed warm-up over the base experiments' views, checked too.
    let mut conn = Conn::new(srv.addr);
    for (view, want) in &plan.warm {
        let (status, hash, _) = timed_get(&mut conn, &view.target());
        if status != 200 || hash != *want {
            problem(
                &mut out.problems,
                format!("warm-up {}: status {status} or wrong body", view.target()),
            );
        }
    }
    drop(conn);
    out.replay_warm = plan.warm.iter().map(|(v, _)| Op::Read(v.clone())).collect();

    let shared = Mutex::new(Live::default());
    // Every operation in send order, for the (single-threaded) replay.
    let timeline: Mutex<Vec<(Instant, Op)>> = Mutex::new(Vec::new());
    let log = |op: Op| {
        timeline
            .lock()
            .expect("timeline lock")
            .push((Instant::now(), op))
    };
    let wake = Condvar::new();
    let addr = srv.addr;
    out.stats_before = srv.stats()?;
    let interval = Duration::from_secs_f64(1.0 / IMPORT_RATE);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let (writer, reader) = std::thread::scope(|scope| {
        let (shared, wake, base_names, log) = (&shared, &wake, &base_names, &log);
        let wal_path = wal_path.as_path();
        let writer = scope.spawn(move || {
            let mut conn = Conn::new(addr);
            let mut w = Writer::default();
            let mut segment_start = size(wal_path);
            let mut i = 0usize;
            loop {
                let due = start + interval.mul_f64(i as f64);
                if due >= end {
                    break;
                }
                let entry = &pool[i % pool.len()];
                let name = import_name(i);
                let target = format!("/experiments?dataset={}&name={name}", entry.dataset);
                log(Op::Import(i));
                let (status, body, ns) =
                    w.send(&mut conn, due, "POST", &target, entry.csv.as_bytes());
                if status == 200 && acked_pairs(&body) == Some(entry.pairs) {
                    w.writes.push(ns);
                    w.csv_bytes += entry.csv.len() as u64;
                    w.acked_imports.push((i, entry.pairs));
                    shared.lock().expect("live lock").live.insert(i);
                    wake.notify_all();
                } else {
                    w.writes.push(FAILED);
                    w.failed += 1;
                    w.uncertain.push(i);
                    if status == 200 {
                        problem(
                            &mut w.problems,
                            format!("import {name} acked a wrong pair count"),
                        );
                    }
                }
                // The delete, half an interval later: the oldest import
                // at least two steps back that the reader is not using.
                let victim = {
                    let mut live = shared.lock().expect("live lock");
                    let pinned = live.pinned;
                    let v = live
                        .live
                        .iter()
                        .copied()
                        .find(|&j| j + 2 <= i && Some(j) != pinned);
                    if let Some(j) = v {
                        live.live.remove(&j);
                    }
                    v
                };
                if let Some(j) = victim {
                    let target = format!("/experiments/{}", import_name(j));
                    log(Op::Delete(j));
                    let (status, _, ns) =
                        w.send(&mut conn, due + interval / 2, "DELETE", &target, &[]);
                    if status == 200 {
                        w.writes.push(ns);
                        w.acked_deletes.push(j);
                    } else {
                        w.writes.push(FAILED);
                        w.failed += 1;
                        w.uncertain.push(j);
                    }
                }
                if (i + 1).is_multiple_of(SAVE_EVERY) {
                    w.disk_bytes += size(wal_path).saturating_sub(segment_start);
                    log(Op::Save);
                    let t = Instant::now();
                    let status = conn
                        .send("POST", "/snapshot/save", &[])
                        .map_or(0, |r| r.status);
                    w.saves.push(t.elapsed().as_nanos() as u64);
                    w.prev_done = Some(Instant::now());
                    w.attempted += 1;
                    if status != 200 {
                        w.failed += 1;
                        problem(&mut w.problems, format!("snapshot save answered {status}"));
                    }
                    w.disk_bytes += size(snapshot);
                    segment_start = size(wal_path);
                }
                i += 1;
            }
            w.disk_bytes += size(wal_path).saturating_sub(segment_start);
            shared.lock().expect("live lock").done = true;
            wake.notify_all();
            w
        });
        let reader = scope.spawn(move || {
            let mut conn = Conn::new(addr);
            let mut tally = Tally::default();
            let mut last: Option<usize> = None;
            loop {
                let n = {
                    let mut live = shared.lock().expect("live lock");
                    loop {
                        let newest = live.live.iter().next_back().copied();
                        if newest.is_some() && newest != last {
                            live.pinned = newest;
                            break newest;
                        }
                        if live.done {
                            break None;
                        }
                        live = wake.wait(live).expect("live lock");
                    }
                };
                let Some(n) = n else { break };
                last = Some(n);
                for (j, view) in reader_views(ctx.inputs, pool, n).iter().enumerate() {
                    let target = view.target();
                    log(Op::Read(view.clone()));
                    let t = Instant::now();
                    let reply = conn.get(&target);
                    let ns = t.elapsed().as_nanos() as u64;
                    let ok = match &reply {
                        Ok(r) if r.status == 200 => {
                            if let Some(want) = expected.get(&(n % IMPORT_POOL, j)) {
                                *want == hash_of(&r.body[..])
                            } else {
                                list_is_plausible(&r.body, base_names, i_upper(shared))
                            }
                        }
                        _ => false,
                    };
                    if matches!(&reply, Ok(r) if r.status == 200) && !ok {
                        problem(&mut tally.problems, format!("wrong body for {target}"));
                    }
                    tally.record(view.endpoint(), ns, ok, Instant::now());
                }
                shared.lock().expect("live lock").pinned = None;
            }
            tally
        });
        (
            writer.join().expect("writer session"),
            reader.join().expect("reader session"),
        )
    });
    out.read_start = Some(start);
    out.stats_after = srv.stats()?;
    out.attempted += writer.attempted;
    out.failed += writer.failed;
    out.problems.extend(writer.problems);
    out.writes = writer.writes;
    out.late = writer.late;
    out.saves = writer.saves;
    if writer.csv_bytes > 0 {
        out.write_amp = Some(writer.disk_bytes as f64 / writer.csv_bytes as f64);
    }
    let late_limit = interval.mul_f64(MAX_LATE_SHARE).as_nanos() as u64;
    let mut late = out.late.clone();
    late.sort_unstable();
    if crate::util::percentile(&late, 0.99) >= late_limit {
        problem(
            &mut out.problems,
            "the write generator fell behind its schedule; the run is invalid".to_string(),
        );
    }
    reader.merge_into(&mut out);
    out.pool = pool.clone();
    let mut timeline = timeline.into_inner().expect("timeline lock");
    timeline.sort_by_key(|(t, _)| *t);
    out.replay = vec![timeline
        .into_iter()
        .take(IMPORT_REPLAY)
        .map(|(_, op)| op)
        .collect()];
    let acks = Acks {
        imports: writer.acked_imports,
        deletes: writer.acked_deletes,
        uncertain: writer.uncertain,
    };
    Ok((out, acks))
}

/// Durability: after a graceful stop, snapshot + WAL hold exactly the
/// acknowledged imports minus the acknowledged deletes, each with its
/// acknowledged pair count.
pub fn check_durable(ctx: &Ctx, acks: &Acks, problems: &mut Vec<String>) -> Result<(), String> {
    let (store, _, _) =
        DurableStore::open(ctx.snapshot, FsyncPolicy::Always).map_err(|e| e.to_string())?;
    let deleted: HashSet<usize> = acks.deletes.iter().copied().collect();
    let uncertain: HashSet<usize> = acks.uncertain.iter().copied().collect();
    let mut want: BTreeSet<String> = ctx
        .inputs
        .experiments
        .iter()
        .map(|e| e.name.clone())
        .collect();
    for &(n, pairs) in &acks.imports {
        if deleted.contains(&n) || uncertain.contains(&n) {
            continue;
        }
        want.insert(import_name(n));
        match store.experiment(&import_name(n)) {
            Ok(s) if s.experiment.len() == pairs => {}
            _ => problem(
                problems,
                format!(
                    "acked import {} lost or changed after reopen",
                    import_name(n)
                ),
            ),
        }
    }
    for name in store.experiment_names(None) {
        let n = name
            .strip_prefix("imp-")
            .and_then(|n| n.parse::<usize>().ok());
        if !want.contains(&name) && !n.is_some_and(|n| uncertain.contains(&n)) {
            problem(problems, format!("{name} survived after reopen"));
        }
    }
    Ok(())
}

/// Upper bound on import indices issued so far (for the list check).
fn i_upper(shared: &Mutex<Live>) -> usize {
    shared
        .lock()
        .expect("live lock")
        .live
        .iter()
        .next_back()
        .map_or(0, |n| n + 2)
}

/// An `/experiments` body lists every base experiment, and otherwise
/// only imports that were issued.
fn list_is_plausible(body: &[u8], base: &[String], upper: usize) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let Ok(value) = serde_json::from_str(text) else {
        return false;
    };
    let Some(names) = value.get("names").and_then(|v| v.as_array()) else {
        return false;
    };
    let names: Vec<&str> = names.iter().filter_map(|v| v.as_str()).collect();
    base.iter().all(|b| names.contains(&b.as_str()))
        && names.iter().all(|n| {
            base.iter().any(|b| b == n)
                || n.strip_prefix("imp-")
                    .and_then(|i| i.parse::<usize>().ok())
                    .is_some_and(|i| i <= upper)
        })
}

/// The pair count of an `Imported` response body.
fn acked_pairs(body: &[u8]) -> Option<usize> {
    let value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    value.get("pairs")?.as_f64().map(|p| p as usize)
}
