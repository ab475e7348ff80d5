//! `frost-perfbench` — the repository benchmark: seeded workloads
//! against the `frostd` serving stack, end-to-end metrics from the
//! socket run, per-layer metrics from a traced in-process replay.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-hot|explore-cold|import-mixed|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run builds its inputs from `--seed`, boots a fresh server
//! process several times (the set-up time is the median), measures for
//! `--seconds`, checks every response, and prints one JSON object as
//! the last line of stdout: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A failed check prints the
//! failures, `"correct": false` and no metrics, and exits non-zero.
//! `--workload all` runs each workload in its own process, traced and
//! untraced, and prints one table.

mod client;
mod inputs;
mod load;
mod replay;
mod server;
mod trace;
mod util;

use frost_storage::BenchmarkStore;
use inputs::Inputs;
use load::{Ctx, Outcome};
use replay::Metric;
use server::ServerProc;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{median, ns_to_ms, percentile};

const WORKLOADS: [&str; 3] = ["explore-hot", "explore-cold", "import-mixed"];

/// Independent trials per run, each with a fresh server process over a
/// fresh copy of the store; `--seconds` is split evenly between them.
/// explore-hot's figures vary most from server to server, so its slices
/// come from several; the others keep one long window.
fn trials(workload: &str) -> usize {
    match workload {
        "explore-hot" => 5,
        _ => 1,
    }
}

/// Every trial's timed window is cut into slices of about this length,
/// and of `SLICE_READS` reads or more on average, so a slice's p99 has
/// about ten reads beyond it; the read figures are taken over the
/// slices, not the whole window.
const SLICE_SECS: f64 = 2.0;
const SLICE_READS: usize = 1_000;
/// The read figures are those of the slice at this rank among the
/// slices, counted from the fastest. Outside load on a shared host
/// only ever slows a slice, and it comes in bursts of seconds, so the
/// fast slices show the program's own speed; a slower program slows
/// every slice, the fast ones too.
const FAST_RANK: f64 = 0.1;
/// Extra server set-ups per run that measure only `setup_s`, the median
/// over these and the trials' set-ups.
const SETUP_ONLY: usize = 14;
/// Repetitions of the traced set-up layers.
const TRACED_SETUPS: usize = 3;
/// Untraced + traced replay pairs of a traced run.
const REPLAY_ROUNDS: usize = 2;
/// A run that has not finished by then is abandoned.
const WATCHDOG: Duration = Duration::from_secs(175);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: frost-perfbench --workload <explore-hot|explore-cold|import-mixed|all> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        let Some(snapshot) = argv.get(1) else {
            eprintln!("usage: frost-perfbench serve <store.frostb>");
            return ExitCode::FAILURE;
        };
        return match server::serve_main(snapshot) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("frost-perfbench: run exceeded {WATCHDOG:?}; abandoning it");
        std::process::exit(3);
    });
    let dir = work_dir().join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = run_one(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(Failure {
            problems,
            attempted,
            failed,
        }) => {
            for p in &problems {
                eprintln!("frost-perfbench: {p}");
            }
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                attempted.max(1),
                failed
            );
            ExitCode::FAILURE
        }
    }
}

/// Scratch space for the generated store files, inside the benchmark's
/// own directory of the checkout.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

struct Failure {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure {
            problems: vec![e],
            attempted: 0,
            failed: 0,
        }
    }
}

fn copy_store(from: &Path, to: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for name in ["store.frostb", "store.frostb.wal"] {
        std::fs::copy(from.join(name), to.join(name)).map_err(|e| e.to_string())?;
    }
    Ok(to.join("store.frostb"))
}

fn run_one(args: &Args, dir: &Path) -> Result<String, Failure> {
    let inputs = Inputs::generate(args.seed);
    let epoch = Instant::now();
    let mut build_tr = Tracer::new(args.trace, epoch, 0);
    let pristine = dir.join("pristine");
    let built = inputs::materialize(&inputs, &pristine, &mut build_tr)?;

    // Set-up only: fresh server processes that are stopped once ready,
    // half before the trials and half after, so a slow spell of the
    // machine moves some of them, not the median.
    let mut setups = Vec::with_capacity(SETUP_ONLY + trials(&args.workload));
    let setup_copy = copy_store(&pristine, &dir.join("setup"))?;
    let setup_only = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_ONLY / 2 {
            let srv = ServerProc::spawn(&setup_copy)?;
            setups.push(srv.wait_ready()?);
            srv.quit()?;
        }
        Ok(())
    };
    setup_only(&mut setups)?;
    fn ctx_for<'a>(
        args: &Args,
        inputs: &'a Inputs,
        oracle: &'a BenchmarkStore,
        snapshot: &'a Path,
    ) -> Ctx<'a> {
        Ctx {
            inputs,
            oracle,
            snapshot,
            seed: args.seed,
            seconds: args.seconds / trials(&args.workload) as f64,
        }
    }
    let plan = match args.workload.as_str() {
        "import-mixed" => Some(load::import_plan(&ctx_for(
            args,
            &inputs,
            &built.store,
            &built.snapshot,
        ))?),
        _ => None,
    };

    // Independent trials, each on a fresh copy of the store and a fresh
    // server process; the read figures come from all trials' slices.
    let count = trials(&args.workload);
    let mut trials: Vec<Outcome> = Vec::with_capacity(count);
    for t in 0..count {
        let trial_dir = dir.join(format!("trial-{t}"));
        let snapshot = copy_store(&pristine, &trial_dir)?;
        let ctx = ctx_for(args, &inputs, &built.store, &snapshot);
        let mut srv = ServerProc::spawn(&snapshot)?;
        setups.push(srv.wait_ready()?);
        let (mut outcome, acks) = match (args.workload.as_str(), &plan) {
            ("explore-hot", _) => (load::explore_hot(&ctx, &mut srv)?, None),
            ("explore-cold", _) => (load::explore_cold(&ctx, &mut srv)?, None),
            (_, Some(plan)) => {
                let (o, a) = load::import_mixed(&ctx, plan, &mut srv)?;
                (o, Some(a))
            }
            _ => unreachable!("the plan exists for import-mixed"),
        };
        srv.quit()?;
        if let Some(acks) = &acks {
            load::check_durable(&ctx, acks, &mut outcome.problems)?;
        }
        if !outcome.problems.is_empty() {
            return Err(Failure {
                problems: std::mem::take(&mut outcome.problems),
                attempted: trials.iter().map(|o| o.attempted).sum::<u64>() + outcome.attempted,
                failed: trials.iter().map(|o| o.failed).sum::<u64>() + outcome.failed,
            });
        }
        let _ = std::fs::remove_dir_all(&trial_dir);
        trials.push(outcome);
    }
    setup_only(&mut setups)?;
    let attempted = trials.iter().map(|o| o.attempted).sum();
    let failed = trials.iter().map(|o| o.failed).sum();
    let mut report = summary_row(args, &inputs, &trials, &setups);

    let metrics: Vec<Metric> = if args.trace {
        // The replay follows the first trial; the transport estimate
        // uses every trial's socket latencies.
        let mut first = trials.swap_remove(0);
        for o in &trials {
            for (endpoint, lat) in &o.by_endpoint {
                first.by_endpoint.entry(endpoint).or_default().extend(lat);
            }
        }
        let mut tr = build_tr;
        replay::trace_setup(&mut tr, &built.snapshot, TRACED_SETUPS)?;
        // Alternate untraced and traced replays; the overhead compares
        // the fastest of each.
        let (mut t_on, mut t_off) = (f64::MAX, f64::MAX);
        let mut traced = None;
        for round in 0..REPLAY_ROUNDS {
            let (_, off) = replay::replay(&first, &pristine, &dir.join("replay"), false)?;
            let (on, t) = replay::replay(&first, &pristine, &dir.join("replay"), true)?;
            t_off = t_off.min(off.as_secs_f64());
            t_on = t_on.min(t.as_secs_f64());
            if round == 0 {
                traced = Some(on);
            }
        }
        tr.absorb(traced.expect("at least one round"));
        let overhead = (t_on / t_off - 1.0) * 100.0;
        let spans_file = work_dir()
            .parent()
            .expect("benchmark directory")
            .join("out")
            .join(format!("spans-{}.tsv", args.workload));
        tr.write_tsv(&spans_file).map_err(|e| e.to_string())?;
        let layers = replay::layer_metrics(&tr, &first, overhead);
        report.push_str(&format!(
            "per-layer {} (fastest replay {:.3} s traced, {:.3} s untraced; spans in {})\n",
            args.workload,
            t_on,
            t_off,
            spans_file.display()
        ));
        for (name, value, unit) in &layers {
            report.push_str(&format!("  {name:<28} {value:>14.4} {unit}\n"));
        }
        layers
    } else {
        end_to_end(&trials, &setups)
    };
    report.push_str(&result_json(attempted, failed, &metrics));
    Ok(report)
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// A timed window: its sorted read latencies and its length in seconds.
type Window = (Vec<u64>, f64);

/// The slices the read figures are taken over: each trial's timed
/// window cut into equal slices by completion time.
fn windows(trials: &[Outcome]) -> Vec<Window> {
    let mut out = Vec::new();
    for o in trials {
        let (Some(start), Some(&(end, _))) = (o.read_start, o.reads.iter().max_by_key(|r| r.0))
        else {
            continue;
        };
        let secs = end.saturating_duration_since(start).as_secs_f64();
        let slices = ((secs / SLICE_SECS).round() as usize)
            .min(o.reads.len() / SLICE_READS)
            .max(1);
        let len = secs / slices as f64;
        let mut parts = vec![Vec::new(); slices];
        for &(done, ns) in &o.reads {
            let k = (done.saturating_duration_since(start).as_secs_f64() / len) as usize;
            parts[k.min(slices - 1)].push(ns);
        }
        out.extend(parts.into_iter().map(|p| (sorted(&p), len)));
    }
    out
}

/// The value at `FAST_RANK` among `values`, counted from the best end.
fn fast_rank(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    let rank = (FAST_RANK * v.len() as f64).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// The gated end-to-end metrics: those every workload has. Each read
/// figure is computed per slice and taken at `FAST_RANK` over the
/// slices (a burst of outside load moves some slices, not that rank).
fn end_to_end(trials: &[Outcome], setups: &[f64]) -> Vec<Metric> {
    let windows = windows(trials);
    let over = |lower: bool, f: &dyn Fn(&Window) -> f64| {
        fast_rank(&windows.iter().map(f).collect::<Vec<_>>(), lower)
    };
    let rps = over(false, &|(lat, secs)| {
        lat.iter().filter(|&&l| l != util::FAILED).count() as f64 / secs
    });
    // A slice without a read is a stall, the slowest a slice can be.
    let at = |lat: &[u64], p: f64| match lat {
        [] => ns_to_ms(util::FAILED),
        _ => ns_to_ms(percentile(lat, p)),
    };
    let p50 = over(true, &|(lat, _)| at(lat, 0.5));
    let p99 = over(true, &|(lat, _)| at(lat, 0.99));
    let rss: Vec<f64> = trials
        .iter()
        .map(|o| o.stats_after.get("peak_rss_kib").copied().unwrap_or(0.0) / 1024.0)
        .collect();
    vec![
        ("setup_s", median(setups), "s"),
        ("read_rps", rps, "req/s"),
        ("read_p50_ms", p50, "ms"),
        ("read_p99_ms", p99, "ms"),
        ("peak_rss_mb", median(&rss), "MiB"),
    ]
}

/// The human-readable rows: every end-to-end metric of the workload,
/// including those only import-mixed has, and per-endpoint latencies.
fn summary_row(args: &Args, inputs: &Inputs, trials: &[Outcome], setups: &[f64]) -> String {
    let pool = |f: &dyn Fn(&Outcome) -> &Vec<u64>| {
        sorted(&trials.iter().flat_map(f).copied().collect::<Vec<_>>())
    };
    let writes = pool(&|o| &o.writes);
    let late = pool(&|o| &o.late);
    let saves = pool(&|o| &o.saves);
    let reads: usize = trials.iter().map(|o| o.reads.len()).sum();
    let attempted: u64 = trials.iter().map(|o| o.attempted).sum();
    let failed: u64 = trials.iter().map(|o| o.failed).sum();
    let mut row = format!(
        "{} seed={} inputs={:016x} sequence={:016x} trials={} reads={reads} writes={}\n",
        args.workload,
        args.seed,
        inputs.hash,
        trials.first().map_or(0, |o| o.seq_hash),
        trials.len(),
        writes.len()
    );
    let mut cells: Vec<(String, String)> = end_to_end(trials, setups)
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), format!("{v:.4} {u}")))
        .collect();
    let opt = |present: bool, v: f64, u: &str| {
        if present {
            format!("{v:.4} {u}")
        } else {
            "n/a".to_string()
        }
    };
    let w = !writes.is_empty();
    let amps: Vec<f64> = trials.iter().filter_map(|o| o.write_amp).collect();
    cells.push((
        "write_p50_ms".into(),
        opt(w, ns_to_ms(percentile(&writes, 0.5)), "ms"),
    ));
    cells.push((
        "write_p99_ms".into(),
        opt(w, ns_to_ms(percentile(&writes, 0.99)), "ms"),
    ));
    cells.push((
        "failed_ratio".into(),
        format!("{:.6} ratio", failed as f64 / attempted.max(1) as f64),
    ));
    cells.push((
        "write_amp".into(),
        opt(!amps.is_empty(), median(&amps), "ratio"),
    ));
    cells.push((
        "gen.late_ms.p99".into(),
        opt(w, ns_to_ms(percentile(&late, 0.99)), "ms"),
    ));
    cells.push((
        "save_p50_ms".into(),
        opt(!saves.is_empty(), ns_to_ms(percentile(&saves, 0.5)), "ms"),
    ));
    for (name, value) in cells {
        let _ = writeln!(row, "  {name:<16} {value}");
    }
    let mut by_endpoint: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for o in trials {
        for (endpoint, lat) in &o.by_endpoint {
            by_endpoint.entry(endpoint).or_default().extend(lat);
        }
    }
    for (endpoint, lat) in by_endpoint {
        let lat = sorted(&lat);
        let _ = writeln!(
            row,
            "  GET {endpoint:<16} n={:<7} p50={:.4} ms p99={:.4} ms",
            lat.len(),
            ns_to_ms(percentile(&lat, 0.5)),
            ns_to_ms(percentile(&lat, 0.99))
        );
    }
    row
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Runs every workload untraced and traced, each in its own process,
/// and prints one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows: Vec<(String, Vec<(String, String)>)> = Vec::new();
    let mut layers: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let Ok(out) = out else {
                ok = false;
                continue;
            };
            let text = String::from_utf8_lossy(&out.stdout).to_string();
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            for line in &lines {
                println!("{line}");
            }
            ok &= out.status.success();
            let cells = parse_metrics(last);
            if trace == "0" {
                rows.push((workload.to_string(), cells));
            } else {
                layers.push((workload.to_string(), cells));
            }
        }
    }
    println!(
        "\nend-to-end (seed {}, {} s per run)",
        args.seed, args.seconds
    );
    print_table(&rows);
    println!("\nper-layer (traced replay)");
    print_table(&layers);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_metrics(line: &str) -> Vec<(String, String)> {
    let Ok(value) = serde_json::from_str(line) else {
        return Vec::new();
    };
    let Some(serde_json::Value::Object(metrics)) = value.get("metrics") else {
        return Vec::new();
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let u = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
            (name.clone(), format!("{v:.4} {u}"))
        })
        .collect()
}

/// Metrics as rows, workloads as columns.
fn print_table(cols: &[(String, Vec<(String, String)>)]) {
    let mut names: Vec<&String> = Vec::new();
    for (_, cells) in cols {
        for (n, _) in cells {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    let mut header = format!("{:<28}", "metric");
    for (w, _) in cols {
        header.push_str(&format!(" {w:>22}"));
    }
    println!("{header}");
    for name in names {
        let mut line = format!("{name:<28}");
        for (_, cells) in cols {
            let cell = cells
                .iter()
                .find(|(n, _)| n == name)
                .map_or("n/a", |(_, v)| v.as_str());
            line.push_str(&format!(" {cell:>22}"));
        }
        println!("{line}");
    }
}
