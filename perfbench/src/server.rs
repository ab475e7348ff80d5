//! The server under test, in a process of its own.
//!
//! `frost-perfbench serve <store.frostb>` boots the serving stack the
//! way `frostd` does (`DurableStore::open` → `ServerState` →
//! `serve_with`, default `ServeOptions` with `workers = nproc` and
//! `frostd`'s 256 MiB cache budget, `--fsync always`), prints its
//! address, and then answers control lines on stdin:
//!
//! * `reset` — re-sets every gold standard to itself: results are
//!   unchanged, every cache tier and store memo is emptied;
//! * `stats` — one line of the server's own counters, read through
//!   its public accessors, plus its peak resident set;
//! * `quit` (or EOF) — graceful shutdown, WAL fsync, exit.

use crate::client::Conn;
use crate::util::{nproc, peak_rss_kib};
use frost_server::telemetry::Stage;
use frost_server::{serve_with, ServeOptions, ServerState};
use frost_storage::{DurableStore, FsyncPolicy};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// `frostd`'s default `--cache-budget-mb`.
const CACHE_BUDGET_BYTES: usize = 256 * 1024 * 1024;

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Entry point of the server process.
pub fn serve_main(snapshot: &str) -> Result<(), String> {
    let opened_at = unix_ns();
    let (store, durable, report) = DurableStore::open(snapshot, FsyncPolicy::Always)
        .map_err(|e| format!("cannot recover {snapshot}: {e}"))?;
    let wal = durable.wal_stats();
    let golds: Vec<_> = store
        .dataset_names()
        .into_iter()
        .filter_map(|d| store.gold_standard(&d).ok().cloned().map(|g| (d, g)))
        .collect();
    let state = Arc::new(ServerState::with_durable(store, durable));
    let options = ServeOptions {
        workers: nproc(),
        cache_budget: Some(CACHE_BUDGET_BYTES),
        ..ServeOptions::default()
    };
    let handle = serve_with("127.0.0.1:0", Arc::clone(&state), options)
        .map_err(|e| format!("cannot bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    let say = |out: &mut std::io::StdoutLock, line: String| {
        writeln!(out, "{line}").and_then(|_| out.flush())
    };
    say(
        &mut out,
        format!("ready {} {opened_at} {}", handle.addr(), report.replayed),
    )
    .map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let reply = match line.trim() {
            "reset" => {
                state.with_store_mut(|s| {
                    for (dataset, gold) in &golds {
                        s.set_gold_standard(dataset, gold.clone())
                            .expect("dataset exists");
                    }
                });
                "ok".to_string()
            }
            "stats" => stats_line(&state, &wal),
            "quit" => break,
            other => format!("error unknown command {other:?}"),
        };
        if say(&mut out, reply).is_err() {
            break;
        }
    }
    handle.graceful_shutdown();
    state.sync_wal()?;
    let _ = say(&mut out, "bye".to_string());
    Ok(())
}

fn stats_line(state: &ServerState, wal: &frost_storage::telemetry::WalStats) -> String {
    let t = state.telemetry();
    let queue = t.stage_histogram(Stage::CacheProbe);
    let handoff = t.stage_histogram(Stage::FirstByte);
    let pairs: Vec<(&str, u64)> = vec![
        ("bytes_hits", state.response_cache().hits()),
        ("bytes_misses", state.response_cache().misses()),
        ("bytes_resident", state.response_cache().bytes() as u64),
        ("body_hits", state.cache().hits()),
        ("body_misses", state.cache().misses()),
        ("body_resident", state.cache().bytes() as u64),
        ("admitted", state.overload().admitted()),
        ("shed", state.overload().sheds().iter().sum()),
        ("queue_wait_p50_ns", queue.quantile(0.5)),
        ("handoff_p50_ns", handoff.quantile(0.5)),
        ("fsyncs", wal.fsync.count()),
        ("peak_rss_kib", peak_rss_kib()),
    ];
    let mut line = "stats".to_string();
    for (k, v) in pairs {
        line.push_str(&format!(" {k}={v}"));
    }
    line
}

/// The parent's handle on a server process. Dropping it kills the
/// process and waits for it.
pub struct ServerProc {
    child: Option<Child>,
    stdin: ChildStdin,
    lines: Lines<BufReader<ChildStdout>>,
    pub addr: SocketAddr,
    opened_at: u128,
}

impl ServerProc {
    pub fn spawn(snapshot: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(snapshot)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the server process: {e}"))?;
        let stdin = child.stdin.take().expect("piped");
        let mut lines = BufReader::new(child.stdout.take().expect("piped")).lines();
        let first = match lines.next() {
            Some(Ok(line)) => line,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server process exited before it was ready".into());
            }
        };
        let mut parts = first.split_whitespace();
        let (addr, opened_at) = match (parts.next(), parts.next(), parts.next()) {
            (Some("ready"), Some(addr), Some(at)) => (addr.parse().ok(), at.parse().ok()),
            _ => (None, None),
        };
        let (Some(addr), Some(opened_at)) = (addr, opened_at) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("bad server greeting {first:?}"));
        };
        Ok(ServerProc {
            child: Some(child),
            stdin,
            lines,
            addr,
            opened_at,
        })
    }

    /// Polls `/readyz` until it answers `200`; returns the set-up time
    /// from the server opening its snapshot to that first `200`.
    pub fn wait_ready(&self) -> Result<f64, String> {
        let give_up = Instant::now() + Duration::from_secs(60);
        let mut conn = Conn::new(self.addr);
        loop {
            if let Ok(reply) = conn.get("/readyz") {
                if reply.status == 200 {
                    let ready_at = unix_ns();
                    return Ok(ready_at.saturating_sub(self.opened_at) as f64 / 1e9);
                }
            }
            if Instant::now() > give_up {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn command(&mut self, cmd: &str) -> Result<String, String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("server control channel: {e}"))?;
        match self.lines.next() {
            Some(Ok(line)) => Ok(line),
            _ => Err(format!("server process died during {cmd:?}")),
        }
    }

    pub fn reset(&mut self) -> Result<(), String> {
        match self.command("reset")?.as_str() {
            "ok" => Ok(()),
            other => Err(format!("reset failed: {other}")),
        }
    }

    pub fn stats(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let line = self.command("stats")?;
        let mut out = BTreeMap::new();
        for kv in line.split_whitespace().skip(1) {
            if let Some((k, v)) = kv.split_once('=') {
                out.insert(k.to_string(), v.parse().unwrap_or(0.0));
            }
        }
        Ok(out)
    }

    /// Graceful shutdown; waits for the process to exit.
    pub fn quit(mut self) -> Result<(), String> {
        let _ = writeln!(self.stdin, "quit").and_then(|_| self.stdin.flush());
        let mut child = self.child.take().expect("running");
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not shut down".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
