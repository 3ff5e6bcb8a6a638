//! The four end-to-end workloads. Each sets up several times (a serve
//! workload keeps its last server), runs its timed phase, checks every
//! output, and reports the end-to-end metrics.

use crate::gen::{Batch, DseStream, WarmStream, BATCH_CELLS};
use crate::load::{self, closed_loop, median, Exchange, LoopStats, Stream};
use crate::proc::{self, run_measured, Server};
use crate::{Ctx, Metric, Outcome};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use yoco_sweep::api::{CellOutcome, CellStatus, EvalResponse, Response};
use yoco_sweep::hash::fnv1a64;
use yoco_sweep::serve::FrameSink;
use yoco_sweep::{Engine, ResultCache, Runtime, Scenario, ServeConfig};

/// Set-ups per run of a serve workload; `setup_s` is their median.
pub const SETUPS: usize = 25;
/// `cold-all`'s set-ups before each `sweep run all`; `setup_s` is the
/// median of all of them.
const COLD_SETUPS_PER_RUN: usize = 3;
/// The study a `cold-all` set-up runs: one circuit Monte Carlo cell of
/// about 35 ms, single-threaded.
const COLD_WARMUP: &str = "fig6a";
/// Batches a `--no-cache` `serve-dse` set-up computes before the clock
/// (about 0.13 s on two connections).
const DSE_WARMUP_BATCHES: usize = 32;
/// Requests per `wall_s` block on the warm workloads.
const WARM_BLOCK: usize = 1000;
/// Requests per `wall_s` block on `serve-dse`.
const DSE_BLOCK: usize = 100;
/// Upper bounds on the rates the pre-generated streams are sized for.
/// A program faster than this ends the timed phase early, when its
/// stream runs out; the printed summary says so.
const WARM_MAX_RPS: f64 = 50_000.0;
const DSE_MAX_RPS: f64 = 500.0;
/// The longest one `sweep run all` may take before it counts as hung.
const RUN_LIMIT: Duration = Duration::from_secs(120);

/// The recorded canonical report of `sweep run all --no-cache --report`.
pub const RUN_ALL_REPORT: &str = "perfbench/expected/run-all.report.json";

/// The end-to-end metrics. The p99 latency is printed with every run's
/// summary but is not one of them: on a shared 2-vCPU host its spread
/// over ten runs reached 0.4–0.6 of its median while p50 stayed near 0.1.
fn e2e_metrics(
    setup_s: f64,
    wall_s: f64,
    throughput: f64,
    p50_ms: f64,
    rss_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("throughput_rps", throughput, "1/s"),
        Metric::new("p50_ms", p50_ms, "ms"),
        Metric::new("peak_rss_mb", rss_mb, "MiB"),
    ]
}

/// Runs `setup` `setups` times, timing each and tearing down all but
/// the last, and flushes the disk after each, so neither the next
/// set-up nor the timed phase pays for the write-back of an earlier
/// one; returns the last and the median set-up seconds.
fn repeated_setup<T>(
    setups: usize,
    mut setup: impl FnMut(usize) -> io::Result<T>,
    mut teardown: impl FnMut(T) -> io::Result<()>,
) -> io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(setups);
    let mut kept = None;
    for k in 0..setups {
        let started = Instant::now();
        let value = setup(k)?;
        times.push(started.elapsed().as_secs_f64());
        if k + 1 < setups {
            teardown(value)?;
        } else {
            kept = Some(value);
        }
        proc::settle_disk();
    }
    let setup_s = median(&mut times);
    println!(
        "set-up: {setups} times, median {:.3} ms, from {:.3} to {:.3} ms",
        setup_s * 1e3,
        times[0] * 1e3,
        times[setups - 1] * 1e3
    );
    Ok((kept.expect("at least one set-up"), setup_s))
}

fn summary(name: &str, stats: &LoopStats, conns: usize, stream_len: usize) {
    println!(
        "{name}: {} requests ({} ok, {} failed) in {:.3} s on {conns} connections, closed loop; \
         p50 {:.3} ms, p99 {:.3} ms (n={})",
        stats.attempted(),
        stats.ok,
        stats.failed,
        stats.elapsed.as_secs_f64(),
        stats.latency_ms(0.50),
        stats.latency_ms(0.99),
        stats.samples.len()
    );
    let mut rates = stats.window_rates();
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!(
        "{name}: OK requests/s per window ({} windows, median {:.1}; throughput is the whole phase's {:.1}): {}",
        rates.len(),
        median(&mut rates),
        stats.throughput(),
        shown.join(" ")
    );
    if stats.attempted() as usize >= stream_len {
        println!("{name}: the pre-generated stream ran out before the time budget");
    }
    for reason in &stats.reasons {
        println!("{name}: FAILED {reason}");
    }
}

// ---------------------------------------------------------------------------
// cold-all

pub fn cold_all(ctx: &Ctx) -> io::Result<Outcome> {
    let expected = std::fs::read(ctx.root.join(RUN_ALL_REPORT))?;
    let sweep = ctx.bin("sweep");
    let ws = ctx.work_dir("cold-ws")?;
    // Set-up: the binary starts in the fresh, empty workspace root and
    // runs one uncached circuit study, a few times before every
    // `run all`. A bare start (`sweep list`, about a millisecond of
    // exec and page faults) moved by a quarter between sets of runs; a
    // ~35 ms computation moves with the host like the runs do, but the
    // host's speed drifts over seconds, so set-ups done all at once
    // gave run medians from 25 to 42 ms. Spread over the run, they see
    // the host the runs see.
    let set_up = || -> io::Result<f64> {
        let m = run_measured(
            Command::new(&sweep)
                .args(["run", COLD_WARMUP, "--no-cache", "--quiet"])
                .env("YOCO_WORKSPACE_ROOT", &ws)
                .stdout(Stdio::null()),
            RUN_LIMIT,
        )?;
        if m.status.success() {
            Ok(m.wall.as_secs_f64())
        } else {
            Err(io::Error::other(format!(
                "sweep run {COLD_WARMUP}: {}",
                m.status
            )))
        }
    };
    let report = ws.join("report.json");
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // The timed phase: every `run all` with its check, set-ups left out.
    let mut timed = Duration::ZERO;
    while attempted == 0 || timed.as_secs_f64() < ctx.seconds {
        for _ in 0..COLD_SETUPS_PER_RUN {
            setups.push(set_up()?);
        }
        let started = Instant::now();
        let _ = std::fs::remove_file(&report);
        attempted += 1;
        let m = run_measured(
            Command::new(&sweep)
                .args(["run", "all", "--no-cache", "--quiet", "--report"])
                .arg(&report)
                .env("YOCO_WORKSPACE_ROOT", &ws)
                .stdout(Stdio::null()),
            RUN_LIMIT,
        )?;
        walls.push(m.wall.as_secs_f64());
        rss.push(m.peak_rss_mb);
        match std::fs::read(&report) {
            Ok(got) if m.status.success() && got == expected => {}
            Ok(got) => {
                failed += 1;
                println!(
                    "cold-all: FAILED run {attempted}: {}, {}",
                    m.status,
                    first_difference(&got, &expected)
                );
            }
            Err(e) => {
                failed += 1;
                println!(
                    "cold-all: FAILED run {attempted}: {}, no report: {e}",
                    m.status
                );
            }
        }
        timed += started.elapsed();
    }
    let setup_s = median(&mut setups);
    println!(
        "set-up: {} times, {COLD_SETUPS_PER_RUN} before each run, median {:.3} ms, from {:.3} to {:.3} ms",
        setups.len(),
        setup_s * 1e3,
        setups[0] * 1e3,
        setups[setups.len() - 1] * 1e3
    );
    let elapsed = timed.as_secs_f64();
    let mut ns: Vec<u64> = walls.iter().map(|w| (w * 1e9) as u64).collect();
    ns.sort_unstable();
    println!(
        "cold-all: {attempted} runs of `sweep run all --no-cache` ({failed} failed) in {elapsed:.3} s; \
         walls {walls:?} s; p99 {:.3} ms (n={attempted})",
        load::quantile(&ns, 0.99) as f64 / 1e6
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: e2e_metrics(
            setup_s,
            median(&mut walls),
            (attempted - failed) as f64 / elapsed,
            load::quantile(&ns, 0.5) as f64 / 1e6,
            median(&mut rss),
        ),
    })
}

/// Where a report first departs from the recorded one, by line.
fn first_difference(got: &[u8], expected: &[u8]) -> String {
    if got == expected {
        return "report as recorded".into();
    }
    let mut want = expected.split(|&b| b == b'\n');
    for (n, line) in got.split(|&b| b == b'\n').enumerate() {
        match want.next() {
            Some(w) if w == line => {}
            Some(w) => {
                return format!(
                    "report line {} reads {:?}, recorded {:?}",
                    n + 1,
                    String::from_utf8_lossy(line),
                    String::from_utf8_lossy(w)
                )
            }
            None => return format!("report has lines past the recorded {n}"),
        }
    }
    "report ends before the recorded one".into()
}

// ---------------------------------------------------------------------------
// The warm reference: single-box bytes from an in-process runtime

/// A sink keeping every frame as the line the reactor would write.
#[derive(Default)]
pub struct RawSink(pub Vec<String>);

impl FrameSink for RawSink {
    fn send(&mut self, frame: &Response) -> io::Result<()> {
        let line = serde_json::to_string(frame).map_err(|e| io::Error::other(e.to_string()))?;
        self.0.push(line);
        Ok(())
    }

    fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.0.push(line.to_owned());
        Ok(())
    }
}

/// The expected bytes of a warm fig8 exchange.
pub struct WarmReference {
    pub v1: String,
    /// `Accepted` lines for every position a request can hold with
    /// `conns` requests in flight (the position counts those ahead).
    accepted: Vec<String>,
    pub cells: Vec<String>,
    done: String,
}

fn metrics_json(m: &Option<yoco_sweep::Metrics>) -> String {
    serde_json::to_string(m).expect("metrics serialization")
}

/// Checks one returned cell against an in-process evaluation.
fn check_cell(cell: &CellOutcome, scenario: &Scenario) -> Result<(), String> {
    let kind = scenario.kind.normalized();
    let expected = yoco_sweep::eval::evaluate(&kind).map_err(|e| e.to_string())?;
    if cell.id != scenario.id || cell.key != scenario.cache_key() {
        return Err(format!(
            "cell {} answered as {}/{}",
            scenario.id, cell.id, cell.key
        ));
    }
    if metrics_json(&cell.metrics) != metrics_json(&Some(expected)) {
        return Err(format!("cell {} differs from eval::evaluate", scenario.id));
    }
    Ok(())
}

impl WarmReference {
    /// Serves the stream's two lines from a primed in-process runtime
    /// and checks every cell against `eval::evaluate`.
    pub fn build(ctx: &Ctx, stream: &WarmStream) -> io::Result<Self> {
        let engine = Engine::ephemeral()
            .with_cache(ResultCache::at(ctx.work_dir("reference-cache")?))
            .jobs(ctx.nproc);
        let runtime = Runtime::new(
            engine,
            ServeConfig {
                queue_depth: 4,
                jobs: ctx.nproc,
            },
        );
        let serve = |line: &str| -> io::Result<Vec<String>> {
            let mut sink = RawSink::default();
            runtime.handle_line(line, &mut sink)?;
            Ok(sink.0)
        };
        serve(&stream.v1)?;
        let v1 = serve(&stream.v1)?.remove(0);
        let mut v2 = serve(&stream.v2)?;
        let bad = |e: String| io::Error::other(format!("warm reference: {e}"));
        let response: Response = serde_json::from_str(&v1).map_err(|e| bad(e.to_string()))?;
        let Response::Eval(EvalResponse { cells, hits, .. }) = response else {
            return Err(bad(format!("v1 answered {v1}")));
        };
        if cells.len() != stream.scenarios.len() || hits != cells.len() {
            return Err(bad(format!("{} cells, {hits} hits", cells.len())));
        }
        for (cell, scenario) in cells.iter().zip(&stream.scenarios) {
            check_cell(cell, scenario).map_err(bad)?;
        }
        let done = v2.pop().ok_or_else(|| bad("empty v2 answer".into()))?;
        let v2_cells: Vec<String> = v2.drain(1..).collect();
        for (line, cell) in v2_cells.iter().zip(&cells) {
            if serde_json::from_str::<Response>(line).ok() != Some(Response::Cell(cell.clone())) {
                return Err(bad(format!("v2 frame {line} differs from the v1 cell")));
            }
        }
        let accepted = (0..ctx.conns)
            .map(|position| {
                serde_json::to_string(&Response::Accepted {
                    id: stream.id.clone(),
                    position,
                })
                .expect("frame serialization")
            })
            .collect();
        Ok(Self {
            v1,
            accepted,
            cells: v2_cells,
            done,
        })
    }

    /// Byte-compares one exchange. With `any_order`, `Cell` frames may
    /// arrive in any order (a coordinator forwards them as workers
    /// deliver), but each must equal a single-box frame, once.
    pub fn check(&self, lines: &[&[u8]], buffered: bool, any_order: bool) -> Result<(), String> {
        if buffered {
            return match lines {
                [line] if *line == self.v1.as_bytes() => Ok(()),
                _ => Err(format!("v1 response differs: {}", preview(lines))),
            };
        }
        let [first, cells @ .., last] = lines else {
            return Err(format!("short v2 response: {}", preview(lines)));
        };
        if !self.accepted.iter().any(|a| a.as_bytes() == *first) {
            return Err(format!("unexpected Accepted frame: {}", preview(&[first])));
        }
        if *last != self.done.as_bytes() {
            return Err(format!("unexpected terminal frame: {}", preview(&[last])));
        }
        let same = if any_order {
            let mut got: Vec<&[u8]> = cells.to_vec();
            let mut want: Vec<&[u8]> = self.cells.iter().map(|c| c.as_bytes()).collect();
            got.sort_unstable();
            want.sort_unstable();
            got == want
        } else {
            cells.len() == self.cells.len()
                && cells
                    .iter()
                    .zip(&self.cells)
                    .all(|(a, b)| *a == b.as_bytes())
        };
        if same {
            Ok(())
        } else {
            Err("v2 Cell frames differ from the single-box bytes".into())
        }
    }
}

fn preview(lines: &[&[u8]]) -> String {
    let text: String = lines
        .iter()
        .map(|l| String::from_utf8_lossy(l))
        .collect::<Vec<_>>()
        .join(" | ");
    text.chars().take(160).collect()
}

struct WarmLines<'a>(&'a WarmStream);

impl Stream for WarmLines<'_> {
    fn len(&self) -> usize {
        self.0.is_v1.len()
    }

    fn write(&self, i: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(self.0.line(i).as_bytes());
        out.push(b'\n');
    }

    fn buffered(&self, i: usize) -> bool {
        self.0.is_v1[i]
    }
}

/// Sends each of the stream's two lines once, checking the answers are
/// complete: the cache and memo fill.
fn prime_warm(addr: &str, stream: &WarmStream) -> io::Result<()> {
    let lines = WarmLines(&WarmStream {
        id: stream.id.clone(),
        scenarios: Vec::new(),
        v1: stream.v1.clone(),
        v2: stream.v2.clone(),
        is_v1: vec![true, false],
    });
    let stats = closed_loop(addr, &lines, 1, Duration::from_secs(60), |ex| {
        match ex.lines.last() {
            Some(l) if l.starts_with(b"{\"Eval\"") || l.starts_with(b"{\"Done\"") => Ok(()),
            _ => Err(format!("priming answered {}", preview(&ex.lines))),
        }
    });
    if stats.failed > 0 {
        return Err(io::Error::other(format!(
            "priming failed: {:?}",
            stats.reasons
        )));
    }
    Ok(())
}

fn serve_args(cache: &Path) -> Vec<String> {
    vec!["--cache-dir".into(), cache.display().to_string()]
}

/// A fresh cache directory holding the warm stream's cells, filled once
/// before any set-up is timed. A warm set-up starts servers on it and
/// fills their memo from it, so `setup_s` leaves out writing the cache
/// files: on a shared disk that cost swings several-fold from one
/// second to the next.
fn filled_warm_cache(ctx: &Ctx, stream: &WarmStream) -> io::Result<PathBuf> {
    let cache = ctx.work_dir("warm-cache")?;
    let server = Server::spawn(&ctx.bin("yoco-serve"), &serve_args(&cache))?;
    prime_warm(&server.addr, stream)?;
    server.shutdown()?;
    proc::settle_disk();
    Ok(cache)
}

/// A warm loop's outcome and metrics.
fn warm_outcome(
    name: &str,
    ctx: &Ctx,
    stats: &LoopStats,
    stream_len: usize,
    setup_s: f64,
    rss_mb: f64,
) -> Outcome {
    summary(name, stats, ctx.conns, stream_len);
    Outcome {
        attempted: stats.attempted(),
        failed: stats.failed,
        metrics: e2e_metrics(
            setup_s,
            stats.block_wall_s(WARM_BLOCK),
            stats.throughput(),
            stats.latency_ms(0.50),
            rss_mb,
        ),
    }
}

// ---------------------------------------------------------------------------
// serve-warm

pub struct WarmRun {
    pub outcome: Outcome,
    pub stats: LoopStats,
    pub metrics_frame: Option<yoco_sweep::MetricsReport>,
}

pub fn serve_warm(ctx: &Ctx, seconds: f64, setups: usize) -> io::Result<WarmRun> {
    let stream = WarmStream::new(ctx.seed, (seconds * WARM_MAX_RPS) as usize);
    let reference = WarmReference::build(ctx, &stream)?;
    let serve = ctx.bin("yoco-serve");
    let cache = filled_warm_cache(ctx, &stream)?;
    let (server, setup_s) = repeated_setup(
        setups,
        |_| {
            let server = Server::spawn(&serve, &serve_args(&cache))?;
            prime_warm(&server.addr, &stream)?;
            Ok(server)
        },
        Server::shutdown,
    )?;
    let stats = closed_loop(
        &server.addr,
        &WarmLines(&stream),
        ctx.conns,
        Duration::from_secs_f64(seconds),
        |ex: &Exchange| reference.check(&ex.lines, stream.is_v1[ex.index], false),
    );
    let rss = server.peak_rss_mb()?;
    let metrics_frame = scrape(&server.addr);
    server.shutdown()?;
    Ok(WarmRun {
        outcome: warm_outcome("serve-warm", ctx, &stats, stream.is_v1.len(), setup_s, rss),
        stats,
        metrics_frame,
    })
}

/// The server's public `Metrics` frame.
pub fn scrape(addr: &str) -> Option<yoco_sweep::MetricsReport> {
    let line = proc::exchange(addr, "\"Metrics\"").ok()?;
    match serde_json::from_str::<Response>(&line).ok()? {
        Response::Metrics(report) => Some(report),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// cluster-warm

/// A coordinator and its two workers.
pub struct Cluster {
    pub coordinator: Server,
    workers: Vec<Server>,
}

impl Cluster {
    fn spawn(ctx: &Ctx, cache: &Path, stream: &WarmStream) -> io::Result<Self> {
        let serve = ctx.bin("yoco-serve");
        let workers = (0..2)
            .map(|_| Server::spawn(&serve, &serve_args(cache)))
            .collect::<io::Result<Vec<_>>>()?;
        let mut args = vec!["--coordinator".to_owned()];
        for w in &workers {
            args.extend(["--worker".to_owned(), w.addr.clone()]);
        }
        let coordinator = Server::spawn(&serve, &args)?;
        // Which worker gets which half of a batch follows their load, so
        // each worker is primed with the whole batch: any partition is warm.
        for w in &workers {
            prime_warm(&w.addr, stream)?;
        }
        prime_warm(&coordinator.addr, stream)?;
        Ok(Self {
            coordinator,
            workers,
        })
    }

    fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut sum = self.coordinator.peak_rss_mb()?;
        for w in &self.workers {
            sum += w.peak_rss_mb()?;
        }
        Ok(sum)
    }

    fn shutdown(self) -> io::Result<()> {
        self.coordinator.shutdown()?;
        for w in self.workers {
            w.shutdown()?;
        }
        Ok(())
    }
}

pub fn cluster_warm(ctx: &Ctx, seconds: f64, setups: usize) -> io::Result<WarmRun> {
    let stream = WarmStream::new(ctx.seed, (seconds * WARM_MAX_RPS) as usize);
    let reference = WarmReference::build(ctx, &stream)?;
    let cache = filled_warm_cache(ctx, &stream)?;
    let (cluster, setup_s) = repeated_setup(
        setups,
        |_| Cluster::spawn(ctx, &cache, &stream),
        Cluster::shutdown,
    )?;
    let stats = closed_loop(
        &cluster.coordinator.addr,
        &WarmLines(&stream),
        ctx.conns,
        Duration::from_secs_f64(seconds),
        |ex: &Exchange| reference.check(&ex.lines, stream.is_v1[ex.index], true),
    );
    let rss = cluster.peak_rss_mb()?;
    let metrics_frame = scrape(&cluster.coordinator.addr);
    cluster.shutdown()?;
    Ok(WarmRun {
        outcome: warm_outcome(
            "cluster-warm",
            ctx,
            &stats,
            stream.is_v1.len(),
            setup_s,
            rss,
        ),
        stats,
        metrics_frame,
    })
}

// ---------------------------------------------------------------------------
// serve-dse

struct DseLines<'a> {
    stream: &'a DseStream,
    batches: &'a [Batch],
}

impl Stream for DseLines<'_> {
    fn len(&self) -> usize {
        self.batches.len()
    }

    fn write(&self, i: usize, out: &mut Vec<u8>) {
        self.stream.write_line(&self.batches[i], out);
    }

    fn buffered(&self, _: usize) -> bool {
        false
    }
}

/// What the loop kept of one `serve-dse` exchange for the after-run
/// check: a fingerprint per `Cell` frame, and the `Done` hit count.
struct DseRecord {
    frames: Vec<u64>,
    hits: usize,
}

/// Checks a v2 exchange's framing and returns its cell frames and the
/// `Done` hit count.
fn dse_frames<'a>(
    ex: &Exchange<'a>,
    accepted: &[String],
) -> Result<(Vec<&'a [u8]>, usize), String> {
    let [first, cells @ .., last] = &ex.lines[..] else {
        return Err(format!("short response: {}", preview(&ex.lines)));
    };
    if !accepted.iter().any(|a| a.as_bytes() == *first) {
        return Err(format!("unexpected Accepted frame: {}", preview(&[first])));
    }
    let done = parse_frame(last)?;
    let Response::Done { hits, misses, .. } = done else {
        return Err(format!("unexpected terminal frame: {}", preview(&[last])));
    };
    if cells.len() != BATCH_CELLS || hits + misses != BATCH_CELLS {
        return Err(format!(
            "{} cell frames, {hits} hits + {misses} misses",
            cells.len()
        ));
    }
    if cells.iter().any(|c| !c.starts_with(b"{\"Cell\"")) {
        return Err("a non-Cell frame inside the stream".into());
    }
    Ok((cells.to_vec(), hits))
}

fn parse_frame(bytes: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

pub struct DseRun {
    pub outcome: Outcome,
    pub stats: LoopStats,
    /// `Done` hits over cells, across the timed phase.
    pub hit_ratio: f64,
    pub metrics_frame: Option<yoco_sweep::MetricsReport>,
}

/// Where the `serve-dse` server keeps results.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum DseCache {
    /// A fresh disk cache, primed with 6000 cells: first visits compute
    /// and write, revisits read cells that left the memo from disk.
    Disk,
    /// No cache (`--no-cache`): every cell is computed, the memo is off,
    /// and nothing touches the disk.
    Off,
}

pub fn serve_dse(ctx: &Ctx, seconds: f64, setups: usize, cache: DseCache) -> io::Result<DseRun> {
    let stream = DseStream::new(ctx.seed, (seconds * DSE_MAX_RPS).ceil() as usize);
    let accepted: Vec<String> = (0..ctx.conns)
        .map(|position| {
            serde_json::to_string(&Response::Accepted {
                id: stream.id.clone(),
                position,
            })
            .expect("frame serialization")
        })
        .collect();
    let serve = ctx.bin("yoco-serve");
    let (server, setup_s) = repeated_setup(
        setups,
        |k| {
            let dir = ctx.work_dir(&format!("dse-cache-{k}"))?;
            let (args, prime) = match cache {
                DseCache::Disk => (serve_args(&dir), &stream.prime[..]),
                // Without a cache there is nothing to fill: a few
                // batches warm the process up. One batch (~5 ms) left
                // the set-up dominated by the process start, whose
                // time swings by half from one moment to the next.
                DseCache::Off => (
                    vec!["--no-cache".to_owned()],
                    &stream.prime[..DSE_WARMUP_BATCHES],
                ),
            };
            let server = Server::spawn(&serve, &args)?;
            let prime = DseLines {
                stream: &stream,
                batches: prime,
            };
            let stats = closed_loop(
                &server.addr,
                &prime,
                ctx.conns,
                Duration::from_secs(120),
                |ex| dse_frames(ex, &accepted).map(|_| ()),
            );
            if stats.failed > 0 || stats.ok as usize != prime.batches.len() {
                return Err(io::Error::other(format!(
                    "serve-dse priming: {} of {} ok: {:?}",
                    stats.ok,
                    prime.batches.len(),
                    stats.reasons
                )));
            }
            Ok((server, dir))
        },
        |(server, dir)| {
            server.shutdown()?;
            std::fs::remove_dir_all(dir)
        },
    )?;
    let (server, _cache) = server;
    let records: Vec<OnceLock<DseRecord>> =
        (0..stream.timed.len()).map(|_| OnceLock::new()).collect();
    let mut stats = closed_loop(
        &server.addr,
        &DseLines {
            stream: &stream,
            batches: &stream.timed,
        },
        ctx.conns,
        Duration::from_secs_f64(seconds),
        |ex| {
            let (cells, hits) = dse_frames(ex, &accepted)?;
            let frames = cells.iter().map(|c| fnv1a64(c)).collect();
            let _ = records[ex.index].set(DseRecord { frames, hits });
            Ok(())
        },
    );
    let rss = server.peak_rss_mb()?;
    let metrics_frame = scrape(&server.addr);
    server.shutdown()?;

    // After the clock: every returned cell against eval::evaluate.
    let checked = Instant::now();
    let wrong = verify_dse(ctx, &stream, &records);
    let (mut hits, mut cells) = (0usize, 0usize);
    for r in records.iter().filter_map(OnceLock::get) {
        hits += r.hits;
        cells += r.frames.len();
    }
    stats.ok -= wrong.len() as u64;
    stats.failed += wrong.len() as u64;
    stats.reasons.extend(wrong.into_iter().take(4));
    summary("serve-dse", &stats, ctx.conns, stream.timed.len());
    let revisits = (0..stats.attempted() as usize)
        .filter(|&i| stream.timed[i].revisit)
        .count();
    let hit_ratio = hits as f64 / cells.max(1) as f64;
    println!(
        "serve-dse: {} server; {revisits} of {} requests were revisits; {hits} of {cells} cells were \
         cache hits ({hit_ratio:.3}); every returned cell checked against eval::evaluate in {:.2} s",
        match cache {
            DseCache::Disk => "disk-cache",
            DseCache::Off => "no-cache",
        },
        stats.attempted(),
        checked.elapsed().as_secs_f64()
    );
    Ok(DseRun {
        outcome: Outcome {
            attempted: stats.attempted(),
            failed: stats.failed,
            metrics: e2e_metrics(
                setup_s,
                stats.block_wall_s(DSE_BLOCK),
                stats.throughput(),
                stats.latency_ms(0.50),
                rss,
            ),
        },
        stats,
        hit_ratio,
        metrics_frame,
    })
}

/// Evaluates every cell the timed phase returned, in process, and
/// compares each returned frame with the expected bytes. Returns one
/// reason per request that fails.
fn verify_dse(ctx: &Ctx, stream: &DseStream, records: &[OnceLock<DseRecord>]) -> Vec<String> {
    let mut needed: Vec<u32> = records
        .iter()
        .zip(&stream.timed)
        .filter(|(r, _)| r.get().is_some())
        .flat_map(|(_, b)| b.cells.iter().copied())
        .collect();
    needed.sort_unstable();
    needed.dedup();
    // (computed, hit) frame fingerprints per needed cell.
    let expected: HashMap<u32, Result<(u64, u64), String>> = std::thread::scope(|scope| {
        let chunk = needed.len().div_ceil(ctx.nproc).max(1);
        let handles: Vec<_> = needed
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&c| (c, expected_frames(&stream.cells[c as usize])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread"))
            .collect()
    });
    let mut wrong = Vec::new();
    for (i, (record, batch)) in records.iter().zip(&stream.timed).enumerate() {
        let Some(record) = record.get() else { continue };
        let mut want: HashMap<u64, usize> = HashMap::new();
        let mut problem = None;
        for &c in &batch.cells {
            match &expected[&c] {
                Ok((computed, hit)) => {
                    want.insert(*computed, c as usize);
                    want.insert(*hit, c as usize);
                }
                Err(e) => problem = Some(e.clone()),
            }
        }
        let mut seen = std::collections::HashSet::new();
        let mut hit_frames = 0;
        for f in &record.frames {
            match want.get(f) {
                Some(&c) if seen.insert(c) => {
                    if expected[&(c as u32)].as_ref().is_ok_and(|(_, h)| h == f) {
                        hit_frames += 1;
                    }
                }
                _ => problem = Some("a Cell frame differs from eval::evaluate".into()),
            }
        }
        if problem.is_none() && hit_frames != record.hits {
            problem = Some(format!(
                "Done says {} hits, frames say {hit_frames}",
                record.hits
            ));
        }
        if let Some(p) = problem {
            wrong.push(format!("request {i}: {p}"));
        }
    }
    wrong
}

/// The fingerprints of a cell's `Cell` frame as computed and as a hit.
pub fn expected_frames(scenario: &Scenario) -> Result<(u64, u64), String> {
    let kind = scenario.kind.normalized();
    let metrics = yoco_sweep::eval::evaluate(&kind).map_err(|e| e.to_string())?;
    let mut cell = CellOutcome {
        id: scenario.id.clone(),
        key: scenario.cache_key(),
        status: CellStatus::Computed,
        metrics: Some(metrics),
        error: None,
    };
    let computed =
        serde_json::to_string(&Response::Cell(cell.clone())).map_err(|e| e.to_string())?;
    cell.status = CellStatus::Hit;
    let hit = serde_json::to_string(&Response::Cell(cell)).map_err(|e| e.to_string())?;
    Ok((fnv1a64(computed.as_bytes()), fnv1a64(hit.as_bytes())))
}
