//! The traced run (`--trace 1`), which gives the per-layer metrics.
//!
//! In process, the run calls each layer's public entry points on the
//! workloads' generated inputs and records a span around every call:
//! `eval::evaluate` and the circuit constructors (circuit, model),
//! `ScenarioKind::cache_key`, `ResultCache` and `Engine::run` (engine),
//! `serde_json` on the wire types (wire), `Runtime::handle_line`
//! (serve), and `Coordinator::handle_line` over an in-process
//! `WorkerPool` (cluster). Short end-to-end phases against the release
//! servers add what only a live server shows: its `Metrics` frame, the
//! client-counted cache hit ratio, and the latency the cluster adds.
//!
//! A span is a name, start, end, parent and request id (plus the
//! workload whose replay it belongs to). Spans stay in memory and are
//! written to `.bench_out/` when the run ends.

use crate::gen::{DseStream, Rng, WarmStream};
use crate::load::{closed_loop, Lines};
use crate::proc::Server;
use crate::workloads::{self, RawSink, WarmReference};
use crate::{Ctx, Metric, Outcome};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use yoco_circuit::variation::MismatchField;
use yoco_circuit::{ArrayGeometry, DetailedArray, MemoryKind, NoiseModel};
use yoco_sweep::api::{CellOutcome, CellStatus, EvalRequest, Request, Response, StatusReport};
use yoco_sweep::cluster::{ShardOutcome, WorkerPool};
use yoco_sweep::{
    eval, ClusterConfig, Coordinator, Engine, Metrics, MetricsReport, ResultCache, Runtime,
    ScenarioKind, ServeConfig, StudyId,
};

/// The layers, named after the program's modules.
const LAYERS: [&str; 6] = ["circuit", "model", "engine", "wire", "serve", "cluster"];
/// Span tags: the workload a replay stands for, or a single-layer probe.
const COLD: &str = "cold-all";
const WARM: &str = "serve-warm";
const DSE: &str = "serve-dse";
const CLUSTER: &str = "cluster-warm";
const PROBE: &str = "probe";

/// Sizes of the in-process replays and probes.
const CIRCUIT_INSTANCES: usize = 100;
const PROBE_CELLS: usize = 1000;
const PARSE_REPEATS: usize = 200;
const BATCH_PROBES: usize = 10;
const WARM_REPLAY: usize = 400;
const CLUSTER_REPLAY: usize = 200;
const DSE_REPLAY: usize = 30;
/// Untraced/traced rounds of the warm replay, for the tracing overhead.
const OVERHEAD_ROUNDS: usize = 5;
/// Timed seconds of each short end-to-end phase.
const PHASE_S: f64 = 2.0;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    tag: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder. Off, it only runs the wrapped call.
struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            on: AtomicBool::new(true),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id (0 when off)
    /// so that calls it makes can name it as their parent.
    fn span<T>(
        &self,
        tag: &'static str,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span store").push(Span {
            id,
            parent,
            req,
            tag,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }
}

/// Attempted and failed operations of the traced run.
#[derive(Default)]
struct Book {
    attempted: u64,
    failed: u64,
}

impl Book {
    fn note(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 8 {
                println!("trace: FAILED {e}");
            }
        }
    }

    fn add(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
    }
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Durations in µs of the spans named `name` with tag `tag`.
fn durations_us(spans: &[Span], tag: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.tag == tag && s.name == name)
        .map(|s| s.ns() as f64 / 1e3)
        .collect()
}

/// Nearest-rank quantile (0 for no samples).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Self time of each span: its duration minus the part of it that its
/// children cover.
fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut a, mut b) = kids[0];
                for &(x, y) in &kids[1..] {
                    if x > b {
                        covered += b - a;
                        (a, b) = (x, y);
                    } else {
                        b = b.max(y);
                    }
                }
                covered += b - a;
            }
            (s.id, s.ns().saturating_sub(covered))
        })
        .collect()
}

/// Each layer's share of a replay's traced self time, and that total.
fn layer_shares(spans: &[Span], tag: &str, own: &HashMap<u64, u64>) -> ([f64; 6], f64) {
    let mut per = [0u64; 6];
    for s in spans.iter().filter(|s| s.tag == tag) {
        if let Some(i) = LAYERS.iter().position(|l| *l == s.layer()) {
            per[i] += own[&s.id];
        }
    }
    let total: u64 = per.iter().sum();
    let mut shares = [0.0; 6];
    for (share, ns) in shares.iter_mut().zip(per) {
        *share = ns as f64 / total.max(1) as f64;
    }
    (shares, total as f64 / 1e6)
}

/// Counter deltas of the process-wide registry over one replay.
struct Registry {
    misses: u64,
    memo: u64,
    requests: u64,
}

impl Registry {
    fn now() -> Self {
        let r = yoco_sweep::telemetry::global().snapshot();
        let c = |n: &str| r.counter(n).unwrap_or(0);
        Self {
            misses: c("cache_misses_total"),
            memo: c("memo_served_total"),
            requests: c("requests_total"),
        }
    }

    /// (cells computed, requests served from the memo / requests).
    fn since(&self) -> (u64, f64) {
        let now = Self::now();
        let requests = now.requests - self.requests;
        (
            now.misses - self.misses,
            (now.memo - self.memo) as f64 / requests.max(1) as f64,
        )
    }
}

fn study_span(study: StudyId) -> &'static str {
    match study {
        StudyId::Fig6a => "circuit.fig6a",
        StudyId::Fig6bc => "circuit.fig6bc",
        StudyId::Fig6d => "circuit.fig6d",
        StudyId::Fig6e => "circuit.fig6e",
        StudyId::Fig6f => "circuit.fig6f",
        _ => "model.study",
    }
}

/// `cold-all`'s work in process: the 63 cells of `run all`, one
/// content key and one `eval::evaluate` each, in grid order.
fn replay_cold_all(t: &Tracer, book: &mut Book) -> io::Result<()> {
    let scenarios = yoco_sweep::grids::resolve("all").map_err(other)?;
    for (r, s) in scenarios.iter().enumerate() {
        let req = r as u64 + 1;
        let kind = t.span(COLD, "engine.content_key", 0, req, |_| {
            let kind = s.kind.normalized();
            black_box(kind.cache_key());
            kind
        });
        let name = match &kind {
            ScenarioKind::Study { study } => study_span(*study),
            _ => "model.evaluate",
        };
        let result = t.span(COLD, name, 0, req, |_| eval::evaluate(&kind));
        book.note(result.map(drop).map_err(|e| format!("{}: {e}", s.id)));
    }
    Ok(())
}

/// fig6d's per-instance array: mismatch sampling, noisy-array build
/// and one VMM, on seeded instances.
fn probe_circuit(t: &Tracer, seed: u64, book: &mut Book) {
    let geom = ArrayGeometry::yoco_default();
    let weights: Vec<Vec<u32>> = (0..128)
        .map(|r| {
            (0..32)
                .map(|c| ((r * 11 + c * 3 + 7) % 256) as u32)
                .collect()
        })
        .collect();
    let inputs: Vec<u32> = (0..128).map(|r| ((r * 97 + 31) % 256) as u32).collect();
    let mut rng = Rng::new(seed ^ 0x6369_7263);
    for i in 0..CIRCUIT_INSTANCES as u64 {
        let s = rng.next_u64();
        let sigma = NoiseModel::tt_corner().cap_mismatch_sigma;
        t.span(PROBE, "circuit.mismatch_sample", 0, i, |_| {
            black_box(MismatchField::sample(geom.rows(), geom.cols(), sigma, s))
        });
        let array = t.span(PROBE, "circuit.array_build", 0, i, |_| {
            DetailedArray::with_seeded_noise(
                geom,
                &weights,
                MemoryKind::Sram,
                NoiseModel::tt_corner(),
                s,
            )
        });
        let result = array.map_err(|e| e.to_string()).and_then(|a| {
            t.span(PROBE, "circuit.vmm", 0, i, |_| {
                a.compute_vmm_seeded(&inputs, s ^ 0xABCD)
            })
            .map(drop)
            .map_err(|e| e.to_string())
        });
        book.note(result);
    }
}

/// Model, engine and wire calls on `serve-dse`'s cells.
fn probe_cells(ctx: &Ctx, t: &Tracer, dse: &DseStream, book: &mut Book) -> io::Result<()> {
    let cache = ResultCache::at(ctx.work_dir("trace-probe-cache")?);
    for (i, s) in dse.cells.iter().take(PROBE_CELLS).enumerate() {
        let req = i as u64 + 1;
        let kind = s.kind.normalized();
        let key = t.span(PROBE, "engine.content_key", 0, req, |_| kind.cache_key());
        let result = t.span(PROBE, "model.evaluate", 0, req, |_| eval::evaluate(&kind));
        let Ok(metrics) = result else {
            book.note(Err(format!("{}: evaluation failed", s.id)));
            continue;
        };
        let stored = t.span(PROBE, "engine.cache_store", 0, req, |_| {
            cache.store(&key, &kind, &metrics.cache_value())
        });
        let found = t.span(PROBE, "engine.cache_lookup", 0, req, |_| {
            cache.lookup(&key, &kind)
        });
        let cell = Response::Cell(CellOutcome {
            id: s.id.clone(),
            key,
            status: CellStatus::Computed,
            metrics: Some(metrics),
            error: None,
        });
        t.span(PROBE, "wire.cell_frame", 0, req, |_| {
            black_box(serde_json::to_string(&cell).is_ok())
        });
        book.note(match (stored, found) {
            (Ok(()), Some(_)) => Ok(()),
            _ => Err(format!("{}: cache store/lookup failed", s.id)),
        });
    }
    Ok(())
}

/// Request parsing on each workload's own lines.
fn probe_parse(t: &Tracer, warm: &WarmStream, dse: &DseStream) {
    for i in 0..PARSE_REPEATS as u64 {
        t.span(PROBE, "wire.parse_fig8", 0, i, |_| {
            black_box(serde_json::from_str::<Request>(&warm.v2).is_ok())
        });
    }
    for (i, b) in dse
        .prime
        .iter()
        .chain(&dse.timed)
        .take(PARSE_REPEATS)
        .enumerate()
    {
        let line = dse.line(b);
        t.span(PROBE, "wire.parse_dse", 0, i as u64, |_| {
            black_box(serde_json::from_str::<Request>(&line).is_ok())
        });
    }
}

/// `Engine::run` of `serve-dse` first-visit batches, cold then from the
/// disk cache.
fn probe_batches(ctx: &Ctx, t: &Tracer, dse: &DseStream, book: &mut Book) -> io::Result<()> {
    let cache = ctx.work_dir("trace-batch-cache")?;
    let engine = Engine::ephemeral()
        .with_cache(ResultCache::at(&cache))
        .jobs(ctx.nproc);
    let batches: Vec<Vec<yoco_sweep::Scenario>> = dse
        .timed
        .iter()
        .filter(|b| !b.revisit)
        .take(BATCH_PROBES)
        .map(|b| {
            b.cells
                .iter()
                .map(|&c| dse.cells[c as usize].clone())
                .collect()
        })
        .collect();
    for (name, want_hits) in [("engine.batch_cold", 0), ("engine.batch_warm", 40)] {
        for (i, batch) in batches.iter().enumerate() {
            let report = t.span(PROBE, name, 0, i as u64, |_| engine.run(batch));
            book.note(if report.errors().is_empty() && report.hits == want_hits {
                Ok(())
            } else {
                Err(format!(
                    "{name}: {} hits, {} errors",
                    report.hits,
                    report.errors().len()
                ))
            });
        }
    }
    Ok(())
}

/// `serve-warm`'s work in process: the warm stream's lines through a
/// primed runtime.
fn replay_warm(
    t: &Tracer,
    runtime: &Runtime,
    warm: &WarmStream,
    reference: &WarmReference,
    book: &mut Book,
) {
    for i in 0..WARM_REPLAY {
        let req = i as u64 + 1;
        let line = warm.line(i);
        let v1 = warm.is_v1[i];
        t.span(WARM, "wire.parse", 0, req, |_| {
            black_box(serde_json::from_str::<Request>(line).is_ok())
        });
        let mut sink = RawSink::default();
        let name = if v1 {
            "serve.handle_v1"
        } else {
            "serve.handle"
        };
        let served = t.span(WARM, name, 0, req, |_| runtime.handle_line(line, &mut sink));
        let lines: Vec<&[u8]> = sink.0.iter().map(|l| l.as_bytes()).collect();
        book.note(
            served
                .map_err(|e| e.to_string())
                .and_then(|_| reference.check(&lines, v1, false)),
        );
    }
}

/// An in-process worker pool: each "host" is a [`Runtime`], reached
/// with the same request and frame bytes a socket would carry.
struct InProcPool {
    workers: Vec<(String, Arc<Runtime>)>,
    tracer: Arc<Tracer>,
    /// The span (and request) whose fan-out is running.
    parent: Arc<Mutex<(u64, u64)>>,
}

impl InProcPool {
    fn runtime(&self, addr: &str) -> io::Result<&Runtime> {
        self.workers
            .iter()
            .find(|(a, _)| a == addr)
            .map(|(_, r)| r.as_ref())
            .ok_or_else(|| io::Error::other(format!("no worker {addr}")))
    }
}

impl WorkerPool for InProcPool {
    fn status(&self, addr: &str) -> io::Result<StatusReport> {
        Ok(self.runtime(addr)?.status())
    }

    fn dispatch(
        &self,
        addr: &str,
        request: EvalRequest,
        on_cell: &mut dyn FnMut(CellOutcome, &str),
    ) -> io::Result<ShardOutcome> {
        let (parent, req) = *self.parent.lock().expect("parent span");
        let t = &self.tracer;
        let runtime = self.runtime(addr)?;
        let line = t
            .span(CLUSTER, "wire.encode", parent, req, |_| {
                serde_json::to_string(&Request::Eval(request))
            })
            .map_err(other)?;
        let mut sink = RawSink::default();
        t.span(CLUSTER, "serve.handle", parent, req, |_| {
            runtime.handle_line(&line, &mut sink)
        })?;
        let mut end = None;
        for raw in &sink.0 {
            let frame = t
                .span(CLUSTER, "wire.decode", parent, req, |_| {
                    serde_json::from_str::<Response>(raw)
                })
                .map_err(other)?;
            match frame {
                Response::Cell(cell) => on_cell(cell, raw),
                Response::Done { hits, misses, .. } => {
                    end = Some(ShardOutcome::Done { hits, misses })
                }
                Response::Busy { retry_after_ms, .. } => {
                    end = Some(ShardOutcome::Busy { retry_after_ms })
                }
                _ => {}
            }
        }
        end.ok_or_else(|| io::Error::other("sub-request ended without Done"))
    }
}

fn warm_runtime(ctx: &Ctx, name: &str, warm: &WarmStream) -> io::Result<Runtime> {
    let engine = Engine::ephemeral()
        .with_cache(ResultCache::at(ctx.work_dir(name)?))
        .jobs(ctx.nproc);
    let runtime = Runtime::new(
        engine,
        ServeConfig {
            queue_depth: 4,
            jobs: ctx.nproc,
        },
    );
    runtime.handle_line(&warm.v2, &mut RawSink::default())?;
    Ok(runtime)
}

/// `cluster-warm`'s work in process: the warm stream's lines through a
/// coordinator over two primed in-process workers.
fn replay_cluster(
    t: &Tracer,
    coordinator: &Coordinator,
    parent: &Mutex<(u64, u64)>,
    warm: &WarmStream,
    reference: &WarmReference,
    book: &mut Book,
) {
    for i in 0..CLUSTER_REPLAY {
        let req = i as u64 + 1;
        let line = warm.line(i);
        let mut sink = RawSink::default();
        let served = t.span(CLUSTER, "cluster.handle", 0, req, |id| {
            *parent.lock().expect("parent span") = (id, req);
            coordinator.handle_line(line, &mut sink)
        });
        let lines: Vec<&[u8]> = sink.0.iter().map(|l| l.as_bytes()).collect();
        book.note(
            served
                .map_err(|e| e.to_string())
                .and_then(|_| reference.check(&lines, warm.is_v1[i], true)),
        );
    }
}

/// `serve-dse`'s work in process, one public call per step: parse,
/// content keys, disk-cache lookups, evaluation and store on a miss,
/// and the cell frames, over a cache primed like the workload's.
fn replay_dse(
    ctx: &Ctx,
    t: &Tracer,
    dse: &DseStream,
    book: &mut Book,
) -> io::Result<std::path::PathBuf> {
    let dir = ctx.work_dir("trace-dse-cache")?;
    let prime: Vec<yoco_sweep::Scenario> = dse
        .prime
        .iter()
        .flat_map(|b| b.cells.iter().map(|&c| dse.cells[c as usize].clone()))
        .collect();
    let primed = Engine::ephemeral()
        .with_cache(ResultCache::at(&dir))
        .jobs(ctx.nproc)
        .run(&prime);
    if !primed.errors().is_empty() {
        return Err(io::Error::other("serve-dse priming failed in process"));
    }
    let cache = ResultCache::at(&dir);
    for (r, batch) in dse.timed.iter().take(DSE_REPLAY).enumerate() {
        let req = r as u64 + 1;
        let line = dse.line(batch);
        let parsed = t.span(DSE, "wire.parse", 0, req, |_| {
            serde_json::from_str::<Request>(&line)
        });
        let Ok(Request::Eval(request)) = parsed else {
            book.note(Err(format!("dse line {r} does not parse")));
            continue;
        };
        let mut result = Ok(());
        for s in &request.scenarios {
            let (kind, key) = t.span(DSE, "engine.content_key", 0, req, |_| {
                let kind = s.kind.normalized();
                let key = kind.cache_key();
                (kind, key)
            });
            let found = t.span(DSE, "engine.cache_lookup", 0, req, |_| {
                cache.lookup(&key, &kind)
            });
            let metrics = match found {
                Some(v) => t.span(DSE, "engine.decode", 0, req, |_| {
                    Metrics::from_cache_value(&kind, &v).map_err(|e| e.to_string())
                }),
                None => t
                    .span(DSE, "model.evaluate", 0, req, |_| eval::evaluate(&kind))
                    .map_err(|e| e.to_string())
                    .and_then(|m| {
                        t.span(DSE, "engine.cache_store", 0, req, |_| {
                            cache.store(&key, &kind, &m.cache_value())
                        })
                        .map(|()| m)
                        .map_err(|e| e.to_string())
                    }),
            };
            match metrics {
                Ok(m) => {
                    let cell = Response::Cell(CellOutcome {
                        id: s.id.clone(),
                        key,
                        status: CellStatus::Computed,
                        metrics: Some(m),
                        error: None,
                    });
                    t.span(DSE, "wire.cell_frame", 0, req, |_| {
                        black_box(serde_json::to_string(&cell).is_ok())
                    });
                }
                Err(e) => result = Err(format!("{}: {e}", s.id)),
            }
        }
        book.note(result);
    }
    Ok(dir)
}

/// `Runtime::handle_line` on the next `serve-dse` lines, over the cache
/// the replay left.
fn probe_handle_dse(
    t: &Tracer,
    dse: &DseStream,
    dir: &std::path::Path,
    nproc: usize,
    book: &mut Book,
) {
    let runtime = Runtime::new(
        Engine::ephemeral()
            .with_cache(ResultCache::at(dir))
            .jobs(nproc),
        ServeConfig {
            queue_depth: 4,
            jobs: nproc,
        },
    );
    for (r, batch) in dse
        .timed
        .iter()
        .skip(DSE_REPLAY)
        .take(DSE_REPLAY)
        .enumerate()
    {
        let line = dse.line(batch);
        let mut sink = RawSink::default();
        let served = t.span(PROBE, "serve.handle_dse", 0, r as u64 + 1, |_| {
            runtime.handle_line(&line, &mut sink)
        });
        book.note(match (served, sink.0.last()) {
            (Ok(_), Some(done)) if done.starts_with("{\"Done\"") && sink.0.len() == 42 => Ok(()),
            _ => Err(format!("dse line {r}: incomplete answer")),
        });
    }
}

/// `cold-all`'s server-side view: the `run all` grid as one v2 request
/// to a fresh `yoco-serve`.
fn cold_all_server(ctx: &Ctx, book: &mut Book) -> io::Result<(Option<MetricsReport>, (f64, f64))> {
    let scenarios = yoco_sweep::grids::resolve("all").map_err(other)?;
    let line = serde_json::to_string(&Request::Eval(EvalRequest::streaming(
        format!("all-{:x}", ctx.seed),
        scenarios,
    )))
    .map_err(other)?;
    let cache = ctx.work_dir("trace-cold-cache")?;
    let server = Server::spawn(
        &ctx.bin("yoco-serve"),
        &["--cache-dir".to_owned(), cache.display().to_string()],
    )?;
    let stats = closed_loop(
        &server.addr,
        &Lines {
            lines: vec![line],
            buffered: false,
        },
        1,
        Duration::from_secs(150),
        |ex| match ex.lines.last() {
            Some(l) if l.starts_with(b"{\"Done\"") && ex.lines.len() == 65 => Ok(()),
            _ => Err("`run all` through the server did not complete".into()),
        },
    );
    book.attempted += stats.attempted();
    book.failed += stats.failed;
    let frame = workloads::scrape(&server.addr);
    server.shutdown()?;
    Ok((frame, stats.mean_bytes()))
}

/// The `serve.*` numbers of a server's `Metrics` frame.
fn serve_view(frame: Option<&MetricsReport>) -> Vec<Metric> {
    let hist_us = |name: &str, q: f64| {
        frame
            .and_then(|f| f.hist(name))
            .map_or(0.0, |h| h.quantile_ms(q) * 1e3)
    };
    let counter = |name: &str| frame.and_then(|f| f.counter(name)).unwrap_or(0) as f64;
    vec![
        Metric::new(
            "serve.queue_wait_us.p50",
            hist_us("queue_wait_us", 0.50),
            "us",
        ),
        Metric::new(
            "serve.queue_wait_us.p99",
            hist_us("queue_wait_us", 0.99),
            "us",
        ),
        Metric::new(
            "serve.loop_iter_us.p99",
            hist_us("loop_iter_us", 0.99),
            "us",
        ),
        Metric::new("serve.flush_us.p99", hist_us("flush_us", 0.99), "us"),
        Metric::new(
            "serve.memo_served_ratio",
            counter("memo_served_total") / counter("requests_total").max(1.0),
            "ratio",
        ),
    ]
}

fn write_spans(ctx: &Ctx, spans: &[Span]) -> io::Result<std::path::PathBuf> {
    let dir = ctx.root.join(".bench_out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{}.ndjson", ctx.workload, ctx.seed));
    let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"workload\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.tag, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let tracer = Arc::new(Tracer::new());
    let t = tracer.as_ref();
    let mut book = Book::default();
    let warm = WarmStream::new(ctx.seed, WARM_REPLAY.max(CLUSTER_REPLAY));
    let dse = DseStream::new(ctx.seed, 4 * DSE_REPLAY);

    replay_cold_all(t, &mut book)?;
    probe_circuit(t, ctx.seed, &mut book);
    probe_cells(ctx, t, &dse, &mut book)?;
    probe_parse(t, &warm, &dse);
    probe_batches(ctx, t, &dse, &mut book)?;

    let reference = WarmReference::build(ctx, &warm)?;
    let runtime = warm_runtime(ctx, "trace-warm-cache", &warm)?;
    let workers = (0..2)
        .map(|w| {
            Ok((
                format!("worker-{w}"),
                Arc::new(warm_runtime(ctx, &format!("trace-worker-{w}"), &warm)?),
            ))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let parent = Arc::new(Mutex::new((0, 0)));
    let coordinator = Coordinator::with_pool(
        Box::new(InProcPool {
            workers: workers.clone(),
            tracer: Arc::clone(&tracer),
            parent: Arc::clone(&parent),
        }),
        ClusterConfig {
            workers: workers.iter().map(|(a, _)| a.clone()).collect(),
            queue_depth: 4,
        },
    );
    // The warm replay changes no state, so it runs alternately untraced
    // and traced (after an untraced warm-up) for the tracing overhead.
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    // (cells computed, memo-served share of requests) per replay.
    let mut warm_registry = (0, 0.0);
    for round in 0..=2 * OVERHEAD_ROUNDS {
        let on = round > 0 && round % 2 == 0;
        t.set(on);
        let started = Instant::now();
        let registry = Registry::now();
        replay_warm(t, &runtime, &warm, &reference, &mut book);
        warm_registry = registry.since();
        let wall = started.elapsed().as_secs_f64() * 1e3;
        if round > 0 {
            if on {
                traced.push(wall)
            } else {
                untraced.push(wall)
            }
        }
    }
    t.set(true);
    let registry = Registry::now();
    replay_cluster(t, &coordinator, &parent, &warm, &reference, &mut book);
    let cluster_registry = registry.since();
    let dse_dir = replay_dse(ctx, t, &dse, &mut book)?;
    probe_handle_dse(t, &dse, &dse_dir, ctx.nproc, &mut book);

    // Short end-to-end phases against the release servers.
    let warm_run = workloads::serve_warm(ctx, PHASE_S, 1)?;
    let cluster_run = workloads::cluster_warm(ctx, PHASE_S, 1)?;
    let dse_run = workloads::serve_dse(ctx, PHASE_S, 1, workloads::DseCache::Disk)?;
    for run in [&warm_run.outcome, &cluster_run.outcome, &dse_run.outcome] {
        book.add(run);
    }
    let (frame, (request_bytes, response_bytes)) = match ctx.workload.as_str() {
        "serve-warm" => (warm_run.metrics_frame.clone(), warm_run.stats.mean_bytes()),
        "cluster-warm" => (
            cluster_run.metrics_frame.clone(),
            cluster_run.stats.mean_bytes(),
        ),
        "serve-dse" => (dse_run.metrics_frame.clone(), dse_run.stats.mean_bytes()),
        _ => cold_all_server(ctx, &mut book)?,
    };

    let spans = tracer.spans();
    let own = self_times(&spans);
    let us = |tag: &str, name: &str, q: f64| quantile(&durations_us(&spans, tag, name), q);
    let sum_s = |tag: &str, pred: &dyn Fn(&Span) -> bool| {
        spans
            .iter()
            .filter(|s| s.tag == tag && pred(s))
            .map(|s| s.ns() as f64 / 1e9)
            .sum::<f64>()
    };
    let cell_span = |s: &Span| s.name.starts_with("circuit.") || s.name.starts_with("model.");
    let major = ["circuit.fig6d", "circuit.fig6bc", "circuit.fig6f"];

    println!("layer self-time share per workload (in-process traced replays)");
    println!(
        "{:<13}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}{:>12}{:>10}{:>7}",
        "workload",
        "circuit",
        "model",
        "engine",
        "wire",
        "serve",
        "cluster",
        "traced ms",
        "evaluate",
        "memo"
    );
    let cold_evals = spans
        .iter()
        .filter(|s| s.tag == COLD && cell_span(s))
        .count() as u64;
    let dse_evals = spans
        .iter()
        .filter(|s| s.tag == DSE && s.name == "model.evaluate")
        .count() as u64;
    // The cold-all and serve-dse replays call the layers directly, with
    // no memo in the path.
    let rows = [
        (COLD, cold_evals, 0.0),
        (WARM, warm_registry.0, warm_registry.1),
        (DSE, dse_evals, 0.0),
        (CLUSTER, cluster_registry.0, cluster_registry.1),
    ];
    let mut shares = HashMap::new();
    for (tag, evals, memo) in rows {
        let (share, total_ms) = layer_shares(&spans, tag, &own);
        print!("{tag:<13}");
        for s in share {
            print!("{:>8.1}%", s * 100.0);
        }
        println!("{total_ms:>12.1}{evals:>10}{memo:>7.2}");
        shares.insert(tag, share);
    }
    println!(
        "(evaluate: cells computed; memo: share of requests the warm memo answered, \
         counting the coordinator's and the workers' requests alike)"
    );
    let overhead_ms = crate::load::median(&mut traced) - crate::load::median(&mut untraced);
    println!(
        "tracing overhead: {overhead_ms:.3} ms per warm replay of {WARM_REPLAY} requests \
         (median of {OVERHEAD_ROUNDS} traced vs {OVERHEAD_ROUNDS} untraced rounds); {} spans in all",
        spans.len()
    );
    let path = write_spans(ctx, &spans)?;
    println!("spans written to {}", path.display());

    let mut m = vec![
        Metric::new("circuit.fig6d_s", sum_s(COLD, &|s| s.name == major[0]), "s"),
        Metric::new(
            "circuit.fig6bc_s",
            sum_s(COLD, &|s| s.name == major[1]),
            "s",
        ),
        Metric::new("circuit.fig6f_s", sum_s(COLD, &|s| s.name == major[2]), "s"),
        Metric::new(
            "circuit.other_cells_s",
            sum_s(COLD, &|s| cell_span(s) && !major.contains(&s.name)),
            "s",
        ),
        Metric::new(
            "circuit.mismatch_sample_us",
            us(PROBE, "circuit.mismatch_sample", 0.5),
            "us",
        ),
        Metric::new(
            "circuit.array_build_us",
            us(PROBE, "circuit.array_build", 0.5),
            "us",
        ),
        Metric::new("circuit.vmm_us", us(PROBE, "circuit.vmm", 0.5), "us"),
        Metric::new(
            "model.gemm_cell_us.p50",
            us(PROBE, "model.evaluate", 0.50),
            "us",
        ),
        Metric::new(
            "model.gemm_cell_us.p99",
            us(PROBE, "model.evaluate", 0.99),
            "us",
        ),
        Metric::new(
            "engine.content_key_us",
            us(PROBE, "engine.content_key", 0.5),
            "us",
        ),
        Metric::new(
            "engine.cache_lookup_us",
            us(PROBE, "engine.cache_lookup", 0.5),
            "us",
        ),
        Metric::new(
            "engine.cache_store_us",
            us(PROBE, "engine.cache_store", 0.5),
            "us",
        ),
        Metric::new(
            "engine.batch_ms.cold",
            us(PROBE, "engine.batch_cold", 0.5) / 1e3,
            "ms",
        ),
        Metric::new(
            "engine.batch_ms.warm",
            us(PROBE, "engine.batch_warm", 0.5) / 1e3,
            "ms",
        ),
        Metric::new("engine.cache_hit_ratio", dse_run.hit_ratio, "ratio"),
        Metric::new(
            "wire.parse_fig8_us",
            us(PROBE, "wire.parse_fig8", 0.5),
            "us",
        ),
        Metric::new("wire.parse_dse_us", us(PROBE, "wire.parse_dse", 0.5), "us"),
        Metric::new(
            "wire.cell_frame_us",
            us(PROBE, "wire.cell_frame", 0.5),
            "us",
        ),
        Metric::new("wire.request_bytes", request_bytes, "bytes"),
        Metric::new("wire.response_bytes", response_bytes, "bytes"),
        Metric::new("serve.handle_warm_us", us(WARM, "serve.handle", 0.5), "us"),
        Metric::new(
            "serve.handle_warm_v1_us",
            us(WARM, "serve.handle_v1", 0.5),
            "us",
        ),
        Metric::new(
            "serve.handle_dse_ms",
            us(PROBE, "serve.handle_dse", 0.5) / 1e3,
            "ms",
        ),
    ];
    m.extend(serve_view(frame.as_ref()));
    let p50 = |o: &Outcome| {
        o.metrics
            .iter()
            .find(|m| m.name == "p50_ms")
            .map_or(0.0, |m| m.value)
    };
    m.extend([
        Metric::new(
            "cluster.added_p50_ms",
            p50(&cluster_run.outcome) - p50(&warm_run.outcome),
            "ms",
        ),
        Metric::new(
            "cluster.handle_us",
            us(CLUSTER, "cluster.handle", 0.5),
            "us",
        ),
        Metric::new(
            "cluster.requeues",
            cluster_run
                .metrics_frame
                .as_ref()
                .and_then(|f| f.counter("cluster_requeues_total"))
                .unwrap_or(0) as f64,
            "count",
        ),
        Metric::new("share.cold-all.circuit", shares[COLD][0], "ratio"),
        Metric::new(
            "share.serve-dse.engine_model",
            shares[DSE][1] + shares[DSE][2],
            "ratio",
        ),
        Metric::new(
            "share.serve-warm.evaluate_calls",
            warm_registry.0 as f64,
            "count",
        ),
        Metric::new(
            "share.serve-warm.memo_served_ratio",
            warm_registry.1,
            "ratio",
        ),
        Metric::new("share.cluster-warm.cluster", shares[CLUSTER][5], "ratio"),
        Metric::new("trace.overhead_ms", overhead_ms, "ms"),
        Metric::new("trace.spans", spans.len() as f64, "count"),
    ]);
    Ok(Outcome {
        attempted: book.attempted,
        failed: book.failed,
        metrics: m,
    })
}
