//! The server runtime behind `yoco-serve`: one shared engine and cache
//! for every connection, fronted by admission control.
//!
//! The PR-2 frontend ran one engine per connection and accepted
//! unbounded work; this module is the piece that turns the NDJSON
//! protocol into a real service:
//!
//! * **Admission control** — a [`Gate`] bounds the number of evaluation
//!   requests in flight (`--queue-depth`). Requests beyond the bound are
//!   answered immediately — a `Busy` frame for protocol-v2 clients, a
//!   [`SweepError::Busy`] refusal for v1 clients — instead of queueing
//!   without limit. The `retry_after_ms` hint adapts: it is derived from
//!   an EWMA of observed per-request service time ([`Gate::record_service`]),
//!   with the fixed [`RETRY_QUANTUM_MS`] as the cold-start prior.
//! * **Worker budgeting** — the server's `--jobs` budget is split
//!   evenly across requests in flight at admission time
//!   ([`split_jobs`]), so a request arriving behind a huge batch still
//!   gets its fair share of workers (see `split_jobs` for the
//!   transient-oversubscription caveat). The share is the request's
//!   [`JobBudget`](crate::executor::JobBudget): in-cell helpers (the
//!   Fig 6(d) Monte Carlo) only take its spare tokens, never more.
//! * **Streaming** — protocol-v2 requests are answered incrementally
//!   (`Accepted` at admission, one `Cell` frame per scenario in
//!   completion order via [`Engine::run_with`], then `Done`), so large
//!   grids report progress instead of going silent.
//! * **Warm-path memoization** — a bounded in-memory memo keyed by the
//!   request's scenario list holds the pre-serialized `Cell` frame bytes
//!   of completed batches, so a warm repeat skips both the per-cell
//!   cache re-reads and the per-request re-serialization that bounded
//!   throughput before.
//! * **Observability** — a `"Status"` control line answers a
//!   [`StatusReport`] (occupancy, queue depth, jobs, service counters)
//!   without touching the gate, so load balancers — including the
//!   [`crate::cluster`] coordinator — can probe a fully busy server.
//!
//! One [`Runtime`] serves both roles. Its backend is either this box's
//! engine (`yoco-serve`) or a fan-out over worker hosts (the
//! [`crate::cluster`] coordinator), and every admitted request — v1 or
//! v2, on either backend — takes the same eval path: admit, stream the
//! cells from the memo, the engine or the workers, commit the counters
//! and the `flush` record, then send the terminal line. Buffered v1 is
//! a collector over the v2 cell stream: it keeps the cell lines and
//! splices them into one envelope.
//!
//! Frames leave through the [`FrameSink`] trait, so the whole dispatch
//! ([`Runtime::handle_line`]) is testable in process — `Vec<Response>`
//! is a sink — while the binaries serve TCP through the event-driven
//! epoll reactor ([`reactor::serve_reactor`]).

use crate::api::{
    CellOutcome, CellStatus, EvalRequest, EvalResponse, Request, Response, StatusReport,
    SweepError, API_V1, API_V2,
};
use crate::cluster::{fan_out, select_workers, ClusterConfig, FanoutResult, TcpPool, WorkerPool};
use crate::engine::{Engine, SweepReport};
use crate::executor;
use crate::scenario::Scenario;
use crate::telemetry::{self, trace};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub mod reactor;

pub use reactor::{serve_reactor, ReactorConfig, DEFAULT_OUTBUF_CAP};

/// Default bound on concurrently admitted evaluation requests.
pub const DEFAULT_QUEUE_DEPTH: usize = 4;

/// The cold-start prior for the `retry_after_ms` hint: before any
/// request has completed, a rejected client is told to back off roughly
/// one quantum divided by the queue depth — slots drain concurrently, so
/// the deeper the queue, the sooner one is expected to free up. Once
/// requests complete, the observed service-time EWMA replaces this
/// constant as the numerator.
pub const RETRY_QUANTUM_MS: u64 = 250;

/// Smoothing factor of the service-time EWMA: each completed request
/// pulls the estimate a quarter of the way toward its own service time,
/// so the hint tracks load shifts within a few requests without
/// thrashing on one outlier.
pub const SERVICE_EWMA_ALPHA: f64 = 0.25;

/// Bound on memoized warm cells. Insertion past it evicts the oldest
/// entries first (FIFO) — the memo is a pure cache of deterministic
/// results, so eviction can never be wrong, only cold.
const MEMO_CAP: usize = 4096;

/// Sizing of the runtime: admission bound and worker budget.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum evaluation requests in flight at once. `0` rejects every
    /// evaluation — a drain/maintenance mode (control requests still
    /// answer).
    pub queue_depth: usize,
    /// Total worker budget, split across in-flight requests.
    pub jobs: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_depth: DEFAULT_QUEUE_DEPTH,
            jobs: executor::default_jobs(),
        }
    }
}

/// The admission verdict for a rejected request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Suggested client backoff before retrying, in milliseconds.
    pub retry_after_ms: u64,
}

/// Bounded admission: at most `depth` tickets outstanding at once.
///
/// Admission order is arrival order at the lock; there is deliberately
/// no waiting list — a full gate answers [`Busy`] immediately so clients
/// hold the backoff, not the server. Dropped tickets feed the observed
/// service time into an EWMA ([`Gate::record_service`]) that the busy
/// hint is derived from.
#[derive(Debug)]
pub struct Gate {
    depth: usize,
    occupied: Mutex<usize>,
    /// EWMA of observed per-request service time in milliseconds;
    /// `None` until the first request completes (cold-start prior).
    service_ewma_ms: Mutex<Option<f64>>,
    /// Cumulative microseconds tickets have held slots (every ticket,
    /// including memo replays the EWMA skips): slot-seconds / uptime =
    /// achieved concurrency, surfaced as `busy_ms` in `Status`.
    slot_held_us: AtomicU64,
}

impl Gate {
    /// A gate admitting at most `depth` requests at once.
    pub fn new(depth: usize) -> Self {
        Self {
            depth,
            occupied: Mutex::new(0),
            service_ewma_ms: Mutex::new(None),
            slot_held_us: AtomicU64::new(0),
        }
    }

    /// Tries to admit one request. On success the returned [`Ticket`]
    /// holds the slot until dropped; its `position` is the number of
    /// requests already in flight (`0` = running alone). On rejection
    /// the [`Busy`] hint is [`Gate::retry_hint_ms`].
    pub fn try_enter(&self) -> Result<Ticket<'_>, Busy> {
        let mut occupied = self.occupied.lock().expect("gate lock");
        if *occupied >= self.depth {
            return Err(Busy {
                retry_after_ms: self.retry_hint_ms(),
            });
        }
        let position = *occupied;
        *occupied += 1;
        telemetry::global().gate_entered();
        Ok(Ticket {
            gate: self,
            position,
            entered: Instant::now(),
            record: true,
        })
    }

    /// Deadline-aware admission: like [`Gate::try_enter`], but a
    /// request whose `deadline_ms` budget was already spent between
    /// receipt (`received`, stamped by the transport when the line was
    /// parsed) and this call is answered [`Busy`] without occupying a
    /// slot — by its own declaration the client has stopped waiting,
    /// so evaluating would burn a slot on an abandoned request. The
    /// hint still carries the current estimate, so a retrying client
    /// backs off sensibly.
    pub fn admit(&self, received: Instant, deadline_ms: Option<u64>) -> Result<Ticket<'_>, Busy> {
        if let Some(ms) = deadline_ms {
            if received.elapsed() >= Duration::from_millis(ms) {
                telemetry::global().note_deadline_drop();
                return Err(Busy {
                    retry_after_ms: self.retry_hint_ms(),
                });
            }
        }
        self.try_enter()
    }

    /// Requests currently admitted.
    pub fn occupancy(&self) -> usize {
        *self.occupied.lock().expect("gate lock")
    }

    /// The configured admission bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Folds one completed request's service time into the EWMA behind
    /// the busy hint. Called by [`Ticket`] on drop; exposed so tests can
    /// drive convergence with synthetic durations.
    pub fn record_service(&self, elapsed: Duration) {
        let ms = elapsed.as_secs_f64() * 1e3;
        let mut ewma = self.service_ewma_ms.lock().expect("gate ewma lock");
        *ewma = Some(match *ewma {
            None => ms,
            Some(prev) => prev + SERVICE_EWMA_ALPHA * (ms - prev),
        });
    }

    /// The current per-request service-time estimate in milliseconds:
    /// the EWMA of completed requests, or the [`RETRY_QUANTUM_MS`] prior
    /// before anything has completed.
    pub fn service_estimate_ms(&self) -> f64 {
        self.service_ewma_ms
            .lock()
            .expect("gate ewma lock")
            .unwrap_or(RETRY_QUANTUM_MS as f64)
    }

    /// The backoff hint for a rejected request: the service-time
    /// estimate divided by the queue depth (slots drain concurrently, so
    /// one is expected to free up after an estimate's worth of work
    /// spread over `depth` lanes), rounded to the nearest millisecond
    /// and floored at 1 ms so the hint is always actionable.
    pub fn retry_hint_ms(&self) -> u64 {
        let per_slot = self.service_estimate_ms() / self.depth.max(1) as f64;
        (per_slot.round() as u64).max(1)
    }

    /// Cumulative milliseconds requests have held admission slots —
    /// every admitted request counts, including the warm replays the
    /// service EWMA deliberately skips, because both occupy a slot.
    pub fn slot_held_ms(&self) -> u64 {
        self.slot_held_us.load(Ordering::Relaxed) / 1_000
    }
}

/// An admitted request's slot; dropping it releases the slot and
/// records the held duration as one service-time observation.
#[derive(Debug)]
pub struct Ticket<'a> {
    gate: &'a Gate,
    position: usize,
    entered: Instant,
    record: bool,
}

impl Ticket<'_> {
    /// In-flight requests ahead of this one at admission time.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Excludes this request from the service-time EWMA. Used by the
    /// warm-memo replay path: memo hits complete in microseconds and
    /// never cause queueing, so folding them in would collapse the
    /// busy hint to nothing while the *slow* requests that actually
    /// occupy slots keep clients waiting.
    pub fn skip_service_record(&mut self) {
        self.record = false;
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let held = self.entered.elapsed();
        if self.record {
            self.gate.record_service(held);
        }
        self.gate.slot_held_us.fetch_add(
            held.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        *self.gate.occupied.lock().expect("gate lock") -= 1;
        telemetry::global().gate_released();
    }
}

/// Splits a total worker budget evenly across in-flight requests,
/// never starving a request below one worker.
///
/// The share becomes the request's [`JobBudget`](crate::executor::JobBudget):
/// its cell workers and every fan-out inside its cells draw on those
/// tokens, and an in-cell helper starts only on a spare one, so a
/// request's live compute threads never exceed its share.
///
/// Each request's share is fixed at its own admission (a running
/// request's scoped-thread pool cannot be resized), so the budget is an
/// admission-time fairness rule, not a hard global cap: a request
/// admitted alone takes the whole budget, and later arrivals shrink
/// only their own shares — the live worker total can transiently
/// exceed `budget` until earlier requests finish.
pub fn split_jobs(budget: usize, in_flight: usize) -> usize {
    (budget / in_flight.max(1)).max(1)
}

/// Monotonic service counters of a [`Runtime`], surfaced through
/// [`StatusReport`].
#[derive(Debug, Default)]
pub struct Tally {
    served: AtomicU64,
    cells: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
}

impl Tally {
    /// Records one completed evaluation (mirrored into the process-wide
    /// [`telemetry`] registry so `Metrics` scrapes agree with `Status`).
    pub fn note_eval(&self, cells: usize, hits: usize, misses: usize) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.cells.fetch_add(cells as u64, Ordering::Relaxed);
        self.hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.misses.fetch_add(misses as u64, Ordering::Relaxed);
        telemetry::global().note_eval_cells(cells as u64, hits as u64, misses as u64);
    }

    /// Records one admission rejection.
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        telemetry::global().note_rejected();
    }

    /// Copies the counters into a partially filled [`StatusReport`]
    /// (the caller supplies role, sizing, and occupancy).
    pub fn fill(&self, report: &mut StatusReport) {
        report.served = self.served.load(Ordering::Relaxed);
        report.cells = self.cells.load(Ordering::Relaxed);
        report.hits = self.hits.load(Ordering::Relaxed);
        report.misses = self.misses.load(Ordering::Relaxed);
        report.rejected = self.rejected.load(Ordering::Relaxed);
    }
}

/// Where response frames go: the runtime's only output channel.
///
/// `Send` because streamed `Cell` frames are emitted from the engine's
/// worker threads (serialized through a mutex inside the runtime).
pub trait FrameSink: Send {
    /// Delivers one frame; for socket sinks this is serialize + write +
    /// flush, so a returned error means the client is gone.
    fn send(&mut self, frame: &Response) -> io::Result<()>;

    /// Delivers one already-serialized frame line (no trailing newline).
    /// An eval's cell frames (memoized, freshly serialized, or a
    /// worker's original bytes) and its terminal line go out through
    /// this; the default decodes and falls back to [`FrameSink::send`]
    /// so in-process collector sinks still see typed frames.
    fn send_raw(&mut self, line: &str) -> io::Result<()> {
        let frame = serde_json::from_str::<Response>(line)
            .map_err(|e| io::Error::other(format!("undecodable raw frame {line:?}: {e}")))?;
        self.send(&frame)
    }
}

/// The in-process collector sink used by tests and embedders.
impl FrameSink for Vec<Response> {
    fn send(&mut self, frame: &Response) -> io::Result<()> {
        self.push(frame.clone());
        Ok(())
    }
}

/// A sink writing one JSON frame per line (the NDJSON wire form),
/// flushing after every frame so streamed progress is visible
/// immediately.
#[derive(Debug)]
pub struct LineSink<W: Write + Send> {
    inner: W,
}

impl<W: Write + Send> LineSink<W> {
    /// Wraps a writer (for the server: the TCP stream's write half).
    pub fn new(inner: W) -> Self {
        Self { inner }
    }
}

impl<W: Write + Send> FrameSink for LineSink<W> {
    fn send(&mut self, frame: &Response) -> io::Result<()> {
        let text = serde_json::to_string(frame).map_err(|e| io::Error::other(e.to_string()))?;
        writeln!(self.inner, "{text}")?;
        self.inner.flush()
    }

    fn send_raw(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.inner, "{line}")?;
        self.inner.flush()
    }
}

/// What one handled line was, for the caller's logging and lifecycle
/// (the transport acts on [`Served::Shutdown`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Served {
    /// An evaluation ran to completion (buffered or streamed).
    Eval {
        /// The request id.
        id: String,
        /// Cells in the batch.
        cells: usize,
        /// Cells served from the cache.
        hits: usize,
        /// Cells computed (or failed) fresh.
        misses: usize,
        /// Whether the exchange streamed v2 frames.
        streamed: bool,
    },
    /// An evaluation was refused at admission (queue full) — retrying
    /// after the hinted backoff can succeed.
    Rejected {
        /// The request id.
        id: String,
        /// The backoff hint sent to the client.
        retry_after_ms: u64,
    },
    /// An evaluation was refused permanently (unsupported protocol
    /// version) — retrying the same request cannot succeed.
    Refused {
        /// The request id.
        id: String,
    },
    /// A liveness check.
    Ping,
    /// A load/counter probe.
    Status,
    /// A telemetry scrape ([`crate::telemetry::MetricsReport`]).
    Metrics,
    /// A shutdown request — the caller should stop accepting and drain.
    Shutdown,
    /// A line that did not decode as a request.
    Malformed,
}

impl Served {
    /// One-line log label, mirroring the pre-runtime server's output.
    pub fn label(&self) -> String {
        match self {
            Served::Eval {
                id,
                cells,
                hits,
                misses,
                streamed,
            } => format!(
                "eval {id}: {cells} cells, {hits} hits, {misses} misses{}",
                if *streamed { ", streamed" } else { "" }
            ),
            Served::Rejected { id, retry_after_ms } => {
                format!("eval {id}: rejected, retry after {retry_after_ms} ms")
            }
            Served::Refused { id } => format!("eval {id}: refused (unsupported version)"),
            Served::Ping => "ping".into(),
            Served::Status => "status".into(),
            Served::Metrics => "metrics".into(),
            Served::Shutdown => "shutdown".into(),
            Served::Malformed => "bad request".into(),
        }
    }
}

/// One memoized cell (status already rewritten to `Hit`), held as its
/// pre-serialized v2 `Cell` frame line; buffered v1 responses splice
/// the same bytes ([`eval_line`]).
#[derive(Debug)]
struct MemoCell {
    line: String,
}

impl MemoCell {
    fn new(outcome: CellOutcome) -> Self {
        Self {
            line: cell_line(outcome),
        }
    }
}

/// The per-cell warm memo: scenario content (plus display id, which
/// appears verbatim in frames) → pre-serialized `Cell` frame. Keyed
/// per cell rather than per batch so overlapping grids share entries —
/// a batch warmed by *any* combination of earlier requests replays
/// without touching the cache. Bounded FIFO: inserting past `cap`
/// evicts the oldest keys.
#[derive(Debug)]
struct CellMemo {
    entries: HashMap<String, Arc<MemoCell>>,
    /// Insertion order of `entries` keys (no duplicates: re-inserting
    /// an existing key replaces the value in place), the FIFO eviction
    /// queue.
    order: VecDeque<String>,
    cap: usize,
}

impl CellMemo {
    fn new(cap: usize) -> Self {
        Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// The memo key of one scenario. [`Scenario::cache_key`] hashes
    /// normalized content only — the display id is deliberately not
    /// part of it — but `Cell` frames embed the id, so two scenarios
    /// with identical content and different labels must not share a
    /// memoized frame.
    fn key(scenario: &Scenario) -> String {
        format!("{}\u{1f}{}", scenario.id, scenario.cache_key())
    }

    /// All-or-nothing lookup: the memoized cells of `scenarios` in
    /// request order, or `None` if any cell is missing (the engine run
    /// then recomputes only what the result cache cannot answer).
    fn lookup_all(&self, scenarios: &[Scenario]) -> Option<Vec<Arc<MemoCell>>> {
        scenarios
            .iter()
            .map(|s| self.entries.get(&Self::key(s)).cloned())
            .collect()
    }

    fn insert(&mut self, key: String, cell: MemoCell) {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = Arc::new(cell);
            return;
        }
        while self.entries.len() >= self.cap {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.entries.insert(key, Arc::new(cell));
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One fully-memoized batch: the request's scenarios, compared on every
/// hit, and the shared per-cell entries in request order.
#[derive(Debug)]
struct BatchEntry {
    scenarios: Vec<Scenario>,
    cells: Vec<Arc<MemoCell>>,
}

/// The batch-level front of the warm memo: one fingerprint of the
/// request's scenario list (a single structural hash) instead of a
/// per-cell key computation per request — on a warm repeat the key
/// derivation was most of the server's CPU. A hit also compares the
/// stored scenarios with the request's, so a fingerprint collision
/// falls through to the per-cell path instead of answering one batch
/// with another's cells. Entries are assembled from [`CellMemo`] hits,
/// whose values are deterministic, so a batch entry can never go
/// stale — only cold. Bounded FIFO like the cell memo.
#[derive(Debug)]
struct BatchMemo {
    entries: HashMap<u64, Arc<BatchEntry>>,
    order: VecDeque<u64>,
    cap: usize,
}

impl BatchMemo {
    fn new(cap: usize) -> Self {
        Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// The batch fingerprint: every scenario hashed structurally, in
    /// order ([`hash_scenario`]). Structural rather than serialized —
    /// formatting 40 scenarios' floats back into JSON costs more than
    /// the whole warm lookup it would key. Identical batches collide
    /// (which is the point); normalized-equal but differently-spelled
    /// batches get separate entries that share the underlying
    /// [`MemoCell`]s.
    fn key(scenarios: &[Scenario]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        scenarios.len().hash(&mut h);
        for scenario in scenarios {
            hash_scenario(scenario, &mut h);
        }
        h.finish()
    }

    /// The entry under `key`, if it was stored for exactly `scenarios`.
    fn lookup(&self, key: u64, scenarios: &[Scenario]) -> Option<Arc<BatchEntry>> {
        self.entries
            .get(&key)
            .filter(|entry| entry.scenarios == scenarios)
            .cloned()
    }

    fn insert(&mut self, key: u64, entry: Arc<BatchEntry>) {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = entry;
            return;
        }
        while self.entries.len() >= self.cap {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.entries.remove(&oldest);
                }
                None => break,
            }
        }
        self.order.push_back(key);
        self.entries.insert(key, entry);
    }
}

/// Bound on memoized batch entries ([`BatchMemo`]). Smaller than
/// [`MEMO_CAP`]: entries are per distinct request shape, not per cell.
const MEMO_BATCH_CAP: usize = 256;

/// Feeds one scenario into `h` structurally: strings as bytes, enums
/// as discriminants, floats by bit pattern — no text formatting. Every
/// field that distinguishes two scenarios on the wire should be hashed
/// here; an omission cannot serve a wrong answer ([`BatchMemo::lookup`]
/// compares the scenarios), but it turns distinct batches into
/// colliding ones that keep evicting each other.
fn hash_scenario(s: &Scenario, h: &mut impl Hasher) {
    use crate::scenario::{ScenarioKind, WorkloadSpec};
    use std::mem::discriminant;
    s.id.hash(h);
    discriminant(&s.kind).hash(h);
    match &s.kind {
        ScenarioKind::Gemm {
            accelerator,
            design,
            workload,
        } => {
            discriminant(accelerator).hash(h);
            hash_design(design, h);
            discriminant(workload).hash(h);
            match workload {
                WorkloadSpec::Zoo { model } => model.hash(h),
                WorkloadSpec::Gemm {
                    name,
                    m,
                    k,
                    n,
                    kind,
                } => {
                    name.hash(h);
                    (m, k, n).hash(h);
                    discriminant(kind).hash(h);
                }
            }
        }
        ScenarioKind::Attention {
            model,
            dims,
            design,
        } => {
            model.hash(h);
            (dims.seq, dims.d_model, dims.heads).hash(h);
            hash_design(design, h);
        }
        ScenarioKind::Study { study } => discriminant(study).hash(h),
    }
}

/// The [`hash_scenario`] leaf for design points: `Option` knobs hash
/// directly, the float knob hashes by bit pattern.
fn hash_design(d: &crate::scenario::DesignPoint, h: &mut impl Hasher) {
    (
        d.ima_stack,
        d.ima_width,
        d.dimas_per_tile,
        d.simas_per_tile,
        d.tiles,
    )
        .hash(h);
    d.activity.map(f64::to_bits).hash(h);
}

/// The shared server runtime: one admission gate, one tally, and one
/// backend producing the cells — this box's engine ([`Runtime::new`])
/// or a fan-out over worker hosts ([`Runtime::coordinator`]) — shared
/// by every connection. The
/// transport (the reactor, a test harness) feeds request lines to
/// [`Runtime::handle_line`] with a sink for the reply frames.
#[derive(Debug)]
pub struct Runtime {
    backend: Backend,
    gate: Gate,
    tally: Tally,
}

/// Where a [`Runtime`]'s cells come from.
enum Backend {
    /// This box (`yoco-serve`): the shared engine and cache, the worker
    /// budget split across in-flight requests, and the two warm memos.
    Local {
        engine: Engine,
        jobs: usize,
        memo: Mutex<CellMemo>,
        batch_memo: Mutex<BatchMemo>,
    },
    /// A cluster front (`yoco-serve --coordinator`): every admitted
    /// request fans out over the live worker hosts ([`fan_out`]), each
    /// a stock `yoco-serve`.
    FanOut {
        pool: Box<dyn WorkerPool + Send + Sync>,
        workers: Vec<String>,
    },
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Local { engine, jobs, .. } => f
                .debug_struct("Local")
                .field("engine", engine)
                .field("jobs", jobs)
                .finish(),
            Backend::FanOut { workers, .. } => {
                f.debug_struct("FanOut").field("workers", workers).finish()
            }
        }
    }
}

/// Where one admitted request's cells come from.
enum Source<'a> {
    /// A warm repeat: the memoized frames, replayed in request order.
    Memo(Arc<BatchEntry>),
    /// The engine, under this request's job share and `force` flag.
    Engine(Engine),
    /// The live workers, least-loaded first.
    FanOut(&'a dyn WorkerPool, Vec<String>),
}

impl Runtime {
    /// A single-box runtime over `engine` (whose own `jobs` setting is
    /// overridden per request by the split budget).
    pub fn new(engine: Engine, config: ServeConfig) -> Self {
        Self {
            backend: Backend::Local {
                engine,
                jobs: config.jobs.max(1),
                memo: Mutex::new(CellMemo::new(MEMO_CAP)),
                batch_memo: Mutex::new(BatchMemo::new(MEMO_BATCH_CAP)),
            },
            gate: Gate::new(config.queue_depth),
            tally: Tally::default(),
        }
    }

    /// A cluster coordinator dispatching to its workers over TCP
    /// ([`TcpPool`]).
    pub fn coordinator(config: ClusterConfig) -> Self {
        Self::with_pool(Box::new(TcpPool::default()), config)
    }

    /// A cluster coordinator over an explicit worker pool (tests inject
    /// fakes here).
    pub fn with_pool(pool: Box<dyn WorkerPool + Send + Sync>, config: ClusterConfig) -> Self {
        Self {
            backend: Backend::FanOut {
                pool,
                workers: config.workers,
            },
            gate: Gate::new(config.queue_depth),
            tally: Tally::default(),
        }
    }

    /// The admission gate (exposed for observability).
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// The current [`StatusReport`]: occupancy, sizing, and service
    /// counters. A coordinator reports its own gate and counters
    /// (`role: "coordinator"`), not an aggregate over its workers —
    /// probe each worker for theirs. Control-plane: never touches the
    /// gate.
    pub fn status(&self) -> StatusReport {
        let (role, workers, jobs) = match &self.backend {
            Backend::Local { jobs, .. } => ("serve", 0, *jobs),
            Backend::FanOut { workers, .. } => ("coordinator", workers.len(), 0),
        };
        let telem = telemetry::global();
        let mut report = StatusReport {
            role: role.into(),
            workers,
            occupancy: self.gate.occupancy(),
            queue_depth: self.gate.depth(),
            jobs,
            service_estimate_ms: self.gate.service_estimate_ms().round() as u64,
            busy_ms: self.gate.slot_held_ms(),
            fd_sheds: telem.fd_sheds(),
            slow_reader_disconnects: telem.slow_reader_disconnects(),
            ..StatusReport::default()
        };
        self.tally.fill(&mut report);
        report
    }

    /// Handles one request line end to end, emitting every reply frame
    /// through `sink`. An `Err` means the sink failed (client gone) —
    /// the protocol itself never errors out of this function.
    pub fn handle_line(&self, line: &str, sink: &mut dyn FrameSink) -> io::Result<Served> {
        self.handle_line_at(line, Instant::now(), sink)
    }

    /// [`Runtime::handle_line`] with an explicit receipt instant: the
    /// reactor stamps each line as it is parsed off the socket, so a
    /// request's `deadline_ms` measures real queueing time (parse →
    /// worker pickup → admission), not just the final dispatch hop.
    pub fn handle_line_at(
        &self,
        line: &str,
        received: Instant,
        sink: &mut dyn FrameSink,
    ) -> io::Result<Served> {
        let request = match serde_json::from_str::<Request>(line) {
            Ok(request) => request,
            Err(e) => {
                sink.send(&Response::Error(SweepError::schema("request line", e)))?;
                return Ok(Served::Malformed);
            }
        };
        let req = match request {
            Request::Ping => {
                sink.send(&Response::Pong)?;
                return Ok(Served::Ping);
            }
            Request::Status => {
                sink.send(&Response::Status(self.status()))?;
                return Ok(Served::Status);
            }
            // Control-plane like `Status`: never touches the gate, so a
            // fully busy server can still be scraped mid-run.
            Request::Metrics => {
                sink.send(&Response::Metrics(telemetry::global().snapshot()))?;
                return Ok(Served::Metrics);
            }
            Request::Shutdown => {
                sink.send(&Response::Bye)?;
                return Ok(Served::Shutdown);
            }
            Request::Eval(req) => req,
        };
        // Every evaluation request received counts — admitted, rejected,
        // or refused — so `requests_total` reconciles with a load
        // generator's sent count. Warm memo hits answered on the reactor
        // thread never get here and count in `try_handle_warm`.
        telemetry::global().note_request();
        if req.version != API_V1 && req.version != API_V2 {
            let speaker = match self.backend {
                Backend::Local { .. } => "server",
                Backend::FanOut { .. } => "this coordinator",
            };
            sink.send(&Response::Eval(EvalResponse::refusal(
                req.id.clone(),
                SweepError::schema(
                    "request envelope",
                    format!(
                        "client speaks version {}, {speaker} speaks {API_V1} \
                         (buffered) and {API_V2} (streamed)",
                        req.version
                    ),
                ),
            )))?;
            return Ok(Served::Refused { id: req.id });
        }
        self.eval(req, received, None, sink)
    }

    /// Answers `line` on the calling thread iff it can be served
    /// without compute: an eval request whose every cell is memoized.
    /// `None` defers to [`Runtime::handle_line_at`] with no frames
    /// emitted. The reactor calls this from its event thread, sparing
    /// warm repeats the worker handoff — two context switches per
    /// request, which is most of a warm request's latency on a loaded
    /// box.
    pub fn try_handle_warm(
        &self,
        line: &str,
        received: Instant,
        sink: &mut dyn FrameSink,
    ) -> Option<io::Result<Served>> {
        // Only a local backend with a cache keeps a memo; for any other
        // the probe would parse every line twice on the event thread.
        match &self.backend {
            Backend::Local { engine, .. } if engine.cache().is_some() => {}
            _ => return None,
        }
        let Ok(Request::Eval(req)) = serde_json::from_str::<Request>(line) else {
            return None;
        };
        if req.version != API_V1 && req.version != API_V2 {
            return None;
        }
        // The memo probe comes before admission: it holds no slot, and
        // on a miss the line is re-dispatched untouched (the worker
        // repeats the admission verdict, so rejection bytes are
        // identical either way).
        let entry = self.memo_lookup(&req)?;
        // This request is handled here for good — it never reaches
        // `handle_line_at` — so it joins `requests_total` now.
        telemetry::global().note_request();
        Some(self.eval(req, received, Some(entry), sink))
    }

    /// The one evaluation path, for both protocols and both backends:
    /// admit, pick the cells' source, stream (v2) or collect (v1) the
    /// cells, then commit the counters and the `flush` record *before*
    /// the terminal line — a client reacting to it instantly (a
    /// `Status` probe, a trace read) must see this exchange already
    /// counted. `warm` is a memo hit found before admission.
    fn eval(
        &self,
        req: EvalRequest,
        received: Instant,
        warm: Option<Arc<BatchEntry>>,
        sink: &mut dyn FrameSink,
    ) -> io::Result<Served> {
        let mut ticket = match self.gate.admit(received, req.deadline_ms) {
            Ok(ticket) => ticket,
            Err(busy) => return self.reject(req, busy.retry_after_ms, sink),
        };
        let n = req.scenarios.len();
        let queued = received.elapsed();
        telemetry::global().observe_queue_wait(queued);
        let span = trace::span_for_request(&req.id);
        record_stage(span.as_deref(), &req, "queued", queued, n);

        let source = match (warm, &self.backend) {
            (Some(entry), _) => Source::Memo(entry),
            (None, Backend::Local { engine, jobs, .. }) => match self.memo_lookup(&req) {
                Some(entry) => Source::Memo(entry),
                None => Source::Engine(
                    engine
                        .clone()
                        .jobs(split_jobs(*jobs, self.gate.occupancy()))
                        .force(req.force),
                ),
            },
            (None, Backend::FanOut { pool, workers }) => {
                let live = select_workers(pool.as_ref(), workers);
                if live.is_empty() {
                    // No worker answered its probe — most likely
                    // transient (restart, network blip), so answer
                    // retryable Busy with the cold-start quantum rather
                    // than a hard failure. A rejection's duration (probe
                    // timeouts) is not service time; keep it out of the
                    // retry-hint EWMA.
                    ticket.skip_service_record();
                    return self.reject(req, RETRY_QUANTUM_MS, sink);
                }
                Source::FanOut(pool.as_ref(), live)
            }
        };

        let streamed = req.version == API_V2;
        if streamed {
            sink.send(&Response::Accepted {
                id: req.id.clone(),
                position: ticket.position(),
            })?;
        }
        let memo_hit = matches!(source, Source::Memo(_));
        let started = Instant::now();
        let cells = Cells::new(sink, (!streamed).then_some(n));
        let produced = match &source {
            Source::Memo(entry) => {
                for (i, cell) in entry.cells.iter().enumerate() {
                    cells.emit(i, Cow::Borrowed(&cell.line));
                }
                Ok((n, 0))
            }
            Source::Engine(engine) => {
                let report = engine.run_with(&req.scenarios, |i, cell| {
                    cells.emit(i, Cow::Owned(cell_line(CellOutcome::from_cell(cell))));
                });
                self.memo_store(&report);
                Ok((report.hits, report.misses))
            }
            Source::FanOut(pool, live) => {
                // Embedding the span after a `#t` marker in the fan-out
                // id stitches the trace across hosts: each worker adopts
                // it for its own stage records.
                let fan_id = match &span {
                    Some(span) => format!("{}#t{span}", req.id),
                    None => req.id.clone(),
                };
                let emit = |i: usize, _: &CellOutcome, raw: &str| {
                    cells.emit(i, Cow::Owned(raw.to_owned()));
                };
                match fan_out(*pool, live, &fan_id, &req.scenarios, req.force, &emit) {
                    FanoutResult::Ran(out) => Ok((out.hits, out.misses)),
                    FanoutResult::AllBusy { retry_after_ms } => Err(retry_after_ms),
                }
            }
        };
        let CellsInner { sink, error, held } = cells.finish();
        if memo_hit {
            // Memo hits complete in microseconds and never cause
            // queueing; folding them into the EWMA would collapse the
            // busy hint while slow requests keep the slots. A replay has
            // no `eval` stage — its absence is the hit's trace signature.
            ticket.skip_service_record();
            telemetry::global().note_memo_served();
        } else {
            let evaled = started.elapsed();
            telemetry::global().observe_eval(evaled);
            record_stage(span.as_deref(), &req, "eval", evaled, n);
        }
        if let Some(e) = error {
            return Err(e);
        }
        let (hits, misses) = match produced {
            Ok(split) => split,
            Err(retry_after_ms) => {
                ticket.skip_service_record();
                return self.reject(req, retry_after_ms, sink);
            }
        };
        let flush_started = if memo_hit { started } else { Instant::now() };
        drop(ticket);
        self.tally.note_eval(n, hits, misses);
        let terminal = match held {
            Some(lines) => eval_line(&req.id, &lines, hits, misses),
            None => serde_json::to_string(&Response::Done {
                id: req.id.clone(),
                hits,
                misses,
            })
            .expect("frame serialization is infallible"),
        };
        let flushed = flush_started.elapsed();
        telemetry::global().observe_flush(flushed);
        record_stage(span.as_deref(), &req, "flush", flushed, n);
        sink.send_raw(&terminal)?;
        Ok(Served::Eval {
            id: req.id,
            cells: n,
            hits,
            misses,
            streamed,
        })
    }

    /// Answers an admission rejection: one `Busy` frame for v2, a typed
    /// `Busy` refusal inside the envelope for v1.
    fn reject(
        &self,
        req: EvalRequest,
        retry_after_ms: u64,
        sink: &mut dyn FrameSink,
    ) -> io::Result<Served> {
        self.tally.note_rejected();
        let id = req.id;
        if req.version == API_V2 {
            sink.send(&Response::Busy {
                id: id.clone(),
                retry_after_ms,
            })?;
        } else {
            sink.send(&Response::Eval(EvalResponse::refusal(
                id.clone(),
                SweepError::Busy { retry_after_ms },
            )))?;
        }
        Ok(Served::Rejected { id, retry_after_ms })
    }

    /// The memoized cells answering a request, if the warm path
    /// applies: only on a local backend, and the memo mirrors the
    /// result cache, so it is only consulted when a cache is attached
    /// (without one, a repeat request genuinely recomputes and must
    /// report misses), never under `force`, and only when *every* cell
    /// of the batch is memoized (cells memoized by any earlier batch
    /// count — the keys are per cell, so overlapping grids share).
    fn memo_lookup(&self, req: &EvalRequest) -> Option<Arc<BatchEntry>> {
        let Backend::Local {
            engine,
            memo,
            batch_memo,
            ..
        } = &self.backend
        else {
            return None;
        };
        if req.force || engine.cache().is_none() {
            return None;
        }
        // Batch fingerprint first: a repeat of a known request shape
        // answers with one hash and one map probe, skipping the
        // per-cell key derivation below entirely.
        let key = BatchMemo::key(&req.scenarios);
        let mut batches = batch_memo.lock().expect("batch memo lock");
        if let Some(entry) = batches.lookup(key, &req.scenarios) {
            return Some(entry);
        }
        let cells = memo.lock().expect("memo lock").lookup_all(&req.scenarios)?;
        let entry = Arc::new(BatchEntry {
            scenarios: req.scenarios.clone(),
            cells,
        });
        batches.insert(key, Arc::clone(&entry));
        Some(entry)
    }

    /// Memoizes a completed batch's cells for warm repeats. Failed
    /// cells are never memoized (a retry should re-attempt them, and a
    /// replay must not resurrect stale failures), and without a cache
    /// the memo stays off entirely.
    fn memo_store(&self, report: &SweepReport) {
        let Backend::Local { engine, memo, .. } = &self.backend else {
            return;
        };
        if engine.cache().is_none() {
            return;
        }
        let mut memo = memo.lock().expect("memo lock");
        for cell in report.cells.iter().filter(|c| c.error.is_none()) {
            let mut outcome = CellOutcome::from_cell(cell);
            outcome.status = CellStatus::Hit;
            memo.insert(CellMemo::key(&cell.scenario), MemoCell::new(outcome));
        }
    }
}

/// Appends one stage record to the request's trace span, when tracing
/// is on.
fn record_stage(span: Option<&str>, req: &EvalRequest, stage: &str, took: Duration, cells: usize) {
    if let Some(span) = span {
        trace::record(
            span,
            &req.id,
            &trace_grid(&req.scenarios),
            stage,
            took,
            cells,
        );
    }
}

/// The grid label server-side span records aggregate under: the
/// batch's first scenario id (requests built from the named-grid CLI
/// are homogeneous, so one id names the whole batch), or `"empty"`.
fn trace_grid(scenarios: &[Scenario]) -> String {
    scenarios
        .first()
        .map(|s| s.id.clone())
        .unwrap_or_else(|| "empty".into())
}

/// One cell's v2 frame line, `{"Cell":<outcome>}`.
fn cell_line(outcome: CellOutcome) -> String {
    serde_json::to_string(&Response::Cell(outcome)).expect("frame serialization is infallible")
}

/// The outcome object `X` of a `{"Cell":X}` frame line. A line in any
/// other spelling (a worker's, say) is decoded and re-serialized, so
/// the envelope stays canonical.
fn cell_body(line: &str) -> Cow<'_, str> {
    if let Some(body) = line
        .strip_prefix("{\"Cell\":")
        .and_then(|rest| rest.strip_suffix('}'))
    {
        return Cow::Borrowed(body);
    }
    match serde_json::from_str::<Response>(line) {
        Ok(Response::Cell(cell)) => {
            Cow::Owned(serde_json::to_string(&cell).expect("frame serialization is infallible"))
        }
        _ => Cow::Borrowed(line),
    }
}

/// The buffered v1 envelope, spliced from the cells' frame lines in
/// request order. This is the only v1 cell serializer, and it is
/// byte-identical to serializing the equivalent [`Response::Eval`] (a
/// unit test pins this): the collector must not be distinguishable on
/// the wire.
fn eval_line(id: &str, lines: &[Cow<'_, str>], hits: usize, misses: usize) -> String {
    use std::fmt::Write as _;
    let id_json = serde_json::to_string(id).expect("string serialization is infallible");
    let cells_len: usize = lines.iter().map(|l| l.len()).sum();
    let mut line = String::with_capacity(cells_len + id_json.len() + 80);
    let _ = write!(
        line,
        "{{\"Eval\":{{\"version\":{API_V1},\"id\":{id_json},\"cells\":["
    );
    for (i, cell) in lines.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&cell_body(cell));
    }
    let _ = write!(
        line,
        "],\"hits\":{hits},\"misses\":{misses},\"error\":null}}}}"
    );
    line
}

/// The cell lines of one exchange on their way out, emitted from
/// several threads (engine workers, fan-out dispatch threads) through a
/// mutex. v2 forwards each line as it arrives; past the first transport
/// error the sends become no-ops so the producing computation can
/// finish (its results still land in caches), and the error surfaces
/// from [`Cells::finish`]. v1 holds the lines by scenario index for one
/// spliced envelope ([`eval_line`]).
struct Cells<'a> {
    inner: Mutex<CellsInner<'a>>,
}

struct CellsInner<'a> {
    sink: &'a mut dyn FrameSink,
    error: Option<io::Error>,
    held: Option<Vec<Cow<'a, str>>>,
}

impl<'a> Cells<'a> {
    /// Forwards to `sink`, or holds `Some(n)` cells for a v1 envelope.
    /// Every source emits each index exactly once; a gap would be a
    /// producer bug, answered as a `null` cell the client rejects.
    fn new(sink: &'a mut dyn FrameSink, hold: Option<usize>) -> Self {
        Self {
            inner: Mutex::new(CellsInner {
                sink,
                error: None,
                held: hold.map(|n| vec![Cow::Borrowed("null"); n]),
            }),
        }
    }

    fn emit(&self, index: usize, line: Cow<'a, str>) {
        let mut inner = self.inner.lock().expect("cells lock");
        let inner = &mut *inner;
        if let Some(held) = &mut inner.held {
            held[index] = line;
        } else if inner.error.is_none() {
            if let Err(e) = inner.sink.send_raw(&line) {
                inner.error = Some(e);
            }
        }
    }

    /// Hands back the sink, the first send error, and the held lines.
    fn finish(self) -> CellsInner<'a> {
        self.inner.into_inner().expect("cells lock")
    }
}

/// Binds `addr`, returning the listener and its resolved local address
/// (callers bind port `0` and announce the ephemeral port).
pub fn listen(addr: &str) -> io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    Ok((listener, local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CellStatus, EvalRequest};
    use crate::cache::ResultCache;
    use crate::scenario::{Scenario, StudyId};

    fn tiny_batch() -> Vec<Scenario> {
        vec![
            Scenario::study(StudyId::Fig9a),
            Scenario::study(StudyId::Table2),
        ]
    }

    fn runtime(depth: usize) -> Runtime {
        Runtime::new(
            Engine::ephemeral(),
            ServeConfig {
                queue_depth: depth,
                jobs: 4,
            },
        )
    }

    fn line(request: &Request) -> String {
        serde_json::to_string(request).expect("request serializes")
    }

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "yoco-serve-runtime-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::at(dir)
    }

    #[test]
    fn gate_admits_to_depth_rejects_beyond_and_releases_on_drop() {
        let gate = Gate::new(2);
        assert_eq!(gate.occupancy(), 0);
        let t1 = gate.try_enter().expect("slot 1");
        assert_eq!(t1.position(), 0);
        let t2 = gate.try_enter().expect("slot 2");
        assert_eq!(t2.position(), 1);
        assert_eq!(gate.occupancy(), 2);

        let busy = gate.try_enter().expect_err("gate is full");
        assert_eq!(
            busy.retry_after_ms,
            RETRY_QUANTUM_MS / 2,
            "cold gate: the prior quantum over two concurrently draining slots"
        );

        drop(t1);
        assert_eq!(gate.occupancy(), 1);
        let t3 = gate.try_enter().expect("freed slot is reusable");
        assert_eq!(t3.position(), 1, "one request still ahead");
        drop(t2);
        drop(t3);
        assert_eq!(gate.occupancy(), 0);
    }

    #[test]
    fn zero_depth_gate_rejects_everything_with_a_floor_hint() {
        let gate = Gate::new(0);
        let busy = gate.try_enter().expect_err("depth 0 admits nothing");
        assert_eq!(busy.retry_after_ms, RETRY_QUANTUM_MS);
    }

    #[test]
    fn retry_hint_converges_to_the_observed_service_time() {
        let gate = Gate::new(2);
        // Cold start: the fixed quantum is the prior.
        assert_eq!(gate.retry_hint_ms(), RETRY_QUANTUM_MS / 2);

        // A steady stream of 1-second requests pulls the EWMA to 1000 ms
        // within a few observations (alpha 0.25: ~3% of the gap left
        // after 12 steps), so the hint converges to 1000 / depth.
        for _ in 0..64 {
            gate.record_service(Duration::from_millis(1000));
        }
        let estimate = gate.service_estimate_ms();
        assert!(
            (estimate - 1000.0).abs() < 1.0,
            "EWMA should converge to the observed 1000 ms, got {estimate}"
        );
        assert_eq!(gate.retry_hint_ms(), 500, "estimate over two slots");

        // Load drops to 10 ms requests: the hint follows back down.
        for _ in 0..64 {
            gate.record_service(Duration::from_millis(10));
        }
        assert_eq!(gate.retry_hint_ms(), 5);

        // The hint is floored at 1 ms even for microsecond services.
        for _ in 0..64 {
            gate.record_service(Duration::from_micros(5));
        }
        assert_eq!(gate.retry_hint_ms(), 1);
    }

    #[test]
    fn dropping_a_ticket_feeds_the_service_ewma() {
        let gate = Gate::new(1);
        assert!(
            gate.service_ewma_ms.lock().unwrap().is_none(),
            "no observations before the first drop"
        );
        drop(gate.try_enter().expect("slot"));
        let observed = gate
            .service_ewma_ms
            .lock()
            .unwrap()
            .expect("one observation");
        assert!(
            observed < RETRY_QUANTUM_MS as f64,
            "an instant request must pull the estimate below the prior"
        );
        assert!(gate.retry_hint_ms() >= 1);
    }

    #[test]
    fn jobs_budget_splits_evenly_with_a_floor_of_one() {
        assert_eq!(split_jobs(8, 0), 8, "idle server: full budget");
        assert_eq!(split_jobs(8, 1), 8);
        assert_eq!(split_jobs(8, 2), 4);
        assert_eq!(split_jobs(8, 3), 2);
        assert_eq!(split_jobs(8, 4), 2);
        assert_eq!(split_jobs(8, 8), 1);
        assert_eq!(split_jobs(8, 100), 1, "never starved below one worker");
        assert_eq!(split_jobs(1, 5), 1);
    }

    #[test]
    fn v2_exchange_streams_accepted_cells_done_in_order() {
        let rt = runtime(2);
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("s-1", tiny_batch()))),
                &mut frames,
            )
            .expect("sink never fails");
        assert_eq!(
            served,
            Served::Eval {
                id: "s-1".into(),
                cells: 2,
                hits: 0,
                misses: 2,
                streamed: true,
            }
        );
        assert_eq!(frames.len(), 4, "accepted + 2 cells + done: {frames:?}");
        assert_eq!(
            frames[0],
            Response::Accepted {
                id: "s-1".into(),
                position: 0
            }
        );
        let mut cell_ids: Vec<&str> = frames[1..3]
            .iter()
            .map(|f| match f {
                Response::Cell(c) => {
                    assert_eq!(c.status, CellStatus::Computed);
                    assert!(c.metrics.is_some());
                    c.id.as_str()
                }
                other => panic!("expected Cell frames in the middle, got {other:?}"),
            })
            .collect();
        cell_ids.sort_unstable();
        assert_eq!(cell_ids, ["study/fig9a", "study/table2"]);
        assert_eq!(
            frames[3],
            Response::Done {
                id: "s-1".into(),
                hits: 0,
                misses: 2
            }
        );
        assert_eq!(rt.gate().occupancy(), 0, "ticket released after Done");
    }

    #[test]
    fn streamed_cells_carry_the_same_payloads_as_the_buffered_response() {
        let rt = runtime(2);
        let mut streamed: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("s-2", tiny_batch()))),
            &mut streamed,
        )
        .unwrap();
        let mut buffered: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("b-2", tiny_batch()))),
            &mut buffered,
        )
        .unwrap();
        let Some(Response::Eval(buffered)) = buffered.first() else {
            panic!("expected one buffered Eval response, got {buffered:?}");
        };
        let mut streamed_cells: Vec<&CellOutcome> = streamed
            .iter()
            .filter_map(|f| match f {
                Response::Cell(c) => Some(c),
                _ => None,
            })
            .collect();
        streamed_cells.sort_by(|a, b| a.id.cmp(&b.id));
        let mut buffered_cells: Vec<&CellOutcome> = buffered.cells.iter().collect();
        buffered_cells.sort_by(|a, b| a.id.cmp(&b.id));
        assert_eq!(streamed_cells, buffered_cells);
    }

    #[test]
    fn full_gate_rejects_v2_with_busy_and_v1_with_a_typed_refusal() {
        let rt = runtime(1);
        let _held = rt.gate().try_enter().expect("hold the only slot");

        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("s-3", tiny_batch()))),
                &mut frames,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Rejected {
                id: "s-3".into(),
                retry_after_ms: RETRY_QUANTUM_MS
            }
        );
        assert_eq!(
            frames,
            vec![Response::Busy {
                id: "s-3".into(),
                retry_after_ms: RETRY_QUANTUM_MS
            }]
        );

        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("b-3", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        let Some(Response::Eval(refusal)) = frames.first() else {
            panic!("expected a v1 refusal, got {frames:?}");
        };
        assert_eq!(refusal.id, "b-3");
        assert!(refusal.cells.is_empty());
        assert_eq!(refusal.error.as_ref().unwrap().category(), "busy");

        let status = rt.status();
        assert_eq!(status.rejected, 2, "both rejections counted");
        assert_eq!(status.served, 0);
    }

    #[test]
    fn unknown_versions_get_a_buffered_schema_refusal() {
        let rt = runtime(2);
        let mut req = EvalRequest::new("v-9", tiny_batch());
        req.version = 9;
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(&line(&Request::Eval(req)), &mut frames)
            .unwrap();
        assert_eq!(
            served,
            Served::Refused { id: "v-9".into() },
            "a version refusal is permanent, not a retryable rejection"
        );
        let Some(Response::Eval(refusal)) = frames.first() else {
            panic!("expected a refusal, got {frames:?}");
        };
        assert_eq!(refusal.id, "v-9");
        assert_eq!(
            refusal.error.as_ref().unwrap().category(),
            "schema-mismatch"
        );
        assert_eq!(rt.gate().occupancy(), 0, "no slot consumed");
    }

    #[test]
    fn control_lines_bypass_the_gate() {
        let rt = runtime(0); // full drain mode: every eval rejected…
        let mut frames: Vec<Response> = Vec::new();
        assert_eq!(
            rt.handle_line("\"Ping\"", &mut frames).unwrap(),
            Served::Ping
        );
        assert_eq!(
            rt.handle_line("\"Status\"", &mut frames).unwrap(),
            Served::Status
        );
        assert_eq!(
            rt.handle_line("\"Shutdown\"", &mut frames).unwrap(),
            Served::Shutdown
        );
        assert_eq!(
            rt.handle_line("not json", &mut frames).unwrap(),
            Served::Malformed
        );
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0], Response::Pong);
        let Response::Status(status) = &frames[1] else {
            panic!("expected a Status report, got {:?}", frames[1]);
        };
        assert_eq!(status.role, "serve");
        assert_eq!(status.queue_depth, 0);
        assert_eq!(frames[2], Response::Bye);
        assert!(matches!(frames[3], Response::Error(_)));
        // …while evals are rejected, not hung.
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("d-1", tiny_batch()))),
                &mut frames,
            )
            .unwrap();
        assert!(matches!(served, Served::Rejected { .. }));
    }

    #[test]
    fn status_counters_track_served_cells_and_hit_miss_split() {
        let cache = temp_cache("status");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("c-1", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("c-2", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        let status = rt.status();
        assert_eq!(status.served, 2);
        assert_eq!(status.cells, 4);
        assert_eq!(status.hits, 2, "second request warm");
        assert_eq!(status.misses, 2, "first request cold");
        assert_eq!(status.occupancy, 0);
        assert_eq!(status.queue_depth, 2);
        assert_eq!(status.jobs, 2);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn warm_memo_replays_batches_without_touching_the_cache() {
        let cache = temp_cache("memo");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        // Cold run populates cache and memo.
        let mut cold: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("m-1", tiny_batch()))),
            &mut cold,
        )
        .unwrap();

        // Deleting the cache directory proves the warm replay reads the
        // memo, not the disk.
        std::fs::remove_dir_all(cache.dir()).expect("cache dir removable");

        let mut warm: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("m-2", tiny_batch()))),
                &mut warm,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "m-2".into(),
                cells: 2,
                hits: 2,
                misses: 0,
                streamed: true,
            }
        );
        // Payloads are identical to the cold run's, statuses are Hit,
        // and frames arrive in scenario order (the memo replays in
        // request order).
        let warm_cells: Vec<&CellOutcome> = warm
            .iter()
            .filter_map(|f| match f {
                Response::Cell(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(warm_cells.len(), 2);
        let ids: Vec<&str> = warm_cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, ["study/fig9a", "study/table2"]);
        for cell in &warm_cells {
            assert_eq!(cell.status, CellStatus::Hit);
            let cold_match = cold.iter().find_map(|f| match f {
                Response::Cell(c) if c.id == cell.id => Some(c),
                _ => None,
            });
            assert_eq!(cold_match.unwrap().metrics, cell.metrics, "{}", cell.id);
        }

        // The buffered path serves the same memo, byte-for-byte stable
        // across repeats.
        let mut v1a: Vec<Response> = Vec::new();
        let mut v1b: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("m-3", tiny_batch()))),
            &mut v1a,
        )
        .unwrap();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("m-3", tiny_batch()))),
            &mut v1b,
        )
        .unwrap();
        let (a, b) = (
            serde_json::to_string(&v1a[0]).unwrap(),
            serde_json::to_string(&v1b[0]).unwrap(),
        );
        assert_eq!(a, b, "memoized v1 responses are byte-stable");
        assert!(a.contains("\"hits\":2,\"misses\":0"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn memo_replays_do_not_pollute_the_service_time_ewma() {
        let cache = temp_cache("memo-ewma");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 1,
                jobs: 2,
            },
        );
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("e-1", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        let after_cold = rt.gate().service_estimate_ms();
        // A burst of instant memo replays must not drag the estimate
        // toward zero — the busy hint has to reflect the requests that
        // actually occupy slots.
        for n in 0..32 {
            rt.handle_line(
                &line(&Request::Eval(EvalRequest::streaming(
                    format!("e-w{n}"),
                    tiny_batch(),
                ))),
                &mut frames,
            )
            .unwrap();
        }
        assert_eq!(
            rt.gate().service_estimate_ms(),
            after_cold,
            "memo-served requests are excluded from the EWMA"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn memo_is_off_without_a_cache_and_under_force() {
        // No cache: a repeat request genuinely recomputes (misses), as
        // the warm path must mirror the cache semantics exactly.
        let rt = runtime(2);
        let mut frames: Vec<Response> = Vec::new();
        for id in ["n-1", "n-2"] {
            let served = rt
                .handle_line(
                    &line(&Request::Eval(EvalRequest::streaming(id, tiny_batch()))),
                    &mut frames,
                )
                .unwrap();
            assert_eq!(
                served,
                Served::Eval {
                    id: id.into(),
                    cells: 2,
                    hits: 0,
                    misses: 2,
                    streamed: true,
                },
                "without a cache every run recomputes"
            );
        }

        // With a cache but force=true: the memo is bypassed and the run
        // recomputes (refreshing cache and memo).
        let cache = temp_cache("memo-force");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("f-1", tiny_batch()))),
            &mut frames,
        )
        .unwrap();
        let mut forced = EvalRequest::streaming("f-2", tiny_batch());
        forced.force = true;
        let served = rt
            .handle_line(&line(&Request::Eval(forced)), &mut frames)
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "f-2".into(),
                cells: 2,
                hits: 0,
                misses: 2,
                streamed: true,
            },
            "force recomputes even with a warm memo"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn expired_deadlines_answer_busy_without_occupying_a_slot() {
        let rt = runtime(2);
        let stale = Instant::now()
            .checked_sub(Duration::from_millis(50))
            .expect("clock has history");

        // v2: the Busy frame, not a slot.
        let request = EvalRequest::streaming("d-1", tiny_batch()).with_deadline(10);
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line_at(&line(&Request::Eval(request)), stale, &mut frames)
            .unwrap();
        assert!(
            matches!(served, Served::Rejected { ref id, .. } if id == "d-1"),
            "expired v2 deadline must reject, got {served:?}"
        );
        assert!(
            matches!(frames.first(), Some(Response::Busy { id, .. }) if id == "d-1"),
            "expected a Busy frame, got {frames:?}"
        );
        assert_eq!(rt.gate().occupancy(), 0, "no slot was occupied");

        // v1: the same refusal comes back buffered and typed.
        let request = EvalRequest::new("d-2", tiny_batch()).with_deadline(10);
        let mut frames: Vec<Response> = Vec::new();
        rt.handle_line_at(&line(&Request::Eval(request)), stale, &mut frames)
            .unwrap();
        let Some(Response::Eval(refusal)) = frames.first() else {
            panic!("expected a v1 refusal, got {frames:?}");
        };
        assert_eq!(refusal.error.as_ref().unwrap().category(), "busy");

        // An unexpired deadline admits and evaluates normally.
        let request = EvalRequest::streaming("d-3", tiny_batch()).with_deadline(60_000);
        let mut frames: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(&line(&Request::Eval(request)), &mut frames)
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "d-3".into(),
                cells: 2,
                hits: 0,
                misses: 2,
                streamed: true,
            }
        );
        assert_eq!(rt.status().rejected, 2);
    }

    /// A sink capturing raw wire lines: typed frames serialize exactly
    /// as the TCP `LineSink` would, raw lines pass through untouched.
    #[derive(Default)]
    struct RawLines(Vec<String>);

    impl FrameSink for RawLines {
        fn send(&mut self, frame: &Response) -> io::Result<()> {
            self.0
                .push(serde_json::to_string(frame).expect("frame serializes"));
            Ok(())
        }

        fn send_raw(&mut self, line: &str) -> io::Result<()> {
            self.0.push(line.to_string());
            Ok(())
        }
    }

    #[test]
    fn warm_buffered_line_is_byte_identical_to_serde_serialization() {
        let cache = temp_cache("memo-bytes");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        let mut cold = RawLines::default();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new("b-cold", tiny_batch()))),
            &mut cold,
        )
        .unwrap();

        // The id exercises JSON string escaping in the spliced line.
        let id = "b-warm \"quoted\" \\ ünïcode";
        let mut warm = RawLines::default();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new(id, tiny_batch()))),
            &mut warm,
        )
        .unwrap();
        assert_eq!(warm.0.len(), 1, "one buffered response line");
        let spliced = &warm.0[0];

        // Parse the spliced line and push it back through serde: the
        // bytes must survive the round trip unchanged, proving the
        // splice is indistinguishable from full serialization.
        let parsed: Response = serde_json::from_str(spliced).expect("warm line parses");
        let Response::Eval(response) = parsed else {
            panic!("expected a buffered Eval response");
        };
        assert_eq!(response.id, id);
        assert_eq!((response.hits, response.misses), (2, 0));
        assert_eq!(response.cells.len(), 2);
        let rebuilt =
            serde_json::to_string(&Response::Eval(response)).expect("response serializes");
        assert_eq!(
            *spliced, rebuilt,
            "spliced warm line must match serde byte-for-byte"
        );

        // Every v1 envelope is spliced, not just memo replays: the cold
        // (Computed) response and one carrying a Failed cell next to a
        // cache Hit must survive the same round trip.
        let failing = Scenario::gemm(
            crate::scenario::AcceleratorKind::Yoco,
            crate::scenario::DesignPoint::paper(),
            crate::scenario::WorkloadSpec::Zoo {
                model: "no-such-model".into(),
            },
        );
        let mut failed = RawLines::default();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::new(
                "b-failed",
                vec![Scenario::study(StudyId::Fig9a), failing],
            ))),
            &mut failed,
        )
        .unwrap();
        for (raw, statuses) in [
            (&cold.0[0], [CellStatus::Computed, CellStatus::Computed]),
            (&failed.0[0], [CellStatus::Hit, CellStatus::Failed]),
        ] {
            let Response::Eval(response) = serde_json::from_str(raw).expect("line parses") else {
                panic!("expected a buffered Eval response, got {raw}");
            };
            let got: Vec<CellStatus> = response.cells.iter().map(|c| c.status).collect();
            assert_eq!(got, statuses);
            let rebuilt =
                serde_json::to_string(&Response::Eval(response)).expect("response serializes");
            assert_eq!(*raw, rebuilt, "spliced line must match serde byte-for-byte");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn batch_memo_compares_scenarios_on_a_hit() {
        // Two different batches forced under one fingerprint, as a hash
        // collision would: the second must miss, not get the first's
        // cells.
        let mut memo = BatchMemo::new(4);
        let a = vec![Scenario::study(StudyId::Fig9a)];
        let b = vec![Scenario::study(StudyId::Table2)];
        let key = BatchMemo::key(&a);
        memo.insert(
            key,
            Arc::new(BatchEntry {
                scenarios: a.clone(),
                cells: vec![Arc::new(MemoCell {
                    line: "frame-a".into(),
                })],
            }),
        );
        assert!(memo.lookup(key, &a).is_some(), "the stored batch hits");
        assert!(
            memo.lookup(key, &b).is_none(),
            "another batch under the same key misses"
        );
    }

    #[test]
    fn cell_memo_evicts_oldest_entries_at_cap() {
        let mut memo = CellMemo::new(2);
        let scenarios = [
            Scenario::study(StudyId::Fig9a),
            Scenario::study(StudyId::Table2),
            Scenario::study(StudyId::Fig7),
        ];
        for s in &scenarios {
            memo.insert(
                CellMemo::key(s),
                MemoCell {
                    line: format!("frame-{}", s.id),
                },
            );
        }
        assert_eq!(memo.len(), 2, "cap bounds the entry count");
        assert!(
            memo.lookup_all(&scenarios[1..]).is_some(),
            "the two newest entries survive"
        );
        assert!(
            memo.lookup_all(&scenarios[..1]).is_none(),
            "the oldest entry was evicted first"
        );

        // Re-inserting a live key replaces in place: nothing else is
        // evicted and the count stays at cap.
        memo.insert(
            CellMemo::key(&scenarios[1]),
            MemoCell {
                line: "frame-refreshed".into(),
            },
        );
        assert_eq!(memo.len(), 2);
        let cells = memo
            .lookup_all(&scenarios[1..2])
            .expect("refreshed key still present");
        assert_eq!(cells[0].line, "frame-refreshed");
        assert!(
            memo.lookup_all(&scenarios[2..]).is_some(),
            "replacing a live key must not evict its neighbour"
        );
    }

    #[test]
    fn overlapping_batches_share_per_cell_memo_entries() {
        let cache = temp_cache("memo-overlap");
        let rt = Runtime::new(
            Engine::ephemeral().with_cache(cache.clone()),
            ServeConfig {
                queue_depth: 2,
                jobs: 2,
            },
        );
        // Batch A computes {Fig9a, Table2} and memoizes each cell.
        let mut cold: Vec<Response> = Vec::new();
        rt.handle_line(
            &line(&Request::Eval(EvalRequest::streaming("o-1", tiny_batch()))),
            &mut cold,
        )
        .unwrap();

        // Deleting the cache dir proves the overlap is served from the
        // memo, not the disk.
        std::fs::remove_dir_all(cache.dir()).expect("cache dir removable");

        // Batch B is a different batch that overlaps A in Table2 only.
        // Under per-batch keying this would be a full recompute; with
        // per-cell keys the shared cell replays warm.
        let sub = vec![Scenario::study(StudyId::Table2)];
        let mut warm: Vec<Response> = Vec::new();
        let served = rt
            .handle_line(
                &line(&Request::Eval(EvalRequest::streaming("o-2", sub.clone()))),
                &mut warm,
            )
            .unwrap();
        assert_eq!(
            served,
            Served::Eval {
                id: "o-2".into(),
                cells: 1,
                hits: 1,
                misses: 0,
                streamed: true,
            },
            "the overlapping cell must come out of the memo"
        );
        let Some(Response::Cell(cell)) = warm.iter().find(|f| matches!(f, Response::Cell(_)))
        else {
            panic!("expected a Cell frame, got {warm:?}");
        };
        let cold_match = cold.iter().find_map(|f| match f {
            Response::Cell(c) if c.id == cell.id => Some(c),
            _ => None,
        });
        assert_eq!(
            cold_match.unwrap().metrics,
            cell.metrics,
            "the shared cell replays batch A's payload"
        );

        // The buffered protocol shares the same per-cell entries.
        let mut v1: Vec<Response> = Vec::new();
        rt.handle_line(&line(&Request::Eval(EvalRequest::new("o-3", sub))), &mut v1)
            .unwrap();
        let Some(Response::Eval(response)) = v1.first() else {
            panic!("expected a buffered response, got {v1:?}");
        };
        assert_eq!(response.hits, 1);
        assert_eq!(response.misses, 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn raw_frames_decode_through_the_default_sink_path() {
        let mut frames: Vec<Response> = Vec::new();
        let sink: &mut dyn FrameSink = &mut frames;
        sink.send_raw("\"Pong\"").unwrap();
        assert!(sink.send_raw("not a frame").is_err());
        assert_eq!(frames, vec![Response::Pong]);
    }
}

/// Ignored-by-default timing probes for the warm fast path. Run with
/// `cargo test -p yoco-sweep --release -- --ignored microbench` when
/// chasing a serve-bench regression: the request parse dominates, and
/// the batch fingerprint must stay orders of magnitude below it.
#[cfg(test)]
mod microbench {
    use super::*;
    use crate::api::{EvalRequest, Request};
    use crate::grids;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn warm_path_piece_timings() {
        let scenarios = grids::resolve("fig8").expect("grid");
        let req = EvalRequest::new("bench", scenarios.clone());
        let line = serde_json::to_string(&Request::Eval(req)).unwrap();
        eprintln!("request line bytes: {}", line.len());
        let n = 2000;
        let t = Instant::now();
        for _ in 0..n {
            let _ = serde_json::from_str::<Request>(&line).unwrap();
        }
        eprintln!("parse request: {:?}/iter", t.elapsed() / n);
        let t = Instant::now();
        for _ in 0..n {
            let _ = BatchMemo::key(&scenarios);
        }
        eprintln!("batch key: {:?}/iter", t.elapsed() / n);
        let t = Instant::now();
        for _ in 0..n {
            let c = scenarios.iter().map(CellMemo::key).collect::<Vec<_>>();
            std::hint::black_box(c);
        }
        eprintln!("per-cell keys: {:?}/iter", t.elapsed() / n);
    }
}
