//! The closed-loop load generator: plain `std::net::TcpStream`s, each on
//! its own thread, each sending its next request only after the last
//! one's terminal frame arrived.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// How long one exchange may take before it counts as failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A request stream the loop can send: pre-serialized lines by index.
pub trait Stream: Sync {
    fn len(&self) -> usize;
    /// Appends request `i` (with its newline) to `out`.
    fn write(&self, i: usize, out: &mut Vec<u8>);
    /// Whether request `i` is answered by a single buffered v1 line.
    fn buffered(&self, i: usize) -> bool;
}

/// A stream of explicit lines.
pub struct Lines {
    pub lines: Vec<String>,
    pub buffered: bool,
}

impl Stream for Lines {
    fn len(&self) -> usize {
        self.lines.len()
    }

    fn write(&self, i: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(self.lines[i].as_bytes());
        out.push(b'\n');
    }

    fn buffered(&self, _: usize) -> bool {
        self.buffered
    }
}

/// What one completed exchange looked like.
pub struct Exchange<'a> {
    pub index: usize,
    /// The response lines, each without its newline.
    pub lines: Vec<&'a [u8]>,
}

/// The outcome of a loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub ok: u64,
    pub failed: u64,
    /// From the first send to the last terminal frame.
    pub elapsed: Duration,
    /// Each OK request: its completion instant since the start, and its
    /// latency in ns.
    pub samples: Vec<(Duration, u64)>,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Bytes sent and received over completed exchanges, newlines
    /// included.
    pub request_bytes: u64,
    pub response_bytes: u64,
}

/// OK requests per printed window.
const WINDOW_SAMPLES: usize = 1000;
const MAX_WINDOWS: usize = 200;

impl LoopStats {
    fn merge(&mut self, other: LoopStats) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    /// Mean bytes per completed exchange, sent and received.
    pub fn mean_bytes(&self) -> (f64, f64) {
        let n = self.attempted().max(1) as f64;
        (
            self.request_bytes as f64 / n,
            self.response_bytes as f64 / n,
        )
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    /// OK requests per second in each of the timed phase's equal
    /// windows, as many as keep [`WINDOW_SAMPLES`] OK requests in each
    /// (1 to [`MAX_WINDOWS`]). Printed as evidence of how steady the
    /// phase ran; no metric is taken from them.
    pub fn window_rates(&self) -> Vec<f64> {
        let n = (self.samples.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
        let width = self.elapsed.as_secs_f64() / n as f64;
        let mut counts = vec![0usize; n];
        for &(at, _) in &self.samples {
            counts[((at.as_secs_f64() / width) as usize).min(n - 1)] += 1;
        }
        counts.into_iter().map(|c| c as f64 / width).collect()
    }

    /// OK requests per second of the whole timed phase.
    pub fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64()
    }

    /// Latency quantile `q` of every OK request, ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let mut ns: Vec<u64> = self.samples.iter().map(|s| s.1).collect();
        ns.sort_unstable();
        quantile(&ns, q) as f64 / 1e6
    }

    /// Seconds the timed phase took per `block` OK requests: the loop's
    /// wall time for one fixed unit of work.
    pub fn block_wall_s(&self, block: usize) -> f64 {
        block as f64 / self.throughput()
    }
}

/// Nearest-rank quantile of sorted values.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn is_terminal(line: &[u8], buffered: bool) -> bool {
    buffered
        || line.starts_with(b"{\"Done\"")
        || line.starts_with(b"{\"Busy\"")
        || line.starts_with(b"{\"Error\"")
        || line.starts_with(b"{\"Eval\"")
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to CPU 0. The load threads all sit there,
/// so the server's threads own the other CPUs: left to the scheduler,
/// a woken client thread often lands on the CPU of the server thread
/// that woke it, and on a 2-CPU host that made warm runs bimodal (p50
/// 0.25 or 0.35 ms from one run to the next). Best effort: a host that
/// forbids CPU 0 runs unpinned.
fn pin_to_first_cpu() {
    let mask = [1u64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    // SAFETY: `mask` is a live 1024-bit CPU set (the size passed), only
    // read by the call; pid 0 names the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    Ok((stream, reader))
}

/// Runs `stream` against `addr` on `conns` connections until `budget`
/// elapses or the stream is exhausted. `check` judges each exchange;
/// an `Err` counts the request as failed.
pub fn closed_loop<S, C>(
    addr: &str,
    stream: &S,
    conns: usize,
    budget: Duration,
    check: C,
) -> LoopStats
where
    S: Stream,
    C: Fn(&Exchange) -> Result<(), String> + Sync,
{
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(conns);
    let start = OnceLock::new();
    let results: Vec<(LoopStats, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let (next, barrier, start, check) = (&next, &barrier, &start, &check);
                scope.spawn(move || {
                    pin_to_first_cpu();
                    let mut stats = LoopStats::default();
                    let mut conn = connect(addr);
                    barrier.wait();
                    let begin = *start.get_or_init(Instant::now);
                    let deadline = begin + budget;
                    let mut out = Vec::with_capacity(1 << 14);
                    let mut buf = Vec::with_capacity(1 << 16);
                    let mut ends = Vec::with_capacity(64);
                    loop {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= stream.len() {
                            break;
                        }
                        let (writer, reader) = match &mut conn {
                            Ok(c) => (&mut c.0, &mut c.1),
                            Err(e) => {
                                stats.fail(format!("request {i}: connect: {e}"));
                                conn = connect(addr);
                                continue;
                            }
                        };
                        out.clear();
                        stream.write(i, &mut out);
                        let buffered = stream.buffered(i);
                        let sent = Instant::now();
                        let exchange = (|| -> Result<(), String> {
                            writer.write_all(&out).map_err(|e| format!("send: {e}"))?;
                            buf.clear();
                            ends.clear();
                            loop {
                                let from = buf.len();
                                let n = reader
                                    .read_until(b'\n', &mut buf)
                                    .map_err(|e| format!("read: {e}"))?;
                                if n == 0 || buf.last() != Some(&b'\n') {
                                    return Err("connection closed mid-response".into());
                                }
                                ends.push((from, buf.len() - 1));
                                if is_terminal(&buf[from..buf.len() - 1], buffered) {
                                    return Ok(());
                                }
                            }
                        })();
                        let latency = sent.elapsed();
                        let done_at = begin.elapsed();
                        match exchange {
                            Ok(()) => {
                                stats.request_bytes += out.len() as u64;
                                stats.response_bytes += buf.len() as u64;
                                let lines = ends.iter().map(|&(a, b)| &buf[a..b]).collect();
                                match check(&Exchange { index: i, lines }) {
                                    Ok(()) => {
                                        stats.ok += 1;
                                        stats.samples.push((done_at, latency.as_nanos() as u64));
                                    }
                                    Err(e) => stats.fail(format!("request {i}: {e}")),
                                }
                            }
                            Err(e) => {
                                stats.fail(format!("request {i}: {e}"));
                                conn = connect(addr);
                            }
                        }
                    }
                    (stats, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let begin = *start.get().expect("every load thread passed the barrier");
    let mut total = LoopStats::default();
    for (stats, end) in results {
        total.elapsed = total.elapsed.max(end - begin);
        total.merge(stats);
    }
    total
}
