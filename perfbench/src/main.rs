//! `yoco-perfbench`: the benchmark program of the YOCO reproduction.
//!
//! Runs one seeded workload against the release binaries (`sweep`,
//! `yoco-serve`) and prints its metrics, the last stdout line being
//! one JSON object. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` runs the separate, in-process traced run that gives the
//! per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! yoco-perfbench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```

mod gen;
mod host;
mod load;
mod proc;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{DseCache, SETUPS};

/// The workloads. `BENCHMARK.json` gates `cold-all` and `serve-dse`;
/// `serve-warm` and `cluster-warm` run end to end on request and inside
/// every traced run (see `perfbench/README.md` for why they are not
/// gated).
pub const WORKLOADS: [&str; 4] = ["cold-all", "serve-warm", "serve-dse", "cluster-warm"];

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// The checkout root (the working directory).
    pub root: PathBuf,
    bins: PathBuf,
    /// This run's working directory, removed at exit.
    tmp: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Closed-loop connections (and load threads): `nproc`, at most 4,
    /// the servers' default admission depth.
    pub conns: usize,
}

impl Ctx {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }

    /// A fresh directory under this run's working directory.
    pub fn work_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A run's result: operations attempted and failed, and its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted > 0
                && self.failed == 0
                && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

struct Args {
    bins: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut bins, mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--bin-dir" => bins = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        bins: bins.ok_or("--bin-dir is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's working directory however the run ends.
struct WorkDirGuard(PathBuf);

impl Drop for WorkDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        proc::settle_disk();
    }
}

fn run(ctx: &Ctx, trace: bool) -> std::io::Result<Outcome> {
    if trace {
        return trace::run(ctx);
    }
    Ok(match ctx.workload.as_str() {
        "cold-all" => workloads::cold_all(ctx)?,
        "serve-warm" => workloads::serve_warm(ctx, ctx.seconds, SETUPS)?.outcome,
        "serve-dse" => workloads::serve_dse(ctx, ctx.seconds, SETUPS, DseCache::Off)?.outcome,
        "cluster-warm" => workloads::cluster_warm(ctx, ctx.seconds, SETUPS)?.outcome,
        other => unreachable!("workload {other} was validated"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("yoco-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    for bin in ["sweep", "yoco-serve"] {
        if !args.bins.join(bin).is_file() {
            eprintln!("yoco-perfbench: no {bin} in {}", args.bins.display());
            return ExitCode::from(2);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    remove_stale_work_dirs(&root.join(".bench_tmp"));
    let tmp = root
        .join(".bench_tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _guard = WorkDirGuard(tmp.clone());
    let ctx = Ctx {
        bins: absolute(&root, &args.bins),
        root,
        tmp,
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        conns: nproc.clamp(1, 4),
    };
    println!("host {}", host::fingerprint(&ctx.root));
    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, args.trace as u8
    );
    match run(&ctx, args.trace) {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("yoco-perfbench: {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}

/// Removes working directories (`<workload>-<pid>`) left by runs that
/// were killed before they could clean up.
fn remove_stale_work_dirs(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let pid = name
            .rsplit_once('-')
            .and_then(|(_, p)| p.parse::<u32>().ok());
        if pid.is_some_and(|p| !Path::new(&format!("/proc/{p}")).exists()) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

fn absolute(root: &Path, p: &Path) -> PathBuf {
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        root.join(p)
    }
}
