//! Child processes: `yoco-serve` servers (spawn, ready line, memory,
//! shutdown) and measured one-shot commands.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its ready line.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a server may take to exit after `Shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `yoco-serve` process. Dropping it kills the process and
/// waits for it.
pub struct Server {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `bin` with `args` plus `--addr 127.0.0.1:0 --quiet` and
    /// waits for its ready line (`... listening on HOST:PORT`).
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the ready line, then drains stdout until the process
        // closes it, so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let _ = tx.send(line);
            let _ = io::copy(&mut reader, &mut io::sink());
        });
        let mut server = Server {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        let line = rx
            .recv_timeout(READY_TIMEOUT)
            .map_err(|_| io::Error::other(format!("{} printed no ready line", bin.display())))?;
        server.addr = line
            .trim()
            .rsplit_once("listening on ")
            .map(|(_, a)| a.to_owned())
            .ok_or_else(|| io::Error::other(format!("unexpected ready line {line:?}")))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The process's peak resident set (VmHWM), MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Sends `Shutdown`, waits for `Bye` and for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let bye = exchange(&self.addr, "\"Shutdown\"")?;
        if bye.trim() != "\"Bye\"" {
            return Err(io::Error::other(format!("Shutdown answered {bye:?}")));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while self.child.try_wait()?.is_none() {
            if Instant::now() >= deadline {
                return Err(io::Error::other("server did not exit after Shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Flushes written data to disk (`sync`), so that a run's timed phase
/// does not pay for the write-back of files an earlier phase or run
/// wrote or deleted.
pub fn settle_disk() {
    let _ = Command::new("sync").status();
}

/// One single-line exchange on a fresh connection (control frames).
pub fn exchange(addr: &str, line: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply)
}

/// The outcome of a measured command.
pub struct Measured {
    pub status: ExitStatus,
    pub wall: Duration,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
}

/// Resource usage as `wait4(2)` reports it (Linux, 64-bit).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// Runs `cmd` to completion (killing it after `limit`), timing it from
/// spawn to exit and reading its peak resident set from `wait4`. The
/// wait blocks — polling with sleeps would round the wall time of a
/// millisecond-long command up to the sleep — and a watchdog thread
/// kills the command if it runs past `limit`.
pub fn run_measured(cmd: &mut Command, limit: Duration) -> io::Result<Measured> {
    use std::os::unix::process::ExitStatusExt;
    let started = Instant::now();
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pids fit i32");
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let overran = finished.recv_timeout(limit).is_err();
        if overran {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
        overran
    });
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let reaped = loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as wait4 expects (an int and a Linux 64-bit `struct rusage`);
        // `pid` is our own unreaped child, so reaping it here is ours to
        // do, and `child` is never waited on afterwards.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break Ok(());
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            break Err(error);
        }
    };
    let wall = started.elapsed();
    let _ = done.send(());
    let overran = watchdog.join().expect("watchdog thread");
    drop(child);
    reaped?;
    if overran {
        return Err(io::Error::other(format!("command ran past {limit:?}")));
    }
    Ok(Measured {
        status: ExitStatus::from_raw(status),
        wall,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_commands_are_timed_and_killed_past_their_limit() {
        let m = run_measured(&mut Command::new("true"), Duration::from_secs(10)).unwrap();
        assert!(m.status.success());
        assert!(m.wall < Duration::from_secs(10));
        let started = Instant::now();
        let overran = run_measured(Command::new("sleep").arg("5"), Duration::from_millis(200));
        assert!(overran.is_err());
        assert!(started.elapsed() < Duration::from_secs(3));
    }
}
