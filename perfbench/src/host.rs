//! The host fingerprint stamped on every result: rows from different
//! hosts, toolchains, profiles or sources are never compared.

use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (`Cargo.toml`, `Cargo.lock`,
/// `crates/`, `vendor/`): each file's relative path and bytes, in path
/// order. Identifies the measured code where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, out),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file);
        bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&std::fs::read(&file).unwrap_or_default());
    }
    format!("{:016x}", yoco_sweep::hash::fnv1a64(&bytes))
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("string serialization")
}

/// The fingerprint as one JSON object.
pub fn fingerprint(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
    // Only the checkout's own repository counts: a git directory further
    // up would name some other commit.
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"], root))
        .flatten()
        .unwrap_or_else(|| "none".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"profile\":\"{profile}\",\"git_commit\":{},\"source_fnv1a64\":\"{}\"}}",
        json_string(&cpu_model()),
        json_string(&rustc),
        json_string(&commit),
        source_digest(root)
    )
}
