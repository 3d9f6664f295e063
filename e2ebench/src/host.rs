//! Host diagnostics stamped on every result: they explain an outlying
//! run but are not metrics.

use std::process::{Command, Stdio};

/// Threads the process may run in parallel.
pub fn cores_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The cargo profile this binary was built with.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checkout's git revision, or `unknown` when the working directory
/// is not the root of a git repository. Git is kept from searching the
/// directories above it, so the benchmark reads nothing outside its
/// checkout.
pub fn git_rev() -> String {
    let mut git = Command::new("git");
    let cwd = std::env::current_dir().ok();
    if let Some(parent) = cwd.as_deref().and_then(std::path::Path::parent) {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.args(["rev-parse", "--short=12", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host-wide CPU steal ticks so far (the `steal` column of the
/// aggregate `cpu` line of `/proc/stat`); `None` where unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// The process's high-water resident set size, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
