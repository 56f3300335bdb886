//! What every result file states about the host and the build, and the
//! process-memory readings behind `peak_rss_mb`.

use std::path::PathBuf;
use std::process::Command;

use serde::{Deserialize, Serialize};

/// The repo checkout this binary was built in (`benchmark/..`).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits inside the repo")
        .to_path_buf()
}

/// Where traces and result files go (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub ram_total_mb: u64,
    pub rustc: String,
    pub cargo_profile: String,
    /// `unknown` outside a git checkout (the acceptance driver's copy).
    pub git_commit: String,
    pub git_dirty: bool,
}

fn first_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn status_kb(key: &str) -> u64 {
    first_field("/proc/self/status", key)
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") as f64 / 1024.0
}

/// Current resident set of this process, MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS") as f64 / 1024.0
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl HostInfo {
    pub fn collect() -> HostInfo {
        // Only ask git when the checkout is a repository of its own, so
        // git never walks up into directories outside it.
        let in_git = repo_root().join(".git").exists();
        let commit = in_git.then(|| git(&["rev-parse", "HEAD"])).flatten();
        let dirty = in_git
            .then(|| git(&["status", "--porcelain"]))
            .flatten()
            .is_some_and(|s| !s.is_empty());
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: first_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            ram_total_mb: first_field("/proc/meminfo", "MemTotal")
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
                .unwrap_or(0)
                / 1024,
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            cargo_profile: env!("BENCH_CARGO_PROFILE").to_string(),
            git_commit: commit.unwrap_or_else(|| "unknown".into()),
            git_dirty: dirty,
        }
    }
}
