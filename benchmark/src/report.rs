//! Process and host facts (`/proc`), and the result a run prints.

use std::path::Path;

use pqp_obs::Json;

/// A named measurement with its unit, in output order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), 0 if unreadable.
pub fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// CPU seconds (user + system) this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (USER_HZ is 100 on Linux).
    let after_comm = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: f64 =
        after_comm.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks / 100.0
}

/// (stolen, total) clock ticks of all CPUs since boot (`/proc/stat`). Stolen
/// ticks are time the hypervisor ran someone else while this machine wanted
/// the CPU: the share stolen during a run says how far to trust its times.
pub fn host_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest times are in user).
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().take(8).sum())
}

/// The filesystem type holding `path` (longest mount-point prefix).
pub fn filesystem_kind(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount_point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount_point).then(|| (mount_point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Where and on what the run happened; attached to every result file.
pub fn host_facts(work_dir: &Path) -> Json {
    let trimmed = |path: &str| {
        std::fs::read_to_string(path).map_or_else(|_| "unknown".to_string(), |s| s.trim().into())
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        );
    Json::obj()
        .set("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()) as i64)
        .set("kernel", trimmed("/proc/sys/kernel/osrelease"))
        .set("work_dir_filesystem", filesystem_kind(work_dir))
        .set("git_commit", commit)
}

/// `sorted[ceil(q·n) − 1]`: the exact sample at quantile `q`, no buckets.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The outcome of one run, as the contract's last output line wants it.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// What `BENCHMARK.json` lists for this kind of run; the last line.
    pub metrics: Metrics,
    /// Measured and printed, but too unsteady on a shared host to be gated.
    pub reported: Metrics,
}

/// What a run hands back: the contract's result, and everything else worth
/// keeping (raw values, windows, failure reasons) for the result file.
pub struct Report {
    pub result: RunResult,
    pub detail: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metrics_json(metrics: &Metrics) -> Json {
        metrics.iter().fold(Json::obj(), |obj, (name, value, unit)| {
            obj.set(name, Json::obj().set("value", *value).set("unit", *unit))
        })
    }

    /// The one-line JSON object a run ends its standard output with.
    pub fn last_line(&self) -> String {
        Json::obj()
            .set("correct", self.correct())
            .set("attempted", self.attempted as i64)
            .set("failed", self.failed as i64)
            .set("metrics", RunResult::metrics_json(&self.metrics))
            .render()
    }
}
