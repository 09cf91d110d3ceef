//! The kernel's accounting for the `uniqd` process and the host.

use std::fs;

/// CPU time and context switches summed over a process's threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system time, in nanoseconds (`/proc/<pid>/task/*/schedstat`).
    pub cpu_ns: u64,
    /// Voluntary context switches.
    pub voluntary: u64,
    /// Involuntary context switches.
    pub involuntary: u64,
}

impl ProcSample {
    /// Read every thread of `pid`. Threads that exit between two samples
    /// drop out of the sum, so sample while the benchmark's connections
    /// (and hence their server threads) are open.
    pub fn read(pid: u32) -> Result<ProcSample, String> {
        let dir = format!("/proc/{pid}/task");
        let mut sample = ProcSample::default();
        let tasks = fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
        for task in tasks.flatten() {
            let path = task.path();
            // A thread can exit between listing and reading: skip it.
            let Ok(schedstat) = fs::read_to_string(path.join("schedstat")) else {
                continue;
            };
            let Ok(status) = fs::read_to_string(path.join("status")) else {
                continue;
            };
            sample.cpu_ns += schedstat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            sample.voluntary += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
            sample.involuntary += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
        Ok(sample)
    }

    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Whether no thread of `pid` is running or runnable (`R`) or in an
/// uninterruptible wait (`D`), by `/proc/<pid>/task/*/stat`.
pub fn idle(pid: u32) -> Result<bool, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    for task in tasks.flatten() {
        // A thread can exit between listing and reading: skip it.
        let Ok(stat) = fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        // The state follows the parenthesised command name.
        let state = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().next());
        if matches!(state, Some("R" | "D")) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Peak resident set size of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status_field(&status, "VmHWM:").ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb as f64 / 1024.0)
}

/// The host's cumulative steal ticks (`/proc/stat`, all CPUs); 0 where
/// the kernel does not report them.
pub fn host_steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The share of the host's CPU time stolen by the hypervisor, given the
/// steal ticks (1/100 s each, summed over CPUs) of an interval.
pub fn steal_share(ticks: u64, seconds: f64) -> f64 {
    let cpus = fs::read_to_string("/proc/stat")
        .map(|stat| {
            stat.lines()
                .filter(|l| {
                    l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                })
                .count()
        })
        .unwrap_or(1)
        .max(1);
    (ticks as f64 / (100.0 * seconds * cpus as f64)).min(0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let sample = ProcSample::read(std::process::id()).unwrap();
        assert!(sample.cpu_ns > 0);
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        // This thread is running while it reads.
        assert!(!idle(std::process::id()).unwrap());
        assert_eq!(steal_share(0, 1.0), 0.0);
        assert!(steal_share(50, 1.0) > 0.0);
    }
}
