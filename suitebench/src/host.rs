//! Host-side facts read from outside the program under test: process
//! CPU time and peak memory from `/proc`, the source revision from the
//! checkout's `.git` directory, and the core count.

use std::fs;
use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process so far, all threads
/// included; `None` where `/proc/self/stat` is unreadable.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&fs::read_to_string("/proc/self/stat").ok()?)
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name may contain spaces and parentheses; fields
    // resume after its last `)`. utime and stime are fields 14 and 15,
    // i.e. the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MiB; `None` where
/// `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out under `root`, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// An environment variable's raw value, or `"unset"`.
pub fn env_value(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_time_after_a_tricky_command_name() {
        let stat = "4242 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_is_measurable() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(nproc() >= 1);
    }
}
