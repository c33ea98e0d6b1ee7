//! CPU time and memory of this process, read from `/proc/self`.

use std::fs;
use std::process::{Command, Stdio};

/// CPU time (ns) of every live thread whose name starts with `prefix`
/// (`""` for all), from each task's `schedstat`.
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.trim_end().starts_with(prefix))
        })
        .filter_map(|t| {
            let stat = fs::read_to_string(t.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// CPU time (ns) of the calling thread.
pub fn this_thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), or none when
/// unreadable.
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Restricts the calling thread to `cpus` (with `taskset`, which exits at
/// once); `false` if that was not possible.
pub fn pin_this_thread(cpus: &[usize]) -> bool {
    let Some(tid) = fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse::<u32>().ok())
    else {
        return false;
    };
    let list: Vec<String> = cpus.iter().map(usize::to_string).collect();
    Command::new("taskset")
        .args(["-p", "-c", &list.join(","), &tid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_uses_cpu_and_memory() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(threads_cpu_ns("") > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
