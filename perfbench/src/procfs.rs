//! Per-process CPU time and memory high-water mark from `/proc/self`.

use std::time::Duration;

/// `USER_HZ`: the fixed tick rate of `/proc/<pid>/stat` CPU fields.
const TICKS_PER_SECOND: u64 = 100;

/// User + system CPU time of this process, every thread included
/// (threads that already exited too), at 10 ms resolution.
pub fn cpu_time() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(Duration::from_millis(ticks * 1000 / TICKS_PER_SECOND))
}

/// Peak resident set size (`VmHWM`) of this process, in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
