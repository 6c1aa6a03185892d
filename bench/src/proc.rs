//! Process accounting read from `/proc/self`.

/// Clock ticks per second of `/proc/self/stat` times. `USER_HZ` is 100
/// on every Linux ABI this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds and thread count of this process.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
    pub threads: u64,
}

impl CpuTimes {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses a `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the last `)`: utime and stime are fields 14 and 15,
/// num_threads is field 20.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state).
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(CpuTimes {
        user_s: field(14)? as f64 / TICKS_PER_S,
        sys_s: field(15)? as f64 / TICKS_PER_S,
        threads: field(20)?,
    })
}

/// CPU times of this process, all threads, dead ones included.
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_stat(&s)).unwrap_or_default()
}

/// Parses a `kB` field such as `VmHWM` out of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_awkward_command_name() {
        let line = "4242 (geo bench) (x)) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    250 75 0 0 20 0 7 0 123456 1000000 500 18446744073709551615 0 0 0";
        let t = parse_stat(line).expect("parses");
        assert_eq!(t, CpuTimes { user_s: 2.5, sys_s: 0.75, threads: 7 });
        assert!((t.total_s() - 3.25).abs() < 1e-12);
        assert_eq!(parse_stat("no parenthesis"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tgeobench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
    }

    #[test]
    fn reads_this_process() {
        let t = cpu_times();
        assert!(t.threads >= 1);
        assert!(peak_rss_mb() > 0.0);
    }
}
