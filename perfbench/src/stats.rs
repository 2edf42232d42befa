//! Small numeric helpers: percentiles, the `VmHWM` reader and the
//! backlog detector. Kept free of I/O (except [`vm_hwm_mb`]) so the unit
//! tests pin their exact behaviour.

/// Nearest-rank percentile of an ascending slice, `q` in `[0, 1]`.
/// `f64::INFINITY` entries (failed requests) sort last and are returned
/// when the rank lands on them. An empty slice has no percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1)])
}

/// Sort a sample ascending (total order, so infinities sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median of a sample (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Parse the `VmHWM` line of a `/proc/<pid>/status` document into
/// mebibytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    let scale = match fields.next().unwrap_or("kB") {
        "kB" => 1.0 / 1024.0,
        "mB" | "MB" => 1.0,
        "gB" | "GB" => 1024.0,
        _ => return None,
    };
    Some(value * scale)
}

/// Peak resident set size of process `pid` so far, in mebibytes.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Requests still in flight above which a step counts as backlogged
/// when the count is also growing.
const BACKLOG_FLOOR: usize = 64;

/// Whether a series of in-flight counts, sampled evenly over one load
/// step, shows a growing backlog: the last third's mean exceeds the
/// first third's by more than half again and by more than
/// [`BACKLOG_FLOOR`] requests. Short bursts (an ingest's refit stalling
/// the daemon for a moment) drain within the step and do not count.
pub fn backlog_growing(in_flight: &[usize]) -> bool {
    if in_flight.len() < 3 {
        return false;
    }
    let third = in_flight.len() / 3;
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let head = mean(&in_flight[..third]);
    let tail = mean(&in_flight[in_flight.len() - third..]);
    tail > head * 1.5 && tail - head > BACKLOG_FLOOR as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failed_requests_push_the_tail_to_infinity() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        let v = sorted(v);
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(f64::INFINITY));
        let mut two_failed = v.clone();
        two_failed.push(f64::INFINITY);
        let two_failed = sorted(two_failed);
        assert_eq!(percentile(&two_failed, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t  262144 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(256.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        let own = vm_hwm_mb(std::process::id()).expect("own status");
        assert!(own > 0.0);
    }

    #[test]
    fn backlog_detector_separates_growth_from_bursts() {
        // Steady pipelining.
        assert!(!backlog_growing(&[2, 3, 1, 2, 4, 2, 3, 2, 1]));
        // A burst that drains within the step.
        assert!(!backlog_growing(&[1, 2, 400, 300, 50, 2, 1, 2, 1]));
        // Overload: the queue keeps growing.
        assert!(backlog_growing(&[10, 40, 80, 120, 160, 200, 240, 280, 320]));
        // Growth too small to matter.
        assert!(!backlog_growing(&[1, 2, 3, 5, 8, 10, 12, 14, 16]));
        assert!(!backlog_growing(&[500, 600]));
    }
}
