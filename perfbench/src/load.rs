//! The daemon under test as a child process, a blocking line client
//! for control traffic, and the open-loop recommend ladder.
//!
//! The ladder drives one connection from one thread. Requests fall due
//! on a fixed clock at each step's rate whether or not earlier answers
//! came back, and each latency is timed from the request's due time, so
//! a stalled daemon is charged for the wait it imposes on later
//! requests.

use crate::stats;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// The p99 latency limit of a ladder step, in milliseconds.
pub const SLO_P99_MS: f64 = 100.0;

/// How long a step's in-flight requests may take to drain before the
/// rest count as undelivered.
const DRAIN: Duration = Duration::from_secs(3);

/// A daemon child process (this binary re-invoked as `__daemon`).
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
}

impl Daemon {
    /// Spawn the daemon and wait until it has published its address.
    pub fn spawn(args: &[String], addr_file: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(addr_file);
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let child = Command::new(exe)
            .arg("__daemon")
            .args(args)
            .arg(addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(150);
        loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    return Ok(daemon);
                }
            }
            let child = daemon.child.as_mut().expect("live child");
            if let Ok(Some(status)) = child.try_wait() {
                daemon.child = None;
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon never published its address".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Ask the daemon to stop and wait for it to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr)?;
        let bye = c.send(r#"{"op":"shutdown"}"#)?;
        let status = self
            .child
            .take()
            .expect("live child")
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        if !bye.contains(r#""op":"bye""#) || !status.success() {
            return Err(format!("daemon did not stop cleanly: {bye} / {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A blocking request/response line client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        })
    }

    /// Send one request line and return the response line, trimmed.
    pub fn send(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(buf.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Whether a recommend answer is a full (non-degraded) success.
pub fn answer_ok(line: &[u8]) -> bool {
    let has = |pat: &[u8]| line.windows(pat.len()).any(|w| w == pat);
    has(br#""ok":true"#) && has(br#""degraded":false"#)
}

/// One ladder step's outcome.
#[derive(Debug, Clone)]
pub struct Step {
    pub rate: u64,
    pub sent: u64,
    pub failed: u64,
    /// Successful answers per second, from the step's start to its last
    /// answer.
    pub answered_rps: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// Every latency of the step, ascending (failed requests last).
    pub latencies_ms: Vec<f64>,
    /// 99th percentile of how late the generator wrote a request.
    pub gen_lag_p99_ms: f64,
    pub max_in_flight: usize,
    pub backlog: bool,
}

impl Step {
    /// Whether the step met the latency limit with nothing failed, no
    /// growing backlog and a generator that kept its schedule.
    pub fn meets_slo(&self) -> bool {
        self.failed == 0
            && !self.backlog
            && self.p99_ms <= SLO_P99_MS
            && self.gen_lag_p99_ms <= SLO_P99_MS
    }

    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            }
        };
        format!(
            r#"{{"rate":{},"sent":{},"failed":{},"answered_rps":{},"p50_ms":{},"p90_ms":{},"p99_ms":{},"gen_lag_p99_ms":{},"max_in_flight":{},"backlog":{},"meets_slo":{}}}"#,
            self.rate,
            self.sent,
            self.failed,
            num(self.answered_rps),
            num(self.p50_ms),
            num(self.p90_ms),
            num(self.p99_ms),
            num(self.gen_lag_p99_ms),
            self.max_in_flight,
            self.backlog,
            self.meets_slo()
        )
    }
}

/// The open-loop recommend stream on one nonblocking connection.
struct Stream {
    conn: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Due times of in-flight requests (answers come back in order).
    pending: std::collections::VecDeque<Instant>,
    latencies_ms: Vec<f64>,
    failed: u64,
    /// When the latest answer arrived.
    last_answer: Option<Instant>,
    dead: bool,
}

/// Longest sleep while answers are outstanding: the resolution of the
/// receive timestamps.
const POLL_SLICE: Duration = Duration::from_micros(50);

impl Stream {
    fn connect(addr: &str) -> Result<Stream, String> {
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.set_nodelay(true).ok();
        conn.set_nonblocking(true)
            .map_err(|e| format!("nonblocking socket: {e}"))?;
        Ok(Stream {
            conn,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            pending: Default::default(),
            latencies_ms: Vec::new(),
            failed: 0,
            last_answer: None,
            dead: false,
        })
    }

    fn send(&mut self, line: &[u8], due: Instant) {
        if self.dead {
            self.failed += 1;
            self.latencies_ms.push(f64::INFINITY);
            return;
        }
        self.wbuf.extend_from_slice(line);
        self.pending.push_back(due);
        self.flush();
    }

    fn flush(&mut self) {
        while !self.wbuf.is_empty() && !self.dead {
            match self.conn.write(&self.wbuf) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }

    /// Account for every answer that has arrived, then wait until
    /// `until`, in slices of [`POLL_SLICE`] while answers are
    /// outstanding. Sleeping instead of a socket timeout keeps wake-ups
    /// precise: socket timeouts round up to the kernel tick.
    fn receive(&mut self, until: Instant) {
        loop {
            self.flush();
            self.read_available();
            let now = Instant::now();
            if now >= until {
                return;
            }
            let left = until - now;
            if self.pending.is_empty() || self.dead {
                std::thread::sleep(left);
                return;
            }
            std::thread::sleep(left.min(POLL_SLICE));
        }
    }

    fn read_available(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.conn.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        let now = Instant::now();
        let mut start = 0;
        while let Some(nl) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.rbuf[start..start + nl];
            start += nl + 1;
            let Some(due) = self.pending.pop_front() else {
                // An unsolicited line is an admission-control verdict:
                // the daemon shed this connection.
                self.dead = true;
                break;
            };
            self.last_answer = Some(now);
            if answer_ok(line) {
                self.latencies_ms.push((now - due).as_secs_f64() * 1e3);
            } else {
                self.failed += 1;
                self.latencies_ms.push(f64::INFINITY);
            }
        }
        self.rbuf.drain(..start);
        if self.dead {
            self.fail_pending();
        }
    }

    fn fail_pending(&mut self) {
        let n = self.pending.len();
        self.failed += n as u64;
        self.latencies_ms
            .extend(std::iter::repeat_n(f64::INFINITY, n));
        self.pending.clear();
    }
}

/// Run the ladder: one step per rate, each `step` long. `lines` are
/// pre-rendered request lines (each ending in a newline), sent round
/// robin. Before each step starts, its index goes to `step_started`
/// (the control connection paces its ingests by it). A step's answers
/// are drained before the next step starts; what does not arrive in
/// time counts as failed and the connection is replaced.
pub fn run_ladder(
    addr: &str,
    lines: &[String],
    rates: &[u64],
    step: Duration,
    step_started: &Sender<usize>,
) -> Result<Vec<Step>, String> {
    let mut stream = Stream::connect(addr)?;
    let mut next_line = 0usize;
    let mut steps = Vec::with_capacity(rates.len());
    for (i, &rate) in rates.iter().enumerate() {
        if stream.dead {
            stream = Stream::connect(addr)?;
        }
        // Nobody listens when the workload does not ingest.
        let _ = step_started.send(i);
        stream.latencies_ms.clear();
        stream.failed = 0;
        stream.last_answer = None;
        let interval = Duration::from_secs_f64(1.0 / rate as f64);
        let start = Instant::now();
        let end = start + step;
        let mut next_due = start;
        let mut sent = 0u64;
        let mut lags_ms = Vec::new();
        let mut in_flight = Vec::new();
        let mut next_sample = start;
        loop {
            let now = Instant::now();
            while next_due <= now && next_due < end {
                stream.send(lines[next_line % lines.len()].as_bytes(), next_due);
                lags_ms.push((Instant::now() - next_due).as_secs_f64() * 1e3);
                next_line += 1;
                sent += 1;
                next_due += interval;
            }
            if now >= next_sample {
                in_flight.push(stream.pending.len());
                next_sample += Duration::from_millis(10);
            }
            if next_due >= end && now >= end {
                break;
            }
            stream.receive(next_due.min(end).min(next_sample));
        }
        let drain_end = Instant::now() + DRAIN;
        while !stream.pending.is_empty() && !stream.dead && Instant::now() < drain_end {
            stream.receive(Instant::now() + Duration::from_millis(1));
        }
        if !stream.pending.is_empty() {
            stream.fail_pending();
            stream.dead = true;
        }
        let lat = stats::sorted(std::mem::take(&mut stream.latencies_ms));
        let lags = stats::sorted(lags_ms);
        let answered = sent - stream.failed.min(sent);
        let answered_rps = stream.last_answer.map_or(0.0, |t| {
            answered as f64 / (t - start).as_secs_f64().max(f64::MIN_POSITIVE)
        });
        steps.push(Step {
            rate,
            sent,
            failed: stream.failed,
            answered_rps,
            p50_ms: stats::percentile(&lat, 0.50).unwrap_or(f64::INFINITY),
            p90_ms: stats::percentile(&lat, 0.90).unwrap_or(f64::INFINITY),
            p99_ms: stats::percentile(&lat, 0.99).unwrap_or(f64::INFINITY),
            gen_lag_p99_ms: stats::percentile(&lags, 0.99).unwrap_or(0.0),
            max_in_flight: in_flight.iter().copied().max().unwrap_or(0),
            backlog: stats::backlog_growing(&in_flight),
            latencies_ms: lat,
        });
    }
    Ok(steps)
}

/// The answered rate of the highest-rate step that met the latency
/// limit (0 when none did): what the daemon actually served at the
/// highest offered rate it sustained.
pub fn max_rps_at_slo(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| s.meets_slo())
        .max_by_key(|s| s.rate)
        .map_or(0.0, |s| s.answered_rps)
}

/// A `recommend` request line for one customer.
pub fn recommend_line(customer: &[pm_txn::Sale], top: usize) -> String {
    let sales: Vec<String> = customer
        .iter()
        .map(|s| format!("[{},{},{}]", s.item.0, s.code.0, s.qty))
        .collect();
    let top = if top > 1 {
        format!(r#","top":{top}"#)
    } else {
        String::new()
    };
    format!(r#"{{"op":"recommend","sales":[{}]{top}}}"#, sales.join(","))
}

/// The build directory the benchmark writes under:
/// `$CARGO_TARGET_DIR`, else `.bench_build`.
pub fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
}

/// A per-run scratch directory inside the build directory, removed when
/// dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = build_dir()
            .join("perfbench-work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: u64, answered_rps: f64, p99_ms: f64, failed: u64) -> Step {
        Step {
            rate,
            sent: rate,
            failed,
            answered_rps,
            p50_ms: 0.1,
            p90_ms: 0.2,
            p99_ms,
            latencies_ms: Vec::new(),
            gen_lag_p99_ms: 0.1,
            max_in_flight: 1,
            backlog: false,
        }
    }

    #[test]
    fn max_rps_is_the_answered_rate_of_the_highest_passing_step() {
        let steps = [
            step(2_000, 1_999.5, 1.0, 0),
            step(4_000, 3_998.0, 2.0, 0),
            step(8_000, 7_990.0, SLO_P99_MS * 2.0, 0),
            step(16_000, 15_900.0, 1.0, 3),
        ];
        assert_eq!(max_rps_at_slo(&steps), 3_998.0);
        assert_eq!(max_rps_at_slo(&steps[2..]), 0.0);
    }

    #[test]
    fn only_full_answers_count_as_ok() {
        assert!(answer_ok(br#"{"ok":true,"degraded":false,"recs":[]}"#));
        assert!(!answer_ok(br#"{"ok":true,"degraded":true,"recs":[]}"#));
        assert!(!answer_ok(br#"{"ok":false,"error":"bad request"}"#));
    }

    #[test]
    fn recommend_lines_carry_top_only_above_one() {
        let sale = pm_txn::Sale::new(pm_txn::ItemId(3), pm_txn::CodeId(1), 2);
        assert_eq!(
            recommend_line(&[sale], 1),
            r#"{"op":"recommend","sales":[[3,1,2]]}"#
        );
        assert_eq!(
            recommend_line(&[sale], 3),
            r#"{"op":"recommend","sales":[[3,1,2]],"top":3}"#
        );
    }
}
