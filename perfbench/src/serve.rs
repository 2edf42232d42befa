//! The serving half of every workload: a daemon child under the
//! recommend ladder (with ingests on the streaming workload), its
//! restart, and the `serve-ingest` workload itself.

use crate::load::{self, Client, Daemon, Step, WorkDir};
use crate::outcome::{self, Outcome};
use crate::stats;
use crate::workload::{Inputs, Workload};
use pm_txn::Sale;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rates of the ladder, requests per second.
pub const RATES: [u64; 5] = [2_000, 4_000, 8_000, 12_000, 16_000];

/// The lowest ladder rate whose latencies are pooled into
/// `bench.recommend_p50_ms` and `bench.recommend_p99_ms`. Below a few
/// thousand requests per second the vCPUs of a small VM idle between
/// requests, and their wake-up delay, not the daemon, sets the latency.
pub const REFERENCE_RATE: u64 = 8_000;

/// Held-out customers sent as recommend requests (round robin).
const REQUEST_POOL: usize = 2_000;

/// Customers in the probe set (each asked once at top 1 or top 3).
const PROBES: usize = 48;

/// How far into a step its ingest is sent.
const INGEST_OFFSET: f64 = 0.1;

/// What the serving phase measured.
pub struct Served {
    pub steps: Vec<Step>,
    /// Probe answers just before shutdown, and after the restart.
    pub probes_before: Vec<String>,
    pub probes_after: Vec<String>,
    pub recover_s: f64,
    /// Peak RSS of the first daemon, MiB.
    pub daemon_rss_mb: f64,
    /// The daemon's `stats` answer at the end of the run.
    pub stats: String,
    /// Milliseconds from sending each `ingest` to its ack.
    pub ingest_ms: Vec<f64>,
    /// Batches the daemon acknowledged, in order (the stream it holds).
    pub ingested: usize,
    pub ingest_failed: u64,
}

impl Served {
    /// Record the serving metrics and ops. Latencies pool every step at
    /// or above the reference rate.
    pub fn report(&self, out: &mut Outcome) {
        let pooled = stats::sorted(
            self.steps
                .iter()
                .filter(|s| s.rate >= REFERENCE_RATE)
                .flat_map(|s| s.latencies_ms.iter().copied())
                .collect(),
        );
        let q = |p| stats::percentile(&pooled, p).unwrap_or(f64::INFINITY);
        out.metric("bench.recommend_p50_ms", q(0.50), "ms");
        out.metric("bench.recommend_p99_ms", q(0.99), "ms");
        out.metric("max_rps_at_slo", load::max_rps_at_slo(&self.steps), "req/s");
        out.metric("bench.recover_s", self.recover_s, "s");
        for s in &self.steps {
            out.ops(s.sent, s.failed);
        }
        out.ops(self.ingest_ms.len() as u64, self.ingest_failed);
        let probes = (self.probes_before.len() + self.probes_after.len()) as u64;
        out.ops(probes, 0);
        out.details.push((
            "ladder",
            format!(
                "[{}]",
                self.steps
                    .iter()
                    .map(Step::to_json)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ));
    }

    /// `(degraded, shed, worker_panics)` from the daemon's `stats`.
    pub fn daemon_counts(&self) -> (f64, f64, f64) {
        let get = |k| outcome::json_u64(&self.stats, k).unwrap_or(u64::MAX) as f64;
        (get("degraded"), get("shed"), get("worker_panics"))
    }
}

/// The probe set: the first held-out customers at top 1 and top 3.
pub fn probes(inputs: &Inputs) -> Vec<(Vec<Sale>, usize)> {
    outcome::requests(&inputs.holdout, PROBES)
}

/// Pre-rendered recommend lines for the ladder.
fn request_lines(inputs: &Inputs) -> Vec<String> {
    outcome::requests(&inputs.holdout, REQUEST_POOL)
        .iter()
        .map(|(sales, top)| load::recommend_line(sales, *top) + "\n")
        .collect()
}

/// The length of one ladder step for a run of `seconds`.
pub fn step_length(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / RATES.len() as f64).max(0.2))
}

/// Drive a started daemon: the ladder at `step` per rate (with one
/// ingest per step when `ingest` is set, then a checkpoint and a tail
/// ingest), the probe set, `stats`, a clean shutdown, and `restarts`
/// restarts with `restart_args`, each timed to its first answer.
pub fn drive(
    daemon: Daemon,
    inputs: &Inputs,
    step: Duration,
    ingest: bool,
    restart_args: &[String],
    restarts: usize,
    work: &WorkDir,
) -> Result<Served, String> {
    let lines = request_lines(inputs);
    let probe_set = probes(inputs);
    let ingest_lines: Vec<String> = inputs
        .batches
        .iter()
        .map(|b| pm_serve::protocol::ingest_line(None, b))
        .collect();
    let mut control = Client::connect(&daemon.addr)?;

    let (tx, rx) = mpsc::channel::<usize>();
    let (ladder, mut ingest_ms, mut ingested, mut ingest_failed) = std::thread::scope(|s| {
        let pacer = ingest.then(|| {
            let control = &mut control;
            let ingest_lines = &ingest_lines;
            s.spawn(move || {
                let mut acks = Vec::new();
                let mut ok = 0usize;
                let mut failed = 0u64;
                while let Ok(i) = rx.recv() {
                    std::thread::sleep(step.mul_f64(INGEST_OFFSET));
                    let t = Instant::now();
                    match control.send(&ingest_lines[i]) {
                        Ok(ack) if ack.contains(r#""op":"ingested""#) && ok == i => ok += 1,
                        _ => failed += 1,
                    }
                    acks.push(t.elapsed().as_secs_f64() * 1e3);
                }
                (acks, ok, failed)
            })
        });
        let ladder = load::run_ladder(&daemon.addr, &lines, &RATES, step, &tx);
        drop(tx);
        let (acks, ok, failed) = pacer.map_or((Vec::new(), 0, 0), |h| {
            h.join().expect("ingest pacer thread")
        });
        (ladder, acks, ok, failed)
    });
    let steps = ladder?;

    if ingest {
        let ck = control.send(r#"{"op":"checkpoint"}"#)?;
        if !ck.contains(r#""op":"checkpointed""#) {
            return Err(format!("checkpoint failed: {ck}"));
        }
        // The tail: one batch past the checkpoint, replayed from the log
        // on restart.
        let tail = RATES.len();
        let t = Instant::now();
        let ack = control.send(&ingest_lines[tail])?;
        ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if ack.contains(r#""op":"ingested""#) && ingested == tail {
            ingested += 1;
        } else {
            ingest_failed += 1;
        }
    }
    let probes_before = outcome::ask(&mut control, &probe_set)?;
    let stats_line = control.send(r#"{"op":"stats"}"#)?;
    let daemon_rss_mb = stats::vm_hwm_mb(daemon.pid()).unwrap_or(0.0);
    drop(control);
    daemon.shutdown()?;

    // Restart on the same files; report the median time to the first
    // answer.
    let mut recoveries = Vec::new();
    let mut probes_after = Vec::new();
    for round in 0..restarts {
        let t = Instant::now();
        let restarted = Daemon::spawn(restart_args, &work.path("addr-restart"))?;
        let mut client = Client::connect(&restarted.addr)?;
        let first = client.send(&load::recommend_line(&probe_set[0].0, probe_set[0].1))?;
        recoveries.push(t.elapsed().as_secs_f64());
        if !load::answer_ok(first.as_bytes()) {
            return Err(format!(
                "restarted daemon answered {first} (restart {round})"
            ));
        }
        probes_after = outcome::ask(&mut client, &probe_set)?;
        drop(client);
        restarted.shutdown()?;
    }
    let recover_s = stats::median(&recoveries).unwrap_or(0.0);

    Ok(Served {
        steps,
        probes_before,
        probes_after,
        recover_s,
        daemon_rss_mb,
        stats: stats_line,
        ingest_ms,
        ingested,
        ingest_failed,
    })
}

/// The `serve-ingest` workload.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let work = WorkDir::create(w.name)?;
    let data_path = work.path("base.json");
    let log_path = work.path("sales.log");
    let ck_path = work.path("stream.ck");
    let addr_path = work.path("addr");
    let daemon_args: Vec<String> = vec![
        "stream".into(),
        w.name.into(),
        w.scale.name().into(),
        data_path.display().to_string(),
        log_path.display().to_string(),
        ck_path.display().to_string(),
        w.threads.to_string(),
    ];

    // Set-up, three times: inputs, the base stream on disk, and a
    // streaming daemon that has fitted it and answers. The last one
    // stays up for the measurement.
    let mut setups = Vec::new();
    let mut live = None;
    for round in 0..3 {
        if let Some((d, _)) = live.take() {
            Daemon::shutdown(d)?;
        }
        let _ = std::fs::remove_file(&log_path);
        let _ = std::fs::remove_file(&ck_path);
        let t = Instant::now();
        let inputs = w.generate(seed);
        pm_store::write_atomic_str(&data_path, &inputs.train.to_json())
            .map_err(|e| e.to_string())?;
        let daemon = Daemon::spawn(&daemon_args, &addr_path)?;
        let mut c = Client::connect(&daemon.addr)?;
        let (sales, top) = &probes(&inputs)[0];
        let first = c.send(&load::recommend_line(sales, *top))?;
        setups.push(t.elapsed().as_secs_f64());
        if !load::answer_ok(first.as_bytes()) {
            return Err(format!("daemon answered {first} at set-up {round}"));
        }
        live = Some((daemon, inputs));
    }
    let (daemon, inputs) = live.expect("three set-ups ran");
    out.metric("setup_s", stats::median(&setups).unwrap_or(0.0), "s");

    // The cold fit of the whole stream the daemon will hold after its
    // last ingest: the reference for its answers, and the workload's
    // `fit_s`. Three fits run while the daemon idles before the ladder
    // and three after it has gone, so the median spans the whole run.
    let stream = inputs.stream_after(w.batches);
    let pipeline = w.pipeline();
    let cold_fit =
        |i: usize| outcome::fit_and_seal(&pipeline, &stream, &work.path(&format!("cold-{i}.pm")));
    let mut fits = (0..3).map(cold_fit).collect::<Result<Vec<_>, _>>()?;

    let served = drive(
        daemon,
        &inputs,
        step_length(seconds),
        true,
        &daemon_args,
        1,
        &work,
    )?;
    for i in 3..6 {
        fits.push(cold_fit(i)?);
    }
    out.ops(fits.len() as u64, 0);

    out.check(
        "every cold fit seals byte-identical model bytes",
        fits.windows(2).all(|p| p[0].bytes == p[1].bytes),
    );
    let cold = &fits[0];
    let want = outcome::expected_answers(&cold.model, &probes(&inputs));
    out.check(
        "after the last ingest the daemon answers like a cold fit of the stream",
        outcome::answers_match(&served.probes_before, &want),
    );
    out.check(
        "the daemon recovered from checkpoint and log tail answers as before",
        outcome::answers_match(&served.probes_after, &served.probes_before),
    );
    out.check(
        "every ingest was acknowledged",
        served.ingest_failed == 0 && served.ingested == w.batches,
    );

    let secs: Vec<f64> = fits.iter().map(|f| f.secs).collect();
    out.metric("fit_s", stats::median(&secs).unwrap_or(0.0), "s");
    out.details.push(("fit_secs", format!("{secs:?}")));
    out.details
        .push(("model", outcome::model_counts(&cold.model)));
    out.metric(
        "holdout_gain",
        outcome::holdout_gain(&cold.model, &inputs.holdout),
        "ratio",
    );
    out.metric("peak_rss_mb", served.daemon_rss_mb, "MB");
    served.report(out);
    out.details
        .push(("ingest_ms", format!("{:?}", served.ingest_ms)));

    if traced {
        crate::replay::replay(w, &inputs, &stream, cold, &served, &work, out)?;
    }
    Ok(())
}
