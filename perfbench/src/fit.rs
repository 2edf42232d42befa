//! The `fit-paper` and `fit-lowminsup` workloads: timed fits to a
//! sealed model, the model's held-out gain, and the model served by a
//! daemon under the recommend ladder and restarted.

use crate::load::{Daemon, WorkDir};
use crate::outcome::{self, Outcome};
use crate::serve;
use crate::stats;
use crate::workload::Workload;
use std::time::{Duration, Instant};

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let work = WorkDir::create(w.name)?;

    // Set-up, three times: the run's inputs in memory.
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..3 {
        // Drop the previous inputs first, so peak RSS holds one copy.
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(w.generate(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("three set-ups ran");
    out.metric("setup_s", stats::median(&setups).unwrap_or(0.0), "s");

    // Fit until the run's time is spent, at least twice.
    let pipeline = w.pipeline();
    let model_path = work.path("model.pm");
    let start = Instant::now();
    let sealed = outcome::fit_and_seal(&pipeline, &inputs.train, &model_path)?;
    let mut secs = vec![sealed.secs];
    let mut identical = true;
    while secs.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let again = outcome::fit_and_seal(&pipeline, &inputs.train, &model_path)?;
        identical &= again.bytes == sealed.bytes;
        secs.push(again.secs);
    }
    out.metric(
        "peak_rss_mb",
        stats::vm_hwm_mb(std::process::id()).unwrap_or(0.0),
        "MB",
    );
    out.ops(secs.len() as u64, 0);
    out.check("every fit seals byte-identical model bytes", identical);
    out.metric("fit_s", stats::median(&secs).unwrap_or(0.0), "s");
    out.details.push(("fit_secs", format!("{secs:?}")));
    out.details
        .push(("model", outcome::model_counts(&sealed.model)));
    out.metric(
        "holdout_gain",
        outcome::holdout_gain(&sealed.model, &inputs.holdout),
        "ratio",
    );

    // Serve the sealed model through a one-second-per-step ladder, then
    // restart the daemon on it.
    let args = vec![
        "model".to_string(),
        model_path.display().to_string(),
        w.threads.to_string(),
    ];
    let daemon = Daemon::spawn(&args, &work.path("addr"))?;
    let served = serve::drive(
        daemon,
        &inputs,
        Duration::from_secs(1),
        false,
        &args,
        5,
        &work,
    )?;
    let want = outcome::expected_answers(&sealed.model, &serve::probes(&inputs));
    out.check(
        "the daemon answers like the in-process matcher on the fitted model",
        outcome::answers_match(&served.probes_before, &want),
    );
    out.check(
        "the restarted daemon answers as before",
        outcome::answers_match(&served.probes_after, &served.probes_before),
    );
    served.report(out);

    if traced {
        crate::replay::replay(w, &inputs, &inputs.train, &sealed, &served, &work, out)?;
    }
    Ok(())
}
