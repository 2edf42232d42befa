//! What one run reports: metrics, operation counts and correctness
//! checks, plus the helpers every workload shares.

use crate::load::{self, Client};
use pm_serve::protocol::{obj, rec_value, render};
use pm_txn::{Sale, TransactionSet};
use profit_core::{Matcher, ProfitMiner, Recommender, RuleModel};
use serde::Value;
use std::path::Path;
use std::time::Instant;

/// One run's findings.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)`, end-to-end and per-layer alike.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// `(check, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Extra `(key, JSON value)` pairs for the result file.
    pub details: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        let name = name.into();
        if !passed {
            eprintln!("[perfbench] check failed: {name}");
        }
        self.checks.push((name, passed));
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }
}

/// A fitted model sealed to disk the way `profit-mining fit` writes it.
pub struct Sealed {
    pub model: RuleModel,
    pub bytes: Vec<u8>,
    /// Dataset in memory → sealed file on disk.
    pub secs: f64,
}

/// Fit, serialize and seal: the timed unit of `fit_s`.
pub fn fit_and_seal(
    pipeline: &ProfitMiner,
    data: &TransactionSet,
    path: &Path,
) -> Result<Sealed, String> {
    let t = Instant::now();
    let model = pipeline.fit(data);
    let json = serde_json::to_string(&model.save()).map_err(|e| e.to_string())?;
    pm_store::save_sealed(path, json.as_bytes()).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Sealed { model, bytes, secs })
}

/// A model's rule counts along the pipeline, as a JSON object.
pub fn model_counts(model: &RuleModel) -> String {
    let s = model.stats();
    format!(
        r#"{{"mined":{},"after_dominance":{},"after_cut":{}}}"#,
        s.mined_rules, s.after_dominance, s.after_cut
    )
}

/// The paper's §5 gain of `model` on held-out customers.
pub fn holdout_gain(model: &RuleModel, holdout: &TransactionSet) -> f64 {
    let matcher = Matcher::new(model);
    pm_eval::evaluate(&matcher, holdout, &pm_eval::EvalOptions::default()).gain()
}

/// Held-out customers as `(sales, top)` requests: every fourth asks
/// for the top three pairs, the rest for the top one.
pub fn requests(holdout: &TransactionSet, n: usize) -> Vec<(Vec<Sale>, usize)> {
    holdout
        .transactions()
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, t)| {
            let top = if i % 4 == 3 { 3 } else { 1 };
            (t.non_target_sales().to_vec(), top)
        })
        .collect()
}

/// The answer line a healthy daemon sends for one request, computed
/// in-process with the same matcher calls the daemon's workers make.
fn expected_answer(matcher: &Matcher<'_>, sales: &[Sale], top: usize) -> String {
    let model = matcher.model();
    let recs = if top == 1 {
        vec![matcher.recommend(sales)]
    } else {
        matcher.recommend_top_k(sales, top)
    };
    render(&obj(vec![
        ("ok", Value::Bool(true)),
        ("degraded", Value::Bool(false)),
        (
            "recs",
            Value::Seq(recs.iter().map(|r| rec_value(model, r)).collect()),
        ),
    ]))
}

/// The answer lines a healthy daemon serving `model` sends for `probes`.
pub fn expected_answers(model: &RuleModel, probes: &[(Vec<Sale>, usize)]) -> Vec<String> {
    let matcher = Matcher::new(model);
    probes
        .iter()
        .map(|(sales, top)| expected_answer(&matcher, sales, *top))
        .collect()
}

/// The daemon's answers to the probe requests, one by one.
pub fn ask(client: &mut Client, probes: &[(Vec<Sale>, usize)]) -> Result<Vec<String>, String> {
    probes
        .iter()
        .map(|(sales, top)| client.send(&load::recommend_line(sales, *top)))
        .collect()
}

/// Compare daemon answers with the expected lines.
pub fn answers_match(got: &[String], want: &[String]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let mut ok = true;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            if ok {
                eprintln!("[perfbench] probe {i} differs:\n  daemon:   {g}\n  expected: {w}");
            }
            ok = false;
        }
    }
    ok
}

/// Pull an integer field out of a one-line JSON object.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let at = line.find(&tag)? + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};

    fn tiny_model() -> (RuleModel, Vec<(Vec<Sale>, usize)>) {
        let w = Workload::new("fit-paper", Scale::Tiny).unwrap();
        let inputs = w.generate(5);
        (
            w.pipeline().fit(&inputs.train),
            requests(&inputs.holdout, 16),
        )
    }

    #[test]
    fn answer_check_fires_on_a_perturbed_model() {
        let (model, probes) = tiny_model();
        let want = expected_answers(&model, &probes);
        assert!(answers_match(&want, &want));
        // Nudge the profit of the rule that answers the first probe.
        let hit = Matcher::new(&model)
            .recommend(&probes[0].0)
            .rule_index
            .expect("a rule answers");
        let mut saved = model.save();
        saved.rules[hit].prof_re += 0.01;
        let perturbed = RuleModel::load(saved);
        assert!(!answers_match(
            &expected_answers(&perturbed, &probes),
            &want
        ));
    }

    #[test]
    fn answer_check_fires_on_a_perturbed_answer() {
        let (model, probes) = tiny_model();
        let want = expected_answers(&model, &probes);
        let mut got = want.clone();
        got[3] = got[3].replacen(r#""degraded":false"#, r#""degraded":true"#, 1);
        assert!(!answers_match(&got, &want));
        assert!(!answers_match(&want[1..], &want));
    }

    #[test]
    fn seal_check_sees_identical_fits() {
        let (model, _) = tiny_model();
        let w = Workload::new("fit-paper", Scale::Tiny).unwrap();
        let inputs = w.generate(5);
        let dir = crate::load::WorkDir::create("unit-seal").unwrap();
        let a = fit_and_seal(&w.pipeline(), &inputs.train, &dir.path("a.pm")).unwrap();
        let b = fit_and_seal(&w.pipeline(), &inputs.train, &dir.path("b.pm")).unwrap();
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.model.rules(), model.rules());
    }

    #[test]
    fn json_u64_reads_stats_fields() {
        let line = r#"{"ok":true,"degraded":0,"shed":12,"worker_panics":3}"#;
        assert_eq!(json_u64(line, "shed"), Some(12));
        assert_eq!(json_u64(line, "worker_panics"), Some(3));
        assert_eq!(json_u64(line, "missing"), None);
    }
}
