//! The three workloads: their inputs, their miner settings and how the
//! run's seed turns a fixed dataset into this run's data.
//!
//! Each workload fixes its dataset — one Dataset-I (or low-minsup
//! Quest) market generated at [`POPULATION_SEED`], exactly as large as
//! a run needs — and the run's `--seed` shuffles it into the training
//! sample, the held-out customers and the ingest batches, the way a
//! cross-validation split would. The same seed always gives the same
//! inputs; different seeds hold out different customers of the same
//! market, so run-to-run spread measures the system rather than how
//! many long patterns one random market happened to contain.

use pm_datagen::DatasetConfig;
use pm_rules::{MinerConfig, MoaMode, QuantityModel, Support};
use pm_txn::{Transaction, TransactionSet};
use profit_core::{CutConfig, ProfitMiner};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Generator seed of every workload's dataset (the paper's year).
pub const POPULATION_SEED: u64 = 2002;

/// Transactions per `ingest` batch.
pub const INGEST_BATCH: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dataset I at the CLI `fit` defaults: §4 dominates the fit.
    FitPaper,
    /// The low-minsup Quest preset: the miner dominates the fit.
    FitLowMinsup,
    /// A streaming daemon on the low-minsup stream, reads beside writes.
    ServeIngest,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Seconds-long sizes for the benchmark's own tests.
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "full" => Ok(Scale::Full),
            "tiny" => Ok(Scale::Tiny),
            other => Err(format!("scale must be full or tiny, got {other:?}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// Everything that defines one workload at one scale.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub scale: Scale,
    pub name: &'static str,
    /// Training transactions (the stream's base for `serve-ingest`).
    pub train: usize,
    /// Held-out customers: gain evaluation, recommend requests, probes.
    pub holdout: usize,
    /// Ingest batches drawn for the run: the streaming workload sends
    /// one per ladder step plus a tail batch; the fit workloads replay
    /// one in the traced run.
    pub batches: usize,
    pub miner: MinerConfig,
    /// Mining threads, daemon workers and reactor threads.
    pub threads: usize,
}

/// The host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload {
    pub const NAMES: [&'static str; 3] = ["fit-paper", "fit-lowminsup", "serve-ingest"];

    pub fn new(name: &str, scale: Scale) -> Result<Workload, String> {
        let kind = match name {
            "fit-paper" => Kind::FitPaper,
            "fit-lowminsup" => Kind::FitLowMinsup,
            "serve-ingest" => Kind::ServeIngest,
            other => {
                return Err(format!(
                    "unknown workload {other:?} (expected one of {})",
                    Self::NAMES.join(", ")
                ))
            }
        };
        let tiny = scale == Scale::Tiny;
        let (train, holdout) = match (kind, tiny) {
            (Kind::FitPaper, false) => (20_000, 5_000),
            (_, false) => (100_000, 10_000),
            (_, true) => (1_500, 400),
        };
        let miner = match kind {
            // The CLI `fit` defaults (its default max body is 3).
            Kind::FitPaper => MinerConfig {
                min_support: Support::Fraction(if tiny { 0.02 } else { 0.001 }),
                max_body_len: 3,
                moa: MoaMode::Enabled,
                quantity: QuantityModel::Saving,
                min_confidence: Some(0.5),
                min_rule_profit: None,
                prune_default_dominated: true,
            },
            // bench-mining's low-minsup cell: 150 dollars of rule
            // profit per 10k transactions, scaled to the sample.
            Kind::FitLowMinsup | Kind::ServeIngest => MinerConfig {
                min_support: Support::Fraction(if tiny { 0.01 } else { 0.001 }),
                max_body_len: if tiny { 3 } else { 4 },
                moa: MoaMode::Enabled,
                quantity: QuantityModel::Saving,
                min_confidence: Some(0.5),
                min_rule_profit: Some(150.0 * train as f64 / 10_000.0),
                prune_default_dominated: true,
            },
        };
        Ok(Workload {
            kind,
            scale,
            name: Self::NAMES[kind as usize],
            train,
            holdout,
            batches: if kind == Kind::ServeIngest {
                crate::serve::RATES.len() + 1
            } else {
                1
            },
            miner,
            threads: nproc(),
        })
    }

    /// The fit pipeline, exactly as `profit-mining fit` assembles it
    /// from these settings.
    pub fn pipeline(&self) -> ProfitMiner {
        ProfitMiner::new(self.miner)
            .with_cut(CutConfig::default())
            .with_threads(self.threads)
    }

    fn population_config(&self) -> DatasetConfig {
        let population = self.train + self.holdout + self.batches * INGEST_BATCH;
        match self.kind {
            Kind::FitPaper => {
                let items = if self.scale == Scale::Tiny { 60 } else { 300 };
                let mut cfg = DatasetConfig::dataset_i()
                    .with_transactions(population)
                    .with_items(items);
                // `profit-mining gen`'s pattern count for the sample size.
                cfg.quest.n_patterns = (self.train / 50).clamp(20, 2000);
                cfg
            }
            Kind::FitLowMinsup | Kind::ServeIngest => {
                let mut cfg = DatasetConfig::quest_low_minsup().with_transactions(population);
                if self.scale == Scale::Tiny {
                    cfg = cfg.with_items(80);
                }
                cfg
            }
        }
    }

    /// Generate the dataset and split it into this run's inputs.
    pub fn generate(&self, seed: u64) -> Inputs {
        let population = self
            .population_config()
            .generate(&mut StdRng::seed_from_u64(POPULATION_SEED));
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut train_idx = order[..self.train].to_vec();
        train_idx.sort_unstable();
        let holdout_idx = &order[self.train..self.train + self.holdout];
        let batch_start = self.train + self.holdout;
        let txns = population.transactions();
        let batches = (0..self.batches)
            .map(|b| {
                let at = batch_start + b * INGEST_BATCH;
                order[at..at + INGEST_BATCH]
                    .iter()
                    .map(|&i| txns[i].clone())
                    .collect()
            })
            .collect();
        Inputs {
            train: population.subset(&train_idx),
            holdout: population.subset(holdout_idx),
            batches,
        }
    }

    /// The workload's parameters as a JSON object, for the result file.
    pub fn describe(&self) -> String {
        let m = &self.miner;
        let minsup = match m.min_support {
            Support::Fraction(f) => f,
            Support::Count(c) => c as f64,
        };
        format!(
            r#"{{"train":{},"holdout":{},"ingest_batch":{},"batches":{},"population_seed":{},"minsup":{},"max_body":{},"min_conf":{},"min_rule_profit":{},"threads":{}}}"#,
            self.train,
            self.holdout,
            INGEST_BATCH,
            self.batches,
            POPULATION_SEED,
            minsup,
            m.max_body_len,
            m.min_confidence.unwrap_or(0.0),
            m.min_rule_profit.unwrap_or(0.0),
            self.threads
        )
    }
}

/// One run's inputs.
pub struct Inputs {
    pub train: TransactionSet,
    pub holdout: TransactionSet,
    pub batches: Vec<Vec<Transaction>>,
}

impl Inputs {
    /// The training set with the first `n` batches appended: the stream
    /// a daemon has seen after `n` ingests.
    pub fn stream_after(&self, n: usize) -> TransactionSet {
        let mut data = self.train.clone();
        for b in &self.batches[..n] {
            data.extend_from(b)
                .expect("batches come from the same market");
        }
        data
    }
}
