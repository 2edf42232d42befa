//! The traced run's in-process replay: the same data, ingest batches and
//! request lines as the end-to-end pass, driven through each layer's
//! public calls with one span around each call, and the per-layer
//! metrics derived from those spans and from `pm-obs` counter deltas.

use crate::load::WorkDir;
use crate::outcome::{self, Outcome, Sealed};
use crate::serve::Served;
use crate::stats;
use crate::trace::Trace;
use crate::workload::{Inputs, Kind, Workload};
use pm_rules::{ExtendedData, IncrementalMiner, MoaMode, RuleMiner, TidPolicy};
use pm_txn::{encode_stream_record, Moa};
use profit_core::tree::CoveringTree;
use profit_core::{Checkpoint, CutConfig, Matcher, Recommender, RuleModel, SavedModel};

fn counter(name: &'static str) -> u64 {
    pm_obs::counter(name).get()
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

/// Replay `w` in process and record the per-layer metrics and the
/// spans. `fit_data` is what the end-to-end pass fitted (the
/// concatenated stream for `serve-ingest`) and `sealed` its model.
pub fn replay(
    w: &Workload,
    inputs: &Inputs,
    fit_data: &pm_txn::TransactionSet,
    sealed: &Sealed,
    served: &Served,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut trace = Trace::default();
    let cfg = w.miner;
    let cut = CutConfig::default();
    let miner = || RuleMiner::new(cfg).with_threads(w.threads);

    // The fit, one layer call at a time.
    let (pruned0, evaluated0, ub_pruned0) = (
        counter("miner.candidates_pruned"),
        counter("mine.ub_evaluated"),
        counter("mine.ub_pruned"),
    );
    let (model, json) = trace.span("fit", |t| -> Result<_, String> {
        let moa = Moa::new(
            fit_data.catalog_arc(),
            fit_data.hierarchy_arc(),
            cfg.moa == MoaMode::Enabled,
        );
        let ext = t.span("rules.extend", |_| {
            ExtendedData::build(fit_data, &moa, cfg.quantity)
        });
        t.span("rules.tidsets", |_| ext.tidsets(TidPolicy::Adaptive));
        let mined = t.span("rules.mine", |_| miner().mine_extended(ext, moa));
        t.span("core.tree", |_| {
            CoveringTree::build(&mined, cut.profit_mode, None)
        });
        let model = t.span("core.build", |_| RuleModel::build(&mined, &cut));
        let json = t
            .span("core.save", |_| serde_json::to_string(&model.save()))
            .map_err(|e| e.to_string())?;
        let path = work.path("replay.pm");
        t.span("store.seal", |_| {
            pm_store::save_sealed(&path, json.as_bytes())
        })
        .map_err(|e| e.to_string())?;
        out.check(
            "the layer-by-layer fit seals the end-to-end model bytes",
            std::fs::read(&path).map_err(|e| e.to_string())? == sealed.bytes,
        );
        Ok((model, json))
    })?;
    let stats = *model.stats();
    let pruned = counter("miner.candidates_pruned") - pruned0;
    let evaluated = counter("mine.ub_evaluated") - evaluated0;
    let ub_pruned = counter("mine.ub_pruned") - ub_pruned0;

    // Serving layers on the fitted model.
    let loaded = trace.span("core.load", |_| {
        serde_json::from_str::<SavedModel>(&json).map(RuleModel::load)
    });
    let loaded = loaded.map_err(|e| e.to_string())?;
    drop(loaded);
    let requests = outcome::requests(&inputs.holdout, 2_000);
    let lines: Vec<String> = requests
        .iter()
        .map(|(sales, top)| crate::load::recommend_line(sales, *top))
        .collect();
    let parsed = trace.span("serve.parse", |_| {
        lines
            .iter()
            .filter(|l| pm_serve::protocol::parse_request(l).is_ok())
            .count()
    });
    out.check("every request line parses", parsed == lines.len());
    let matcher = Matcher::new(&sealed.model);
    let (touched0, default0) = (
        counter("serve.postings_touched"),
        counter("serve.default_rule_hits"),
    );
    for (sales, top) in &requests {
        trace.span("core.recommend", |_| {
            if *top == 1 {
                vec![matcher.recommend(sales)]
            } else {
                matcher.recommend_top_k(sales, *top)
            }
        });
    }
    let touched = counter("serve.postings_touched") - touched0;
    let default_hits = counter("serve.default_rule_hits") - default0;
    drop(matcher);

    // The streaming layers: fit the base incrementally, checkpoint it,
    // then fold in the batches the daemon took, one generation each.
    let mut inc = IncrementalMiner::new(miner());
    let base_mined = trace.span("rules.incremental_fit", |_| inc.fit(&inputs.train));
    let base_model = if w.kind == Kind::ServeIngest {
        trace.span("core.rebuild", |_| RuleModel::build(&base_mined, &cut))
    } else {
        sealed.model.clone()
    };
    drop(base_mined);
    let ck = Checkpoint {
        stream_pos: 0,
        data_json: inputs.train.to_json(),
        model: base_model.save(),
        miner: inc.snapshot().ok_or("incremental miner has no snapshot")?,
    };
    let bytes = trace.span("core.checkpoint_encode", |_| ck.encode());
    drop(ck);
    let ck_path = work.path("replay.ck");
    trace
        .span("store.checkpoint_save", |_| {
            pm_store::checkpoint::save(&ck_path, &bytes)
        })
        .map_err(|e| e.to_string())?;
    let loaded = trace
        .span("store.checkpoint_load", |_| {
            pm_store::checkpoint::load(&ck_path)
        })
        .map_err(|e| e.to_string())?;
    let resumed = trace.span("core.checkpoint_resume", |_| {
        Checkpoint::decode(&loaded).and_then(|ck| ck.resume(w.pipeline()))
    })?;
    out.check(
        "a resumed checkpoint rebuilds the checkpointed model",
        serde_json::to_string(&resumed.2.save()).ok()
            == serde_json::to_string(&base_model.save()).ok(),
    );
    drop(resumed);

    let (log, _) =
        pm_store::log::SalesLog::open(work.path("replay.log")).map_err(|e| e.to_string())?;
    let batches = match w.kind {
        Kind::ServeIngest => &inputs.batches[..served.ingested],
        _ => &inputs.batches[..],
    };
    let mut data = inputs.train.clone();
    let mut latest = None;
    for batch in batches {
        let record = encode_stream_record(None, batch);
        trace
            .span("store.log_append", |_| log.append(record.as_bytes()))
            .map_err(|e| e.to_string())?;
        data.extend_from(batch).map_err(|e| e.to_string())?;
        let mined = trace.span("rules.update", |_| inc.update(&data));
        if w.kind == Kind::ServeIngest {
            let model = trace.span("core.rebuild", |_| RuleModel::build(&mined, &cut));
            trace.span("core.index", |_| drop(Matcher::new(&model)));
            latest = Some(model);
        }
    }
    if w.kind == Kind::ServeIngest {
        out.check(
            "the replayed ingests rebuild the cold-fit model",
            latest.map(|m| serde_json::to_string(&m.save()).ok())
                == Some(serde_json::to_string(&sealed.model.save()).ok()),
        );
    } else {
        trace.span("core.index", |_| drop(Matcher::new(&sealed.model)));
    }

    // Per-layer metrics.
    let ms = |name: &str| trace.first_ms(name);
    let tree = ms("core.tree");
    let build = ms("core.build");
    out.metric("rules.extend_ms", ms("rules.extend"), "ms");
    out.metric("rules.tidsets_ms", ms("rules.tidsets"), "ms");
    out.metric("rules.mine_ms", ms("rules.mine"), "ms");
    out.metric("rules.mined_rules", stats.mined_rules as f64, "count");
    out.metric("rules.candidates_pruned", pruned as f64, "count");
    out.metric("rules.ub_evaluated", evaluated as f64, "count");
    out.metric(
        "rules.ub_pruned_ratio",
        if evaluated == 0 {
            0.0
        } else {
            ub_pruned as f64 / evaluated as f64
        },
        "ratio",
    );
    out.metric(
        "rules.update_ms",
        median(&trace.ms_of("rules.update")),
        "ms",
    );
    out.metric("core.tree_ms", tree, "ms");
    out.metric("core.build_ms", build, "ms");
    out.metric("core.cut_ms", build - tree, "ms");
    out.metric(
        "core.after_dominance",
        stats.after_dominance as f64,
        "count",
    );
    out.metric("core.after_cut", stats.after_cut as f64, "count");
    out.metric("core.save_ms", ms("core.save"), "ms");
    out.metric("core.model_bytes", json.len() as f64, "bytes");
    out.metric("core.load_ms", ms("core.load"), "ms");
    out.metric("core.index_ms", median(&trace.ms_of("core.index")), "ms");
    let rec_us = stats::sorted(
        trace
            .ms_of("core.recommend")
            .iter()
            .map(|v| v * 1e3)
            .collect(),
    );
    out.metric(
        "core.recommend_p50_us",
        stats::percentile(&rec_us, 0.50).unwrap_or(0.0),
        "us",
    );
    out.metric(
        "core.recommend_p99_us",
        stats::percentile(&rec_us, 0.99).unwrap_or(0.0),
        "us",
    );
    let n_req = requests.len().max(1) as f64;
    out.metric("core.postings_per_request", touched as f64 / n_req, "count");
    out.metric(
        "core.default_hit_ratio",
        default_hits as f64 / n_req,
        "ratio",
    );
    out.metric(
        "core.checkpoint_encode_ms",
        ms("core.checkpoint_encode"),
        "ms",
    );
    out.metric(
        "core.checkpoint_resume_ms",
        ms("core.checkpoint_resume"),
        "ms",
    );
    out.metric("store.seal_ms", ms("store.seal"), "ms");
    out.metric(
        "store.log_append_ms",
        median(&trace.ms_of("store.log_append")),
        "ms",
    );
    out.metric(
        "store.checkpoint_save_ms",
        ms("store.checkpoint_save"),
        "ms",
    );
    out.metric(
        "store.checkpoint_load_ms",
        ms("store.checkpoint_load"),
        "ms",
    );
    out.metric(
        "serve.parse_us",
        ms("serve.parse") * 1e3 / lines.len().max(1) as f64,
        "us",
    );
    let (degraded, shed, panics) = served.daemon_counts();
    out.metric("serve.degraded", degraded, "count");
    out.metric("serve.shed", shed, "count");
    out.metric("serve.worker_panics", panics, "count");
    out.metric(
        "bench.gen_lag_ms",
        served
            .steps
            .iter()
            .map(|s| s.gen_lag_p99_ms)
            .fold(0.0, f64::max),
        "ms",
    );
    // The traced fit is the sum of the calls a fit makes; the extra
    // tidset and tree passes timed above are not part of it.
    let traced_fit_ms =
        ms("rules.extend") + ms("rules.mine") + build + ms("core.save") + ms("store.seal");
    let fit_ms = out.value("fit_s").unwrap_or(0.0) * 1e3;
    out.metric(
        "bench.tracing_overhead_pct",
        if fit_ms > 0.0 {
            (traced_fit_ms - fit_ms) / fit_ms * 100.0
        } else {
            0.0
        },
        "%",
    );
    out.details.push(("spans", trace.to_json()));
    Ok(())
}
