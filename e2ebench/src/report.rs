//! What a run reports: attempted and failed operations, and the metrics
//! named in `BENCHMARK.json`.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), name and unit, in `BENCHMARK.json`
/// order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("record_vs_vanilla", "ratio"),
    ("stored_bytes_per_raw_byte", "ratio"),
    ("query_inner_p50_ms", "ms"),
    ("query_inner_p90_ms", "ms"),
    ("query_outer_ttfe_p50_ms", "ms"),
    ("query_inner_ttfe_p50_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), name and unit, in `BENCHMARK.json`
/// order. The first six are end-to-end figures whose run-to-run spread
/// on a shared 2-core host came too close to, or past, the largest bound
/// the benchmark may set; they are reported here, ungated.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("record_wall_s", "s"),
    ("query_outer_p50_ms", "ms"),
    ("query_outer_p90_ms", "ms"),
    ("serve_qps", "1/s"),
    ("serve_ttfe_p50_ms", "ms"),
    ("serve_ttfe_p99_ms", "ms"),
    // record phase → record_vs_vanilla
    ("core.record.tax_ms", "ms"),
    ("chkpt.caller_blocked_ms", "ms"),
    ("chkpt.submit_p50_us", "us"),
    ("chkpt.commit_p50_ms", "ms"),
    ("chkpt.commits", "count"),
    ("record.unattributed_ms", "ms"),
    ("record.self.record_ms", "ms"),
    ("record.self.commit_ms", "ms"),
    ("record.self.restore-chain_ms", "ms"),
    // record phase → record_wall_s
    ("core.exec.vanilla_ms", "ms"),
    ("lang.parse_us", "us"),
    ("analysis.instrument_us", "us"),
    // record phase → stored_bytes_per_raw_byte
    ("chkpt.checkpoints", "count"),
    ("chkpt.raw_bytes", "bytes"),
    ("chkpt.stored_bytes", "bytes"),
    ("chkpt.delta_checkpoints", "count"),
    ("chkpt.keyframes", "count"),
    ("dedup.hits", "count"),
    ("chkpt.distinct_footprints", "count"),
    // query phase → query_outer_*
    ("chkpt.get_bytes_p50_us", "us"),
    ("chkpt.chain_resolve_p50_us", "us"),
    ("core.replay.restore_p50_us", "us"),
    ("core.replay.restored_min", "count"),
    ("core.replay.restored_p50", "count"),
    ("core.replay.restored_max", "count"),
    ("query_outer.self.restore-chain_ms", "ms"),
    ("query_outer.self.prefetch_ms", "ms"),
    ("query_outer.self.range-exec.init_ms", "ms"),
    ("query_outer.self.range-exec.range_ms", "ms"),
    ("query_outer.self.vm-exec_ms", "ms"),
    ("query_outer.self.record_ms", "ms"),
    ("query_outer.self.stream-merge_ms", "ms"),
    ("query_outer.self.slice_ms", "ms"),
    ("query_outer.self.compile_ms", "ms"),
    ("query_outer.self.commit_ms", "ms"),
    ("query_outer.unattributed_ms", "ms"),
    // query phase → query_inner_*
    ("query_inner.self.restore-chain_ms", "ms"),
    ("query_inner.self.prefetch_ms", "ms"),
    ("query_inner.self.range-exec.init_ms", "ms"),
    ("query_inner.self.range-exec.range_ms", "ms"),
    ("query_inner.self.vm-exec_ms", "ms"),
    ("query_inner.self.record_ms", "ms"),
    ("query_inner.self.stream-merge_ms", "ms"),
    ("query_inner.self.slice_ms", "ms"),
    ("query_inner.self.compile_ms", "ms"),
    ("query_inner.self.commit_ms", "ms"),
    ("query_inner.unattributed_ms", "ms"),
    ("core.exec.vm_dispatch", "count"),
    ("core.replay.executed", "count"),
    ("core.replay.steals", "count"),
    ("analysis.statements_elided", "count"),
    // query phase → *_ttfe_p50_ms
    ("lang.diff_us", "us"),
    ("analysis.slice_us", "us"),
    ("lang.compile_us", "us"),
    // query phase → setup_s and all query metrics
    ("chkpt.open_ms", "ms"),
    ("registry.cache_put_ms", "ms"),
    ("query.unattributed_ms", "ms"),
    // serve phase → serve_ttfe_p50_ms, serve_qps
    ("registry.exact_hit_us", "us"),
    ("registry.cache_get_us", "us"),
    ("serve.runs_rtt_us", "us"),
    ("serve.self.accept_us", "us"),
    ("serve.self.read_us", "us"),
    ("serve.self.dispatch_us", "us"),
    ("serve.self.write_us", "us"),
    ("scheduler.job_p50_us", "us"),
    // serve phase → serve_ttfe_p99_ms
    ("registry.memo_hit_us", "us"),
    // serve phase outcome ratios (1.0 expected)
    ("registry.cache_hits_per_query", "ratio"),
    ("cache.slice_hits_per_variant", "ratio"),
    // counters that must read zero
    ("record.replay_restores", "count"),
    ("query.cache_hits", "count"),
    ("query.slice_hits", "count"),
    ("serve.replay_restores", "count"),
    ("serve.vm_dispatch", "count"),
    ("serve.shed", "count"),
    ("serve.stalled_drops", "count"),
    ("serve.aborted_conns", "count"),
    ("scheduler.sink_dropped_entries", "count"),
    ("trace.dropped_events", "count"),
    // tracing overhead: traced median / untraced median
    ("trace.overhead.record", "ratio"),
    ("trace.overhead.query_outer", "ratio"),
    ("trace.overhead.query_inner", "ratio"),
    ("trace.overhead.serve", "ratio"),
];

/// Result of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Trace events lost to ring overflow across every traced operation.
    pub trace_dropped: u64,
    /// Sample counts and other context, printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one operation; an `Err` is a failed (or wrong) answer.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Counts one check of a counter that must read zero, and reports it.
    pub fn zero(&mut self, name: &'static str, value: u64) {
        self.op(if value == 0 {
            Ok(())
        } else {
            Err(format!("{name} read {value}, expected 0"))
        });
        self.set(name, value as f64);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Prints the notes and failures, then the result as the last line.
    /// A metric of the selected set that the run did not produce is a
    /// failure of the run itself.
    pub fn print(mut self, trace: bool) {
        let names = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in names {
            if !self.metrics.contains_key(name) {
                self.op(Err(format!("metric {name} was not measured")));
            }
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for f in &self.failures {
            println!("# FAILED: {f}");
        }
        let mut w = flor_obs::json::JsonWriter::new();
        w.begin_obj();
        w.key("correct");
        w.bool_val(self.failed == 0);
        w.field_u64("attempted", self.attempted);
        w.field_u64("failed", self.failed);
        w.key("metrics");
        w.begin_obj();
        for (name, unit) in names {
            w.key(name);
            w.begin_obj();
            w.field_f64("value", self.metrics.get(name).copied().unwrap_or(0.0));
            w.field_str("unit", unit);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        println!("{}", w.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flor_obs::json::{parse, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// The harness prints exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
    }
}
