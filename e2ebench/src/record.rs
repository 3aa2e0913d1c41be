//! Record phase: interleaved pairs of vanilla training and recorded
//! training on the fixture script, each record into a fresh store. The
//! only phase that writes checkpoints; it reads nothing back.

use crate::inputs::{Inputs, EPOCHS};
use crate::ledger::{traced, Ledger};
use crate::report::Report;
use crate::stats::{median, ns_to_ms};
use flor_core::record::{record, run_vanilla, RecordOptions};
use std::path::Path;
use std::time::{Duration, Instant};

fn counter(name: &'static str) -> u64 {
    flor_obs::metrics::counter(name).get()
}

/// The byte and checkpoint figures of one record. The delta/keyframe
/// split (and so the stored bytes) depends on how background batches
/// interleave, so only the checkpoint count is required to repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Footprint {
    checkpoints: u64,
    raw_bytes: u64,
    stored_bytes: u64,
    delta_checkpoints: u64,
    keyframes: u64,
    commits: u64,
    dedup_hits: u64,
}

pub fn run(inputs: &Inputs, dir: &Path, budget: Duration, trace: bool, rep: &mut Report) {
    let epochs = EPOCHS as u64;
    let mut ratios = Vec::new();
    let mut record_s = Vec::new();
    let mut vanilla_ms = Vec::new();
    let mut tax_ms = Vec::new();
    let mut blocked_ms = Vec::new();
    let mut unattributed_ms = Vec::new();
    let mut traced_record_s = Vec::new();
    let mut footprints: Vec<Footprint> = Vec::new();
    let mut ledger = Ledger::default();
    let restores0 = counter("replay.restores");
    let t_phase = Instant::now();
    let mut pair = 0u64;
    while t_phase.elapsed() < budget {
        let traced_pair = trace && pair % 2 == 1;
        let store = dir.join(format!("rec{pair}"));
        pair += 1;

        let t0 = Instant::now();
        let vanilla = run_vanilla(&inputs.script);
        let vanilla_wall = t0.elapsed().as_secs_f64();

        let mut opts = RecordOptions::new(&store);
        opts.adaptive = false;
        let (commits0, dedup0) = (counter("store.commits"), counter("dedup.hits"));
        let t0 = Instant::now();
        let recorded = if traced_pair {
            traced(&mut ledger, || record(&inputs.script, &opts))
        } else {
            record(&inputs.script, &opts)
        };
        let record_wall = t0.elapsed().as_secs_f64();
        let (commits, dedup_hits) = (
            counter("store.commits") - commits0,
            counter("dedup.hits") - dedup0,
        );
        let _ = std::fs::remove_dir_all(&store);

        let (vanilla_log, report) = match (vanilla, recorded) {
            (Ok((_, log)), Ok(report)) => (log, report),
            (Err(e), _) => return rep.op(Err(format!("vanilla run: {e}"))),
            (_, Err(e)) => return rep.op(Err(format!("record run: {e}"))),
        };
        let fp = Footprint {
            checkpoints: report.checkpoints,
            raw_bytes: report.raw_bytes,
            stored_bytes: report.stored_bytes,
            delta_checkpoints: report.materializer.delta_checkpoints,
            keyframes: report.materializer.keyframe_checkpoints,
            commits,
            dedup_hits,
        };
        rep.op(if report.log != vanilla_log {
            Err(format!(
                "pair {pair}: record log differs from the vanilla log"
            ))
        } else if report.checkpoints != epochs {
            Err(format!(
                "pair {pair}: {} checkpoints for {epochs} epochs",
                report.checkpoints
            ))
        } else {
            Ok(())
        });
        footprints.push(fp);

        if traced_pair {
            traced_record_s.push(record_wall);
            continue;
        }
        ratios.push(record_wall / vanilla_wall);
        record_s.push(record_wall);
        vanilla_ms.push(vanilla_wall * 1e3);
        let tax = (record_wall - vanilla_wall) * 1e3;
        let blocked = ns_to_ms(report.materializer.main_thread_ns);
        tax_ms.push(tax);
        blocked_ms.push(blocked);
        unattributed_ms.push(tax - blocked);
    }
    rep.note(format!(
        "record: {} untraced pairs, {} traced",
        ratios.len(),
        traced_record_s.len()
    ));
    let Some(&fp) = footprints.first() else {
        return rep.op(Err("record phase measured no pair".into()));
    };
    let per_raw: Vec<f64> = footprints
        .iter()
        .map(|f| f.stored_bytes as f64 / f.raw_bytes.max(1) as f64)
        .collect();
    rep.set("record_vs_vanilla", median(&ratios));
    rep.set("record_wall_s", median(&record_s));
    rep.set("stored_bytes_per_raw_byte", median(&per_raw));
    rep.zero(
        "record.replay_restores",
        counter("replay.restores") - restores0,
    );
    if !trace {
        return;
    }
    rep.set("core.record.tax_ms", median(&tax_ms));
    rep.set("chkpt.caller_blocked_ms", median(&blocked_ms));
    rep.set("record.unattributed_ms", median(&unattributed_ms));
    rep.set("chkpt.submit_p50_us", ledger.p50_us("submit"));
    rep.set("chkpt.commit_p50_ms", ledger.p50_us("commit") / 1e3);
    rep.set("chkpt.commits", fp.commits as f64);
    for (name, key) in [
        ("record.self.record_ms", "record"),
        ("record.self.commit_ms", "commit"),
        ("record.self.restore-chain_ms", "restore-chain"),
    ] {
        rep.set(name, ledger.self_ms_per_op(key));
    }
    rep.set("core.exec.vanilla_ms", median(&vanilla_ms));
    rep.set("chkpt.checkpoints", fp.checkpoints as f64);
    rep.set("chkpt.raw_bytes", fp.raw_bytes as f64);
    rep.set("chkpt.stored_bytes", fp.stored_bytes as f64);
    rep.set("chkpt.delta_checkpoints", fp.delta_checkpoints as f64);
    rep.set("chkpt.keyframes", fp.keyframes as f64);
    rep.set("dedup.hits", fp.dedup_hits as f64);
    footprints.sort_unstable();
    footprints.dedup();
    rep.set("chkpt.distinct_footprints", footprints.len() as f64);
    rep.set(
        "trace.overhead.record",
        median(&traced_record_s) / median(&record_s),
    );
    rep.trace_dropped += ledger.dropped;
}
