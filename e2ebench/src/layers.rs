//! Standalone calls into the front-end and storage layers on the query
//! inputs, timed one layer at a time.

use crate::fixture::Fixture;
use crate::inputs::{Inputs, Kind, EPOCHS};
use crate::report::Report;
use crate::stats::median;
use flor_chkpt::CheckpointStore;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 200;

/// Median wall time of `reps` calls, µs.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let us: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us)
}

pub fn run(inputs: &Inputs, fx: &Fixture, rep: &mut Report) {
    let src = inputs.probe(Kind::Inner, inputs.probe_base);
    let root = &fx.runs[0].store_root;
    let result = (|| -> Result<(), String> {
        let store = CheckpointStore::open(root).map_err(|e| e.to_string())?;
        let recorded_src = String::from_utf8(
            store
                .get_artifact("source.flr")
                .map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        let recorded = flor_lang::parse(&recorded_src).map_err(|e| e.to_string())?;
        let prog = flor_lang::parse(&src).map_err(|e| e.to_string())?;
        let inst = flor_analysis::instrument(&prog);

        rep.set("lang.parse_us", time_us(REPS, || flor_lang::parse(&src)));
        rep.set(
            "analysis.instrument_us",
            time_us(REPS, || flor_analysis::instrument(&prog)),
        );
        rep.set(
            "lang.diff_us",
            time_us(REPS, || flor_lang::diff_programs(&recorded, &inst.program)),
        );
        rep.set(
            "analysis.slice_us",
            time_us(REPS, || {
                flor_core::replay::slice_fingerprint(&recorded_src, &src, &store, true)
            }),
        );
        rep.set(
            "lang.compile_us",
            time_us(REPS, || flor_core::compile_program(&inst.program)),
        );
        rep.set(
            "chkpt.open_ms",
            time_us(5, || CheckpointStore::open(root)) / 1e3,
        );
        // Every checkpoint of the run, through a freshly opened handle.
        let cold = CheckpointStore::open(root).map_err(|e| e.to_string())?;
        let mut us = Vec::new();
        for (block, seq) in cold.entries() {
            let t0 = Instant::now();
            let bytes = cold.get_bytes(&block, seq).map_err(|e| e.to_string())?;
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            black_box(bytes);
        }
        if us.len() != EPOCHS {
            return Err(format!("store holds {} checkpoints", us.len()));
        }
        rep.set("chkpt.get_bytes_p50_us", median(&us));
        Ok(())
    })();
    rep.op(result.map_err(|e| format!("standalone layer calls: {e}")));
}
