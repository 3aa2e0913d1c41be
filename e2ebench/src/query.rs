//! Query phase: an alternating, seeded sequence of fresh hindsight
//! queries through `Registry::query_streaming` with 2 replay workers.
//! Every query carries a distinct constant, so neither the result cache
//! nor the slice memo can answer it. Queries rotate over the set-ups'
//! fixture runs: replay sizes its ranges by each run's recorded cost
//! profile, a timing that differs from one recording to the next.

use crate::fixture::{Fixture, RUN_IDS};
use crate::inputs::{Inputs, Kind, EPOCHS};
use crate::ledger::{traced, Ledger};
use crate::report::Report;
use crate::stats::{beyond, median, percentile};
use flor_core::logstream::LogEntry;
use flor_core::replay::{replay, ReplayOptions};
use flor_registry::QueryEvent;
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
/// Fresh queries of each kind an untraced run goes on for (up to half
/// its share again), so that p90 has ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

fn counter(name: &'static str) -> u64 {
    flor_obs::metrics::counter(name).get()
}

#[derive(Default)]
struct PerKind {
    latency_ms: Vec<f64>,
    traced_latency_ms: Vec<f64>,
    restored: Vec<f64>,
    executed: Vec<f64>,
    steals: Vec<f64>,
    elided: Vec<f64>,
    vm_dispatch: Vec<f64>,
    ledger: Ledger,
    /// Time to first entry per recording (index into the targets).
    ttfe_by_run: Vec<Vec<f64>>,
    /// First answer, with its target and probe source, checked against
    /// the oracle.
    first: Option<(usize, String, Vec<LogEntry>)>,
}

impl PerKind {
    /// Median time to first entry of each recording, averaged over the
    /// recordings. Replay cuts its ranges by the recording's cost
    /// profile, so the first range — and with it this time — is a
    /// property of the recording; pooling the queries would report
    /// whichever plan most recordings happened to get.
    fn ttfe_p50_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .ttfe_by_run
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64
    }
}

/// Entries a probed replay must return: the record log's entries plus
/// one probe entry per probed iteration.
fn expected_len(inputs: &Inputs, kind: Kind) -> usize {
    let epochs = EPOCHS;
    let probes = match kind {
        Kind::Outer => epochs,
        Kind::Inner => epochs * inputs.shape.batches_per_epoch(),
    };
    epochs + 1 + probes
}

/// Checks one fresh answer against the first answer of its kind: same
/// keys and sections everywhere, same values outside the probe.
fn check_answer(
    inputs: &Inputs,
    kind: Kind,
    out: &flor_registry::QueryOutcome,
    streamed: &[LogEntry],
    reference: Option<&[LogEntry]>,
) -> Result<(), String> {
    if out.cached {
        return Err("a fresh query was served from the cache".into());
    }
    if !out.anomalies.is_empty() {
        return Err(format!("anomalies: {:?}", out.anomalies));
    }
    if out.log.len() != expected_len(inputs, kind) {
        return Err(format!(
            "{kind:?} answer has {} entries, expected {}",
            out.log.len(),
            expected_len(inputs, kind)
        ));
    }
    if streamed != out.log.as_slice() {
        return Err("streamed chunks do not concatenate to the final log".into());
    }
    if let Some(reference) = reference {
        for (a, b) in out.log.iter().zip(reference) {
            if a.key != b.key || a.section != b.section || (a.key != "probe" && a.value != b.value)
            {
                return Err(format!("{kind:?} answer entry {a} differs from {b}"));
            }
        }
    }
    Ok(())
}

/// Runs the query phase for `budget` (plus the top-up to
/// [`MIN_SAMPLES`]), calling `interlude(i)` for `i` in
/// `0..interludes` at even steps of the budget. Time spent in interludes
/// does not count against the budget, and the cache hits they cause do
/// not count against the fresh queries.
pub fn run(
    inputs: &Inputs,
    fixtures: &[Fixture],
    budget: Duration,
    trace: bool,
    rep: &mut Report,
    interludes: usize,
    mut interlude: impl FnMut(usize),
) {
    // Every recording of every set-up, as (fixture, run id, store root).
    let targets: Vec<(&Fixture, &str, &std::path::Path)> = fixtures
        .iter()
        .flat_map(|fx| {
            RUN_IDS
                .iter()
                .zip(&fx.runs)
                .map(move |(id, run)| (fx, *id, run.store_root.as_path()))
        })
        .collect();
    let mut kinds = [PerKind::default(), PerKind::default()];
    for pk in &mut kinds {
        pk.ttfe_by_run = vec![Vec::new(); targets.len()];
    }
    let hit_counters = || (counter("registry.cache_hits"), counter("cache.slice_hits"));
    // Cache hits the interludes cause, and the time they take.
    let (mut interlude_hits, mut interlude_slice_hits) = (0, 0);
    let mut paused = Duration::ZERO;
    let mut done = 0;
    let (hits0, slice_hits0) = hit_counters();
    let t_phase = Instant::now();
    let mut k = inputs.probe_base;
    for pair in 0.. {
        let elapsed = t_phase.elapsed() - paused;
        while done < interludes && elapsed >= budget.mul_f64((done + 1) as f64 / interludes as f64)
        {
            let (h0, s0) = hit_counters();
            let t0 = Instant::now();
            interlude(done);
            paused += t0.elapsed();
            let (h1, s1) = hit_counters();
            interlude_hits += h1 - h0;
            interlude_slice_hits += s1 - s0;
            done += 1;
        }
        let enough = kinds.iter().all(|p| p.latency_ms.len() >= MIN_SAMPLES);
        if elapsed >= budget && (trace || enough || elapsed >= budget.mul_f64(1.5)) {
            break;
        }
        let order = if inputs.pair_order[pair % inputs.pair_order.len()] {
            [Kind::Inner, Kind::Outer]
        } else {
            [Kind::Outer, Kind::Inner]
        };
        for kind in order {
            let pk = &mut kinds[kind as usize];
            let src = inputs.probe(kind, k);
            let t = (k - inputs.probe_base) as usize % targets.len();
            let (fx, run_id, _) = targets[t];
            k += 1;
            let traced_query = trace && (pk.latency_ms.len() + pk.traced_latency_ms.len()) % 2 == 1;
            let dispatch0 = counter("vm.dispatch");
            let mut streamed = Vec::new();
            let mut first_entry: Option<Duration> = None;
            let t0 = Instant::now();
            let mut call = || {
                fx.registry
                    .query_streaming(run_id, &src, WORKERS, &mut |ev| {
                        if let QueryEvent::Entries(chunk) = ev {
                            if !chunk.is_empty() && first_entry.is_none() {
                                first_entry = Some(t0.elapsed());
                            }
                            streamed.extend(chunk);
                        }
                    })
            };
            let result = if traced_query {
                traced(&mut pk.ledger, call)
            } else {
                call()
            };
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let out = match result {
                Ok(out) => out,
                Err(e) => {
                    rep.op(Err(format!("{kind:?} query: {e}")));
                    continue;
                }
            };
            let reference = pk.first.as_ref().map(|(_, _, log)| log.as_slice());
            rep.op(check_answer(inputs, kind, &out, &streamed, reference));
            if pk.first.is_none() {
                pk.first = Some((t, src, out.log.clone()));
            }
            if traced_query {
                pk.traced_latency_ms.push(wall_ms);
                continue;
            }
            pk.latency_ms.push(wall_ms);
            pk.ttfe_by_run[t].push(first_entry.unwrap_or_default().as_secs_f64() * 1e3);
            pk.restored.push(out.restored as f64);
            pk.executed.push(out.executed as f64);
            pk.steals.push(out.steals as f64);
            pk.elided.push(out.statements_elided as f64);
            pk.vm_dispatch
                .push((counter("vm.dispatch") - dispatch0) as f64);
        }
    }
    let (h, s) = hit_counters();
    rep.zero("query.cache_hits", h - hits0 - interlude_hits);
    rep.zero("query.slice_hits", s - slice_hits0 - interlude_slice_hits);

    let [outer, inner] = &kinds;
    for (name, pk) in [("outer", outer), ("inner", inner)] {
        rep.note(format!(
            "query {name}: {} untraced samples ({} beyond p90), {} traced",
            pk.latency_ms.len(),
            beyond(&pk.latency_ms, 0.9),
            pk.traced_latency_ms.len()
        ));
    }
    check_oracle_and_cache(&targets, &kinds, rep);

    rep.set("query_outer_p50_ms", median(&outer.latency_ms));
    rep.set("query_outer_p90_ms", percentile(&outer.latency_ms, 0.9));
    rep.set("query_inner_p50_ms", median(&inner.latency_ms));
    rep.set("query_inner_p90_ms", percentile(&inner.latency_ms, 0.9));
    rep.set("query_outer_ttfe_p50_ms", outer.ttfe_p50_ms());
    rep.set("query_inner_ttfe_p50_ms", inner.ttfe_p50_ms());
    if !trace {
        return;
    }
    rep.set(
        "chkpt.chain_resolve_p50_us",
        outer.ledger.p50_us("chain_resolve"),
    );
    rep.set("core.replay.restore_p50_us", outer.ledger.p50_us("restore"));
    rep.set("core.replay.restored_min", percentile(&outer.restored, 0.0));
    rep.set("core.replay.restored_p50", median(&outer.restored));
    rep.set("core.replay.restored_max", percentile(&outer.restored, 1.0));
    const SELF: [(&str, &str, &str); 10] = [
        (
            "restore-chain",
            "query_outer.self.restore-chain_ms",
            "query_inner.self.restore-chain_ms",
        ),
        (
            "prefetch",
            "query_outer.self.prefetch_ms",
            "query_inner.self.prefetch_ms",
        ),
        (
            "range-exec.init",
            "query_outer.self.range-exec.init_ms",
            "query_inner.self.range-exec.init_ms",
        ),
        (
            "range-exec.range",
            "query_outer.self.range-exec.range_ms",
            "query_inner.self.range-exec.range_ms",
        ),
        (
            "vm-exec",
            "query_outer.self.vm-exec_ms",
            "query_inner.self.vm-exec_ms",
        ),
        (
            "record",
            "query_outer.self.record_ms",
            "query_inner.self.record_ms",
        ),
        (
            "stream-merge",
            "query_outer.self.stream-merge_ms",
            "query_inner.self.stream-merge_ms",
        ),
        (
            "slice",
            "query_outer.self.slice_ms",
            "query_inner.self.slice_ms",
        ),
        (
            "compile",
            "query_outer.self.compile_ms",
            "query_inner.self.compile_ms",
        ),
        (
            "commit",
            "query_outer.self.commit_ms",
            "query_inner.self.commit_ms",
        ),
    ];
    for (key, outer_name, inner_name) in SELF {
        rep.set(outer_name, outer.ledger.self_ms_per_op(key));
        rep.set(inner_name, inner.ledger.self_ms_per_op(key));
    }
    rep.set(
        "query_outer.unattributed_ms",
        outer.ledger.unattributed_ms(),
    );
    rep.set(
        "query_inner.unattributed_ms",
        inner.ledger.unattributed_ms(),
    );
    let all_unattributed: Vec<f64> = outer
        .ledger
        .unattributed_ns
        .iter()
        .chain(&inner.ledger.unattributed_ns)
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    rep.set("query.unattributed_ms", median(&all_unattributed));
    rep.set("core.exec.vm_dispatch", median(&inner.vm_dispatch));
    rep.set("core.replay.executed", median(&inner.executed));
    rep.set("core.replay.steals", median(&inner.steals));
    rep.set("analysis.statements_elided", median(&inner.elided));
    let mut commits: Vec<f64> = Vec::new();
    for pk in &kinds {
        if let Some(d) = pk.ledger.durations.get("cache_commit") {
            commits.extend(d.iter().map(|&ns| ns as f64 / 1e6));
        }
    }
    rep.set("registry.cache_put_ms", median(&commits));
    rep.set(
        "trace.overhead.query_outer",
        median(&outer.traced_latency_ms) / median(&outer.latency_ms),
    );
    rep.set(
        "trace.overhead.query_inner",
        median(&inner.traced_latency_ms) / median(&inner.latency_ms),
    );
    rep.trace_dropped += outer.ledger.dropped + inner.ledger.dropped;
}

/// The first answer of each kind must equal an unsliced single-worker
/// replay, and re-issuing its probe must come back cached and identical.
fn check_oracle_and_cache(
    targets: &[(&Fixture, &str, &std::path::Path)],
    kinds: &[PerKind; 2],
    rep: &mut Report,
) {
    let oracle_opts = ReplayOptions {
        workers: 1,
        slice: false,
        ..ReplayOptions::default()
    };
    for pk in kinds {
        let Some((t, src, log)) = &pk.first else {
            continue;
        };
        let (fx, run_id, store_root) = targets[*t];
        rep.op(match replay(src, store_root, &oracle_opts) {
            Ok(r) if &r.log == log => Ok(()),
            Ok(_) => Err("fresh answer differs from the unsliced single-worker oracle".into()),
            Err(e) => Err(format!("oracle replay: {e}")),
        });
        rep.op(match fx.registry.query(run_id, src, WORKERS) {
            Ok(o) if o.cached && &o.log == log => Ok(()),
            Ok(o) => Err(format!(
                "re-issued probe: cached={} same={}",
                o.cached,
                &o.log == log
            )),
            Err(e) => Err(format!("re-issued probe: {e}")),
        });
    }
}
