//! Per-layer time from `flor_obs` traces.
//!
//! A span's self time is its duration minus the part of it that its
//! children on the same thread cover. The benchmark wraps each public
//! call in a root span; whatever part of the root no span on any thread
//! covers is `unattributed`.

use flor_obs::trace::{Category, Event, EventKind, Trace};
use std::collections::BTreeMap;

/// Name of the benchmark's own root span.
pub const ROOT: &str = "bench_root";

/// Layer key of a span: its category, with the replay worker's range
/// spans split into `init` (rolling initialization) and `range` (work).
fn layer(e: &Event) -> String {
    match e.cat {
        Category::RangeExec => format!("range-exec.{}", e.name),
        Category::Serve => format!("serve.{}", e.name),
        c => c.as_str().to_string(),
    }
}

/// Accumulated over the traced operations of one kind.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Traced operations added.
    pub ops: u64,
    /// Self time per layer key, summed over operations (threads add up,
    /// so parallel replay workers can exceed the wall time).
    pub self_ns: BTreeMap<String, u64>,
    /// Span durations by span name, for per-call percentiles.
    pub durations: BTreeMap<&'static str, Vec<u64>>,
    /// Root duration minus the union of every other span inside it.
    pub unattributed_ns: Vec<u64>,
    /// Events the trace rings dropped (a nonzero value makes the ledger
    /// incomplete).
    pub dropped: u64,
}

impl Ledger {
    /// Adds one drained trace holding `ops` operations. Unattributed time
    /// is computed only when the trace has exactly one root span.
    pub fn add(&mut self, trace: &Trace, ops: u64) {
        self.ops += ops;
        self.dropped += trace.dropped;
        let spans: Vec<&Event> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Complete)
            .collect();
        let mut by_lane: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
        for e in &spans {
            by_lane.entry(e.lane).or_default().push(e);
            if e.name != ROOT {
                self.durations.entry(e.name).or_default().push(e.dur_ns);
            }
        }
        for lane in by_lane.values() {
            self.add_lane(lane);
        }
        let roots: Vec<&&Event> = spans.iter().filter(|e| e.name == ROOT).collect();
        if let [root] = roots.as_slice() {
            let covered = union_within(
                spans.iter().filter(|e| e.name != ROOT),
                root.start_ns,
                root.start_ns + root.dur_ns,
            );
            self.unattributed_ns
                .push(root.dur_ns.saturating_sub(covered));
        }
    }

    /// Self times on one thread: spans there nest, and the trace is
    /// sorted parents-first.
    fn add_lane(&mut self, lane: &[&Event]) {
        struct Open<'a> {
            span: &'a Event,
            children_ns: u64,
        }
        let end = |e: &Event| e.start_ns + e.dur_ns;
        let mut close = |open: Open<'_>| {
            if open.span.name != ROOT {
                *self.self_ns.entry(layer(open.span)).or_default() +=
                    open.span.dur_ns.saturating_sub(open.children_ns);
            }
        };
        let mut stack: Vec<Open<'_>> = Vec::new();
        for e in lane {
            while stack.last().is_some_and(|o| end(o.span) <= e.start_ns) {
                close(stack.pop().expect("non-empty stack"));
            }
            if let Some(parent) = stack.last_mut() {
                if end(e) <= end(parent.span) {
                    parent.children_ns += e.dur_ns;
                }
            }
            stack.push(Open {
                span: e,
                children_ns: 0,
            });
        }
        while let Some(open) = stack.pop() {
            close(open);
        }
    }

    /// Mean self time per operation of a layer key, ms.
    pub fn self_ms_per_op(&self, key: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns.get(key).copied().unwrap_or(0) as f64 / 1e6 / self.ops as f64
    }

    /// Median duration of spans named `name`, µs.
    pub fn p50_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .durations
            .get(name)
            .map(|d| d.iter().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default();
        crate::stats::median(&v)
    }

    /// Median unattributed root time per operation, ms.
    pub fn unattributed_ms(&self) -> f64 {
        let v: Vec<f64> = self
            .unattributed_ns
            .iter()
            .map(|&ns| crate::stats::ns_to_ms(ns))
            .collect();
        crate::stats::median(&v)
    }
}

/// Runs `f` inside a fresh trace session under the benchmark's root span
/// and adds the drained trace to `ledger` as one operation.
pub fn traced<T>(ledger: &mut Ledger, f: impl FnOnce() -> T) -> T {
    let session = flor_obs::TraceSession::start();
    let out = {
        let _root = flor_obs::span(Category::Job, ROOT);
        f()
    };
    ledger.add(&session.finish(), 1);
    out
}

/// Length of the union of `spans`' intervals clipped to `[lo, hi)`.
fn union_within<'a>(spans: impl Iterator<Item = &'a &'a Event>, lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans
        .map(|e| (e.start_ns.max(lo), (e.start_ns + e.dur_ns).min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: Category, name: &'static str, lane: u32, start: u64, dur: u64) -> Event {
        Event {
            cat,
            name,
            start_ns: start,
            dur_ns: dur,
            kind: EventKind::Complete,
            args: [0; 2],
            lane,
            depth: 0,
        }
    }

    #[test]
    fn self_time_and_unattributed() {
        // Root 0..100 on lane 0 with a slice child 10..30; a worker on
        // lane 1 runs a range 20..80 holding a restore 40..50.
        let mut events = vec![
            ev(Category::Job, ROOT, 0, 0, 100),
            ev(Category::Slice, "slice", 0, 10, 20),
            ev(Category::RangeExec, "range", 1, 20, 60),
            ev(Category::RestoreChain, "restore", 1, 40, 10),
        ];
        events.sort_by_key(|e| (e.start_ns, u64::MAX - e.dur_ns));
        let trace = Trace {
            events,
            dropped: 0,
            lane_names: Vec::new(),
        };
        let mut l = Ledger::default();
        l.add(&trace, 1);
        assert_eq!(l.self_ns["slice"], 20);
        assert_eq!(l.self_ns["range-exec.range"], 50);
        assert_eq!(l.self_ns["restore-chain"], 10);
        assert!(!l.self_ns.contains_key("job"), "the root is not a layer");
        // Covered: 10..80 → 70 of 100.
        assert_eq!(l.unattributed_ns, vec![30]);
    }
}
