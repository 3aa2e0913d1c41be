//! Serve phase: two closed-loop clients over real `flor_net` Unix
//! sockets, each sending `stream` and waiting for `+done` before the
//! next — flor clients block on their answer. 15 of 16 requests repeat a
//! warmed probe (result-cache reads); 1 of 16 is a fresh blank-line
//! variant of one (a slice-memo hit plus a cache backfill write). No
//! replay runs. The phase runs in segments, one per set-up's server.

use crate::fixture::{Fixture, Warm, RUN_ID, RUN_IDS};
use crate::inputs::{Inputs, ServeMix, VARIANT_SPACE};
use crate::ledger::{Ledger, ROOT};
use crate::report::Report;
use crate::stats::{beyond, median, percentile};
use flor_net::{ClientConn, Endpoint};
use flor_obs::trace::Category;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
/// Streams each client sends in a segment, on a fresh connection. A
/// count rather than a time: a session's per-request cost grows with the
/// requests it has served (see README.md), so every run serves the same
/// number. 2 clients × 600 streams leave 12 beyond a segment's p99.
pub const ROUNDS_PER_SEGMENT: usize = 600;
/// Repetitions of each in-process layer call in a traced run.
const LAYER_REPS: usize = 300;
/// Client variants come from the lower half of the variant space; the
/// in-process memo-hit calls use the upper half.
const CLIENT_VARIANTS: u64 = VARIANT_SPACE / 2;

fn counter(name: &'static str) -> u64 {
    flor_obs::metrics::counter(name).get()
}

struct SharedConn(Arc<ClientConn>);

impl Read for SharedConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self.0).read(buf)
    }
}

/// Blocking line client for the serve protocol.
struct Client {
    conn: Arc<ClientConn>,
    reader: BufReader<SharedConn>,
}

impl Client {
    fn connect(ep: &Endpoint) -> Result<Client, String> {
        let conn = Arc::new(ClientConn::connect(ep).map_err(|e| format!("connect: {e}"))?);
        let mut c = Client {
            reader: BufReader::new(SharedConn(conn.clone())),
            conn,
        };
        let banner = c.read_line()?;
        if !banner.starts_with("# serving registry") {
            return Err(format!("unexpected banner {banner:?}"));
        }
        Ok(c)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        (&*self.conn)
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut s = String::new();
        match self.reader.read_line(&mut s) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(s.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Ends the session the way the protocol asks: `quit`, then read the
    /// completion report up to its `# served` line.
    fn quit(&mut self) -> Result<(), String> {
        self.send("quit")?;
        while !self.read_line()?.starts_with("# served ") {}
        Ok(())
    }

    /// One closed-loop round: `stream` the probe file and read to this
    /// job's `+done`, checking every `+entry` against `expect`. Returns
    /// (time to first entry, time to `+done`).
    fn stream(&mut self, path: &str, expect: &Warm) -> Result<(Duration, Duration), String> {
        let t0 = Instant::now();
        self.send(&format!("stream {RUN_ID} {path}"))?;
        let queued = self.read_line()?;
        let id = queued
            .strip_prefix("queued job ")
            .and_then(|rest| rest.split(':').next())
            .ok_or_else(|| format!("stream refused: {queued}"))?
            .to_string();
        let entry = format!("+entry {id} ");
        let done = format!("+done {id} ");
        let mut ttfe = None;
        let mut seen = 0usize;
        let mut wrong = None;
        loop {
            let line = self.read_line()?;
            if let Some(payload) = line.strip_prefix(&entry) {
                ttfe.get_or_insert_with(|| t0.elapsed());
                if expect.lines.get(seen).map(String::as_str) != Some(payload) && wrong.is_none() {
                    wrong = Some(format!("entry {seen} of {path}: {payload:?}"));
                }
                seen += 1;
            } else if let Some(summary) = line.strip_prefix(&done) {
                let total = t0.elapsed();
                let want = format!("(cached), {} entries, 0 anomalies", expect.lines.len());
                if let Some(w) = wrong {
                    return Err(w);
                }
                if seen != expect.lines.len() || !summary.ends_with(&want) {
                    return Err(format!("{seen} entries then {line:?}, expected {want:?}"));
                }
                return Ok((ttfe.unwrap_or(total), total));
            } else if !line.starts_with("+progress ") {
                return Err(format!("unexpected line {line:?}"));
            }
        }
    }
}

struct Round {
    ttfe: Duration,
    total: Duration,
    variant: bool,
}

struct Load<'a> {
    inputs: &'a Inputs,
    fx: &'a Fixture,
    variants: &'a AtomicU64,
}

fn client(mix: &mut ServeMix, load: &Load<'_>, rounds: &mut Vec<Round>, errors: &mut Vec<String>) {
    let mut conn = match Client::connect(&load.fx.endpoint) {
        Ok(conn) => conn,
        Err(e) => return errors.push(e),
    };
    for (probe, variant) in mix.take(ROUNDS_PER_SEGMENT) {
        let warm = &load.fx.warm[probe];
        let path = if variant {
            let n = load.variants.fetch_add(1, Ordering::Relaxed);
            if n >= CLIENT_VARIANTS {
                errors.push("blank-line variant space exhausted".into());
                break;
            }
            let index = (load.inputs.variant_base + n) % VARIANT_SPACE;
            let path = load.fx.dir.join(format!("variant{index}.flr"));
            let src = Inputs::blank_line_variant(&warm.src, index);
            if let Err(e) = std::fs::write(&path, src) {
                errors.push(format!("write variant: {e}"));
                break;
            }
            path.to_string_lossy().into_owned()
        } else {
            warm.path.clone()
        };
        let result = {
            let _root = flor_obs::span(Category::Job, ROOT);
            conn.stream(&path, warm)
        };
        match result {
            Ok((ttfe, total)) => rounds.push(Round {
                ttfe,
                total,
                variant,
            }),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    if let Err(e) = conn.quit() {
        errors.push(e);
    }
}

/// Counters that must not move while serving, by reported name.
const ZERO_COUNTERS: [(&str, &str); 6] = [
    ("serve.replay_restores", "replay.restores"),
    ("serve.vm_dispatch", "vm.dispatch"),
    ("serve.shed", "serve.shed"),
    ("serve.stalled_drops", "serve.stalled_drops"),
    ("serve.aborted_conns", "serve.aborted_conns"),
    (
        "scheduler.sink_dropped_entries",
        "scheduler.sink_dropped_entries",
    ),
];

/// Throughput and latency of one untraced segment.
struct SegmentStats {
    qps: f64,
    ttfe_p50_ms: f64,
    ttfe_p99_ms: f64,
    beyond_p99: usize,
}

/// The serve phase, run one segment at a time between stretches of the
/// query phase, so a short stall of the host lands in one segment and
/// the reported figures — medians over segments — stay put.
pub struct Phase<'a> {
    inputs: &'a Inputs,
    trace: bool,
    mixes: Vec<ServeMix>,
    variants: AtomicU64,
    ledger: Ledger,
    /// Every round, traced or not: all are checked and counted.
    rounds: Vec<Round>,
    /// Round latencies (send → `+done`), ms, of untraced and traced
    /// segments.
    totals: [Vec<f64>; 2],
    errors: Vec<String>,
    segments: Vec<SegmentStats>,
    /// Deltas of [`ZERO_COUNTERS`], then of the cache-hit counters, summed
    /// over the segments.
    zero: [u64; 6],
    cache_hits: u64,
    slice_hits: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<'a> Phase<'a> {
    pub fn new(inputs: &'a Inputs, trace: bool) -> Phase<'a> {
        Phase {
            inputs,
            trace,
            mixes: (0..CLIENTS).map(|c| inputs.serve_mix(c)).collect(),
            variants: AtomicU64::new(0),
            ledger: Ledger::default(),
            rounds: Vec::new(),
            totals: [Vec::new(), Vec::new()],
            errors: Vec::new(),
            segments: Vec::new(),
            zero: [0; 6],
            cache_hits: 0,
            slice_hits: 0,
        }
    }

    /// Segment `index`: both clients connect to `fx`'s server, send their
    /// next [`ROUNDS_PER_SEGMENT`] requests and quit. A traced run traces
    /// every other segment, inside one trace session.
    pub fn segment(&mut self, index: usize, fx: &Fixture) {
        let before: Vec<u64> = ZERO_COUNTERS.iter().map(|(_, c)| counter(c)).collect();
        let (hits0, slice_hits0) = (counter("registry.cache_hits"), counter("cache.slice_hits"));
        let traced = self.trace && index % 2 == 1;
        let session = traced.then(flor_obs::TraceSession::start);
        let load = Load {
            inputs: self.inputs,
            fx,
            variants: &self.variants,
        };
        let mut out: Vec<(Vec<Round>, Vec<String>)> =
            (0..CLIENTS).map(|_| Default::default()).collect();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for (mix, (r, e)) in self.mixes.iter_mut().zip(out.iter_mut()) {
                let load = &load;
                s.spawn(move || client(mix, load, r, e));
            }
        });
        let elapsed = t0.elapsed();
        let n0 = self.rounds.len();
        for (r, e) in out {
            self.rounds.extend(r);
            self.errors.extend(e);
        }
        let done = &self.rounds[n0..];
        self.totals[usize::from(traced)].extend(done.iter().map(|r| ms(r.total)));
        if let Some(session) = session {
            self.ledger.add(&session.finish(), done.len() as u64);
        } else {
            let ttfe: Vec<f64> = done.iter().map(|r| ms(r.ttfe)).collect();
            self.segments.push(SegmentStats {
                qps: done.len() as f64 / elapsed.as_secs_f64(),
                ttfe_p50_ms: median(&ttfe),
                ttfe_p99_ms: percentile(&ttfe, 0.99),
                beyond_p99: beyond(&ttfe, 0.99),
            });
        }
        for (z, ((_, c), b)) in self.zero.iter_mut().zip(ZERO_COUNTERS.iter().zip(&before)) {
            *z += counter(c) - b;
        }
        self.cache_hits += counter("registry.cache_hits") - hits0;
        self.slice_hits += counter("cache.slice_hits") - slice_hits0;
    }

    pub fn finish(self, fixtures: &[Fixture], rep: &mut Report) {
        for e in &self.errors {
            rep.op(Err(format!("serve: {e}")));
        }
        rep.attempted += self.rounds.len() as u64;
        for ((name, _), z) in ZERO_COUNTERS.iter().zip(self.zero) {
            rep.zero(name, z);
        }
        let variants = self.rounds.iter().filter(|r| r.variant).count();
        rep.set(
            "registry.cache_hits_per_query",
            self.cache_hits as f64 / self.rounds.len().max(1) as f64,
        );
        rep.set(
            "cache.slice_hits_per_variant",
            self.slice_hits as f64 / variants.max(1) as f64,
        );
        let per_segment =
            |f: fn(&SegmentStats) -> f64| -> Vec<f64> { self.segments.iter().map(f).collect() };
        let (qps, p50, p99) = (
            per_segment(|s| s.qps),
            per_segment(|s| s.ttfe_p50_ms),
            per_segment(|s| s.ttfe_p99_ms),
        );
        rep.note(format!(
            "serve: {} streams, {variants} variants; untraced segments: qps {qps:.0?}, \
             ttfe p50 {p50:.3?} ms, p99 {p99:.3?} ms (>= {} samples beyond)",
            self.rounds.len(),
            self.segments
                .iter()
                .map(|s| s.beyond_p99)
                .min()
                .unwrap_or(0),
        ));
        rep.set("serve_qps", median(&qps));
        rep.set("serve_ttfe_p50_ms", median(&p50));
        rep.set("serve_ttfe_p99_ms", median(&p99));
        if !self.trace {
            return;
        }
        for (name, key) in [
            ("serve.self.accept_us", "serve.accept"),
            ("serve.self.read_us", "serve.read"),
            ("serve.self.dispatch_us", "serve.dispatch"),
            ("serve.self.write_us", "serve.write"),
        ] {
            rep.set(name, self.ledger.self_ms_per_op(key) * 1e3);
        }
        rep.set("scheduler.job_p50_us", self.ledger.p50_us("job"));
        let [untraced, traced] = &self.totals;
        rep.set("trace.overhead.serve", median(traced) / median(untraced));
        rep.trace_dropped += self.ledger.dropped;
        layer_calls(self.inputs, &fixtures[0], rep);
    }
}

fn time_us<T>(
    mut f: impl FnMut(usize) -> T,
    reps: usize,
    check: impl Fn(&T) -> bool,
) -> (f64, bool) {
    let mut us = Vec::with_capacity(reps);
    let mut ok = true;
    for i in 0..reps {
        let t0 = Instant::now();
        let out = std::hint::black_box(f(i));
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        ok &= check(&out);
    }
    (median(&us), ok)
}

/// In-process calls into the serving layers on the serve inputs.
fn layer_calls(inputs: &Inputs, fx: &Fixture, rep: &mut Report) {
    let warm = &fx.warm[0];
    let same = |r: &Result<flor_registry::QueryOutcome, flor_registry::RegistryError>| {
        r.as_ref().is_ok_and(|o| o.cached && o.log == warm.log)
    };
    let (us, ok) = time_us(
        |_| fx.registry.query(RUN_ID, &warm.src, 1),
        LAYER_REPS,
        same,
    );
    rep.set("registry.exact_hit_us", us);
    rep.op(ok
        .then_some(())
        .ok_or_else(|| "in-process exact hit".into()));

    let run = &fx.runs[0];
    let key = flor_registry::query_key(RUN_ID, run.generation, &run.source_version, &warm.src);
    let (us, ok) = time_us(
        |_| fx.registry.cache().get(&key),
        LAYER_REPS,
        |r| r.as_ref().is_some_and(|c| c.log == warm.log),
    );
    rep.set("registry.cache_get_us", us);
    rep.op(ok.then_some(()).ok_or_else(|| "QueryCache::get".into()));

    let variants: Vec<String> = (0..50)
        .map(|j| {
            let index = (inputs.variant_base + CLIENT_VARIANTS + j) % VARIANT_SPACE;
            Inputs::blank_line_variant(&warm.src, index)
        })
        .collect();
    let (us, ok) = time_us(
        |j| fx.registry.query(RUN_ID, &variants[j], 1),
        variants.len(),
        |r| same(r) && r.as_ref().is_ok_and(|o| o.slice_cache_hits == 1),
    );
    rep.set("registry.memo_hit_us", us);
    rep.op(ok
        .then_some(())
        .ok_or_else(|| "in-process slice-memo hit".into()));

    let rtt = Client::connect(&fx.endpoint).and_then(|mut c| {
        let mut us = Vec::with_capacity(LAYER_REPS);
        for _ in 0..LAYER_REPS {
            let t0 = Instant::now();
            c.send("runs")?;
            for id in RUN_IDS {
                let line = c.read_line()?;
                if !line.starts_with(&format!("run {id:?}")) {
                    return Err(format!("runs answered {line:?}"));
                }
            }
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        c.quit()?;
        Ok(median(&us))
    });
    match rtt {
        Ok(us) => {
            rep.set("serve.runs_rtt_us", us);
            rep.op(Ok(()));
        }
        Err(e) => rep.op(Err(format!("runs round trip: {e}"))),
    }
}
