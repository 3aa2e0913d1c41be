//! End-to-end benchmark for flor-rs.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload base --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One run sets up a recorded fixture five times (reporting the median
//! set-up time), then measures three phases in turn on the workload's
//! training script — record, fresh hindsight queries, cached serving —
//! checks every answer, and prints one JSON result line. `--trace 1`
//! runs the same phases with every other operation traced and prints
//! the per-layer ledger instead of the end-to-end metrics. See
//! `e2ebench/README.md` for what each metric means.

mod fixture;
mod inputs;
mod layers;
mod ledger;
mod query;
mod record;
mod report;
mod serve;
mod stats;

use fixture::Fixture;
use inputs::{Inputs, Shape};
use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Share of `--seconds` the record and query phases measure for; the
/// serve phase sends a fixed number of requests (a few seconds).
const RECORD_SHARE: f64 = 0.3;
const QUERY_SHARE: f64 = 0.6;

struct Args {
    workload: String,
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let shape = Shape::for_workload(&workload)
        .ok_or_else(|| format!("unknown workload {workload:?} (base, wide)"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        shape,
        seed,
        seconds,
        trace,
    })
}

/// The run's scratch directory inside the working directory, removed
/// when the run ends however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly if another run
        // still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    let inputs = Inputs::generate(args.shape, args.seed);
    let mut rep = Report::default();

    let mut setups = Vec::new();
    let mut fixtures: Vec<Fixture> = Vec::new();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        match Fixture::build(&inputs, &work.0.join(format!("setup{i}"))) {
            Ok(fx) => fixtures.push(fx),
            Err(e) => {
                rep.op(Err(format!("set-up: {e}")));
                fixtures.into_iter().for_each(Fixture::teardown);
                drop(work);
                return rep.print(args.trace);
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    rep.set("setup_s", stats::median(&setups));
    rep.note(format!("set-up: {setups:?} s"));

    let seconds = |share: f64| Duration::from_secs_f64(args.seconds * share);
    record::run(
        &inputs,
        &work.0.join("record"),
        seconds(RECORD_SHARE),
        args.trace,
        &mut rep,
    );
    // The serve phase runs one segment per set-up's server, spread over
    // the query phase.
    let mut serve = serve::Phase::new(&inputs, args.trace);
    query::run(
        &inputs,
        &fixtures,
        seconds(QUERY_SHARE),
        args.trace,
        &mut rep,
        fixtures.len(),
        |i| serve.segment(i, &fixtures[i]),
    );
    serve.finish(&fixtures, &mut rep);
    if args.trace {
        layers::run(&inputs, &fixtures[0], &mut rep);
        let dropped = rep.trace_dropped;
        rep.zero("trace.dropped_events", dropped);
    }
    fixtures.into_iter().for_each(Fixture::teardown);
    match peak_rss_mb() {
        Some(mb) => rep.set("peak_rss_mb", mb),
        None => rep.op(Err("cannot read peak RSS from /proc/self/status".into())),
    }
    drop(work);
    rep.print(args.trace);
}
