//! The repository benchmark.
//!
//! ```text
//! logp-repo-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`benchmark/run.py` builds and runs it).
//! The seed fixes every input; each op of a run repeats the same work
//! and is checked against an oracle. With `--trace 0` the run reports
//! the end-to-end metrics (`wall_s`, `setup_s`, `peak_rss_mib`); with
//! `--trace 1` it alternates untraced and traced ops and reports the
//! per-layer metrics. The last stdout line is the result object; the
//! line before it is the run record (provenance and host-noise
//! diagnostics). See `benchmark/METHOD.md`.

mod host;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::OpLayers;
use workloads::Workload;

/// Fresh processes timed for `setup_s`, spread evenly over the timed
/// loop; the metric is the fastest of them.
const SETUP_PROBES: usize = 8;

/// A traced op's layer self times must account for its wall time
/// within this share.
const COVERAGE_TOLERANCE: f64 = 0.02;

/// Per-layer metrics and their units, in report order. All are
/// reported on every workload; a layer a workload does not run reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("core.plan_s", "s"),
    ("algos.bcast_s", "s"),
    ("algos.allreduce_s", "s"),
    ("sim.engine_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.outside_loop_s", "s"),
    ("sim.windows", "count"),
    ("sim.fast_forwards", "count"),
    ("sim.lane_max_share", "ratio"),
    ("sim.capacity_relaxed", "count"),
    ("sim.runs", "count"),
    ("runner.per_run_s", "s"),
    ("wl.parse_s", "s"),
    ("wl.validate_s", "s"),
    ("wl.run_s", "s"),
    ("wl.lower_s", "s"),
    ("wl.nodes", "count"),
    ("wl.text_mib", "MiB"),
    ("obs.bare_s", "s"),
    ("obs.retained_s", "s"),
    ("obs.critpath_s", "s"),
    ("obs.perfetto_s", "s"),
    ("obs.perfetto_mib", "MiB"),
    ("obs.aggregate_s", "s"),
    ("obs.retained_x", "ratio"),
    ("obs.aggregate_x", "ratio"),
    ("bench.check_s", "s"),
    ("trace.overhead_x", "ratio"),
    ("trace.coverage", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: set up, run one op, report, exit (for `setup_s`).
    probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--probe-setup" {
            a.probe = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => a.trace = v.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            a.workload
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", a.seconds));
    }
    Ok(a)
}

/// Run one op, turning a panic into a failure.
fn checked(wl: &dyn Workload) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| wl.op())) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())),
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("op failed: {e}");
            }
        }
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v` (linear interpolation between order
/// statistics); 0 for an empty `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = q * (s.len() - 1) as f64;
    let (i, f) = (x.floor() as usize, x.fract());
    s[i] + (s[(i + 1).min(s.len() - 1)] - s[i]) * f
}

/// The fastest of `v`: the host's floor for work that every sample
/// repeats exactly (see `benchmark/METHOD.md`); 0 for an empty `v`.
fn floor(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One per-layer metric of one traced op.
fn layer_value(name: &str, l: &OpLayers) -> f64 {
    match name {
        "core.plan_s" => l.incl("core.plan"),
        "algos.bcast_s" => l.incl("algos.bcast"),
        "algos.allreduce_s" => l.incl("algos.allreduce"),
        "sim.engine_s" => l.incl("sim.engine"),
        "sim.ns_per_event" => ratio(l.incl("sim.engine") * 1e9, l.counter("sim.events")),
        "sim.lane_max_share" => ratio(l.counter("lane.max_events"), l.counter("lane.total_events")),
        "runner.per_run_s" => ratio(l.incl("runner.sweep_map"), l.counter("sim.runs")),
        "wl.parse_s" => l.incl("wl.parse"),
        "wl.validate_s" => l.incl("wl.validate"),
        "wl.run_s" => l.incl("wl.run"),
        // `run_workload` validates again before it lowers and runs; the
        // first validate's time stands in for the second.
        "wl.lower_s" if l.incl("wl.run") > 0.0 => {
            (l.incl("wl.run") - l.incl("wl.validate") - l.incl("sim.engine")).max(0.0)
        }
        "obs.bare_s" => l.incl("obs.bare"),
        "obs.retained_s" => l.incl("obs.retained"),
        "obs.critpath_s" => l.incl("obs.critpath"),
        "obs.perfetto_s" => l.incl("obs.perfetto"),
        "obs.aggregate_s" => l.incl("obs.aggregate"),
        "obs.retained_x" => ratio(l.incl("obs.retained"), l.incl("obs.bare")),
        "obs.aggregate_x" => ratio(l.incl("obs.aggregate"), l.incl("obs.bare")),
        "bench.check_s" => l.incl("bench.check"),
        _ => l.counter(name),
    }
}

/// Time one fresh process from spawn to the end of its first (cold) op.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(&exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .arg("--probe-setup")
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn setup probe: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
    let elapsed = t0.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("wait for setup probe: {e}"))?;
    match (read, line.trim()) {
        (Ok(_), "ok") if status.success() => Ok(elapsed),
        (_, l) => Err(format!("setup probe: {l} ({status})")),
    }
}

fn probe(args: &Args) -> ExitCode {
    let wl = workloads::setup(&args.workload, args.seed).expect("workload name was checked");
    let line = match checked(wl.as_ref()) {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("failed: {e}"),
    };
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
    ExitCode::SUCCESS
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    let v = if value.is_finite() { value } else { 0.0 };
    let sep = if out.ends_with('{') { "" } else { "," };
    let _ = write!(
        out,
        "{sep}\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.probe {
        return probe(&args);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let root = Path::new(".");
    let (load0, steal0) = (host::loadavg(), host::steal_ticks());
    let mut tally = Tally::default();

    let wl = workloads::setup(&args.workload, args.seed).expect("workload name was checked");
    tally.record(checked(wl.as_ref())); // warm-up, not timed
    let engine = trace::last_engine();

    // The loop: untimed bookkeeping only between ops. With tracing,
    // untraced and traced ops alternate so both see the same host.
    // Without, the setup probes are spread over the loop, so that they
    // meet the same host phases as the ops; their time is not counted
    // against the budget.
    let budget = Duration::from_secs_f64(args.seconds);
    let probes = if args.trace { 0 } else { SETUP_PROBES };
    let (mut setup, mut probe_time) = (Vec::new(), Duration::ZERO);
    let oncpu0 = host::oncpu_ns();
    let start = Instant::now();
    let (mut walls, mut traced_walls, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let mut probed = 0;
    loop {
        let ops_time = start.elapsed() - probe_time;
        if probed < probes && ops_time >= budget * probed as u32 / probes as u32 {
            let t0 = Instant::now();
            let r = setup_probe(args);
            probe_time += t0.elapsed();
            probed += 1;
            if let Ok(t) = r {
                setup.push(t);
            }
            tally.record(r.map(|_| ()));
            continue;
        }
        if ops_time >= budget {
            break;
        }
        let traced = args.trace && walls.len() > traced_walls.len();
        trace::set_enabled(traced);
        let t0 = Instant::now();
        if traced {
            let (r, l) = trace::traced_op(|| checked(wl.as_ref()));
            traced_walls.push(t0.elapsed().as_secs_f64());
            if r.is_ok() {
                layers.push(l);
            }
            tally.record(r);
        } else {
            let r = checked(wl.as_ref());
            walls.push(t0.elapsed().as_secs_f64());
            tally.record(r);
        }
    }
    trace::set_enabled(false);
    let measured = (start.elapsed() - probe_time).as_secs_f64();
    // Share of the ops' time this thread spent on a CPU: well below 1
    // means the host preempted the run, near 1 with slow ops means it
    // ran slower.
    let oncpu_share = match (oncpu0, host::oncpu_ns()) {
        (Some(a), Some(b)) => ((b - a) as f64 * 1e-9 / measured).to_string(),
        _ => "null".into(),
    };

    let mut metrics = String::from("{");
    let mut correct = tally.failed == 0 && !walls.is_empty();
    let mut coverage = Vec::new();
    if args.trace {
        coverage = layers.iter().map(OpLayers::coverage).collect();
        if let Some(c) = coverage
            .iter()
            .find(|c| (*c - 1.0).abs() > COVERAGE_TOLERANCE)
        {
            eprintln!("layer self times cover {c:.4} of an op's wall time");
            correct = false;
        }
        correct &= !layers.is_empty();
        for (name, unit) in PER_LAYER {
            let v = match name {
                "trace.overhead_x" => ratio(floor(&traced_walls), floor(&walls)),
                "trace.coverage" => median(&coverage),
                _ => median(
                    &layers
                        .iter()
                        .map(|l| layer_value(name, l))
                        .collect::<Vec<_>>(),
                ),
            };
            json_metric(&mut metrics, name, v, unit);
        }
    } else {
        correct &= setup.len() == SETUP_PROBES;
        json_metric(&mut metrics, "wall_s", floor(&walls), "s");
        json_metric(&mut metrics, "setup_s", floor(&setup), "s");
        let rss = host::peak_rss_kib().unwrap_or(0) as f64 / 1024.0;
        json_metric(&mut metrics, "peak_rss_mib", rss, "MiB");
    }
    metrics.push('}');

    let q = [0.25, 0.5, 0.75].map(|x| quantile(&walls, x));
    // Median self time per span name over the traced ops.
    let mut names: Vec<&str> = layers
        .iter()
        .flat_map(|l| l.self_s.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    let self_s: Vec<String> = names
        .iter()
        .map(|n| {
            let v: Vec<f64> = layers
                .iter()
                .map(|l| l.self_s.get(n).copied().unwrap_or(0.0))
                .collect();
            format!("\"{n}\":{:?}", median(&v))
        })
        .collect();
    let config = format!(
        "{}|{}|{}|{}|{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        wl.params()
    );
    let steal = match (steal0, host::steal_ticks()) {
        (Some(a), Some(b)) => (b - a).to_string(),
        _ => "null".into(),
    };
    let record = format!(
        concat!(
            "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"params\":{},\"engine\":\"{}\",\"host_cores\":{},\"rustc\":\"{}\",",
            "\"commit\":\"{}\",\"source_hash\":\"{}\",\"config_hash\":\"{:016x}\",",
            "\"ops_timed\":{},\"ops_traced\":{},\"measured_s\":{:?},",
            "\"wall_q1\":{:?},\"wall_median\":{:?},\"wall_q3\":{:?},",
            "\"setup_samples\":{:?},\"coverage_min\":{:?},\"layer_self_s\":{{{}}},",
            "\"loadavg_start\":\"{}\",\"loadavg_end\":\"{}\",\"steal_ticks\":{},",
            "\"oncpu_share\":{},\"walls\":{:?},",
            "\"attempted\":{},\"failed\":{}}}}}"
        ),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        wl.params(),
        engine,
        host::host_cores(),
        env!("BENCH_RUSTC_VERSION"),
        host::commit(root),
        host::source_hash(root),
        host::fnv64(config.as_bytes(), host::FNV_BASIS),
        walls.len(),
        traced_walls.len(),
        measured,
        q[0],
        q[1],
        q[2],
        setup,
        coverage
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
        self_s.join(","),
        load0,
        host::loadavg(),
        steal,
        oncpu_share,
        walls,
        tally.attempted,
        tally.failed,
    );
    write_outputs(args, &record);
    println!("{record}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        tally.attempted, tally.failed
    );
    Ok(())
}

/// Append the record, and in a traced run the spans, under
/// `benchmark/out/` — once, after the timed loop.
fn write_outputs(args: &Args, record: &str) {
    let dir = Path::new("benchmark/out");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("records.jsonl"))?;
        writeln!(f, "{record}")?;
        if args.trace {
            let name = format!("spans-{}-{}.jsonl", args.workload, args.seed);
            std::fs::write(dir.join(name), trace::spans_jsonl())?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("warning: could not write {}: {e}", dir.display());
    }
}
