//! The four workloads. Each builds its inputs from the seed in `setup`
//! (untimed apart from `setup_s`), and each `op` repeats the same
//! library work and checks it against an oracle that does not share the
//! code under test.

use crate::trace::{self, span};
use logp_algos::allreduce::run_allreduce_reduce_bcast;
use logp_algos::broadcast::run_tree_broadcast;
use logp_algos::reduce::run_sum_schedule;
use logp_core::broadcast::{binomial_children, optimal_broadcast_time, optimal_broadcast_tree};
use logp_core::hier::{eval_allreduce, Hierarchy};
use logp_core::summation::{optimal_sum_schedule, procs_needed, sum_capacity_bounded};
use logp_core::{Cycles, LogP};
use logp_sim::{
    critical_path, perfetto_trace_json, sweep_map, Ctx, Message, Process, Sim, SimConfig,
    SimResult, Threads,
};
use logp_wl::{allreduce_workload, parse_workload, run_workload, to_text, UNSET};
use std::sync::Arc;

pub const NAMES: [&str; 4] = [
    "collectives_64k",
    "wl_allreduce_16k",
    "a2a_observed_256",
    "paper_sweep",
];

/// One workload: seeded inputs plus a repeatable, self-checking op.
pub trait Workload {
    /// Run the op once; `Err` names the oracle that failed.
    fn op(&self) -> Result<(), String>;
    /// The derived inputs, as a JSON object, for the run record.
    fn params(&self) -> String;
}

pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let mut rng = Rng(seed);
    Some(match name {
        "collectives_64k" => Box::new(Collectives::new(&mut rng, 65_536)),
        "wl_allreduce_16k" => Box::new(WlAllReduce::new(&mut rng, 16_384)),
        "a2a_observed_256" => Box::new(AllToAllObserved::new(&mut rng, 256, 2)),
        "paper_sweep" => Box::new(PaperSweep::new(&mut rng)),
        _ => return None,
    })
}

/// SplitMix64 stream: the benchmark's own generator, so the library
/// only ever sees the inputs drawn from it.
pub struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A machine with g in 2..=5, o in 1..=3 (o >= 1 so the DSL corpus
    /// matches the built-in programs cycle for cycle) and L drawn so the
    /// capacity ceil(L/g) is always `CAPACITY`: the engines size
    /// per-processor state by it, so a free draw would change a run's
    /// memory and time by up to 2x from seed to seed.
    fn machine(&mut self, p: u32) -> LogP {
        let g = 2 + self.below(4);
        let o = 1 + self.below(3);
        let l = CAPACITY * g - self.below(g);
        LogP::new(l, o, g, p).expect("drawn parameters are positive")
    }
}

const CAPACITY: u64 = 4;

fn machine_json(m: &LogP) -> String {
    format!(
        "{{\"L\":{},\"o\":{},\"g\":{},\"P\":{}}}",
        m.l, m.o, m.g, m.p
    )
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// Completion of the reduce-then-broadcast all-reduce (binomial tree
/// up, optimal broadcast tree down) by the analytic tree evaluator.
fn allreduce_time(m: &LogP) -> Cycles {
    let up: Vec<_> = (0..m.p).map(|q| binomial_children(q, m.p)).collect();
    let down = optimal_broadcast_tree(m).children();
    let ready = eval_allreduce(&Hierarchy::flat(m), &up, &down);
    ready.into_iter().max().unwrap_or(0)
}

/// Integer-valued inputs, so every summation order gives the exact sum.
fn int_values(rng: &mut Rng, n: u32) -> (Vec<f64>, f64) {
    let v: Vec<u64> = (0..n).map(|_| rng.below(1 << 20)).collect();
    let sum = v.iter().sum::<u64>() as f64;
    (v.into_iter().map(|x| x as f64).collect(), sum)
}

// ---------------------------------------------------------------------
// collectives_64k: the scale path on the serial lane engine.
// ---------------------------------------------------------------------

struct Collectives {
    m: LogP,
    values: Vec<f64>,
    sum: f64,
    bcast_time: Cycles,
    allreduce_time: Cycles,
}

impl Collectives {
    fn new(rng: &mut Rng, p: u32) -> Self {
        let m = rng.machine(p);
        let (values, sum) = int_values(rng, p);
        Collectives {
            m,
            values,
            sum,
            bcast_time: optimal_broadcast_time(&m),
            allreduce_time: allreduce_time(&m),
        }
    }
}

fn lanes() -> SimConfig {
    SimConfig::default().with_shards(4)
}

impl Workload for Collectives {
    fn op(&self) -> Result<(), String> {
        let m = &self.m;
        let children = span("core.plan", || optimal_broadcast_tree(m).children());
        let bcast = span("algos.bcast", || {
            let r = run_tree_broadcast(m, &children, lanes());
            trace::engine(&r.result.vitals, true);
            r
        });
        let ar = span("algos.allreduce", || {
            let r = run_allreduce_reduce_bcast(m, &self.values, lanes());
            trace::engine(&r.result.vitals, true);
            r
        });
        span("bench.check", || {
            let ok = expect_eq("broadcast completion", bcast.completion, self.bcast_time)
                .and(expect_eq(
                    "broadcast messages",
                    bcast.messages,
                    m.p as u64 - 1,
                ))
                .and(expect_eq(
                    "all-reduce completion",
                    ar.completion,
                    self.allreduce_time,
                ))
                .and(expect_eq("all-reduce value", ar.value, self.sum));
            drop((children, bcast, ar));
            ok
        })
    }

    fn params(&self) -> String {
        format!("{{\"machine\":{},\"shards\":4}}", machine_json(&self.m))
    }
}

// ---------------------------------------------------------------------
// wl_allreduce_16k: a `.wl` program from text to checked result.
// ---------------------------------------------------------------------

struct WlAllReduce {
    m: LogP,
    text: String,
    nodes: usize,
    completion: Cycles,
    messages: u64,
}

impl WlAllReduce {
    fn new(rng: &mut Rng, p: u32) -> Self {
        let m = rng.machine(p);
        let wl = allreduce_workload(&m);
        let native = run_allreduce_reduce_bcast(&m, &vec![0.0; p as usize], SimConfig::default());
        WlAllReduce {
            m,
            text: to_text(&wl),
            nodes: wl.nodes.len(),
            completion: native.completion,
            messages: native.messages,
        }
    }
}

impl Workload for WlAllReduce {
    fn op(&self) -> Result<(), String> {
        trace::count("wl.nodes", self.nodes as f64);
        trace::count("wl.text_mib", self.text.len() as f64 / (1 << 20) as f64);
        let wl =
            span("wl.parse", || parse_workload(&self.text)).map_err(|e| format!("parse: {e}"))?;
        span("wl.validate", || wl.validate()).map_err(|e| format!("validate: {e}"))?;
        let run = span("wl.run", || {
            let r = run_workload(&wl, &self.m, SimConfig::default());
            if let Ok(r) = &r {
                trace::engine(&r.result.vitals, false);
            }
            r
        })
        .map_err(|e| format!("run: {e}"))?;
        span("bench.check", || {
            let ok = expect_eq("completion", run.completion, self.completion)
                .and(expect_eq(
                    "messages",
                    run.result.stats.total_msgs,
                    self.messages,
                ))
                .and(expect_eq("nodes run", run.node_times.len(), self.nodes))
                .and(expect_eq(
                    "nodes never completed",
                    run.node_times.iter().filter(|&&t| t == UNSET).count(),
                    0,
                ));
            drop((wl, run));
            ok
        })
    }

    fn params(&self) -> String {
        format!(
            "{{\"machine\":{},\"nodes\":{},\"text_bytes\":{}}}",
            machine_json(&self.m),
            self.nodes,
            self.text.len()
        )
    }
}

// ---------------------------------------------------------------------
// a2a_observed_256: one all-to-all run bare, retained and aggregated.
// ---------------------------------------------------------------------

/// Every processor sends one word to every other, `rounds` times; a
/// round starts once the previous round's P−1 messages are in. Step k
/// of processor `me` goes to `(me + order[k]) % P`, so each step is a
/// permutation (no hot spot) whatever order the seed draws.
struct AllToAll {
    order: Arc<Vec<u32>>,
    rounds: u32,
    done: u32,
    got: u32,
}

impl AllToAll {
    fn blast(&self, ctx: &mut Ctx<'_>) {
        let (me, p) = (ctx.me(), ctx.procs());
        for &k in self.order.iter() {
            ctx.send((me + k) % p, 0, logp_sim::Data::Empty);
        }
    }
}

impl Process for AllToAll {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.blast(ctx);
    }

    fn on_message(&mut self, _msg: &Message, ctx: &mut Ctx<'_>) {
        self.got += 1;
        if self.got as usize == self.order.len() {
            self.got = 0;
            self.done += 1;
            if self.done < self.rounds {
                self.blast(ctx);
            }
        }
    }
}

struct AllToAllObserved {
    m: LogP,
    order: Arc<Vec<u32>>,
    rounds: u32,
}

impl AllToAllObserved {
    fn new(rng: &mut Rng, p: u32, rounds: u32) -> Self {
        let mut order: Vec<u32> = (1..p).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        AllToAllObserved {
            m: LogP::new(6, 2, 4, p).expect("valid machine"),
            order: Arc::new(order),
            rounds,
        }
    }

    fn run(&self, config: SimConfig) -> SimResult {
        let mut sim = Sim::new(self.m, config);
        sim.set_all(|_| {
            Box::new(AllToAll {
                order: self.order.clone(),
                rounds: self.rounds,
                done: 0,
                got: 0,
            })
        });
        let r = sim.run().expect("all-to-all terminates");
        trace::engine(&r.vitals, true);
        r
    }
}

impl Workload for AllToAllObserved {
    fn op(&self) -> Result<(), String> {
        let bare = span("obs.bare", || self.run(SimConfig::default()));
        let retained = span("obs.retained", || self.run(SimConfig::observed()));
        let path = span("obs.critpath", || critical_path(&retained));
        span("obs.perfetto", || {
            let json = perfetto_trace_json(&retained);
            trace::count("obs.perfetto_mib", json.len() as f64 / (1 << 20) as f64);
        });
        let agg = span("obs.aggregate", || {
            self.run(SimConfig::default().with_aggregate(true))
        });
        span("bench.check", || {
            let completion = bare.stats.completion;
            let ok = expect_eq("retained stats", &retained.stats, &bare.stats)
                .and(expect_eq("aggregate stats", &agg.stats, &bare.stats))
                .and(expect_eq(
                    "critical_path total",
                    path.as_ref().map(|c| c.total),
                    Some(completion),
                ))
                .and(expect_eq(
                    "aggregate critical_total",
                    agg.aggregate.as_ref().map(|a| a.critical_total),
                    Some(completion),
                ));
            drop((bare, retained, path, agg));
            ok
        })
    }

    fn params(&self) -> String {
        format!(
            "{{\"machine\":{},\"rounds\":{},\"order_head\":{:?}}}",
            machine_json(&self.m),
            self.rounds,
            &self.order[..8]
        )
    }
}

// ---------------------------------------------------------------------
// paper_sweep: many small runs through the sweep runner.
// ---------------------------------------------------------------------

struct Point {
    m: LogP,
    values: Vec<f64>,
    sum: f64,
    bcast_time: Cycles,
    allreduce_time: Cycles,
    /// Summation deadline and the inputs the optimal schedule sums by
    /// then (points with P <= `SUM_MAX_P` only).
    summation: Option<(Cycles, u64)>,
}

struct PaperSweep {
    points: Vec<Point>,
}

const SWEEP_MACHINES: usize = 8;
const SWEEP_P: [u32; 10] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
/// `optimal_sum_schedule` grows about 6x per doubling of P (0.25-0.5 ms
/// at P = 64, 1.3-3 ms at 128, 6-24 ms at 256 and 0.12 s at 512 on a
/// 2-core host, varying 2-4x with the machine), so larger summation
/// points would turn the sweep into a seed-dependent plan benchmark.
const SUM_MAX_P: u32 = 64;

impl PaperSweep {
    fn new(rng: &mut Rng) -> Self {
        let mut points = Vec::new();
        for _ in 0..SWEEP_MACHINES {
            let base = rng.machine(2);
            for p in SWEEP_P {
                let m = base.with_p(p);
                let (values, sum) = int_values(rng, p);
                // The largest budget whose unbounded optimal schedule
                // fits on P processors.
                let summation = (p <= SUM_MAX_P).then(|| {
                    let t = (1..)
                        .find(|&t| procs_needed(&m, t + 1) > p as u64)
                        .expect("procs_needed grows without bound");
                    (t, sum_capacity_bounded(&m, t, p))
                });
                points.push(Point {
                    m,
                    values,
                    sum,
                    bcast_time: optimal_broadcast_time(&m),
                    allreduce_time: allreduce_time(&m),
                    summation,
                });
            }
        }
        PaperSweep { points }
    }
}

fn sweep_point(pt: &Point) -> Result<(), String> {
    let m = &pt.m;
    let (children, sched) = span("core.plan", || {
        (
            optimal_broadcast_tree(m).children(),
            pt.summation.map(|(t, _)| optimal_sum_schedule(m, t)),
        )
    });
    let bcast = span("algos.bcast", || {
        let r = run_tree_broadcast(m, &children, SimConfig::default());
        trace::engine(&r.result.vitals, true);
        r
    });
    let sum = sched.as_ref().map(|sched| {
        span("algos.sum", || {
            let r = run_sum_schedule(sched, SimConfig::default());
            trace::engine(&r.result.vitals, true);
            r
        })
    });
    let ar = span("algos.allreduce", || {
        let r = run_allreduce_reduce_bcast(m, &pt.values, SimConfig::default());
        trace::engine(&r.result.vitals, true);
        r
    });
    span("bench.check", || {
        let mut ok = expect_eq("broadcast completion", bcast.completion, pt.bcast_time)
            .and(expect_eq(
                "all-reduce completion",
                ar.completion,
                pt.allreduce_time,
            ))
            .and(expect_eq("all-reduce value", ar.value, pt.sum));
        if let (Some(sum), Some((t, n))) = (&sum, pt.summation) {
            ok = ok
                .and(expect_eq("summation completion", sum.completion, t))
                .and(expect_eq("summation inputs", sum.inputs, n))
                .and(expect_eq(
                    "summation total",
                    sum.total,
                    (n * (n - 1) / 2) as f64,
                ));
        }
        drop((children, sched, bcast, sum, ar));
        ok.map_err(|e| format!("{e} at {}", machine_json(m)))
    })
}

impl Workload for PaperSweep {
    fn op(&self) -> Result<(), String> {
        let results = span("runner.sweep_map", || {
            sweep_map(Threads::Fixed(1), &self.points, sweep_point)
        });
        results.into_iter().collect()
    }

    fn params(&self) -> String {
        let machines: Vec<String> = self
            .points
            .iter()
            .step_by(SWEEP_P.len())
            .map(|pt| format!("{{\"L\":{},\"o\":{},\"g\":{}}}", pt.m.l, pt.m.o, pt.m.g))
            .collect();
        format!(
            "{{\"machines\":[{}],\"P\":{:?},\"sum_max_p\":{}}}",
            machines.join(","),
            SWEEP_P,
            SUM_MAX_P
        )
    }
}
