//! The DAG interpreter: a [`Process`] that executes any validated
//! [`Workload`] on the simulator — classic or sharded engine, any lane
//! and worker count, with identical results.
//!
//! Execution model (the task-graph idiom): a node *fires* once every
//! dependency has completed — explicit `after:` edges, the implicit
//! same-channel send→recv pairing, and the implicit barrier fence (a
//! barrier waits for every earlier node on its processor and gates
//! every later one). Ready nodes on one processor fire in
//! declaration order, so a workload's node order is part of its
//! semantics (exactly like statement order inside a hand-written
//! handler). Sends complete at issue (the engine then charges `o` and
//! paces the gap), computes complete at `on_compute_done`, timers at
//! `on_timer`, barriers at `on_barrier_release`, and recvs when their
//! matching message is delivered.
//!
//! Determinism: the interpreter keeps no clocks, no randomness, and no
//! host-order-dependent state; everything it does is a pure function of
//! the engine's deterministic callback sequence, so workload runs are
//! bit-identical across thread counts, lane counts, and worker counts —
//! the same bar as every built-in `Process`.

use crate::ir::{NodeId, Op, WlError, Workload};
use logp_core::hier::Hierarchy;
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Message, ProcStats, Process, SharedCell, Sim, SimConfig, SimError, SimResult};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// Completion-time slot for a node that never completed.
pub const UNSET: Cycles = Cycles::MAX;

/// The per-processor slice of a compiled workload.
#[derive(Debug, Default)]
struct ProcPlan {
    /// Operations in declaration order (local index order).
    ops: Vec<Op>,
    /// Global [`NodeId`] of each local node.
    global: Vec<NodeId>,
    /// In-degree of each local node (explicit deps + implicit barrier
    /// fences; channel pairing is tracked by delivery, not counted).
    indeg: Vec<u32>,
    /// Local successors of each local node.
    succs: Vec<Vec<u32>>,
    /// Recv nodes per `(src, tag)` channel, in declaration order: the
    /// i-th delivery on the channel satisfies the i-th entry.
    chans: HashMap<(ProcId, u32), Vec<u32>>,
}

/// A workload compiled into per-processor plans, shareable across the
/// engine's worker threads.
#[derive(Debug, Clone)]
pub struct Compiled {
    plans: Vec<Arc<ProcPlan>>,
    node_count: usize,
}

/// Split a validated workload into per-processor plans.
fn compile(wl: &Workload) -> Compiled {
    let mut plans: Vec<ProcPlan> = (0..wl.procs).map(|_| ProcPlan::default()).collect();
    let mut local_of = vec![0u32; wl.nodes.len()];
    for node in &wl.nodes {
        let pp = &mut plans[node.proc as usize];
        let li = pp.ops.len() as u32;
        local_of[node.id as usize] = li;
        pp.ops.push(node.op.clone());
        pp.global.push(node.id);
        pp.indeg.push(0);
        pp.succs.push(Vec::new());
        if let Op::Recv { src, tag } = node.op {
            pp.chans.entry((src, tag)).or_default().push(li);
        }
    }
    for node in &wl.nodes {
        let pp = &mut plans[node.proc as usize];
        let li = local_of[node.id as usize];
        for &d in &node.deps {
            // The validator guarantees deps stay on one processor.
            let dl = local_of[d as usize];
            pp.succs[dl as usize].push(li);
            pp.indeg[li as usize] += 1;
        }
    }
    // A barrier is a full fence on its processor: every earlier node
    // completes before the barrier fires (otherwise a later-ready send
    // could queue up behind the barrier command and starve another
    // processor into deadlock), and no later node fires before the
    // release. The fence also orders a processor's barrier rounds, so
    // round k matches up across processors. Duplicate edges with
    // explicit `after:` lists are harmless: each `succs` entry pairs
    // with one `indeg` increment.
    for pp in &mut plans {
        let mut segment: Vec<u32> = Vec::new();
        let mut last_barrier: Option<u32> = None;
        for li in 0..pp.ops.len() as u32 {
            if matches!(pp.ops[li as usize], Op::Barrier) {
                for &s in &segment {
                    pp.succs[s as usize].push(li);
                    pp.indeg[li as usize] += 1;
                }
                segment.clear();
            } else {
                segment.push(li);
            }
            if let Some(b) = last_barrier {
                pp.succs[b as usize].push(li);
                pp.indeg[li as usize] += 1;
            }
            if matches!(pp.ops[li as usize], Op::Barrier) {
                last_barrier = Some(li);
            }
        }
    }
    Compiled {
        plans: plans.into_iter().map(Arc::new).collect(),
        node_count: wl.nodes.len(),
    }
}

/// The interpreter: one per processor, all sharing a compiled plan.
struct WlProc {
    plan: Arc<ProcPlan>,
    /// Unfinished dependency count per local node.
    deps_left: Vec<u32>,
    /// Node completed.
    done: Vec<bool>,
    /// Recv delivered (may precede readiness).
    delivered: Vec<bool>,
    /// Next unsatisfied recv per channel (index into `plan.chans`).
    chan_next: HashMap<(ProcId, u32), usize>,
    /// Barrier nodes entered but not yet released, FIFO.
    barrier_fifo: VecDeque<u32>,
    remaining: usize,
    halted: bool,
    /// Per-node completion cycle, indexed by global [`NodeId`].
    times: SharedCell<Vec<Cycles>>,
    /// Deliveries with no matching recv left on their channel.
    unmatched: SharedCell<u64>,
}

impl WlProc {
    fn new(
        plan: Arc<ProcPlan>,
        times: SharedCell<Vec<Cycles>>,
        unmatched: SharedCell<u64>,
    ) -> Self {
        let n = plan.ops.len();
        WlProc {
            deps_left: plan.indeg.clone(),
            done: vec![false; n],
            delivered: vec![false; n],
            chan_next: HashMap::new(),
            barrier_fifo: VecDeque::new(),
            remaining: n,
            halted: false,
            times,
            unmatched,
            plan,
        }
    }

    /// Mark a node complete and collect newly ready successors.
    fn finish(&mut self, li: u32, ctx: &mut Ctx<'_>, ready: &mut BTreeSet<u32>) {
        let i = li as usize;
        if self.done[i] {
            return;
        }
        self.done[i] = true;
        self.remaining -= 1;
        let id = self.plan.global[i] as usize;
        let now = ctx.now();
        self.times.with(|t| t[id] = now);
        let plan = self.plan.clone();
        for &s in &plan.succs[i] {
            let d = &mut self.deps_left[s as usize];
            *d -= 1;
            if *d == 0 {
                ready.insert(s);
            }
        }
    }

    /// Issue a ready node's operation.
    fn fire(&mut self, li: u32, ctx: &mut Ctx<'_>, ready: &mut BTreeSet<u32>) {
        let op = self.plan.ops[li as usize].clone();
        match op {
            Op::Send { dst, tag, payload } => {
                ctx.send(dst, tag, payload.to_data());
                self.finish(li, ctx, ready);
            }
            Op::Recv { .. } => {
                if self.delivered[li as usize] {
                    self.finish(li, ctx, ready);
                }
                // Otherwise wait for on_message; deps_left is already 0,
                // so delivery alone completes the node.
            }
            Op::Compute { cycles } => ctx.compute(cycles, li as u64),
            Op::Timer { cycles } => ctx.timer(cycles, li as u64),
            Op::Barrier => {
                ctx.barrier();
                self.barrier_fifo.push_back(li);
            }
        }
    }

    /// Fire ready nodes in local (declaration) order until quiescent,
    /// then halt if the plan is exhausted.
    fn drive(&mut self, mut ready: BTreeSet<u32>, ctx: &mut Ctx<'_>) {
        while let Some(li) = ready.pop_first() {
            self.fire(li, ctx, &mut ready);
        }
        if self.remaining == 0 && !self.halted {
            self.halted = true;
            ctx.halt();
        }
    }
}

impl Process for WlProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let ready: BTreeSet<u32> = (0..self.deps_left.len() as u32)
            .filter(|&li| self.deps_left[li as usize] == 0)
            .collect();
        self.drive(ready, ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let key = (msg.src, msg.tag);
        let slot = self.chan_next.entry(key).or_insert(0);
        let Some(&li) = self.plan.chans.get(&key).and_then(|c| c.get(*slot)) else {
            // No recv left on this channel (stray or duplicated message).
            self.unmatched.with(|u| *u += 1);
            return;
        };
        *slot += 1;
        self.delivered[li as usize] = true;
        if self.deps_left[li as usize] == 0 && !self.done[li as usize] {
            let mut ready = BTreeSet::new();
            self.finish(li, ctx, &mut ready);
            self.drive(ready, ctx);
        }
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        let mut ready = BTreeSet::new();
        self.finish(tag as u32, ctx, &mut ready);
        self.drive(ready, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        let mut ready = BTreeSet::new();
        self.finish(tag as u32, ctx, &mut ready);
        self.drive(ready, ctx);
    }

    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(li) = self.barrier_fifo.pop_front() {
            let mut ready = BTreeSet::new();
            self.finish(li, ctx, &mut ready);
            self.drive(ready, ctx);
        }
    }
}

/// Why a workload run failed.
#[derive(Debug)]
pub enum WlRunError {
    /// The workload failed validation (never reached the engine).
    Invalid(WlError),
    /// The engine rejected the run.
    Sim(SimError),
    /// The run quiesced with nodes never completing — a recv whose
    /// message the fault plan dropped, or a crashed processor's
    /// unfinished schedule.
    Incomplete {
        /// Label of the first (declaration-order) unfinished node.
        node: String,
        /// Processor it was assigned to.
        proc: ProcId,
        /// Nodes that did complete.
        completed: usize,
        /// Total nodes in the workload.
        total: usize,
    },
}

impl std::fmt::Display for WlRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WlRunError::Invalid(e) => write!(f, "invalid workload: {e}"),
            WlRunError::Sim(e) => write!(f, "simulation failed: {e}"),
            WlRunError::Incomplete {
                node,
                proc,
                completed,
                total,
            } => write!(
                f,
                "run quiesced with {completed}/{total} nodes complete; \
                 first unfinished: `{node}` on processor {proc}"
            ),
        }
    }
}

impl std::error::Error for WlRunError {}

/// Result of interpreting a workload.
#[derive(Debug)]
pub struct WlRun {
    /// Completion time of the whole run (last event).
    pub completion: Cycles,
    /// Completion cycle of every node, indexed by [`NodeId`].
    pub node_times: Vec<Cycles>,
    /// Deliveries that matched no recv (0 unless the fault plan
    /// duplicates messages).
    pub unmatched: u64,
    /// The engine's full result (stats, trace, observability).
    pub result: SimResult,
}

/// Interpret a workload on machine `m` (re-dimensioned to the
/// workload's processor count) under `config` — classic engine by
/// default, sharded with [`SimConfig::with_shards`]. Validates first;
/// never panics on bad input.
pub fn run_workload(wl: &Workload, m: &LogP, config: SimConfig) -> Result<WlRun, WlRunError> {
    wl.validate().map_err(WlRunError::Invalid)?;
    let machine = m.with_p(wl.procs);
    run_on(wl, Sim::new(machine, config))
}

/// Interpret a workload on a hierarchical machine: every message pays
/// the (L, o, g) of its endpoints' lowest common level, per-level
/// capacity windows apply, and sharded lanes align to topology
/// boundaries. Unlike [`run_workload`], the machine is not
/// re-dimensioned — a hierarchy's shape is its processor count, so
/// `wl.procs` must equal `h.p()`.
pub fn run_workload_hier(
    wl: &Workload,
    h: &Hierarchy,
    config: SimConfig,
) -> Result<WlRun, WlRunError> {
    wl.validate().map_err(WlRunError::Invalid)?;
    if wl.procs != h.p() {
        return Err(WlRunError::Invalid(WlError {
            line: 0,
            col: 0,
            msg: format!(
                "workload uses {} processors but the hierarchy has {}",
                wl.procs,
                h.p()
            ),
            help: Some("size the workload's `procs` to the hierarchy's total rank count".into()),
        }));
    }
    run_on(wl, Sim::new_hier(h, config))
}

fn run_on(wl: &Workload, mut sim: Sim) -> Result<WlRun, WlRunError> {
    let compiled = compile(wl);
    let times = SharedCell::of(vec![UNSET; compiled.node_count]);
    let unmatched = SharedCell::of(0u64);
    sim.set_all(|p| {
        Box::new(WlProc::new(
            compiled.plans[p as usize].clone(),
            times.clone(),
            unmatched.clone(),
        ))
    });
    let result = sim.run().map_err(WlRunError::Sim)?;
    let node_times = times.get();
    if let Some(i) = node_times.iter().position(|&t| t == UNSET) {
        let completed = node_times.iter().filter(|&&t| t != UNSET).count();
        return Err(WlRunError::Incomplete {
            node: wl.nodes[i].label.clone(),
            proc: wl.nodes[i].proc,
            completed,
            total: node_times.len(),
        });
    }
    Ok(WlRun {
        completion: result.stats.completion,
        node_times,
        unmatched: unmatched.get(),
        result,
    })
}

/// The engine-independent projection of a run, for classic-vs-sharded
/// comparisons: completion, delivered/dropped message counts, and
/// per-processor cycle accounting. (Raw event counts differ across
/// engines by design — the sharded engine elides `Release` events.)
pub fn projection(r: &SimResult) -> (Cycles, u64, u64, Vec<ProcStats>) {
    (
        r.stats.completion,
        r.stats.total_msgs,
        r.stats.msgs_dropped,
        r.stats.procs.clone(),
    )
}
