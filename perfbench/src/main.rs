//! The repository benchmark.
//!
//! Drives each layer of the workspace only through its public API, on
//! one of four workloads, and prints one JSON object on the last line
//! of standard output. `README.md` next to this package explains the
//! workloads, the metrics, and which layer metric should move which
//! end-to-end metric.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Every run repeats one fixed *operation* until `--seconds` have
//! passed: build the system (timed as set-up), fill the pipeline
//! (untimed), run a fixed number of cycles or one exhaustive
//! exploration (the timed span), then check the result against the
//! oracle (untimed). Each operation does identical work, so the exact
//! work counters of every operation must agree, and the metrics are
//! medians over operations.

use lis_netlist::Module;
use lis_proto::{AccumulatorPearl, Pearl, ViolationCounter};
use lis_schedule::compress;
use lis_sim::{
    JitNetlistProgram, JitNetlistSim, JitPackedNetlistSim, PortHandle, SchedulerStats, SimError,
    WorkStealingPool,
};
use lis_topo::{
    expected_sink_streams, fleet_scenario, stream_checksum, FleetScenario, FleetTopologyBuilder,
    NodeModel, SyncVariant, TopologyBuilder, TopologyShape, TopologySpec, TrafficPattern,
};
use lis_verify::{build_config, explore_pool, ExploreOptions, JoinPearl};
use lis_wrappers::{assemble_full_wrapper, generate_sp};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The E7 stress mesh: 8×8 gate-level SP-compressed shells, compute
/// latency 2, hop 6 over a latency budget of 2 (two relay stations per
/// link).
const MESH_SIDE: usize = 8;
const COMPUTE_LATENCY: usize = 2;
const HOP_DISTANCE: u32 = 6;
const RELAY_BUDGET: u32 = 2;
/// Scenario lanes of the fleet workload: one full packed batch.
const FLEET_LANES: usize = 64;
/// The protocol-checker workload: the join configuration at depth 18.
const VERIFY_CONFIG: &str = "spj";
const VERIFY_DEPTH: u32 = 18;
/// Fewest operations of each kind one run measures: medians need at
/// least three samples.
const MIN_OPS: usize = 3;
/// Cycles the shell probes step a lone shell per repetition, and the
/// repetitions whose median they report.
const PROBE_CYCLES: u64 = 20_000;
const PROBE_REPS: usize = 5;

#[derive(Clone, Copy)]
enum Kind {
    Mesh(TrafficPattern),
    Fleet,
    Verify,
}

/// One workload. Thread counts are fixed here and never read from the
/// machine.
struct Workload {
    name: &'static str,
    kind: Kind,
    /// Stall seed the recorded census belongs to.
    default_seed: u64,
    /// Untimed pipeline-fill cycles before the timed span.
    fill: u64,
    /// Cycles of the timed span.
    cycles: u64,
    /// Cycles one traced `run` call advances.
    chunk: u64,
    /// Evaluation threads (solo kernel pool, fleet pool, or verifier
    /// twins).
    threads: usize,
    /// Tokens delivered and stream checksum at the default seed; for
    /// the verifier, states and transitions of the clean exploration.
    census: (u64, u64),
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mesh-bursty",
        kind: Kind::Mesh(TrafficPattern::Bursty { stall: 0.3 }),
        default_seed: 7,
        fill: 256,
        cycles: 2_048,
        chunk: 256,
        threads: 1,
        census: (8_891, 0x8607_a7e6_2bc2_c82c),
    },
    Workload {
        name: "mesh-backpressured",
        kind: Kind::Mesh(TrafficPattern::BackPressured { stall: 0.95 }),
        default_seed: 7,
        fill: 256,
        cycles: 8_192,
        chunk: 1_024,
        threads: 1,
        census: (5_780, 0x46af_a58b_5f70_5b70),
    },
    Workload {
        name: "fleet-mixed64",
        kind: Kind::Fleet,
        default_seed: 11,
        fill: 128,
        cycles: 256,
        chunk: 64,
        threads: 1,
        census: (75_417, 0x1662_e0e5_dda0_7b2d),
    },
    Workload {
        name: "verify-spj",
        kind: Kind::Verify,
        default_seed: 0,
        fill: 0,
        cycles: 0,
        chunk: 0,
        threads: 2,
        census: (176_046, 1_073_900),
    },
];

impl Workload {
    /// Tokens each source offers: a source emits at most one token per
    /// cycle, so fill plus timed cycles can never run it dry.
    fn tokens_per_source(&self) -> usize {
        (self.fill + self.cycles) as usize
    }

    /// The mesh spec; the fleet substitutes traffic and seed per lane.
    fn spec(&self, seed: u64) -> TopologySpec {
        let traffic = match self.kind {
            Kind::Mesh(traffic) => traffic,
            _ => TrafficPattern::Streaming,
        };
        TopologySpec {
            shape: TopologyShape::Mesh {
                rows: MESH_SIDE,
                cols: MESH_SIDE,
            },
            compute_latency: COMPUTE_LATENCY,
            hop_distance: HOP_DISTANCE,
            relay_budget: RELAY_BUDGET,
            wire_segments: 0,
            traffic,
            model: NodeModel::GateLevel,
            variant: SyncVariant::SpCompressed,
            tokens_per_source: self.tokens_per_source(),
            seed,
        }
    }

    /// The workload's pearls, one per shell, as the builders wrap them.
    fn pearls(&self) -> Vec<Box<dyn Pearl>> {
        match self.kind {
            Kind::Verify => vec![Box::new(JoinPearl::new(
                "join",
                2,
                1,
                &ViolationCounter::new(),
            ))],
            _ => (0..MESH_SIDE * MESH_SIDE)
                .map(|i| {
                    Box::new(AccumulatorPearl::new(
                        format!("n{}_{}", i / MESH_SIDE, i % MESH_SIDE),
                        2,
                        2,
                        COMPUTE_LATENCY,
                    )) as Box<dyn Pearl>
                })
                .collect(),
        }
    }
}

/// One closed span: a public call the benchmark made.
struct Span {
    layer: &'static str,
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder; a no-op unless switched on.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, layer: &'static str, name: &'static str) {
        if self.on {
            let now = self.origin.elapsed();
            self.spans.push(Span {
                layer,
                name,
                parent: self.open.last().copied(),
                start: now,
                end: now,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Closes every span opened above `depth` (after an operation
    /// failed part-way).
    fn unwind(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(layer, name);
        let r = f();
        self.exit();
        r
    }

    /// Self time of every span: its duration minus what its children
    /// cover.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        own
    }

    /// The spans as JSON, with self time per span and per layer.
    fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_times();
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_s\":{},\"dur_s\":{},\"self_s\":{}}}",
                if i == 0 { "" } else { "," },
                s.layer,
                s.name,
                s.start.as_secs_f64(),
                (s.end - s.start).as_secs_f64(),
                own[i],
            );
        }
        out.push_str("],\"self_s_by_call\":{");
        for (i, ((layer, name), total)) in self.by_call(&own).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{layer} {name}\":{total}");
        }
        out.push_str("}}");
        out
    }

    /// Self time summed per (layer, call), in first-seen order.
    fn by_call(&self, own: &[f64]) -> Vec<((&'static str, &'static str), f64)> {
        let mut totals: Vec<((&'static str, &'static str), f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match totals.iter_mut().find(|(k, _)| *k == (s.layer, s.name)) {
                Some((_, total)) => *total += t,
                None => totals.push(((s.layer, s.name), *t)),
            }
        }
        totals
    }
}

/// One completed operation.
struct Op {
    /// Host seconds to build the system.
    setup_s: f64,
    /// Host seconds of the timed span.
    run_s: f64,
    /// Scenario-cycles simulated in the timed span (for the verifier,
    /// one explored transition is one cycle of one scenario).
    work: f64,
    /// Exact work counters and census values.
    counters: Vec<(&'static str, u64)>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn sim_err(e: SimError) -> String {
    format!("simulation error: {e}")
}

/// Runs `cycles` through `run`: in one call untraced, in `chunk`-cycle
/// spans traced.
fn run_chunked(
    tr: &mut Tracer,
    cycles: u64,
    chunk: u64,
    name: &'static str,
    mut run: impl FnMut(u64) -> Result<(), SimError>,
) -> Result<(), String> {
    if !tr.on {
        return run(cycles).map_err(sim_err);
    }
    let mut left = cycles;
    while left > 0 {
        let n = left.min(chunk);
        tr.span("lis-core", name, || run(n)).map_err(sim_err)?;
        left -= n;
    }
    Ok(())
}

/// Checks that every received stream is a prefix of the oracle's and
/// that data flowed; returns the tokens delivered.
fn check_streams(got: &[Vec<u64>], want: &[Vec<u64>]) -> Result<u64, String> {
    if got.len() != want.len() {
        return Err(format!("{} sinks, oracle has {}", got.len(), want.len()));
    }
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() > w.len() || g[..] != w[..g.len()] {
            return Err(format!("sink {k} is not token-exact"));
        }
    }
    let tokens: u64 = got.iter().map(|s| s.len() as u64).sum();
    if tokens == 0 {
        return Err("no tokens delivered".into());
    }
    Ok(tokens)
}

/// The exact counters of one mesh or fleet operation: kernel deltas over
/// the timed span, then the delivered census.
fn kernel_counters(
    before: &SchedulerStats,
    after: &SchedulerStats,
    tokens: u64,
    checksum: u64,
) -> Vec<(&'static str, u64)> {
    vec![
        (
            "kernel.groups_evaluated",
            after.groups_evaluated - before.groups_evaluated,
        ),
        (
            "kernel.groups_skipped",
            after.groups_skipped - before.groups_skipped,
        ),
        (
            "kernel.components_ticked",
            after.components_ticked - before.components_ticked,
        ),
        (
            "kernel.components_quiescent",
            after.components_quiescent - before.components_quiescent,
        ),
        ("census.tokens", tokens),
        ("census.checksum", checksum),
    ]
}

/// Fails when the workload runs at its default seed and the delivered
/// tokens or checksum differ from the recorded census.
fn check_census(w: &Workload, seed: u64, tokens: u64, checksum: u64) -> Result<(), String> {
    if seed == w.default_seed && (tokens, checksum) != w.census {
        return Err(format!(
            "census mismatch: {tokens} tokens, checksum {checksum:#018x}; recorded {} tokens, \
             checksum {:#018x}",
            w.census.0, w.census.1
        ));
    }
    Ok(())
}

/// One solo-mesh operation at `threads` kernel threads.
fn mesh_op(
    w: &Workload,
    seed: u64,
    threads: usize,
    oracle: &[Vec<u64>],
    tr: &mut Tracer,
) -> Result<Op, String> {
    let spec = w.spec(seed);
    let t = Instant::now();
    let mut topo = tr.span("lis-topo", "TopologyBuilder::build", || {
        TopologyBuilder::new(spec).threads(threads).build()
    });
    let setup_s = secs(t);
    tr.span("lis-core", "Soc::run(fill)", || topo.soc.run(w.fill))
        .map_err(sim_err)?;
    let before = topo.soc.scheduler_stats();
    let t = Instant::now();
    run_chunked(tr, w.cycles, w.chunk, "Soc::run", |n| topo.soc.run(n))?;
    let run_s = secs(t);
    let after = topo.soc.scheduler_stats();

    tr.enter("bench", "check");
    if topo.soc.violations() != 0 {
        return Err(format!("{} protocol violations", topo.soc.violations()));
    }
    let got = topo.received();
    let tokens = check_streams(&got, oracle)?;
    let checksum = stream_checksum(&got);
    check_census(w, seed, tokens, checksum)?;
    tr.exit();
    Ok(Op {
        setup_s,
        run_s,
        work: w.cycles as f64,
        counters: kernel_counters(&before, &after, tokens, checksum),
    })
}

/// Kernel counters summed over every batch of a fleet.
fn fleet_stats(fleet: &mut lis_core::SocFleet) -> SchedulerStats {
    let mut sum = SchedulerStats::default();
    for batch in fleet.batches_mut() {
        let s = batch.system_mut().scheduler_stats();
        sum.groups_evaluated += s.groups_evaluated;
        sum.groups_skipped += s.groups_skipped;
        sum.components_ticked += s.components_ticked;
        sum.components_quiescent += s.components_quiescent;
    }
    sum
}

/// One 64-lane fleet operation on a pool of `threads` workers.
fn fleet_op(
    w: &Workload,
    seed: u64,
    threads: usize,
    oracle: &[Vec<u64>],
    tr: &mut Tracer,
) -> Result<Op, String> {
    let spec = w.spec(seed);
    let scenarios: Vec<FleetScenario> = (0..FLEET_LANES)
        .map(|lane| fleet_scenario(seed, lane))
        .collect();
    let t = Instant::now();
    let mut gen = tr.span("lis-topo", "FleetTopologyBuilder::build", || {
        FleetTopologyBuilder::new(spec, scenarios)
            .threads(1)
            .build()
    });
    let pool = tr.span("lis-sim", "WorkStealingPool::new", || {
        WorkStealingPool::new(threads)
    });
    let setup_s = secs(t);
    tr.span("lis-core", "SocFleet::run(fill)", || {
        gen.fleet.run(w.fill, &pool)
    })
    .map_err(sim_err)?;
    let before = fleet_stats(&mut gen.fleet);
    let t = Instant::now();
    run_chunked(tr, w.cycles, w.chunk, "SocFleet::run", |n| {
        gen.fleet.run(n, &pool)
    })?;
    let run_s = secs(t);
    let after = fleet_stats(&mut gen.fleet);

    tr.enter("bench", "check");
    let mut all = Vec::new();
    for lane in 0..gen.scenarios.len() {
        if gen.lane_violations(lane) != 0 {
            return Err(format!("lane {lane}: protocol violations"));
        }
        let got = gen.lane_received(lane);
        check_streams(&got, oracle).map_err(|e| format!("lane {lane}: {e}"))?;
        all.extend(got);
    }
    let tokens = all.iter().map(|s| s.len() as u64).sum();
    let checksum = stream_checksum(&all);
    check_census(w, seed, tokens, checksum)?;
    tr.exit();
    Ok(Op {
        setup_s,
        run_s,
        work: (w.cycles * gen.scenarios.len() as u64) as f64,
        counters: kernel_counters(&before, &after, tokens, checksum),
    })
}

/// One exhaustive exploration of the join configuration on `twins`
/// configuration twins (one pool worker each).
fn verify_op(w: &Workload, twins: usize, tr: &mut Tracer) -> Result<Op, String> {
    let t = Instant::now();
    let mut cfgs = tr
        .span("lis-verify", "build_config", || {
            (0..twins)
                .map(|_| build_config(VERIFY_CONFIG))
                .collect::<Option<Vec<_>>>()
        })
        .ok_or("unknown verifier configuration")?;
    let setup_s = secs(t);
    let opts = ExploreOptions {
        depth: VERIFY_DEPTH,
        por: true,
        symmetry: true,
        ..ExploreOptions::default()
    };
    let t = Instant::now();
    let r = tr.span("lis-verify", "explore_pool", || {
        explore_pool(&mut cfgs, &opts)
    });
    let run_s = secs(t);

    if r.total_violations != 0 || r.truncated || !r.counterexamples.is_empty() {
        return Err(format!(
            "verdict not clean: {} violations, truncated={}",
            r.total_violations, r.truncated
        ));
    }
    if (r.states, r.transitions) != w.census {
        return Err(format!(
            "census mismatch: {} states, {} transitions; recorded {}, {}",
            r.states, r.transitions, w.census.0, w.census.1
        ));
    }
    Ok(Op {
        setup_s,
        run_s,
        work: r.transitions as f64,
        counters: vec![
            ("verify.states", r.states),
            ("verify.transitions", r.transitions),
            ("verify.dedup_hits", r.dedup_hits),
            ("verify.por_pruned", r.por_pruned),
            ("verify.deadlock_checks", r.deadlock_checks),
            ("verify.sym_folds", r.sym_folds),
        ],
    })
}

/// Operations attempted and failed, with the counters every operation
/// must reproduce exactly.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<Vec<(&'static str, u64)>>,
}

impl Tally {
    /// Runs one operation, counting an error, a panic or a counter that
    /// differs from the first operation's as a failure.
    fn attempt(
        &mut self,
        tr: &mut Tracer,
        op: impl FnOnce(&mut Tracer) -> Result<Op, String>,
    ) -> Option<Op> {
        self.attempted += 1;
        let depth = tr.open.len();
        let result = catch_unwind(AssertUnwindSafe(|| op(&mut *tr)));
        tr.unwind(depth);
        let outcome = match result {
            Ok(Ok(op)) => match &self.reference {
                Some(r) if *r != op.counters => Err(format!(
                    "work counters drifted between operations: {:?} vs {:?}",
                    r, op.counters
                )),
                _ => {
                    self.reference.get_or_insert_with(|| op.counters.clone());
                    Ok(op)
                }
            },
            Ok(Err(e)) => Err(e),
            Err(panic) => Err(format!(
                "panic: {}",
                panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string payload>")
            )),
        };
        match outcome {
            Ok(op) => {
                eprintln!(
                    "perfbench: operation {}: set-up {:.6} s, timed span {:.6} s",
                    self.attempted, op.setup_s, op.run_s
                );
                Some(op)
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, e: String) {
        eprintln!("perfbench: operation {} failed: {e}", self.attempted);
        self.failed += 1;
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The full SP shell of one pearl: `compress` → `generate_sp` →
/// `assemble_full_wrapper`, as the gate-level builders make it.
fn shell_for(pearl: &dyn Pearl, tr: &mut Tracer) -> Result<Module, String> {
    let program = tr.span("lis-schedule", "compress", || compress(pearl.schedule()));
    let controller = tr
        .span("lis-wrappers", "generate_sp", || generate_sp(&program))
        .map_err(|e| e.to_string())?;
    let iface = pearl.interface();
    let ins: Vec<usize> = iface.inputs().map(|p| p.width as usize).collect();
    let outs: Vec<usize> = iface.outputs().map(|p| p.width as usize).collect();
    tr.span("lis-wrappers", "assemble_full_wrapper", || {
        assemble_full_wrapper(&controller, &ins, &outs)
    })
    .map_err(|e| e.to_string())
}

/// The synthesis flow over every pearl of the workload, timed as a
/// whole.
fn netlist_probe(w: &Workload, tr: &mut Tracer) -> Result<(Vec<Module>, f64), String> {
    let pearls = w.pearls();
    let t = Instant::now();
    let shells = pearls
        .iter()
        .map(|pearl| shell_for(pearl.as_ref(), tr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((shells, secs(t)))
}

/// Exact lowering counts of the workload's shell (every shell of a
/// workload is the same module): instructions after lowering and
/// dispatch runs per cycle.
fn jit_counts(w: &Workload) -> Result<Vec<(&'static str, u64)>, String> {
    let shell = shell_for(w.pearls()[0].as_ref(), &mut Tracer::new())?;
    let prog = JitNetlistProgram::compile(&shell).map_err(|e| e.to_string())?;
    Ok(vec![
        ("jit.instrs_after", prog.stats().instrs_after as u64),
        ("jit.runs", prog.run_count() as u64),
    ])
}

/// Lowers every shell to a JIT program, timed as a whole.
fn lower_probe(shells: &[Module], tr: &mut Tracer) -> Result<f64, String> {
    let t = Instant::now();
    for shell in shells {
        tr.span("lis-sim.jit", "JitNetlistProgram::compile", || {
            JitNetlistProgram::compile(shell)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(secs(t))
}

/// Next word of the xorshift stimulus fed to a lone shell.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Median host nanoseconds per cycle of `step`, over repetitions of
/// `PROBE_CYCLES` cycles that each start from the same stimulus seed.
fn time_steps(tr: &mut Tracer, name: &'static str, mut step: impl FnMut(&mut u64)) -> f64 {
    let mut times = Vec::new();
    for _ in 0..PROBE_REPS {
        let mut stim = 0x9e37_79b9_7f4a_7c15;
        let t = Instant::now();
        tr.span("lis-sim.jit", name, || {
            for _ in 0..PROBE_CYCLES {
                step(&mut stim);
            }
        });
        times.push(secs(t) * 1e9 / PROBE_CYCLES as f64);
    }
    median(times)
}

/// Host nanoseconds per cycle of `shell` stepped alone on the scalar
/// and the 64-lane packed JIT executor, every input but reset driven by
/// the stimulus each cycle.
fn step_probe(shell: &Module, tr: &mut Tracer) -> Result<(f64, f64), String> {
    let ports: Vec<(&str, usize)> = shell
        .inputs
        .iter()
        .filter(|p| p.name != "rst")
        .map(|p| (p.name.as_str(), p.width()))
        .collect();
    let mut scalar = JitNetlistSim::new(shell.clone()).map_err(|e| e.to_string())?;
    let handles = ports
        .iter()
        .map(|&(n, _)| scalar.input_handle(n))
        .collect::<Result<Vec<PortHandle>, _>>()
        .map_err(|e| e.to_string())?;
    let scalar_ns = time_steps(tr, "JitNetlistSim::step", |stim| {
        for &h in &handles {
            scalar.set_input_h(h, xorshift(stim));
        }
        scalar.step();
        std::hint::black_box(scalar.dff_state());
    });

    let mut packed = JitPackedNetlistSim::new(shell.clone()).map_err(|e| e.to_string())?;
    let handles = ports
        .iter()
        .map(|&(n, w)| packed.input_handle(n).map(|h| (h, w)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let packed_ns = time_steps(tr, "JitPackedNetlistSim::step", |stim| {
        for &(h, width) in &handles {
            for bit in 0..width {
                packed.set_input_bit_lanes(h, bit, xorshift(stim));
            }
        }
        packed.step();
        std::hint::black_box(packed.dff_state());
    });
    Ok((scalar_ns, packed_ns))
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload <mesh-bursty|mesh-backpressured|fleet-mixed64|\
                     verify-spj> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// A metric line of the result: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let seed = args.seed;

    // The oracle is computed once per run, outside every timed span.
    let oracle = match w.kind {
        Kind::Verify => Vec::new(),
        _ => expected_sink_streams(&w.spec(seed).graph(), w.tokens_per_source()),
    };
    let op = |tr: &mut Tracer, threads: usize| match w.kind {
        Kind::Mesh(_) => mesh_op(w, seed, threads, &oracle, tr),
        Kind::Fleet => fleet_op(w, seed, threads, &oracle, tr),
        Kind::Verify => verify_op(w, threads, tr),
    };

    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    tally.attempted += 1;
    let jit = jit_counts(w).unwrap_or_else(|e| {
        tally.fail(format!("shell lowering failed: {e}"));
        Vec::new()
    });
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    // Traced runs alternate plain and traced operations, so the tracing
    // overhead compares operations made under the same conditions.
    while plain
        .len()
        .min(if args.trace { traced.len() } else { MIN_OPS })
        < MIN_OPS
        || start.elapsed() < budget
    {
        if tally.attempted >= 4 * MIN_OPS as u64 && plain.is_empty() {
            break; // nothing succeeds: stop early and report the failures
        }
        tr.on = false;
        plain.extend(tally.attempt(&mut tr, |tr| op(tr, w.threads)));
        if args.trace {
            tr.on = true;
            tr.enter("bench", "op");
            traced.extend(tally.attempt(&mut tr, |tr| op(tr, w.threads)));
            tr.exit();
            tr.on = false;
        }
    }

    let median_of = |ops: &[Op], f: fn(&Op) -> f64| median(ops.iter().map(f).collect());
    // The exact counts of this run: lowering counts plus the per-operation
    // work counters and census every operation reproduced.
    let counters: Vec<(&str, u64)> = jit
        .iter()
        .chain(tally.reference.iter().flatten())
        .copied()
        .collect();
    let count = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    let plain_run_s = median_of(&plain, |o| o.run_s);
    let metrics: Vec<Metric> = if !args.trace {
        vec![
            ("setup_s", median_of(&plain, |o| o.setup_s), "s"),
            (
                "sim_kcps",
                median_of(&plain, |o| ratio(o.work, o.run_s)) / 1e3,
                "kcyc/s",
            ),
            ("verdict_s", plain_run_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    } else {
        tr.on = true;
        // The pool at one worker more or fewer than the workload's own
        // (one verifier twin vs two; two kernel or fleet threads vs one).
        let other_threads = if w.threads == 2 { 1 } else { 2 };
        tr.enter("bench", "op(pool)");
        let other = tally.attempt(&mut tr, |tr| op(tr, other_threads));
        tr.exit();
        let other_s = other.map_or(0.0, |o| o.run_s);
        let speedup_2t = if w.threads == 2 {
            ratio(other_s, plain_run_s)
        } else {
            ratio(plain_run_s, other_s)
        };

        let probes = (|| -> Result<_, String> {
            let (shells, netlist_s) = netlist_probe(w, &mut tr)?;
            let lower_s = lower_probe(&shells, &mut tr)?;
            let (scalar_ns, packed_ns) = step_probe(&shells[0], &mut tr)?;
            Ok((netlist_s, lower_s, scalar_ns, packed_ns))
        })();
        tally.attempted += 1;
        let (netlist_s, lower_s, scalar_ns, packed_ns) = probes.unwrap_or_else(|e| {
            tally.fail(format!("probe failed: {e}"));
            (0.0, 0.0, 0.0, 0.0)
        });
        tr.on = false;

        let traced_run_s = median_of(&traced, |o| o.run_s);
        let evaluated = count("kernel.groups_evaluated");
        let skipped = count("kernel.groups_skipped");
        let transitions = count("verify.transitions");
        vec![
            ("kernel.groups_evaluated", evaluated, "count"),
            ("kernel.groups_skipped", skipped, "count"),
            (
                "kernel.components_ticked",
                count("kernel.components_ticked"),
                "count",
            ),
            (
                "kernel.components_quiescent",
                count("kernel.components_quiescent"),
                "count",
            ),
            (
                "kernel.group_skip_ratio",
                ratio(skipped, evaluated + skipped),
                "ratio",
            ),
            (
                "kernel.ns_per_group_eval",
                ratio(traced_run_s * 1e9, evaluated),
                "ns",
            ),
            ("jit.shell_ns_per_cycle", scalar_ns, "ns"),
            ("jit.packed_shell_ns_per_cycle", packed_ns, "ns"),
            ("jit.instrs_after", count("jit.instrs_after"), "count"),
            ("jit.runs", count("jit.runs"), "count"),
            ("jit.lower_s", lower_s, "s"),
            ("wrappers.netlist_s", netlist_s, "s"),
            ("build.soc_s", median_of(&traced, |o| o.setup_s), "s"),
            ("pool.speedup_2t", speedup_2t, "x"),
            ("verify.states", count("verify.states"), "count"),
            ("verify.transitions", transitions, "count"),
            ("verify.dedup_hits", count("verify.dedup_hits"), "count"),
            ("verify.por_pruned", count("verify.por_pruned"), "count"),
            (
                "verify.deadlock_checks",
                count("verify.deadlock_checks"),
                "count",
            ),
            (
                "verify.dedup_hit_ratio",
                ratio(count("verify.dedup_hits"), transitions),
                "ratio",
            ),
            (
                "verify.us_per_transition",
                ratio(traced_run_s * 1e6, transitions),
                "us",
            ),
            (
                "trace.overhead_pct",
                100.0 * (ratio(traced_run_s, plain_run_s) - 1.0),
                "%",
            ),
        ]
    };

    if args.trace {
        let own = tr.self_times();
        eprintln!("perfbench: self time by call ({} spans)", tr.spans.len());
        for ((layer, name), total) in tr.by_call(&own) {
            eprintln!("  {layer:14} {name:32} {total:10.6} s");
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tr.to_json(w.name, seed)) {
                eprintln!("perfbench: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.failed == 0 && !plain.is_empty(),
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("},\"counters\":{");
    for (i, (name, value)) in counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{name}\":{value}");
    }
    out.push_str("}}");
    println!("{out}");
}
