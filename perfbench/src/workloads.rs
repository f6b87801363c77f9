//! The four workloads, their untraced timed runs, their set-up cost and
//! the correctness checks every timed run must pass.
//!
//! Why each workload exists, and which per-layer metric should move which
//! end-to-end metric on it, is written down in `perfbench/README.md`.

use crate::host;
use capacity::experiment::{EmpiricalConfig, EmpiricalRunner, RunResult, SimOptions};
use capacity::sweep::{self, SweepTask};
use capacity::world::World;
use capacity::{run_partitioned, ExecMode};
use des::{Scheduler, SimTime};
use loadgen::HoldingDist;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// A benchmark workload: one host-side batch run from one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table I cell at 150 E with full per-packet media.
    Table1Media,
    /// Signalling only: 3×10⁵ finite-source subscribers with churn.
    PopulationSignalling,
    /// The whole Fig. 6 grid through the sweep executor.
    Fig6Sweep,
    /// 150 E full media over 8 PBXs on the sharded engine.
    FarmSharded,
}

/// Offered load of every single-cell workload, Erlangs.
const ERLANGS: f64 = 150.0;
/// Subscribers of the population workload.
const POPULATION: u64 = 300_000;
/// Holding time of the population workload, seconds: short, so the
/// 600 s window places about 9 000 calls.
const POPULATION_HOLDING_S: f64 = 10.0;
/// Placement window of the population workload and of every Fig. 6
/// replication, seconds.
const LONG_WINDOW_S: f64 = 600.0;
/// Replications per Fig. 6 load point.
const FIG6_REPLICATIONS: u64 = 5;
/// PBXs in the sharded farm.
const FARM_SERVERS: u32 = 8;
/// Worker threads of the Fig. 6 sweep, and of the farm's sharded run in
/// the traced run's speed-up measurement.
pub const PARALLEL_THREADS: u32 = 2;
/// How the timed farm runs: the sharded conservative-window engine on one
/// worker. At two workers, whose threads meet at a barrier every 20 ms
/// window, the farm's wall time doubled whenever the shared host took a
/// core away for tens of seconds (3.2 s to 7.0 s a repeat), far beyond
/// what the host's pace explains; at one worker it follows the pace as
/// the single-thread workloads do. The traced run still measures the
/// two-worker speed-up.
pub const FARM_MODE: ExecMode = ExecMode::Sharded { threads: 1 };
/// Replications of the 150 E cell in one repeat of `table1_media` and
/// `farm_sharded`. One cell places about 225 calls, a count that varies
/// by ±7 % between seeds; three replications cut that seed-to-seed spread
/// of the work by √3.
const CELL_REPLICATIONS: u64 = 3;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Media,
        Workload::PopulationSignalling,
        Workload::Fig6Sweep,
        Workload::FarmSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Media => "table1_media",
            Workload::PopulationSignalling => "population_signalling",
            Workload::Fig6Sweep => "fig6_sweep",
            Workload::FarmSharded => "farm_sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload's timed runs use.
    pub fn threads(self) -> usize {
        match self {
            Workload::Fig6Sweep => PARALLEL_THREADS as usize,
            Workload::Table1Media | Workload::PopulationSignalling | Workload::FarmSharded => 1,
        }
    }

    /// Units one repetition runs back to back: each replication of the
    /// 150 E cells, or the whole batch. The timed run measures the host's
    /// pace after every unit, so a long repetition is not scaled by one
    /// sample taken seconds away from most of it.
    pub fn units(self) -> u64 {
        match self {
            Workload::Table1Media | Workload::FarmSharded => CELL_REPLICATIONS,
            Workload::PopulationSignalling | Workload::Fig6Sweep => 1,
        }
    }

    /// True when the workload carries RTP media.
    pub fn has_media(self) -> bool {
        matches!(self, Workload::Table1Media | Workload::FarmSharded)
    }

    /// The configuration of each world the workload builds, in run order.
    /// For the farm these are the per-PBX shard configurations.
    pub fn configs(self, seed: u64) -> Vec<EmpiricalConfig> {
        match self {
            Workload::Table1Media => (0..CELL_REPLICATIONS)
                .map(|rep| table1_config(seed, rep))
                .collect(),
            Workload::PopulationSignalling => vec![population_config(seed)],
            Workload::Fig6Sweep => {
                let (loads, tasks) = fig6_tasks();
                tasks
                    .iter()
                    .map(|t| fig6_config(loads[t.cell], seed, t.rep))
                    .collect()
            }
            Workload::FarmSharded => (0..CELL_REPLICATIONS)
                .flat_map(|rep| (0..FARM_SERVERS).map(move |k| farm_shard_config(seed, rep, k)))
                .collect(),
        }
    }
}

/// Replication `rep` of the Table I cell.
pub fn table1_config(seed: u64, rep: u64) -> EmpiricalConfig {
    EmpiricalConfig::table1(ERLANGS, des::stream_seed(seed, rep))
}

pub fn population_config(seed: u64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::signalling_only(ERLANGS, seed);
    cfg.holding = HoldingDist::Fixed(POPULATION_HOLDING_S);
    cfg.placement_window_s = LONG_WINDOW_S;
    // Flat profile, hourly re-REGISTER churn: the engine's defaults.
    cfg.population = Some(loadgen::PopulationConfig::for_offered_load(
        POPULATION,
        ERLANGS,
        POPULATION_HOLDING_S,
    ));
    cfg
}

/// Replication `rep` of Fig. 6 load `load`, configured as
/// `capacity::figures::fig6` configures it: signalling only, a 600 s
/// window, seed `stream_seed(seed, rep)`.
pub fn fig6_config(load: f64, seed: u64, rep: u64) -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::signalling_only(load, des::stream_seed(seed, rep));
    cfg.placement_window_s = LONG_WINDOW_S;
    cfg
}

/// The Fig. 6 loads and the cell-major task list `capacity::figures::fig6`
/// hands to the sweep executor.
pub fn fig6_tasks() -> (Vec<f64>, Vec<SweepTask>) {
    let loads = capacity::figures::fig6_default_loads();
    let tasks = loads
        .iter()
        .enumerate()
        .flat_map(|(cell, &a)| {
            let cost = sweep::run_cost(&fig6_config(a, 0, 0));
            (0..FIG6_REPLICATIONS).map(move |rep| SweepTask { cell, rep, cost })
        })
        .collect();
    (loads, tasks)
}

/// Replication `rep` of the Table I cell spread over the farm.
pub fn farm_config(seed: u64, rep: u64) -> EmpiricalConfig {
    let mut cfg = table1_config(seed, rep);
    cfg.servers = FARM_SERVERS;
    cfg
}

/// The single-PBX world shard `k` of the farm runs, as `capacity::shard`
/// derives it: a 1/K share of the load on a decorrelated seed.
fn farm_shard_config(seed: u64, rep: u64, k: u32) -> EmpiricalConfig {
    let mut cfg = farm_config(seed, rep);
    cfg.servers = 1;
    cfg.erlangs /= f64::from(FARM_SERVERS);
    cfg.seed = des::stream_seed(cfg.seed, u64::from(k));
    cfg
}

/// The simulated horizon `EmpiricalRunner::run` drives a configuration to:
/// placement window plus holding slack. The workloads inject no faults.
pub fn horizon(cfg: &EmpiricalConfig) -> SimTime {
    assert!(
        cfg.faults.last_effect_time().is_none(),
        "benchmark workloads inject no faults"
    );
    let hold_slack = match cfg.holding {
        HoldingDist::Fixed(h) => h + 10.0,
        _ => cfg.holding.mean() * 8.0 + 30.0,
    };
    SimTime::from_secs_f64(1.0 + cfg.placement_window_s + hold_slack + 5.0)
}

/// What the benchmark keeps of one simulation run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    pub digest: u64,
    pub attempted: u64,
    pub completed: u64,
    /// attempted = completed + blocked + failed + abandoned.
    pub conserved: bool,
    pub events: u64,
    pub rtp_packets: u64,
    pub sip_messages: u64,
    pub calls_scored: u64,
    pub sim_s: f64,
    pub erlangs: f64,
    pub steady_pb: f64,
}

impl RunSummary {
    fn of(r: &RunResult) -> Self {
        RunSummary {
            digest: r.digest(),
            attempted: r.attempted,
            completed: r.completed,
            conserved: r.attempted == r.completed + r.blocked + r.failed + r.abandoned,
            events: r.events_processed,
            rtp_packets: r.monitor.rtp_packets,
            sip_messages: r.monitor.sip_total,
            calls_scored: r.monitor.calls_scored,
            sim_s: r.sim_seconds,
            erlangs: r.erlangs,
            steady_pb: r.steady_pb,
        }
    }
}

/// One back-to-back repetition of a workload, or a unit of one.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds to the workload's result.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) over the same span.
    pub cpu_s: f64,
    pub runs: Vec<RunSummary>,
}

impl Rep {
    /// The parts run back to back, as one repetition.
    pub fn concat(parts: impl IntoIterator<Item = Rep>) -> Rep {
        parts.into_iter().fold(Rep::default(), |mut all, part| {
            all.wall_s += part.wall_s;
            all.cpu_s += part.cpu_s;
            all.runs.extend(part.runs);
            all
        })
    }

    pub fn sim_s(&self) -> f64 {
        self.runs.iter().map(|r| r.sim_s).sum()
    }

    pub fn completed(&self) -> u64 {
        self.runs.iter().map(|r| r.completed).sum()
    }
}

/// Span of one sweep task closure, by worker thread.
#[derive(Debug, Clone, Copy)]
pub struct TaskSpan {
    pub worker: usize,
    pub start_s: f64,
    pub end_s: f64,
}

/// Spans recorded around the closures a sweep hands to its workers.
pub struct SweepSpans {
    origin: Instant,
    workers: Mutex<Vec<ThreadId>>,
    spans: Mutex<Vec<TaskSpan>>,
}

impl SweepSpans {
    pub fn new() -> Self {
        SweepSpans {
            origin: Instant::now(),
            workers: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span keyed by the calling worker thread.
    pub fn record<T>(&self, f: impl FnOnce() -> T) -> T {
        let start_s = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.origin.elapsed().as_secs_f64();
        let id = std::thread::current().id();
        let worker = {
            let mut ws = self.workers.lock().expect("span lock poisoned");
            ws.iter().position(|&w| w == id).unwrap_or_else(|| {
                ws.push(id);
                ws.len() - 1
            })
        };
        self.spans
            .lock()
            .expect("span lock poisoned")
            .push(TaskSpan {
                worker,
                start_s,
                end_s,
            });
        out
    }

    /// Seconds since the spans' origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn into_spans(self) -> Vec<TaskSpan> {
        self.spans.into_inner().expect("span lock poisoned")
    }
}

/// Run a Fig. 6 sweep on the executor, mapping each task's configuration
/// through `f` inside a span when `spans` is given.
pub fn fig6_sweep<T, F>(seed: u64, spans: Option<&SweepSpans>, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(EmpiricalConfig) -> T + Sync,
{
    let (loads, tasks) = fig6_tasks();
    sweep::run_sweep(&tasks, |t| {
        let cfg = fig6_config(loads[t.cell], seed, t.rep);
        match spans {
            Some(s) => s.record(|| f(cfg)),
            None => f(cfg),
        }
    })
}

/// Unit `unit` of one untraced repetition of `w` at `seed` (see
/// [`Workload::units`]).
pub fn run_unit(w: Workload, seed: u64, unit: u64, spans: Option<&SweepSpans>) -> Rep {
    match w {
        Workload::FarmSharded => farm_run(seed, unit, FARM_MODE),
        Workload::Fig6Sweep => timed(|| {
            fig6_sweep(seed, spans, |cfg| {
                RunSummary::of(&EmpiricalRunner::run(cfg))
            })
        }),
        Workload::Table1Media => timed(|| {
            vec![RunSummary::of(&EmpiricalRunner::run(table1_config(
                seed, unit,
            )))]
        }),
        Workload::PopulationSignalling => timed(|| {
            vec![RunSummary::of(&EmpiricalRunner::run(population_config(
                seed,
            )))]
        }),
    }
}

/// One untraced repetition of `w` at `seed`: its units back to back.
pub fn run_rep(w: Workload, seed: u64, spans: Option<&SweepSpans>) -> Rep {
    Rep::concat((0..w.units()).map(|u| run_unit(w, seed, u, spans)))
}

/// Replication `rep` of the partitioned 8-PBX farm under `mode`.
fn farm_run(seed: u64, rep: u64, mode: ExecMode) -> Rep {
    timed(|| {
        vec![RunSummary::of(&run_partitioned(
            farm_config(seed, rep),
            SimOptions::default(),
            mode,
        ))]
    })
}

/// One repetition of the partitioned 8-PBX farm under `mode`.
pub fn farm_rep(seed: u64, mode: ExecMode) -> Rep {
    Rep::concat((0..CELL_REPLICATIONS).map(|rep| farm_run(seed, rep, mode)))
}

fn timed(f: impl FnOnce() -> Vec<RunSummary>) -> Rep {
    let cpu0 = host::usage().cpu_s;
    let t0 = Instant::now();
    let runs = f();
    let wall_s = t0.elapsed().as_secs_f64();
    Rep {
        wall_s,
        cpu_s: host::usage().cpu_s - cpu0,
        runs,
    }
}

/// Runs of `rep` that fail a correctness check against `reference`, the
/// runs an earlier repetition of the same seed produced (or, on
/// `farm_sharded`, the `ExecMode::Sequential` run): call conservation, at
/// least one completed call, and the reference's digest at the same index.
/// A missing or extra run counts as failed.
pub fn failed_runs(rep: &Rep, reference: &[RunSummary]) -> u64 {
    let bad = rep
        .runs
        .iter()
        .zip(reference)
        .filter(|(r, want)| !r.conserved || r.completed == 0 || r.digest != want.digest)
        .count();
    (bad + rep.runs.len().abs_diff(reference.len())) as u64
}

/// Host time to build the workload's worlds: configuration, scheduler and
/// `World` construction, and priming.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    pub build_s: f64,
    pub prime_s: f64,
    pub worlds: usize,
}

impl SetupTiming {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.prime_s
    }
}

/// Build and prime every world of `w` once, as its runs do, timing the
/// two phases. The worlds are dropped outside the timed spans.
pub fn setup_once(w: Workload, seed: u64) -> SetupTiming {
    let opts = SimOptions::default();
    let t0 = Instant::now();
    let configs = w.configs(seed);
    let mut timing = SetupTiming {
        build_s: t0.elapsed().as_secs_f64(),
        ..SetupTiming::default()
    };
    for (k, cfg) in configs.into_iter().enumerate() {
        let t0 = Instant::now();
        let mut sched: Scheduler<capacity::world::Ev> =
            Scheduler::with_kind_and_capacity(opts.scheduler, cfg.expected_pending_events());
        if w == Workload::FarmSharded {
            let k = k as u64 % u64::from(FARM_SERVERS);
            sched.set_seq_stream(k, u64::from(FARM_SERVERS));
        }
        let mut world = World::with_engine(cfg, opts.media_path, opts.media_kernel)
            .with_signalling(opts.signalling);
        let t1 = Instant::now();
        if w == Workload::FarmSharded {
            world.prime_partitioned(&mut sched);
        } else {
            world.prime(&mut sched);
        }
        let t2 = Instant::now();
        timing.build_s += (t1 - t0).as_secs_f64();
        timing.prime_s += (t2 - t1).as_secs_f64();
        timing.worlds += 1;
        std::hint::black_box((world, sched));
    }
    timing
}
