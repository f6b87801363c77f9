//! Same-host benchmark of the PBX simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload back to back for `--seconds`
//! and reports the end-to-end metrics as medians over the repeats. With
//! `--trace 1` it alternates untraced runs with traced ones and reports
//! the per-layer metrics and the tracing overhead. Every run is checked
//! for correctness. The last line of standard output is one JSON object
//! holding every metric the workload measured; `perfbench/run.py` picks
//! from it the metrics `BENCHMARK.json` lists.

mod host;
mod kernels;
mod report;
mod trace;
mod workloads;

use report::{median, quantile, Metrics};
use std::time::Instant;
use trace::{Class, LoopTrace};
use workloads::{Rep, RunSummary, SetupTiming, SweepSpans, TaskSpan, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: table1_media population_signalling fig6_sweep farm_sharded";

/// Fewest repeats a measurement takes, however long each one runs.
const MIN_REPEATS: usize = 3;
/// Warm set-ups timed before each repeat. Spreading them over the run
/// lets their median see the same host as the repeats do.
const SETUPS_PER_REPEAT: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err("flags come in --name value pairs".to_owned());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            flag => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one invocation measured and checked.
struct Outcome {
    metrics: Metrics,
    /// Simulation runs checked.
    attempted: u64,
    /// Runs that failed a correctness check.
    failed: u64,
    /// `"key": json` pairs describing the run beyond its metrics.
    detail: Vec<(&'static str, String)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    des::pool::configure(args.workload.threads());
    let mut out = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    out.detail
        .insert(0, ("workload", report::string(args.workload.name())));
    out.detail.insert(1, ("seed", args.seed.to_string()));
    out.detail.insert(2, ("trace", args.trace.to_string()));
    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"detail\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        out.metrics.to_json(),
        detail.join(", ")
    );
}

/// Repeat `f` until `seconds` have passed and at least [`MIN_REPEATS`]
/// results are in.
fn repeat<T>(seconds: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

/// `n` warm set-ups of `w`.
fn measure_setup(w: Workload, seed: u64, n: usize) -> Vec<SetupTiming> {
    (0..n).map(|_| workloads::setup_once(w, seed)).collect()
}

fn digests_json(runs: &[RunSummary]) -> String {
    let d: Vec<String> = runs
        .iter()
        .map(|r| format!("\"{:016x}\"", r.digest))
        .collect();
    format!("[{}]", d.join(", "))
}

/// Mean |empirical steady-state Pb − Erlang-B B(A, 165)| over the Fig. 6
/// grid, in percentage points; the empirical value of a load is the mean
/// over its replications, as `capacity::figures::fig6` reports it.
fn pb_err_pp(runs: &[RunSummary]) -> f64 {
    let loads = capacity::figures::fig6_default_loads();
    let errs: Vec<f64> = loads
        .iter()
        .map(|&a| {
            let pbs: Vec<f64> = runs
                .iter()
                .filter(|r| r.erlangs == a)
                .map(|r| r.steady_pb * 100.0)
                .collect();
            assert!(!pbs.is_empty(), "every Fig. 6 load ran");
            let (mean, _) = capacity::sweep::mean_ci(&pbs);
            let model = teletraffic::blocking_probability(teletraffic::Erlangs(a), 165) * 100.0;
            (mean - model).abs()
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// `--trace 0`: the end-to-end metrics, untraced.
///
/// Every host time is scaled to the host's reference pace: the reference
/// loop of [`host::pace`] runs after each unit of a repeat (see
/// [`Workload::units`]), once on the workload's threads and, for a
/// parallel workload, once more on the one thread that runs the set-ups.
/// A unit's host and CPU times are multiplied by `PACE_REFERENCE_S` over
/// the mean of the workload pace measured on its two sides (after it only,
/// for the first), and the set-ups timed before a repeat likewise by the
/// one-thread pace around its first unit. A shared host's speed drifts by
/// up to 1.45× for minutes at a time and the simulator follows it, so
/// unscaled medians of runs minutes apart differ by more than any useful
/// bound; a change to the simulator leaves the reference loop alone and
/// shows in full. The unscaled medians are reported as `*_unscaled` next
/// to them.
fn timed(args: &Args) -> Outcome {
    let (w, seed) = (args.workload, args.seed);
    // A cold set-up and an untimed first repeat fill lazy tables, shared
    // precompute and caches. The peak resident memory is read after that
    // repeat, before the reference loop first runs, so that its tables
    // never set the peak.
    workloads::setup_once(w, seed);
    let warm = workloads::run_rep(w, seed, None);
    let peak_rss_mb = host::usage().max_rss_mb;
    // Every repeat must reproduce the first one's runs, and the farm's
    // the sequential executor's.
    let reference = match w {
        Workload::FarmSharded => workloads::farm_rep(seed, capacity::ExecMode::Sequential).runs,
        _ => warm.runs.clone(),
    };
    // Unscaled set-up times, by the repeat they precede.
    let mut setups: Vec<Vec<f64>> = Vec::new();
    // (workload pace, one-thread pace) after each unit, in run order.
    let mut paces: Vec<(f64, f64)> = Vec::new();
    let parts: Vec<Vec<Rep>> = repeat(args.seconds, || {
        setups.push(
            measure_setup(w, seed, SETUPS_PER_REPEAT)
                .iter()
                .map(SetupTiming::total_s)
                .collect(),
        );
        (0..w.units())
            .map(|u| {
                let unit = workloads::run_unit(w, seed, u, None);
                let pace = host::pace(w.threads());
                let single = match w.threads() {
                    1 => pace,
                    _ => host::pace(1),
                };
                paces.push((pace, single));
                unit
            })
            .collect()
    });
    let units = w.units() as usize;

    // Scale of unit `k` (in run order) by the pace `of` each side of it.
    let scale = |k: usize, of: fn(&(f64, f64)) -> f64| {
        let around = match k {
            0 => of(&paces[0]),
            _ => (of(&paces[k - 1]) + of(&paces[k])) / 2.0,
        };
        host::PACE_REFERENCE_S / around
    };
    // Scaled (host s, CPU s) of each repeat, summed unit by unit.
    let scaled: Vec<(f64, f64)> = parts
        .iter()
        .enumerate()
        .map(|(i, rep)| {
            rep.iter()
                .enumerate()
                .fold((0.0, 0.0), |(h, c), (u, unit)| {
                    let k = scale(i * units + u, |p| p.0);
                    (h + unit.wall_s * k, c + unit.cpu_s * k)
                })
        })
        .collect();
    let setup_s = median(
        &setups
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |t| t * scale(i * units, |p| p.1)))
            .collect::<Vec<_>>(),
    );
    let reps: Vec<Rep> = parts.into_iter().map(Rep::concat).collect();
    let checked = || std::iter::once(&warm).chain(&reps);
    let failed: u64 = checked()
        .map(|r| workloads::failed_runs(r, &reference))
        .sum();
    let attempted = checked().map(|r| r.runs.len() as u64).sum::<u64>();

    // Median over repeats of `f(repeat, scaled host s, scaled CPU s)`.
    let per_rep = |f: &dyn Fn(&Rep, f64, f64) -> f64| -> f64 {
        median(
            &reps
                .iter()
                .zip(&scaled)
                .map(|(r, &(h, c))| f(r, h, c))
                .collect::<Vec<_>>(),
        )
    };
    let mut m = Metrics::default();
    m.put("wall_s", per_rep(&|_, h, _| h), "s");
    m.put(
        "host_s_per_sim_s",
        per_rep(&|r, h, _| (h - setup_s) / r.sim_s()),
        "s/s",
    );
    m.put(
        "host_us_per_call",
        per_rep(&|r, h, _| h * 1e6 / r.completed() as f64),
        "us",
    );
    m.put("cpu_s_per_sim_s", per_rep(&|r, _, c| c / r.sim_s()), "s/s");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    if w == Workload::Fig6Sweep {
        m.put("pb_err_pp", pb_err_pp(&reps[0].runs), "pp");
    }
    m.put(
        "failed_run_ratio",
        failed as f64 / attempted as f64,
        "ratio",
    );
    m.put("wall_s_unscaled", per_rep(&|r, _, _| r.wall_s), "s");
    m.put("setup_s_unscaled", median(&setups.concat()), "s");
    m.put(
        "host_pace_s",
        median(&paces.iter().map(|p| p.0).collect::<Vec<_>>()),
        "s",
    );
    let events: u64 = reps[0].runs.iter().map(|r| r.events).sum();
    m.put(
        "events_per_s",
        per_rep(&|r, _, _| events as f64 / r.wall_s),
        "1/s",
    );

    let list = |xs: Vec<f64>| {
        let v: Vec<String> = xs.into_iter().map(report::num).collect();
        format!("[{}]", v.join(", "))
    };
    Outcome {
        metrics: m,
        attempted,
        failed,
        detail: vec![
            ("repeats", reps.len().to_string()),
            ("wall_s_each", list(reps.iter().map(|r| r.wall_s).collect())),
            ("pace_s_each", list(paces.iter().map(|p| p.0).collect())),
            ("digests", digests_json(&reps[0].runs)),
        ],
    }
}

/// Differences between the traced loop's counts and the untraced run's.
fn unfaithful(t: &LoopTrace, r: &RunSummary) -> Vec<String> {
    let pairs = [
        ("events", t.events, r.events),
        ("rtp_packets", t.rtp_packets, r.rtp_packets),
        ("sip_messages", t.sip_messages, r.sip_messages),
        ("calls_scored", t.calls_scored, r.calls_scored),
        ("attempted", t.attempted, r.attempted),
    ];
    pairs
        .iter()
        .filter(|(_, a, b)| a != b)
        .map(|(n, a, b)| format!("{n}: traced {a} vs untraced {b}"))
        .collect()
}

/// Event classes whose time a per-layer metric reports; the rest of the
/// loop is `world.other_share`.
const NAMED_CLASSES: [Class; 8] = [
    Class::MediaFrame,
    Class::SipDeliver,
    Class::SipRelay,
    Class::PlaceCall,
    Class::PopArrival,
    Class::Churn,
    Class::Hangup,
    Class::RetireCall,
];

/// Per-layer metrics from the traced loop's spans.
fn loop_metrics(m: &mut Metrics, t: &LoopTrace, media: bool) {
    let per = |ns: u64, n: u64| ns as f64 / n as f64;
    m.put("des.fel_pop_ns", per(t.pop_ns, t.pops), "ns");
    m.put("des.fel_peak_len", t.fel_peak_len as f64, "count");
    if media {
        m.put(
            "world.media_frame_ns_per_rtp",
            per(t.ns(Class::MediaFrame), t.rtp_packets),
            "ns",
        );
    }
    m.put(
        "world.sip_deliver_ns_per_msg",
        per(t.ns(Class::SipDeliver), t.count(Class::SipDeliver)),
        "ns",
    );
    m.put(
        "world.sip_relay_ns_per_hop",
        per(t.ns(Class::SipRelay), t.count(Class::SipRelay)),
        "ns",
    );
    m.put(
        "world.place_call_ns",
        per(
            t.ns(Class::PlaceCall) + t.ns(Class::PopArrival),
            t.attempted,
        ),
        "ns",
    );
    if t.reregisters > 0 {
        m.put(
            "world.churn_ns_per_reregister",
            per(t.ns(Class::Churn), t.reregisters),
            "ns",
        );
    }
    m.put(
        "world.teardown_ns_per_call",
        per(
            t.ns(Class::Hangup) + t.ns(Class::RetireCall),
            t.count(Class::Hangup),
        ),
        "ns",
    );
    let named: u64 = t.pop_ns + NAMED_CLASSES.iter().map(|&c| t.ns(c)).sum::<u64>();
    m.put(
        "world.other_share",
        1.0 - named as f64 / t.loop_ns as f64,
        "ratio",
    );
    if t.count(Class::PopArrival) > 0 {
        m.put(
            "loadgen.pop_arrival_useful_ratio",
            t.attempted as f64 / t.count(Class::PopArrival) as f64,
            "ratio",
        );
    }
}

/// Share of the traced loop each event class (and the FEL pop) took.
fn class_table(t: &LoopTrace) -> String {
    let mut rows = vec![format!(
        "\"des_pop\": {{\"count\": {}, \"ns\": {}, \"share\": {}}}",
        t.pops,
        t.pop_ns,
        report::num(t.pop_ns as f64 / t.loop_ns as f64)
    )];
    for c in Class::ALL {
        if t.count(c) > 0 {
            rows.push(format!(
                "\"{}\": {{\"count\": {}, \"ns\": {}, \"share\": {}}}",
                c.name(),
                t.count(c),
                t.ns(c),
                report::num(t.ns(c) as f64 / t.loop_ns as f64)
            ));
        }
    }
    format!("{{{}}}", rows.join(", "))
}

/// Exact counts that explain the ratios, summed over one repeat's runs.
fn count_metrics(m: &mut Metrics, runs: &[RunSummary], media: bool) {
    let sum = |f: fn(&RunSummary) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let attempted = sum(|r| r.attempted);
    m.put("des.events", sum(|r| r.events), "count");
    if media {
        m.put("rtp.packets", sum(|r| r.rtp_packets), "count");
    }
    m.put("sip.messages", sum(|r| r.sip_messages), "count");
    m.put(
        "sip.messages_per_call",
        sum(|r| r.sip_messages) / attempted,
        "msg/call",
    );
    m.put("loadgen.calls_attempted", attempted, "count");
}

/// Kernel and set-up rows, measured after the runs.
fn kernel_metrics(m: &mut Metrics, w: Workload, seed: u64) {
    if w.has_media() {
        m.put(
            "rtpcore.g711_encode_ns_per_frame",
            kernels::g711_encode_ns_per_frame(),
            "ns",
        );
        m.put("vmon.tap_rtp_ns", kernels::vmon_tap_rtp_ns(), "ns");
        m.put("netsim.enqueue_ns", kernels::netsim_enqueue_ns(), "ns");
        m.put(
            "voiceq.estimate_mos_ns",
            kernels::voiceq_estimate_mos_ns(),
            "ns",
        );
    }
    m.put(
        "sipcore.wire_parse_ns",
        kernels::sipcore_wire_parse_ns(),
        "ns",
    );
    let setups = measure_setup(w, seed, 9);
    let per_world = |f: fn(&SetupTiming) -> f64| {
        median(
            &setups
                .iter()
                .map(|s| f(s) * 1e6 / s.worlds as f64)
                .collect::<Vec<_>>(),
        )
    };
    m.put("setup.world_build_us", per_world(|s| s.build_s), "us");
    m.put("setup.prime_us", per_world(|s| s.prime_s), "us");
    m.put(
        "teletraffic.erlang_b_curve_us",
        kernels::erlang_b_curve_us(),
        "us",
    );
}

/// Sweep executor metrics from the task spans of one sweep.
fn sweep_metrics(m: &mut Metrics, spans: &[TaskSpan], sweep_wall_s: f64, workers: usize) {
    let task_ms: Vec<f64> = spans.iter().map(|s| (s.end_s - s.start_s) * 1e3).collect();
    m.put("sweep.task_ms_p50", median(&task_ms), "ms");
    // The highest percentile with at least ten tasks beyond it at 75.
    m.put("sweep.task_ms_p85", quantile(&task_ms, 0.85), "ms");
    let busy: f64 = task_ms.iter().sum::<f64>() / 1e3;
    m.put(
        "sweep.worker_busy_share",
        busy / (sweep_wall_s * workers as f64),
        "ratio",
    );
    let tail_idle_s: f64 = (0..workers)
        .map(|w| {
            let last = spans
                .iter()
                .filter(|s| s.worker == w)
                .map(|s| s.end_s)
                .fold(0.0, f64::max);
            (sweep_wall_s - last).max(0.0)
        })
        .sum();
    m.put("sweep.tail_idle_ms", tail_idle_s * 1e3, "ms");
}

/// The traced loop over every run of one repeat of `w` (not the farm,
/// whose event loop lives inside the sharded engine).
fn traced_rep(w: Workload, seed: u64) -> Vec<LoopTrace> {
    match w {
        Workload::Fig6Sweep => workloads::fig6_sweep(seed, None, trace::traced_run),
        _ => w.configs(seed).into_iter().map(trace::traced_run).collect(),
    }
}

/// `--trace 1`: untraced repeats alternate with traced ones; the traced
/// runs give the per-layer metrics and must reproduce the untraced runs'
/// counts exactly.
fn traced(args: &Args) -> Outcome {
    let (w, seed) = (args.workload, args.seed);
    let mut m = Metrics::default();
    // Runs that broke a check, and what each broke.
    let mut failed = 0u64;
    let mut problems: Vec<String> = Vec::new();
    let mut detail = Vec::new();
    let attempted = if w == Workload::FarmSharded {
        // The farm's own batch (one worker), then the sequential executor
        // alternating with the sharded engine on two workers.
        let own = workloads::run_rep(w, seed, None);
        let two = capacity::ExecMode::Sharded {
            threads: workloads::PARALLEL_THREADS,
        };
        des::pool::configure(workloads::PARALLEL_THREADS as usize);
        let pairs = repeat(args.seconds, || {
            (
                workloads::farm_rep(seed, capacity::ExecMode::Sequential),
                workloads::farm_rep(seed, two),
            )
        });
        let reference = &pairs[0].0.runs;
        let bad: u64 = std::iter::once(&own)
            .chain(pairs.iter().flat_map(|(seq, sharded)| [seq, sharded]))
            .map(|r| workloads::failed_runs(r, reference))
            .sum();
        if bad > 0 {
            failed += bad;
            problems.push(format!("{bad} sequential or sharded runs broke a check"));
        }
        count_metrics(&mut m, &own.runs, true);
        let seq_wall = median(&pairs.iter().map(|p| p.0.wall_s).collect::<Vec<_>>());
        let sharded_wall = median(&pairs.iter().map(|p| p.1.wall_s).collect::<Vec<_>>());
        m.put(
            "shard.speedup_vs_sequential",
            seq_wall / sharded_wall,
            "ratio",
        );
        m.put(
            "shard.cpu_over_wall",
            median(
                &pairs
                    .iter()
                    .map(|p| p.1.cpu_s / p.1.wall_s)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        );
        detail.push(("digests", digests_json(&own.runs)));
        (1 + 2 * pairs.len() as u64) * own.runs.len() as u64
    } else {
        let rounds = repeat(args.seconds, || {
            let spans = SweepSpans::new();
            let rep = workloads::run_rep(w, seed, Some(&spans));
            let sweep_wall_s = spans.now_s();
            let t0 = Instant::now();
            let traces = traced_rep(w, seed);
            let traced_wall_s = t0.elapsed().as_secs_f64();
            (rep, spans.into_spans(), sweep_wall_s, traces, traced_wall_s)
        });
        let mut sum = LoopTrace::default();
        for (rep, _, _, traces, _) in &rounds {
            assert_eq!(traces.len(), rep.runs.len(), "one trace per run");
            for (t, r) in traces.iter().zip(&rep.runs) {
                let diffs = unfaithful(t, r);
                if !diffs.is_empty() {
                    failed += 1;
                    problems.push(format!("traced loop differs: {}", diffs.join("; ")));
                }
                sum.absorb(t);
            }
            let bad = workloads::failed_runs(rep, &rounds[0].0.runs);
            if bad > 0 {
                failed += bad;
                problems.push(format!("{bad} untraced runs broke a check"));
            }
        }
        let first = &rounds[0].0;
        let mut attempted = rounds.len() as u64 * 2 * first.runs.len() as u64;
        if w == Workload::Fig6Sweep {
            // The executor must give bit-identical results at 1 worker.
            des::pool::configure(1);
            let single = workloads::run_rep(w, seed, None);
            des::pool::configure(w.threads());
            let bad = workloads::failed_runs(&single, &first.runs);
            if bad > 0 {
                failed += bad;
                problems.push(format!("{bad} runs differ between 1 and 2 workers"));
            }
            attempted += single.runs.len() as u64;
            // Executor spans of the round whose untraced sweep took the
            // median time.
            let mut by_wall: Vec<usize> = (0..rounds.len()).collect();
            by_wall.sort_by(|&a, &b| rounds[a].2.total_cmp(&rounds[b].2));
            let mid = &rounds[by_wall[by_wall.len() / 2]];
            sweep_metrics(&mut m, &mid.1, mid.2, w.threads());
        }
        count_metrics(&mut m, &first.runs, w.has_media());
        // Spans summed over every traced run; per-unit rows divide by
        // counts summed the same way.
        loop_metrics(&mut m, &sum, w.has_media());
        let overhead: Vec<f64> = rounds.iter().map(|r| r.4 / r.0.wall_s).collect();
        m.put("trace.overhead", median(&overhead), "ratio");
        detail.push(("classes", class_table(&sum)));
        detail.push(("digests", digests_json(&first.runs)));
        attempted
    };
    kernel_metrics(&mut m, w, seed);
    // Span times are not scaled; the pace says how fast the host ran.
    m.put("host_pace_s", host::pace(w.threads()), "s");
    let problems: Vec<String> = problems.iter().map(|p| report::string(p)).collect();
    detail.push(("problems", format!("[{}]", problems.join(", "))));
    Outcome {
        metrics: m,
        attempted,
        failed,
        detail,
    }
}
