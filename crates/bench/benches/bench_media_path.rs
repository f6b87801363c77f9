//! MEDIA — per-tick versus coalesced media emission on a Table-I-shaped
//! full-media cell, across both scheduler backends.
//!
//! Prints a pairing comparison (wall clock, events/sec, speedup against
//! the heap + per-tick reference) before benchmarking the two extremes.
//! Host cost of the full Table-I cell is measured by the same-host
//! benchmark (`python3 perfbench/run.py --workload table1_media --seed 1
//! --seconds 20 --trace 0`).

use capacity::experiment::{EmpiricalConfig, EmpiricalRunner, MediaMode, RunResult, SimOptions};
use capacity::world::MediaPath;
use criterion::{criterion_group, criterion_main, Criterion};
use des::SchedulerKind;
use loadgen::HoldingDist;

fn cell() -> EmpiricalConfig {
    let mut cfg = EmpiricalConfig::table1(40.0, 7);
    cfg.placement_window_s = 9.0;
    cfg.holding = HoldingDist::Fixed(6.0);
    cfg.media = MediaMode::PerPacket { encode_every: 50 };
    cfg
}

fn run(opts: SimOptions) -> RunResult {
    EmpiricalRunner::run_with(cell(), opts)
}

const PAIRINGS: [(&str, SchedulerKind, MediaPath); 4] = [
    (
        "heap+per_tick (reference)",
        SchedulerKind::Heap,
        MediaPath::PerTick,
    ),
    ("wheel+per_tick", SchedulerKind::Wheel, MediaPath::PerTick),
    ("heap+coalesced", SchedulerKind::Heap, MediaPath::Coalesced),
    (
        "wheel+coalesced (default)",
        SchedulerKind::Wheel,
        MediaPath::Coalesced,
    ),
];

fn print_comparison() {
    println!("\n========== media-path pairing comparison (A=40, scaled) ==========");
    let mut reference_wall = 0.0;
    for (name, scheduler, media_path) in PAIRINGS {
        let r = run(SimOptions {
            scheduler,
            media_path,
            ..SimOptions::default()
        });
        if reference_wall == 0.0 {
            reference_wall = r.wall_clock_s;
        }
        println!(
            "{name:<28} {:>8.3} s  {:>12.0} ev/s  {:>5.2}x",
            r.wall_clock_s,
            r.events_per_sec,
            reference_wall / r.wall_clock_s.max(1e-9),
        );
    }
    println!("==================================================================\n");
}

fn bench(c: &mut Criterion) {
    print_comparison();

    let mut g = c.benchmark_group("media_path");
    g.sample_size(10);

    g.bench_function("cell_A40_reference_heap_per_tick", |b| {
        b.iter(|| run(SimOptions::reference()))
    });
    g.bench_function("cell_A40_default_wheel_coalesced", |b| {
        b.iter(|| run(SimOptions::default()))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
