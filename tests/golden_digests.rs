//! Integration: golden `RunResult::digest()` values for seven small cells.
//!
//! The other determinism tests compare two runs of the *same* build (heap
//! vs wheel, kernel vs kernel). This one pins absolute digests, so physics
//! drift between two commits — a changed delay, a lost packet, a CPU cost
//! rounded differently — fails here even when every same-build A/B pair
//! still agrees. A deliberate physics change re-pins these values and says
//! why in CHANGES.md; a performance change must leave them alone.
//!
//! The cells cover every media path the world has:
//! the coalesced cut-through relay, per-hop frames under a pcap capture,
//! the per-tick reference path, runtime link/CPU retuning by faults, and a
//! signalling-only blocking cell. Two more cover the engines beyond the
//! single world: a full-media farm split into per-PBX shard worlds (run
//! by both the sequential interleave and the windowed executor) and a
//! finite-source population cell with registration churn.

use asterisk_capacity::prelude::*;
use capacity::experiment::{MediaMode, RunResult};
use capacity::shard::{run_partitioned, ExecMode};
use capacity::world::pbx_node;
use faults::{FaultKind, FaultSchedule};
use netsim::topology::nodes;
use netsim::LinkParams;

/// The full-media smoke cell every media case starts from.
fn media_cell() -> EmpiricalConfig {
    EmpiricalConfig::smoke(7)
}

fn check(name: &str, result: &RunResult, golden: u64) {
    assert_eq!(
        result.attempted,
        result.completed + result.blocked + result.failed + result.abandoned,
        "{name}: call conservation"
    );
    let got = result.digest();
    assert_eq!(
        got, golden,
        "{name}: digest {got:#018x} differs from the pinned {golden:#018x}"
    );
}

#[test]
fn coalesced_cut_through_media() {
    let r = EmpiricalRunner::run(media_cell());
    assert!(r.monitor.rtp_packets > 0, "media flowed");
    check("coalesced", &r, 0x854a_d58e_f4f5_dd17);
}

#[test]
fn captured_per_hop_media() {
    let cfg = EmpiricalConfig {
        capture_traffic: true,
        ..media_cell()
    };
    let r = EmpiricalRunner::run(cfg);
    assert!(r.monitor.rtp_packets > 0, "media flowed");
    check("capture", &r, 0xf884_96c9_7181_ba49);
}

#[test]
fn per_tick_media() {
    let opts = SimOptions {
        media_path: MediaPath::PerTick,
        ..SimOptions::default()
    };
    let r = EmpiricalRunner::run_with(media_cell(), opts);
    assert!(r.monitor.rtp_packets > 0, "media flowed");
    check("per-tick", &r, 0x1fd3_7672_3c1c_0556);
}

#[test]
fn link_degrade_and_cpu_throttle_mid_run() {
    // Slow the PBX access link to 2 Mb/s (same delay and queue bound, so
    // only the transmit time changes), throttle the PBX CPU, then heal
    // both: every cached per-link or per-CPU figure must follow.
    let slow = LinkParams {
        bandwidth_bps: 2e6,
        ..LinkParams::fast_ethernet()
    };
    let (a, b) = (pbx_node(0), nodes::SWITCH);
    let faults = FaultSchedule::new()
        .at(6.0, FaultKind::LinkDegrade { a, b, params: slow })
        .at(
            8.0,
            FaultKind::CpuThrottle {
                pbx: 0,
                factor: 2.5,
            },
        )
        .at(14.0, FaultKind::LinkHeal { a, b })
        .at(
            16.0,
            FaultKind::CpuThrottle {
                pbx: 0,
                factor: 1.0,
            },
        );
    let cfg = EmpiricalConfig {
        faults,
        ..media_cell()
    };
    let r = EmpiricalRunner::run(cfg);
    assert!(r.monitor.rtp_packets > 0, "media flowed");
    check("degrade+throttle", &r, 0xe506_3792_3a6d_fb7c);
}

#[test]
fn signalling_only_blocking_cell() {
    let cfg = EmpiricalConfig {
        erlangs: 20.0,
        channels: 5,
        media: MediaMode::Off,
        ..EmpiricalConfig::smoke(21)
    };
    let r = EmpiricalRunner::run(cfg);
    assert!(r.blocked > 0, "20 E on 5 channels blocks");
    assert_eq!(r.monitor.rtp_packets, 0, "no media");
    check("blocking", &r, 0x1d93_245d_16b9_0f67);
}

#[test]
fn sharded_media_farm() {
    // Three PBX shards, each a full-media world with 10 s holds: media
    // re-arms stay near the cursor while hangups sit beyond the ≈2.1 s
    // wheel horizon, so every level of each shard's event list is used.
    let cfg = EmpiricalConfig {
        servers: 3,
        erlangs: 9.0,
        ..media_cell()
    };
    for mode in [ExecMode::Sequential, ExecMode::Sharded { threads: 1 }] {
        let r = run_partitioned(cfg.clone(), SimOptions::default(), mode);
        assert!(r.monitor.rtp_packets > 0, "media flowed");
        check(&format!("farm {mode:?}"), &r, 0x458f_dc06_6fec_9cea);
    }
}

#[test]
fn population_churn_cell() {
    // 200 finite sources re-REGISTERing every 30 s through a 12-bucket
    // churn wheel, signalling only.
    let mut cfg = EmpiricalConfig {
        media: MediaMode::Off,
        ..EmpiricalConfig::smoke(33)
    };
    let mut pop = loadgen::PopulationConfig::for_offered_load(200, cfg.erlangs, cfg.holding.mean());
    pop.reg_expiry_s = 30.0;
    pop.churn_buckets = 12;
    cfg.population = Some(pop);
    let r = EmpiricalRunner::run(cfg);
    assert!(r.completed > 0, "calls completed");
    check("population", &r, 0x163c_7e8b_4a96_0bcf);
}
