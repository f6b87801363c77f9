//! Integration: golden `RunResult::digest()` values for five small cells.
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
//! signalling-only blocking cell.

use asterisk_capacity::prelude::*;
use capacity::experiment::{MediaMode, RunResult};
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
