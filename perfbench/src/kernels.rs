//! Kernel rows: each times one public function of a layer on inputs
//! shaped like the workloads', splitting an opaque event-class span into
//! its parts. Each row is the median over batches of the mean host time
//! per call inside a batch.

use crate::report::median;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 15;

/// Median over [`BATCHES`] batches of the host ns per call of `op`, called
/// `iters` times per batch with a running call index.
fn per_call_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    // One untimed batch lets tables and caches fill first.
    for _ in 0..iters {
        op(i);
        i += 1;
    }
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op(i);
                i += 1;
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_batch)
}

/// `rtpcore::g711::ulaw_encode_into` on one 20 ms frame (160 samples).
pub fn g711_encode_ns_per_frame() -> f64 {
    let pcm: Vec<i16> = (0..rtpcore::SAMPLES_PER_FRAME * 8)
        .map(|n| {
            let t = n as f64 / f64::from(rtpcore::SAMPLE_RATE_HZ);
            ((t * 2.0 * std::f64::consts::PI * 440.0).sin() * 9000.0) as i16
        })
        .collect();
    let mut out = vec![0u8; rtpcore::SAMPLES_PER_FRAME];
    per_call_ns(20_000, |i| {
        let at = (i as usize % 8) * rtpcore::SAMPLES_PER_FRAME;
        rtpcore::g711::ulaw_encode_into(
            black_box(&pcm[at..at + rtpcore::SAMPLES_PER_FRAME]),
            &mut out,
        );
        black_box(&out);
    })
}

/// `vmon::Monitor::tap_rtp` round-robin over the 330 flows of 165 calls.
pub fn vmon_tap_rtp_ns() -> f64 {
    const FLOWS: u64 = 330;
    let flows: Vec<vmon::FlowId> = (0..FLOWS)
        .map(|f| vmon::FlowId::from_node_port(1 + (f % 2) as u16, 10_000 + f as u16))
        .collect();
    let mut monitor = vmon::Monitor::new();
    for (f, flow) in flows.iter().enumerate() {
        monitor.register_flow(*flow, &format!("call-{}", f / 2));
    }
    let mut header = rtpcore::RtpHeader {
        marker: false,
        payload_type: 0,
        sequence: 0,
        timestamp: 0,
        ssrc: 0x5eed,
    };
    per_call_ns(100_000, |i| {
        let round = i / FLOWS;
        header.sequence = round as u16;
        header.timestamp = (round * 160) as u32;
        monitor.tap_rtp(
            flows[(i % FLOWS) as usize],
            round as f64 * 0.02,
            0.000_35,
            black_box(&header),
        );
    })
}

/// `netsim::Network::enqueue` of RTP-sized frames over the four duplex
/// links of the testbed star, never queue-limited.
pub fn netsim_enqueue_ns() -> f64 {
    use netsim::{LinkParams, Network, NodeId, SendOutcome};
    let switch = NodeId(0);
    let hosts = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
    let mut net = Network::new();
    for h in hosts {
        net.add_duplex_link(h, switch, LinkParams::fast_ethernet());
    }
    let mut rng = des::StreamRng::seed_from_u64(1);
    let mut dropped = 0u64;
    let ns = per_call_ns(100_000, |i| {
        let host = hosts[(i % 4) as usize];
        let (from, to) = if i % 8 < 4 {
            (host, switch)
        } else {
            (switch, host)
        };
        let now = des::SimTime::from_nanos(i * 5_000);
        match net.enqueue(now, from, to, black_box(218), &mut rng) {
            SendOutcome::Delivered { at } => {
                black_box(at);
            }
            _ => dropped += 1,
        }
    });
    assert_eq!(dropped, 0, "the enqueue row measures the delivered path");
    ns
}

/// `voiceq::estimate_mos` on G.711 inputs with LAN-scale loss.
pub fn voiceq_estimate_mos_ns() -> f64 {
    let mut inputs = voiceq::EModelInputs::ideal_g711();
    per_call_ns(50_000, |i| {
        inputs.packet_loss = (i % 100) as f64 * 1e-4;
        black_box(voiceq::estimate_mos(black_box(&inputs)));
    })
}

const INVITE: &[u8] = b"INVITE sip:1542@pbx.unb.br SIP/2.0\r\n\
Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-7a1c-42\r\n\
Max-Forwards: 70\r\n\
From: <sip:1042@pbx.unb.br>;tag=uac-42\r\n\
To: <sip:1542@pbx.unb.br>\r\n\
Call-ID: call-42@10.0.0.1\r\n\
CSeq: 1 INVITE\r\n\
Contact: <sip:1042@10.0.0.1:5060>\r\n\
Content-Type: application/sdp\r\n\
Content-Length: 139\r\n\
\r\n\
v=0\r\n\
o=1042 42 1 IN IP4 10.0.0.1\r\n\
s=call\r\n\
c=IN IP4 10.0.0.1\r\n\
t=0 0\r\n\
m=audio 10084 RTP/AVP 0 8\r\n\
a=rtpmap:0 PCMU/8000\r\n\
a=rtpmap:8 PCMA/8000\r\n";

const REGISTER: &[u8] = b"REGISTER sip:pbx.unb.br SIP/2.0\r\n\
Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-reg-1000017\r\n\
Max-Forwards: 70\r\n\
From: <sip:1000017@pbx.unb.br>;tag=reg-1000017\r\n\
To: <sip:1000017@pbx.unb.br>\r\n\
Call-ID: reg-1000017@10.0.0.1\r\n\
CSeq: 2 REGISTER\r\n\
Contact: <sip:1000017@10.0.0.1:5060>\r\n\
Authorization: Digest username=\"1000017\", realm=\"pbx.unb.br\", nonce=\"5eed0042\", uri=\"sip:pbx.unb.br\", response=\"0f3c2a1b9d8e7f6a5b4c3d2e1f0a9b8c\"\r\n\
Expires: 3600\r\n\
Content-Length: 0\r\n\
\r\n";

/// `sipcore::wire::WireMessage::parse` plus the Call-ID, CSeq and top Via
/// branch reads the transaction layer makes, alternating an INVITE with
/// SDP and a digest-authenticated REGISTER.
pub fn sipcore_wire_parse_ns() -> f64 {
    use sipcore::wire::WireMessage;
    for msg in [INVITE, REGISTER] {
        let view = WireMessage::parse(msg).expect("benchmark SIP message parses");
        assert!(view.call_id().is_some() && view.cseq().is_some());
        assert!(view.top_via_branch().is_some());
    }
    per_call_ns(20_000, |i| {
        let bytes = if i % 2 == 0 { INVITE } else { REGISTER };
        let view = WireMessage::parse(black_box(bytes)).expect("parses");
        black_box((view.call_id(), view.cseq(), view.top_via_branch()));
    })
}

/// `teletraffic::BlockingCurve::new` at N = 170 over the Fig. 6 loads, µs.
pub fn erlang_b_curve_us() -> f64 {
    let loads = capacity::figures::fig6_default_loads();
    per_call_ns(2_000, |i| {
        let a = teletraffic::Erlangs(loads[i as usize % loads.len()]);
        let curve = teletraffic::BlockingCurve::new(black_box(a), 170);
        let _ = black_box(curve);
    }) / 1e3
}
