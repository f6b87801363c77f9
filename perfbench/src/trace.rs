//! The traced run: the benchmark's own copy of the event loop
//! `capacity::experiment::run_world_with` drives, with a span around each
//! call into a layer's public functions.
//!
//! Spans are taken from outside the program: each
//! `Scheduler::pop_at_or_before` is the `des` layer, and each
//! `World::handle` is one event class of the `capacity` world, named by
//! its `Ev` variant (and, for `HopArrive`, by SIP or RTP payload and by
//! forward or final delivery). The loop must reproduce the untraced run
//! exactly; `main` checks the counts it returns against the untraced
//! runner's.

use crate::workloads;
use capacity::experiment::{EmpiricalConfig, SimOptions};
use capacity::world::{Ev, Payload, World};
use des::{EventHandler, Scheduler};
use std::time::Instant;

/// Event classes the traced loop attributes handler time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    PlaceCall,
    PopArrival,
    SipSend,
    SipRelay,
    SipDeliver,
    RtpSend,
    RtpRelay,
    RtpDeliver,
    MediaFrame,
    MediaTick,
    Hangup,
    UasAnswer,
    Churn,
    RetireCall,
    Other,
}

impl Class {
    pub const ALL: [Class; 15] = [
        Class::PlaceCall,
        Class::PopArrival,
        Class::SipSend,
        Class::SipRelay,
        Class::SipDeliver,
        Class::RtpSend,
        Class::RtpRelay,
        Class::RtpDeliver,
        Class::MediaFrame,
        Class::MediaTick,
        Class::Hangup,
        Class::UasAnswer,
        Class::Churn,
        Class::RetireCall,
        Class::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::PlaceCall => "place_call",
            Class::PopArrival => "pop_arrival",
            Class::SipSend => "sip_send",
            Class::SipRelay => "sip_relay",
            Class::SipDeliver => "sip_deliver",
            Class::RtpSend => "rtp_send",
            Class::RtpRelay => "rtp_relay",
            Class::RtpDeliver => "rtp_deliver",
            Class::MediaFrame => "media_frame",
            Class::MediaTick => "media_tick",
            Class::Hangup => "hangup",
            Class::UasAnswer => "uas_answer",
            Class::Churn => "churn",
            Class::RetireCall => "retire_call",
            Class::Other => "other",
        }
    }

    fn of(ev: &Ev) -> Class {
        let sip = |p: &Payload| matches!(p, Payload::Sip(_) | Payload::SipWire(_));
        match ev {
            Ev::PlaceCall | Ev::PlaceOrder | Ev::PlaceOrderFor { .. } => Class::PlaceCall,
            Ev::PopArrival { .. } => Class::PopArrival,
            Ev::SendFrame(f) if sip(&f.payload) => Class::SipSend,
            Ev::SendFrame(_) => Class::RtpSend,
            Ev::HopArrive { at, frame } => match (sip(&frame.payload), *at == frame.dst) {
                (true, false) => Class::SipRelay,
                (true, true) => Class::SipDeliver,
                (false, false) => Class::RtpRelay,
                (false, true) => Class::RtpDeliver,
            },
            Ev::MediaFrame { .. } => Class::MediaFrame,
            Ev::MediaTick(_) => Class::MediaTick,
            Ev::Hangup { .. } => Class::Hangup,
            Ev::UasAnswer { .. } => Class::UasAnswer,
            Ev::ChurnTick { .. } | Ev::ChurnSlice { .. } => Class::Churn,
            Ev::RetireCall { .. } => Class::RetireCall,
            _ => Class::Other,
        }
    }
}

/// Spans and counts of one or more traced runs (summed).
#[derive(Debug, Clone, Default)]
pub struct LoopTrace {
    /// Events handled.
    pub events: u64,
    /// `pop_at_or_before` calls, including the final empty one.
    pub pops: u64,
    pub pop_ns: u64,
    /// Largest pending-event count seen after any handler.
    pub fel_peak_len: usize,
    pub class_ns: [u64; Class::ALL.len()],
    pub class_n: [u64; Class::ALL.len()],
    /// Host ns from the first pop to the loop's end.
    pub loop_ns: u64,
    /// Successful registrations after the first churn tick surfaced.
    pub reregisters: u64,
    pub attempted: u64,
    pub rtp_packets: u64,
    pub sip_messages: u64,
    pub calls_scored: u64,
}

impl LoopTrace {
    pub fn ns(&self, c: Class) -> u64 {
        self.class_ns[c as usize]
    }

    pub fn count(&self, c: Class) -> u64 {
        self.class_n[c as usize]
    }

    pub fn absorb(&mut self, o: &LoopTrace) {
        self.events += o.events;
        self.pops += o.pops;
        self.pop_ns += o.pop_ns;
        self.fel_peak_len = self.fel_peak_len.max(o.fel_peak_len);
        for i in 0..Class::ALL.len() {
            self.class_ns[i] += o.class_ns[i];
            self.class_n[i] += o.class_n[i];
        }
        self.loop_ns += o.loop_ns;
        self.reregisters += o.reregisters;
        self.attempted += o.attempted;
        self.rtp_packets += o.rtp_packets;
        self.sip_messages += o.sip_messages;
        self.calls_scored += o.calls_scored;
    }
}

fn registrations(world: &World) -> u64 {
    world.pbxes.iter().map(|p| p.registrar.stats().0).sum()
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from((b - a).as_nanos()).expect("span under 584 years")
}

/// Run `cfg` to the runner's horizon through the traced loop.
pub fn traced_run(cfg: EmpiricalConfig) -> LoopTrace {
    let opts = SimOptions::default();
    let horizon = workloads::horizon(&cfg);
    let mut t = LoopTrace::default();

    let mut sched: Scheduler<Ev> =
        Scheduler::with_kind_and_capacity(opts.scheduler, cfg.expected_pending_events());
    let mut world = World::with_engine(cfg, opts.media_path, opts.media_kernel)
        .with_signalling(opts.signalling);
    world.prime(&mut sched);
    let primed = Instant::now();

    let mut registered_before_churn = None;
    let mut mark = primed;
    loop {
        let popped = sched.pop_at_or_before(horizon);
        let popped_at = Instant::now();
        t.pops += 1;
        t.pop_ns += ns_between(mark, popped_at);
        let Some((at, ev)) = popped else {
            mark = popped_at;
            break;
        };
        let class = Class::of(&ev);
        if class == Class::Churn && registered_before_churn.is_none() {
            registered_before_churn = Some(registrations(&world));
        }
        world.handle(at, ev, &mut sched);
        let handled_at = Instant::now();
        t.class_ns[class as usize] += ns_between(popped_at, handled_at);
        t.class_n[class as usize] += 1;
        t.events += 1;
        t.fel_peak_len = t.fel_peak_len.max(sched.len());
        mark = handled_at;
    }
    t.loop_ns = ns_between(primed, mark);

    if let Some(before) = registered_before_churn {
        t.reregisters = registrations(&world) - before;
    }
    let report = world.monitor.report();
    t.attempted = world.uacs.iter().map(|u| u.journal.attempted).sum();
    t.rtp_packets = report.rtp_packets;
    t.sip_messages = report.sip_total;
    t.calls_scored = report.calls_scored;
    t
}
