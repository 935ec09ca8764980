//! The phase kernels of one cycle, written once for both engines
//! (DESIGN.md §8, §12).
//!
//! Each kernel is the body of one phase for one component: a channel's
//! arrivals (its reverse side and its flit side), an NI's retransmit
//! timeouts, an NI's injection attempt, and a router's step with the
//! routing of its outputs. A kernel reads and writes the network only
//! through a [`Cx`], which is statically dispatched:
//!
//! * the serial engine's context is the [`Network`]
//!   itself — its own accumulators and plain bitmask words;
//! * each shard of the parallel engine has a context over the components
//!   it owns that writes a per-shard delta and atomic bitmask words.
//!
//! The engines differ only in how they walk the kernels (their
//! *schedules*): the serial walk visits due channels in ascending order and
//! then the NIs and routers, the sharded walk visits each owned router's
//! incident channels and then its own NIs and routers.

use crate::channel::{self, ReverseSlot, Slots};
use crate::config::NetworkConfig;
use crate::error::SimError;
use crate::faults::{FaultEvent, FaultEventKind, FlitFate};
use crate::flit::{Cycle, Flit};
use crate::geom::{DirMap, Direction, NodeId, PortId};
use crate::network::{ChannelEnds, Network};
use crate::ni::NodeInterface;
use crate::rng::SimRng;
use crate::router::{Router, RouterMode, RouterOutputs};
use crate::stats::NetworkStats;
use crate::topology::Mesh;

/// The counts a cycle moves besides [`NetworkStats`]. The network keeps
/// the running totals; each shard of the parallel engine keeps its
/// cycle's change, which the engine adds in shard order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Credit-conservation audit (raw, never reset): credits pushed onto
    /// reverse lanes, credits delivered upstream, credits lost to faults.
    pub(crate) credits_pushed: u64,
    pub(crate) credits_delivered: u64,
    pub(crate) credits_faulted: u64,
    /// Flits inside routers/channels/held (cross-checked against
    /// [`Network::flits_in_network`] in debug builds).
    pub(crate) in_flight: i64,
    /// Flits sitting in NI retransmit queues.
    pub(crate) retx_queued: i64,
    /// Routers per mode, indexed by [`Network::mode_slot`].
    pub(crate) mode_counts: [i64; 3],
    /// Monotone max over NIs of their reassembly high-water marks; each NI
    /// mark is itself monotone, so this equals a per-cycle max scan.
    pub(crate) ni_high_water_max: usize,
}

impl Tally {
    /// Adds a shard's change.
    pub(crate) fn add(&mut self, d: &Tally) {
        self.credits_pushed += d.credits_pushed;
        self.credits_delivered += d.credits_delivered;
        self.credits_faulted += d.credits_faulted;
        self.in_flight += d.in_flight;
        self.retx_queued += d.retx_queued;
        for (m, dm) in self.mode_counts.iter_mut().zip(d.mode_counts) {
            *m += dm;
        }
        self.ni_high_water_max = self.ni_high_water_max.max(d.ni_high_water_max);
    }
}

/// The activity bitmasks a kernel marks (the declaration order indexes
/// the sharded engine's table of bitmask words).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bits {
    /// Routers that must be stepped.
    Router,
    /// NIs with send-side work.
    Sender,
    /// NIs holding completed packets.
    Delivered,
    /// Channels with a flit in this cycle's forward send slot.
    FwdSend,
    /// Channels with credits or control in this cycle's reverse send slot.
    RevSend,
}

/// What a cycle reads and never writes.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    /// The cycle being stepped and its ring slots.
    pub(crate) now: Cycle,
    pub(crate) at: Slots,
    pub(crate) config: &'a NetworkConfig,
    pub(crate) mesh: &'a Mesh,
    /// The stream the per-router step RNGs fork from.
    pub(crate) rng: &'a SimRng,
    pub(crate) ends: &'a [ChannelEnds],
    /// Outgoing channel per (node, direction).
    pub(crate) out_chan: &'a [DirMap<Option<usize>>],
    /// Incoming channel per (node, direction of the input port).
    pub(crate) in_chan: &'a [DirMap<Option<usize>>],
}

/// Everything of one node a kernel may touch at once, plus the
/// accumulators it writes.
pub(crate) struct Node<'a> {
    pub(crate) router: &'a mut dyn Router,
    pub(crate) ni: &'a mut NodeInterface,
    /// Cycle up to which the router's counters are accounted.
    pub(crate) accounted_upto: &'a mut Cycle,
    /// The router's mode after its last step.
    pub(crate) mode: &'a mut RouterMode,
    pub(crate) stats: &'a mut NetworkStats,
    pub(crate) tally: &'a mut Tally,
}

/// What the phase kernels read and write: the cycle context of one engine
/// (see the module docs).
pub(crate) trait Cx {
    fn view(&self) -> View<'_>;
    fn node(&mut self, i: usize) -> Node<'_>;
    fn fwd_slot(&mut self, c: usize, slot: usize) -> &mut Option<Flit>;
    fn rev_slot(&mut self, c: usize, slot: usize) -> &mut ReverseSlot;
    fn set_bit(&mut self, bits: Bits, i: usize, on: bool);
    /// Puts a dropped flit on the NACK circuit, back at its source at
    /// `ready`.
    fn nack(&mut self, ready: Cycle, flit: Flit);

    /// Whether a credit arriving over `ends` now is lost to a fault.
    fn credit_lost(&mut self, ends: ChannelEnds) -> bool;
    /// The fault plane's verdict on a flit arriving over `ends` now.
    fn flit_fate(&mut self, ends: ChannelEnds) -> FlitFate;
    /// Passes channel `c`'s arrival through its hold-back queue: the flit
    /// that enters the receiver this cycle, if any.
    fn hold(&mut self, c: usize, to: NodeId, arrived: Option<Flit>) -> Option<Flit>;
    /// Logs a fault on channel `c` (`is_flit`: a flit's fate, else a lost
    /// credit).
    fn log_fault(&mut self, c: usize, is_flit: bool, ev: FaultEvent);
}

/// Phase 1, reverse side of channel `c`: this cycle's credits and control
/// signals reach the upstream router; credits cross the fault plane's
/// credit-loss stage on the way.
#[inline]
pub(crate) fn back_arrival<C: Cx>(cx: &mut C, c: usize) {
    let v = cx.view();
    let (now, take, ends) = (v.now, v.at.rev_take, v.ends[c]);
    let from = ends.from.index();
    let port = PortId::Net(ends.dir);
    let back = cx.rev_slot(c, take).take();
    for &credit in back.credits() {
        if cx.credit_lost(ends) {
            let node = cx.node(from);
            node.stats.credits_lost += 1;
            node.stats.faults_injected += 1;
            node.tally.credits_faulted += 1;
            let ev = FaultEvent {
                cycle: now,
                from: ends.from,
                dir: ends.dir,
                kind: FaultEventKind::CreditLost,
            };
            cx.log_fault(c, false, ev);
            continue;
        }
        let node = cx.node(from);
        node.tally.credits_delivered += 1;
        node.router.receive_credit(port, credit, now);
        cx.set_bit(Bits::Router, from, true);
    }
    for &signal in back.control() {
        cx.node(from).router.receive_control(port, signal, now);
        cx.set_bit(Bits::Router, from, true);
    }
}

/// Phase 1, flit side of channel `c`: the flit arriving this cycle (taken
/// from the ring when `due`) or the oldest held-back one crosses the fault
/// plane (drop/corrupt/kill) and the age watchdog, then enters the
/// downstream router.
#[inline]
pub(crate) fn flit_arrival<C: Cx>(cx: &mut C, c: usize, due: bool) -> Result<(), SimError> {
    let v = cx.view();
    let (now, take, ends, limit) = (v.now, v.at.fwd_take, v.ends[c], v.config.max_flit_age);
    let to = ends.to.index();
    let arrived = if due {
        cx.fwd_slot(c, take).take()
    } else {
        None
    };
    let Some(mut flit) = cx.hold(c, ends.to, arrived) else {
        return Ok(());
    };
    match cx.flit_fate(ends) {
        FlitFate::Drop => {
            cx.log_fault(
                c,
                true,
                FaultEvent::for_flit(now, ends.from, ends.dir, &flit, true),
            );
            let node = cx.node(to);
            node.stats.flits_lost_to_faults += 1;
            node.stats.faults_injected += 1;
            node.tally.in_flight -= 1;
            return Ok(());
        }
        FlitFate::Corrupt => {
            flit.corrupt();
            cx.node(to).stats.faults_injected += 1;
            cx.log_fault(
                c,
                true,
                FaultEvent::for_flit(now, ends.from, ends.dir, &flit, false),
            );
        }
        FlitFate::Deliver => {}
    }
    let age = now.saturating_sub(flit.injected_at);
    if limit > 0 && age > limit {
        return Err(SimError::FlitOverAge {
            cycle: now,
            limit,
            age,
            node: ends.to,
            flit,
        });
    }
    let port = PortId::Net(ends.dir.opposite());
    cx.node(to).router.receive_flit(port, flit, now);
    cx.set_bit(Bits::Router, to, true);
    Ok(())
}

/// Phase 2a, NI `i`: retransmit timeouts fire (bounded attempts may retire
/// packets as unreachable here).
#[inline]
pub(crate) fn retransmit_timeouts<C: Cx>(cx: &mut C, i: usize) {
    let now = cx.view().now;
    let node = cx.node(i);
    let (copies0, abandoned0) = (
        node.stats.flits_retransmit_copies,
        node.stats.flits_abandoned,
    );
    node.ni.check_timeouts(now, node.stats);
    let copies = node.stats.flits_retransmit_copies - copies0;
    // Copies purged when a packet was given up never inject.
    node.tally.retx_queued += copies as i64 - (node.stats.flits_abandoned - abandoned0) as i64;
    if copies > 0 {
        // Re-materialized copies must be visible to the masked injection
        // walk.
        cx.set_bit(Bits::Sender, i, true);
    }
}

/// Phase 2b, NI `i`: one injection attempt.
#[inline]
pub(crate) fn inject<C: Cx>(cx: &mut C, i: usize) {
    let now = cx.view().now;
    let node = cx.node(i);
    let (injected0, retransmitted0) = (node.stats.flits_injected, node.stats.flits_retransmitted);
    node.ni.try_inject(node.router, now, node.stats);
    let retransmitted = node.stats.flits_retransmitted - retransmitted0;
    let entered = node.stats.flits_injected - injected0 + retransmitted;
    node.tally.in_flight += entered as i64;
    node.tally.retx_queued -= retransmitted as i64;
    let sending = node.ni.pending_packets() > 0 || node.ni.pending_retransmits() > 0;
    if entered > 0 {
        cx.set_bit(Bits::Router, i, true);
    }
    cx.set_bit(Bits::Sender, i, sending);
}

/// Phase 3, router `i`: replay its pending idle cycles, step it, and route
/// its outputs — flits and credits into this cycle's send slots, ejected
/// flits into the local NI, dropped flits onto the NACK circuit. `out` is
/// the step's scratch buffer.
#[inline]
pub(crate) fn step_router<C: Cx>(
    cx: &mut C,
    i: usize,
    out: &mut RouterOutputs,
) -> Result<(), SimError> {
    let v = cx.view();
    let (now, at, latency) = (v.now, v.at, v.config.link_latency);
    let node_id = NodeId::new(i);
    let mut rng = v.rng.fork((now << 16) ^ i as u64);
    let node = cx.node(i);
    let pending_idle = now - *node.accounted_upto;
    if pending_idle > 0 {
        #[cfg(debug_assertions)]
        let expected = node.router.counters_view(pending_idle);
        node.router.note_idle_cycles(pending_idle);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            *node.router.counters(),
            expected,
            "router {i}: note_idle_cycles disagrees with counters_view"
        );
    }
    *node.accounted_upto = now + 1;
    out.clear();
    node.router.step(now, &mut rng, out);

    let mut credits = 0;
    for dir in Direction::ALL {
        if let Some(flit) = out.flits[PortId::Net(dir)] {
            let Some(chan) = cx.view().out_chan[i][dir] else {
                return Err(SimError::Misrouted {
                    cycle: now,
                    node: node_id,
                    dir,
                    flit,
                });
            };
            channel::put_flit(cx.fwd_slot(chan, at.fwd_send), flit);
            cx.set_bit(Bits::FwdSend, chan, true);
        }
        for &credit in &out.credits[PortId::Net(dir)] {
            if let Some(chan) = cx.view().in_chan[i][dir] {
                cx.rev_slot(chan, at.rev_send).push_credit(credit);
                cx.set_bit(Bits::RevSend, chan, true);
                credits += 1;
            }
        }
    }
    if out.flits[PortId::Local].is_some() {
        return Err(SimError::ProtocolViolation {
            cycle: now,
            node: node_id,
            what: "routers must use `ejected`, not the Local flit slot",
        });
    }
    for &signal in &out.control {
        for dir in Direction::ALL {
            let Some(chan) = cx.view().in_chan[i][dir] else {
                continue;
            };
            cx.rev_slot(chan, at.rev_send).push_control(signal);
            cx.set_bit(Bits::RevSend, chan, true);
        }
    }

    let node = cx.node(i);
    node.tally.credits_pushed += credits;
    let mut delivered = false;
    if !out.ejected.is_empty() {
        node.tally.in_flight -= out.ejected.len() as i64;
        node.ni
            .receive_flits(out.ejected.drain(..), now, node.stats);
        node.tally.ni_high_water_max = node
            .tally
            .ni_high_water_max
            .max(node.ni.reassembly_high_water());
        delivered = node.ni.has_delivered();
    }
    node.tally.in_flight -= out.dropped.len() as i64;
    let mode = node.router.mode();
    if mode != *node.mode {
        node.tally.mode_counts[Network::mode_slot(*node.mode)] -= 1;
        node.tally.mode_counts[Network::mode_slot(mode)] += 1;
        *node.mode = mode;
    }
    let quiescent = node.router.is_quiescent();
    if delivered {
        cx.set_bit(Bits::Delivered, i, true);
    }
    // Dropped flits ride the modeled NACK circuit back to their source:
    // latency proportional to the Manhattan distance, plus a small fixed
    // processing cost.
    for flit in out.dropped.drain(..) {
        let dist = cx.view().mesh.distance(node_id, flit.src) as u64;
        cx.nack(now + dist * latency + 2, flit);
    }
    cx.set_bit(Bits::Router, i, !quiescent);
    Ok(())
}
