//! Pipelined inter-router channels as clock-indexed delivery slots.
//!
//! Each directed adjacency in the mesh is realized by a [`Channel`]: a
//! forward lane carrying at most one flit per cycle downstream, and a reverse
//! lane carrying credits and control signals upstream. A link is a pure
//! fixed delay and every link of a network shares one latency and one
//! clock, so the ring slot a message lands in is a function of the cycle
//! alone: a lane of delay `D` is a ring of `D + 1` slots, a push at cycle
//! `t` writes slot `(t + D) mod (D + 1)`, and delivery at cycle `t` takes
//! slot `t mod (D + 1)` ([`Slots`]). Nothing rotates per cycle and the
//! rings keep no heads or counters; occupancy queries scan the slots, off
//! the hot path. The one spare slot keeps the slot delivered in a cycle
//! apart from the slot written in it, so the two ends of a link never touch
//! the same slot within a cycle — which lets the parallel engine run
//! delivery and router steps without a barrier between them (DESIGN.md
//! §12). No per-cycle heap traffic (DESIGN.md §8).
//!
//! The forward lane has delay `L + 2`: one cycle of switch traversal at the
//! sender, `L` cycles of wire, with the downstream buffer write overlapped
//! with the last wire cycle (Table I of the paper). The reverse lane has
//! delay `L` — credits and the one-bit credit-tracking control line are pure
//! wires.

use crate::flit::{Cycle, Flit, VcId, VirtualNetwork};
use crate::geom::{Direction, NodeId};
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};

/// A buffer-release token flowing upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Credit {
    /// Frees one slot of a specific downstream VC (classic per-VC credit
    /// flow control, used by the backpressured baseline).
    Vc(VcId),
    /// Frees one slot anywhere in a downstream virtual network (AFC's lazy
    /// VC allocation tracks credits at virtual-network granularity,
    /// Section III-E).
    Vnet(VirtualNetwork),
}

/// A control signal on the one-bit sideband line (paper Section III-A).
///
/// Fault notifications ride the same sideband: a router that detects (or
/// learns of) a dead link rebroadcasts it to every neighbor, flooding
/// reachability knowledge across the mesh one hop per cycle — the same
/// gossip pattern AFC uses for congestion (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlSignal {
    /// The downstream router is switching to backpressured mode: start
    /// counting its credits now (arrives `L` cycles after the switch began).
    StartCreditTracking,
    /// The downstream router has switched to backpressureless mode: stop
    /// counting credits and treat its buffers as empty.
    StopCreditTracking,
    /// The directed link leaving `node` toward `dir` transitioned to
    /// `alive` at epoch `epoch`. Flooded hop-by-hop; receivers keep only
    /// the highest epoch per link, so a revival supersedes a kill (and
    /// vice versa) regardless of gossip arrival order (DESIGN.md §15).
    LinkFault {
        /// Upstream endpoint of the affected link.
        node: NodeId,
        /// Outgoing direction of the affected link at `node`.
        dir: Direction,
        /// Monotonic per-link epoch of the transition (1-based).
        epoch: u32,
        /// New alive state of the link.
        alive: bool,
    },
    /// Credit re-sync handshake (DESIGN.md §15): the downstream router's
    /// input buffers on the revived link `node -> dir` have fully drained,
    /// so the upstream router may reset that output port's credit counters
    /// to full. Sent once per revival epoch, on the revived link's own
    /// reverse lane — FIFO lane ordering guarantees every stale drain
    /// credit arrives before this signal.
    CreditResync {
        /// Upstream endpoint of the revived link (the signal's addressee).
        node: NodeId,
        /// Outgoing direction of the revived link at `node`.
        dir: Direction,
        /// Revival epoch this handshake belongs to (stale handshakes from
        /// an earlier revival are ignored).
        epoch: u32,
    },
}

/// Inline capacity of one reverse-lane slot.
///
/// A router emits at most one credit per input port and at most one mode
/// control signal per cycle onto a given channel (the invariant tests pin
/// this), so the per-cycle fan-in onto one reverse slot is a small
/// constant; 4 leaves slack. Overflow panics rather than spilling.
pub const LANE_CAP: usize = 4;

/// A fixed-capacity inline list: the credits or the control signals one
/// reverse-lane slot carries. Dereferences to the occupied prefix.
#[derive(Debug, Clone, Copy)]
struct Slot<T: Copy> {
    len: u8,
    items: [T; LANE_CAP],
}

impl<T: Copy> Slot<T> {
    fn push(&mut self, item: T) {
        assert!(
            (self.len as usize) < LANE_CAP,
            "reverse-lane slot overflow: more than {LANE_CAP} items in one cycle"
        );
        self.items[self.len as usize] = item;
        self.len += 1;
    }

    /// Writes the length byte and each item (`put`) for a snapshot.
    fn save(&self, w: &mut SnapshotWriter, put: impl Fn(&mut SnapshotWriter, T)) {
        w.put_u8(self.len);
        for &item in self.iter() {
            put(w, item);
        }
    }

    /// Replaces the contents with a slot written by [`Slot::save`],
    /// rejecting lengths above [`LANE_CAP`].
    fn load(
        &mut self,
        r: &mut SnapshotReader<'_>,
        what: &'static str,
        mut get: impl FnMut(&mut SnapshotReader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let n = r.get_u8(what)?;
        if n as usize > LANE_CAP {
            return Err(SnapshotError::Malformed { what });
        }
        self.len = 0;
        for _ in 0..n {
            self.push(get(r)?);
        }
        Ok(())
    }
}

impl<T: Copy> std::ops::Deref for Slot<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

/// One reverse-lane ring slot: the credits and control signals sent
/// upstream in one cycle, delivered credits first (the lane is one wire
/// bundle, FIFO across both kinds).
#[derive(Debug, Clone, Copy)]
pub struct ReverseSlot {
    credits: Slot<Credit>,
    control: Slot<ControlSignal>,
}

impl ReverseSlot {
    // Fill values are never observed: `len` gates every read.
    const EMPTY: ReverseSlot = ReverseSlot {
        credits: Slot {
            len: 0,
            items: [Credit::Vc(VcId(0)); LANE_CAP],
        },
        control: Slot {
            len: 0,
            items: [ControlSignal::StartCreditTracking; LANE_CAP],
        },
    };

    /// Credits arriving back at the upstream router.
    pub fn credits(&self) -> &[Credit] {
        &self.credits
    }

    /// Control signals arriving back at the upstream router.
    pub fn control(&self) -> &[ControlSignal] {
        &self.control
    }

    pub(crate) fn push_credit(&mut self, credit: Credit) {
        self.credits.push(credit);
    }

    pub(crate) fn push_control(&mut self, signal: ControlSignal) {
        self.control.push(signal);
    }

    /// Takes the slot's contents, leaving it empty (stale items past the
    /// lengths are never read).
    pub(crate) fn take(&mut self) -> ReverseSlot {
        let out = *self;
        self.credits.len = 0;
        self.control.len = 0;
        out
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.credits.len == 0 && self.control.len == 0
    }
}

/// Places a flit into a forward-lane ring slot.
///
/// # Panics
///
/// Panics if the slot is already occupied — two flits crossed the same
/// link in the same cycle, a router bug.
pub(crate) fn put_flit(slot: &mut Option<Flit>, flit: Flit) {
    if let Some(first) = slot {
        panic!("link overdriven: two flits pushed in one cycle ({first} then {flit})");
    }
    *slot = Some(flit);
}

/// Ring depths `(forward, reverse)` of links of latency `link_latency`:
/// one slot more than each lane's delay.
pub(crate) fn ring_depths(link_latency: u64) -> (u64, u64) {
    (
        link_latency + Channel::ROUTER_OVERHEAD + 1,
        link_latency + 1,
    )
}

/// The ring slots of one cycle, shared by every channel of a network (all
/// links share one latency): which slot each lane delivers (`*_take`) and
/// which slot a push writes (`*_send`). Derived from the clock once
/// ([`Slots::at`]) and then advanced per cycle ([`Slots::next`]), so the
/// per-message work is plain indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots {
    pub(crate) fwd_take: usize,
    pub(crate) fwd_send: usize,
    pub(crate) rev_take: usize,
    pub(crate) rev_send: usize,
}

impl Slots {
    /// The slots of cycle `now` on links of latency `link_latency`.
    pub fn at(now: Cycle, link_latency: u64) -> Slots {
        let (fwd, rev) = ring_depths(link_latency);
        // A push lands `depth - 1` cycles ahead: slot (now + depth - 1).
        Slots {
            fwd_take: (now % fwd) as usize,
            fwd_send: ((now + fwd - 1) % fwd) as usize,
            rev_take: (now % rev) as usize,
            rev_send: ((now + rev - 1) % rev) as usize,
        }
    }

    /// The slots of the following cycle — `Slots::at(now + 1, L)` without
    /// a division: a cycle sends into the slot the previous cycle took.
    pub fn next(self, link_latency: u64) -> Slots {
        let wrap = |slot: usize, depth: u64| {
            if slot as u64 + 1 == depth {
                0
            } else {
                slot + 1
            }
        };
        let (fwd, rev) = ring_depths(link_latency);
        Slots {
            fwd_take: wrap(self.fwd_take, fwd),
            fwd_send: self.fwd_take,
            rev_take: wrap(self.rev_take, rev),
            rev_send: self.rev_take,
        }
    }
}

fn write_credit(w: &mut SnapshotWriter, c: Credit) {
    match c {
        Credit::Vc(vc) => {
            w.put_u8(0);
            w.put_u8(vc.0);
        }
        Credit::Vnet(vn) => {
            w.put_u8(1);
            w.put_u8(vn.0);
        }
    }
}

fn read_credit(r: &mut SnapshotReader<'_>, vnets: usize) -> Result<Credit, SnapshotError> {
    Ok(match r.get_u8("credit tag")? {
        0 => Credit::Vc(VcId(r.get_u8("credit vc")?)),
        1 => {
            let vn = r.get_u8("credit vnet")?;
            if vn as usize >= vnets {
                return Err(SnapshotError::Malformed {
                    what: "credit vnet",
                });
            }
            Credit::Vnet(VirtualNetwork(vn))
        }
        _ => return Err(SnapshotError::Malformed { what: "credit tag" }),
    })
}

fn write_control(w: &mut SnapshotWriter, s: ControlSignal) {
    match s {
        ControlSignal::StartCreditTracking => w.put_u8(0),
        ControlSignal::StopCreditTracking => w.put_u8(1),
        ControlSignal::LinkFault {
            node,
            dir,
            epoch,
            alive,
        } => {
            w.put_u8(2);
            w.put_usize(node.index());
            w.put_u8(dir.index() as u8);
            w.put_u32(epoch);
            w.put_bool(alive);
        }
        ControlSignal::CreditResync { node, dir, epoch } => {
            w.put_u8(3);
            w.put_usize(node.index());
            w.put_u8(dir.index() as u8);
            w.put_u32(epoch);
        }
    }
}

fn read_control(r: &mut SnapshotReader<'_>) -> Result<ControlSignal, SnapshotError> {
    Ok(match r.get_u8("control tag")? {
        0 => ControlSignal::StartCreditTracking,
        1 => ControlSignal::StopCreditTracking,
        2 => {
            let node = NodeId::new(r.get_usize("control fault node")?);
            let dir = Direction::from_index(r.get_u8("control fault direction")? as usize).ok_or(
                SnapshotError::Malformed {
                    what: "control fault direction",
                },
            )?;
            let epoch = r.get_u32("control fault epoch")?;
            let alive = r.get_bool("control fault alive")?;
            ControlSignal::LinkFault {
                node,
                dir,
                epoch,
                alive,
            }
        }
        3 => {
            let node = NodeId::new(r.get_usize("control resync node")?);
            let dir = Direction::from_index(r.get_u8("control resync direction")? as usize).ok_or(
                SnapshotError::Malformed {
                    what: "control resync direction",
                },
            )?;
            let epoch = r.get_u32("control resync epoch")?;
            ControlSignal::CreditResync { node, dir, epoch }
        }
        _ => {
            return Err(SnapshotError::Malformed {
                what: "control tag",
            })
        }
    })
}

/// A directed channel between two adjacent routers.
///
/// # Examples
///
/// ```
/// use afc_netsim::channel::{Channel, Slots};
/// use afc_netsim::flit::{Flit, PacketId};
/// use afc_netsim::geom::NodeId;
///
/// let mut ch = Channel::new(2); // L = 2 => flit delay 4, credit delay 2
/// let flit = Flit::test_flit(PacketId(0), NodeId::new(0), NodeId::new(1));
/// ch.push_flit(Slots::at(0, 2), flit);
/// let arrived = (1..=10).find(|&t| ch.take_flit(Slots::at(t, 2)).is_some());
/// assert_eq!(arrived, Some(4));
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    /// Forward (flit) ring, `forward_delay() + 1` slots. Written by the
    /// upstream router, taken by the downstream one.
    pub(crate) fwd: Box<[Option<Flit>]>,
    /// Reverse (credit + control) ring, `reverse_delay() + 1` slots.
    /// Written by the downstream router, taken by the upstream one.
    pub(crate) rev: Box<[ReverseSlot]>,
}

impl Channel {
    /// Extra forward-lane delay on top of the wire latency: one cycle of
    /// switch traversal plus the (overlapped) downstream buffer write.
    pub const ROUTER_OVERHEAD: u64 = 2;

    /// Heap bytes owned by this channel's slot rings. The rings are sized
    /// by link latency alone, so this is mesh-size independent — the
    /// property [`crate::network::Network::memory_footprint`] audits.
    pub fn heap_bytes(&self) -> usize {
        self.fwd.len() * std::mem::size_of::<Option<Flit>>()
            + self.rev.len() * std::mem::size_of::<ReverseSlot>()
    }

    /// Creates a channel for a link of latency `link_latency` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `link_latency` is zero (validated earlier by
    /// [`NetworkConfig::validate`](crate::config::NetworkConfig::validate)).
    pub fn new(link_latency: u64) -> Channel {
        assert!(link_latency >= 1, "link latency must be >= 1");
        let (fwd, rev) = ring_depths(link_latency);
        Channel {
            fwd: vec![None; fwd as usize].into_boxed_slice(),
            rev: vec![ReverseSlot::EMPTY; rev as usize].into_boxed_slice(),
        }
    }

    /// Total forward delay (cycles from arbitration win to downstream
    /// arbitration eligibility).
    pub fn forward_delay(&self) -> u64 {
        self.fwd.len() as u64 - 1
    }

    /// Reverse (credit/control) delay in cycles.
    pub fn reverse_delay(&self) -> u64 {
        self.rev.len() as u64 - 1
    }

    /// Sends a flit downstream in the cycle of `at`. At most one flit may
    /// be pushed per cycle.
    ///
    /// # Panics
    ///
    /// Panics if a flit was already pushed this cycle — two flits crossing
    /// the same link in the same cycle is a router bug.
    pub fn push_flit(&mut self, at: Slots, flit: Flit) {
        put_flit(&mut self.fwd[at.fwd_send], flit);
    }

    /// Sends a credit upstream in the cycle of `at`.
    ///
    /// # Panics
    ///
    /// Panics past [`LANE_CAP`] credits in one cycle.
    pub fn push_credit(&mut self, at: Slots, credit: Credit) {
        self.rev[at.rev_send].push_credit(credit);
    }

    /// Sends a control signal upstream in the cycle of `at`.
    ///
    /// # Panics
    ///
    /// Panics past [`LANE_CAP`] signals in one cycle.
    pub fn push_control(&mut self, at: Slots, signal: ControlSignal) {
        self.rev[at.rev_send].push_control(signal);
    }

    /// Takes the flit arriving downstream in the cycle of `at`.
    pub fn take_flit(&mut self, at: Slots) -> Option<Flit> {
        self.fwd[at.fwd_take].take()
    }

    /// Takes the credits and control signals arriving upstream in the
    /// cycle of `at`.
    pub fn take_reverse(&mut self, at: Slots) -> ReverseSlot {
        self.rev[at.rev_take].take()
    }

    /// Number of flits currently in flight on the forward lane (a slot
    /// scan — for audits, not the hot path).
    pub fn flits_in_flight(&self) -> usize {
        self.fwd.iter().filter(|f| f.is_some()).count()
    }

    /// Number of credits currently in flight on the reverse lane (feeds the
    /// network's credit-conservation audit; a slot scan).
    pub fn credits_in_flight(&self) -> usize {
        self.rev.iter().map(|s| s.credits.len as usize).sum()
    }

    /// Whether both lanes are completely empty (a slot scan).
    pub fn is_drained(&self) -> bool {
        self.fwd.iter().all(Option::is_none) && self.rev.iter().all(ReverseSlot::is_empty)
    }

    /// Empties both rings in place, keeping their allocations.
    pub fn reset(&mut self) {
        self.fwd.fill(None);
        self.rev.fill(ReverseSlot::EMPTY);
    }

    /// Serializes both rings in slot order for a snapshot. Ring depths are
    /// not written: they follow from the link latency, which the snapshot
    /// fingerprint records.
    pub fn save(&self, w: &mut SnapshotWriter) {
        for slot in self.fwd.iter() {
            match slot {
                Some(f) => {
                    w.put_bool(true);
                    snapshot::write_flit(w, f);
                }
                None => w.put_bool(false),
            }
        }
        for slot in self.rev.iter() {
            slot.credits.save(w, write_credit);
            slot.control.save(w, write_control);
        }
    }

    /// Restores rings written by [`Channel::save`] into this channel, whose
    /// depths (built from the same link latency) fix the layout. Virtual
    /// network ids of flits and credits must lie below `vnets`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for a bad presence byte, slot length,
    /// tag or virtual network id; decode errors on truncation.
    pub fn load(&mut self, r: &mut SnapshotReader<'_>, vnets: usize) -> Result<(), SnapshotError> {
        for slot in self.fwd.iter_mut() {
            *slot = if r.get_bool("channel flit presence")? {
                let flit = snapshot::read_flit(r)?;
                if flit.vnet.0 as usize >= vnets {
                    return Err(SnapshotError::Malformed {
                        what: "channel flit vnet",
                    });
                }
                Some(flit)
            } else {
                None
            };
        }
        for slot in self.rev.iter_mut() {
            slot.credits
                .load(r, "channel credit count", |r| read_credit(r, vnets))?;
            slot.control
                .load(r, "channel control count", read_control)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketId;
    use crate::geom::NodeId;

    fn flit(n: u64) -> Flit {
        Flit::test_flit(PacketId(n), NodeId::new(0), NodeId::new(1))
    }

    /// Cycles after `sent` until `take` first yields something, or `None`.
    fn arrival(latency: u64, sent: Cycle, mut take: impl FnMut(Slots) -> bool) -> Option<u64> {
        (sent + 1..sent + 100)
            .find(|&t| take(Slots::at(t, latency)))
            .map(|t| t - sent)
    }

    #[test]
    fn forward_delay_is_latency_plus_two() {
        for latency in 1..=4 {
            for sent in [0, 5, 17] {
                let mut ch = Channel::new(latency);
                assert_eq!(ch.forward_delay(), latency + 2);
                ch.push_flit(Slots::at(sent, latency), flit(1));
                let delay = arrival(latency, sent, |at| ch.take_flit(at).is_some());
                assert_eq!(delay, Some(latency + 2));
                assert!(ch.is_drained());
            }
        }
    }

    #[test]
    fn reverse_delay_is_latency() {
        for latency in 1..=4 {
            let mut ch = Channel::new(latency);
            assert_eq!(ch.reverse_delay(), latency);
            let sent = 9;
            ch.push_credit(Slots::at(sent, latency), Credit::Vc(VcId(2)));
            ch.push_control(Slots::at(sent, latency), ControlSignal::StartCreditTracking);
            let delay = arrival(latency, sent, |at| {
                let back = ch.take_reverse(at);
                if back.credits().is_empty() {
                    return false;
                }
                assert_eq!(back.credits(), &[Credit::Vc(VcId(2))]);
                assert_eq!(back.control(), &[ControlSignal::StartCreditTracking]);
                true
            });
            assert_eq!(delay, Some(latency));
            assert!(ch.is_drained());
        }
    }

    #[test]
    fn slots_of_one_cycle_never_collide() {
        // Delivery and pushes of one cycle touch different slots, which is
        // what lets both ends of a link work in the same cycle unordered.
        for latency in 1..=5 {
            for now in 0..50 {
                let at = Slots::at(now, latency);
                assert_ne!(at.fwd_take, at.fwd_send);
                assert_ne!(at.rev_take, at.rev_send);
                assert_eq!(at.next(latency), Slots::at(now + 1, latency));
            }
        }
    }

    #[test]
    #[should_panic(expected = "link overdriven")]
    fn double_push_panics() {
        let mut ch = Channel::new(1);
        ch.push_flit(Slots::at(3, 1), flit(1));
        ch.push_flit(Slots::at(3, 1), flit(2));
    }

    #[test]
    #[should_panic(expected = "reverse-lane slot overflow")]
    fn lane_slot_overflow_panics() {
        let mut ch = Channel::new(1);
        for _ in 0..=LANE_CAP {
            ch.push_credit(Slots::at(0, 1), Credit::Vc(VcId(0)));
        }
    }

    #[test]
    fn pipelining_allows_one_flit_per_cycle() {
        // The engine's order within a cycle: delivery, then pushes.
        let mut ch = Channel::new(2);
        let mut received = Vec::new();
        for t in 0..20u64 {
            let at = Slots::at(t, 2);
            if let Some(f) = ch.take_flit(at) {
                received.push((t, f.packet.0));
            }
            ch.push_flit(at, flit(t));
        }
        // Flit `i`, pushed at cycle `i`, arrives at cycle `i + 4`.
        let want: Vec<(u64, u64)> = (0..16).map(|i| (i + 4, i)).collect();
        assert_eq!(received, want);
        assert_eq!(ch.flits_in_flight(), 4);
        assert!(!ch.is_drained());
    }

    #[test]
    fn drains_to_empty() {
        let mut ch = Channel::new(2);
        ch.push_flit(Slots::at(0, 2), flit(0));
        ch.push_credit(Slots::at(0, 2), Credit::Vnet(VirtualNetwork(1)));
        assert!(!ch.is_drained());
        for t in 1..10 {
            ch.take_flit(Slots::at(t, 2));
            ch.take_reverse(Slots::at(t, 2));
        }
        assert!(ch.is_drained());
    }

    #[test]
    fn credits_and_control_share_fifo_order() {
        // The reverse lane is one wire bundle: a credit sent the cycle
        // before a control signal must arrive the cycle before it. AFC's
        // correctness argument for the reverse switch relies on this.
        let mut ch = Channel::new(2);
        ch.push_credit(Slots::at(0, 2), Credit::Vc(VcId(1)));
        assert!(ch.take_reverse(Slots::at(1, 2)).credits().is_empty());
        ch.push_control(Slots::at(1, 2), ControlSignal::StopCreditTracking);
        let d2 = ch.take_reverse(Slots::at(2, 2));
        assert_eq!(d2.credits(), &[Credit::Vc(VcId(1))]);
        assert!(d2.control().is_empty());
        let d3 = ch.take_reverse(Slots::at(3, 2));
        assert_eq!(d3.control(), &[ControlSignal::StopCreditTracking]);
        assert_eq!(ch.credits_in_flight(), 0);
    }

    #[test]
    fn channel_snapshot_round_trip_is_exact() {
        let mut ch = Channel::new(3);
        ch.push_flit(Slots::at(0, 3), flit(1));
        ch.push_flit(Slots::at(1, 3), flit(2));
        ch.push_credit(Slots::at(1, 3), Credit::Vc(VcId(1)));
        ch.push_credit(Slots::at(1, 3), Credit::Vnet(VirtualNetwork(2)));
        ch.push_control(Slots::at(1, 3), ControlSignal::StopCreditTracking);
        let mut w = SnapshotWriter::new();
        ch.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Channel::new(3);
        let mut r = SnapshotReader::new(&bytes);
        restored.load(&mut r, 3).unwrap();
        r.finish("channel").unwrap();
        assert_eq!(restored.flits_in_flight(), 2);
        assert_eq!(restored.credits_in_flight(), 2);
        // Delivering both to drain must produce identical arrivals.
        for t in 2..12 {
            let at = Slots::at(t, 3);
            assert_eq!(ch.take_flit(at), restored.take_flit(at));
            let (a, b) = (ch.take_reverse(at), restored.take_reverse(at));
            assert_eq!(a.credits(), b.credits());
            assert_eq!(a.control(), b.control());
        }
        assert!(restored.is_drained());
        // A credit on a virtual network the configuration lacks is refused.
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            Channel::new(3).load(&mut r, 2),
            Err(SnapshotError::Malformed {
                what: "credit vnet"
            })
        );
    }

    #[test]
    fn flits_preserve_order() {
        let mut ch = Channel::new(1);
        let mut out = Vec::new();
        for t in 0..12u64 {
            let at = Slots::at(t, 1);
            if let Some(f) = ch.take_flit(at) {
                out.push(f.packet.0);
            }
            if t < 6 {
                ch.push_flit(at, flit(t));
            }
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert!(ch.is_drained());
    }
}
