//! Shared fault-awareness state for fault-tolerant routing (DESIGN.md §13)
//! and self-healing reconvergence (DESIGN.md §15).
//!
//! Every router embeds a [`FaultAwareness`]: the per-router record of which
//! directed links are known dead, the gossip queue that floods new facts to
//! neighbors over the control sideband, and a routing table over the *alive*
//! graph that replaces dimension-ordered routing while any fault is known.
//!
//! ## Epoch-versioned facts
//!
//! Each directed link carries a monotonic **epoch**: the 1-based index of
//! its alive-state transitions in the fault plan (epoch 0 is the implicit
//! initial alive state; see [`FaultPlan::link_timeline`]
//! (crate::faults::FaultPlan::link_timeline)). A fault fact is the triple
//! `(link, epoch, alive)`; a router accepts a fact only when its epoch
//! exceeds the stored one, so a revival supersedes a kill — and vice versa —
//! regardless of gossip arrival order. Stale facts still in flight when a
//! link revives are rejected on arrival instead of resurrecting the dead
//! state. Accepted alive facts are *retained* (never purged): purging would
//! reset the link's epoch floor to 0 and let a delayed low-epoch kill fact
//! be re-accepted, permanently wedging the router in degraded mode.
//!
//! ## Determinism contract
//!
//! Fault knowledge changes only through two deterministic inputs: the
//! engine's link-event detection schedule (a pure function of the fault
//! plan) and [`ControlSignal::LinkFault`] gossip arriving over channels. The
//! alive routing table is a pure function of the fact map, rebuilt lazily;
//! no randomness, no wall clock. While no link is believed dead
//! ([`is_clean`](FaultAwareness::is_clean)), routers MUST take their
//! historical routing paths untouched — fault-free runs stay bit-identical
//! to builds that predate this module, and a fully-healed router is
//! byte-identical in behavior to one that never faulted.
//!
//! ## Routing rule
//!
//! For each destination the table holds the first hop of a shortest path in
//! the directed graph of alive links. Ties prefer the dimension-ordered
//! productive direction (X before Y), then the canonical [`Direction::ALL`]
//! order, so the detour deviates minimally from DOR and is identical on
//! every engine path. Unreachable destinations are reported so callers can
//! terminate the packet cleanly (drop → NACK → bounded retransmit →
//! `Unreachable`).
//!
//! The whole table comes from one forward BFS from this node over a dense
//! per-node dead-output bitmask. Every node carries the set of this node's
//! output directions that begin *some* shortest path to it (the union of
//! its shortest-path predecessors' sets), so the set holds exactly the
//! directions `d` minimizing `1 + dist(neighbor_d, dest)` — the argmin the
//! tie-break then resolves (DESIGN.md §13.3).

use crate::channel::ControlSignal;
use crate::flit::Cycle;
use crate::geom::{DirMap, Direction, NodeId};
use crate::router::RouterOutputs;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topology::Mesh;
use std::collections::{BTreeMap, VecDeque};

/// Fault notifications rebroadcast per router per cycle. The reverse-lane
/// slot capacity is [`LANE_CAP`](crate::channel::LANE_CAP) = 4 and a router
/// emits at most one mode-control signal and at most one credit-resync
/// signal per cycle, so 2 fault signals always fit with slack.
pub const GOSSIP_PER_CYCLE: usize = 2;

/// Next-hop table entry: direction index, local delivery, or unreachable.
const HOP_LOCAL: u8 = 4;
const HOP_UNREACHABLE: u8 = u8::MAX;

/// Table-rebuild markers above the 4 first-hop mask bits: the BFS origin
/// (visited, empty mask) and membership of the depth level being built.
const BFS_ORIGIN: u8 = 0x10;
const BFS_FRONTIER: u8 = 0x80;

/// Outcome of a fault-aware route lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The destination is this node.
    Local,
    /// Forward toward `0`'s direction.
    Dir(Direction),
    /// No alive path from this node to the destination.
    Unreachable,
}

/// The stored state of one directed link: highest epoch seen and the alive
/// state that epoch carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinkFact {
    epoch: u32,
    alive: bool,
}

/// What a newly accepted fault fact changed *locally* — returned from
/// [`FaultAwareness::learn`] so routers can trigger mechanism-specific
/// reactions (port unmasking, credit re-sync) without `FaultAwareness`
/// knowing any mechanism's internals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUpdate {
    /// This node's own output link changed: `(direction, new alive state,
    /// epoch)`.
    pub local_out: Option<(Direction, bool, u32)>,
    /// An input port of this node changed (the link feeding it transitioned):
    /// `(local input direction, new alive state, epoch)`.
    pub local_in: Option<(Direction, bool, u32)>,
}

/// The derived alive-graph routing state of one router.
#[derive(Debug, Clone)]
struct AliveGraph {
    /// Dense mirror of the dead facts: bit `d` of `dead_mask[v]` is set iff
    /// the link `v -> d` is believed dead.
    dead_mask: Vec<u8>,
    /// Per-destination next hop over the alive graph (`HOP_*` encoding).
    table: Vec<u8>,
    /// BFS visit queue, reused across rebuilds.
    queue: Vec<u32>,
}

/// Per-router fault mask, gossip queue and alive-graph routing table.
#[derive(Debug, Clone)]
pub struct FaultAwareness {
    node: NodeId,
    mesh: Mesh,
    /// Believed-dead output links at this node, cached for O(1) port
    /// masking.
    dead_out: DirMap<bool>,
    /// Input ports fed by a believed-dead link. While a link's death is
    /// known here, no flit can arrive on that port (kills are absolute
    /// until revival, and detection happens strictly after the kill), which
    /// is what makes orphaned-wormhole cleanup on these ports provably
    /// safe.
    dead_in: DirMap<bool>,
    /// Highest-epoch fact per directed link, network-wide. Ordered so
    /// snapshots and table rebuilds are deterministic. Alive facts are
    /// retained to keep the epoch floor monotonic (module docs).
    facts: BTreeMap<(usize, u8), LinkFact>,
    /// Number of facts whose state is dead — `is_clean()` is this reaching
    /// zero, which re-enables the exact legacy-DOR fast path.
    dead_count: usize,
    /// Facts queued for rebroadcast to all neighbors.
    pending_gossip: VecDeque<(NodeId, Direction, u32, bool)>,
    /// The dead mask and next-hop table; `None` until the first fact is
    /// learned, so a router that never hears of a fault pays one pointer.
    graph: Option<Box<AliveGraph>>,
    /// The table is stale: rebuild it on the next lookup.
    dirty: bool,
    /// Cycle the first local fault was recorded (detection-latency stat
    /// anchor; not part of routing).
    first_fault_at: Option<Cycle>,
}

impl FaultAwareness {
    /// Creates clean (fault-free) awareness state for `node`.
    pub fn new(node: NodeId, mesh: Mesh) -> FaultAwareness {
        FaultAwareness {
            node,
            mesh,
            dead_out: DirMap::default(),
            dead_in: DirMap::default(),
            facts: BTreeMap::new(),
            dead_count: 0,
            pending_gossip: VecDeque::new(),
            graph: None,
            dirty: false,
            first_fault_at: None,
        }
    }

    /// True while no link is believed dead — routers must use their
    /// historical (DOR) routing paths so fault-free runs stay bit-identical
    /// and a fully-healed network reconverges to the exact clean fast path.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.dead_count == 0
    }

    /// Whether this node's output link toward `dir` is believed dead.
    #[inline]
    pub fn dead_out(&self, dir: Direction) -> bool {
        self.dead_out[dir]
    }

    /// Whether the input port from `dir` is fed by a believed-dead link.
    #[inline]
    pub fn dead_in(&self, dir: Direction) -> bool {
        self.dead_in[dir]
    }

    /// Records an epoch-versioned fact about the directed link
    /// `node -> dir`. Returns `Some` when the fact's epoch exceeds the
    /// stored one (new knowledge: it is applied, queued for gossip, and
    /// the local mask changes are reported); `None` for a stale or
    /// duplicate fact.
    pub fn learn(
        &mut self,
        node: NodeId,
        dir: Direction,
        epoch: u32,
        alive: bool,
        now: Cycle,
    ) -> Option<LinkUpdate> {
        let key = (node.index(), dir.index() as u8);
        let prev = self.facts.get(&key).copied();
        if epoch <= prev.map_or(0, |f| f.epoch) {
            return None;
        }
        let was_alive = prev.is_none_or(|f| f.alive);
        self.facts.insert(key, LinkFact { epoch, alive });
        match (was_alive, alive) {
            (true, false) => self.dead_count += 1,
            (false, true) => self.dead_count -= 1,
            _ => {}
        }
        self.set_dead_bit(node, dir, !alive);
        let mut update = LinkUpdate::default();
        if node == self.node {
            self.dead_out[dir] = !alive;
            if !alive {
                self.first_fault_at.get_or_insert(now);
            }
            update.local_out = Some((dir, alive, epoch));
        }
        if self.mesh.neighbor(node, dir) == Some(self.node) {
            self.dead_in[dir.opposite()] = !alive;
            update.local_in = Some((dir.opposite(), alive, epoch));
        }
        self.pending_gossip.push_back((node, dir, epoch, alive));
        self.dirty = true;
        Some(update)
    }

    /// Handles a control-sideband signal; returns `Some` when it was a
    /// [`ControlSignal::LinkFault`] carrying new knowledge (see
    /// [`FaultAwareness::learn`]). [`ControlSignal::CreditResync`] is a
    /// router-level handshake, not a routing fact, and is ignored here.
    pub fn on_control(&mut self, signal: ControlSignal, now: Cycle) -> Option<LinkUpdate> {
        match signal {
            ControlSignal::LinkFault {
                node,
                dir,
                epoch,
                alive,
            } => self.learn(node, dir, epoch, alive, now),
            _ => None,
        }
    }

    /// The epoch stored for the directed link `node -> dir` (0 when no fact
    /// is held — the implicit initial alive state).
    pub fn link_epoch(&self, node: NodeId, dir: Direction) -> u32 {
        self.facts
            .get(&(node.index(), dir.index() as u8))
            .map_or(0, |f| f.epoch)
    }

    /// True while fault facts await rebroadcast (the owning router must not
    /// report itself quiescent, or the flood would stall).
    #[inline]
    pub fn has_pending_gossip(&self) -> bool {
        !self.pending_gossip.is_empty()
    }

    /// Emits up to [`GOSSIP_PER_CYCLE`] queued fault facts onto the control
    /// sideband (the engine broadcasts each to every neighbor).
    pub fn drain_gossip(&mut self, out: &mut RouterOutputs) {
        for _ in 0..GOSSIP_PER_CYCLE {
            let Some((node, dir, epoch, alive)) = self.pending_gossip.pop_front() else {
                return;
            };
            out.control.push(ControlSignal::LinkFault {
                node,
                dir,
                epoch,
                alive,
            });
        }
    }

    /// Fault-aware next hop toward `dest` over the alive graph.
    ///
    /// Callers must keep the historical DOR path while [`is_clean`]
    /// (FaultAwareness::is_clean) holds; this method is the degraded-mode
    /// replacement, not a DOR re-implementation (on a clean table it agrees
    /// with DOR's dimension order anyway, but costs a table rebuild).
    pub fn route(&mut self, dest: NodeId) -> RouteOutcome {
        if dest == self.node {
            return RouteOutcome::Local;
        }
        let graph = self
            .graph
            .as_deref_mut()
            .expect("route() is only consulted once a fact is learned");
        if self.dirty {
            graph.rebuild_table(&self.mesh, self.node);
            self.dirty = false;
        }
        match graph.table[dest.index()] {
            HOP_LOCAL => RouteOutcome::Local,
            HOP_UNREACHABLE => RouteOutcome::Unreachable,
            i => RouteOutcome::Dir(Direction::from_index(i as usize).expect("table direction")),
        }
    }

    /// Fills `out` with the dead output directions from `dirs`, relaxed so
    /// at least `flits` free ports remain: a bufferless router holding more
    /// flits than alive ports must overflow into dead links (the fault
    /// plane drops those flits with full accounting; the retransmit layer
    /// recovers them) rather than violate its port-count invariant.
    pub fn fill_blocked(&self, dirs: &[Direction], flits: usize, out: &mut Vec<Direction>) {
        out.clear();
        for &d in dirs {
            if self.dead_out[d] {
                out.push(d);
            }
        }
        while !out.is_empty() && flits > dirs.len() - out.len() {
            out.pop();
        }
    }

    /// Cycle the first local (output-link) fault was recorded, if any.
    pub fn first_fault_at(&self) -> Option<Cycle> {
        self.first_fault_at
    }

    /// Heap bytes owned by this awareness state. The O(mesh) pieces — the
    /// dead mask, the next-hop table and the BFS queue — stay
    /// unallocated until the first fact is learned, so clean runs cost
    /// O(1) per router here.
    pub fn heap_bytes(&self) -> usize {
        self.facts.len() * std::mem::size_of::<((usize, u8), LinkFact)>()
            + self.pending_gossip.capacity() * std::mem::size_of::<(NodeId, Direction, u32, bool)>()
            + self.graph.as_deref().map_or(0, |g| {
                std::mem::size_of::<AliveGraph>()
                    + g.dead_mask.capacity()
                    + g.table.capacity()
                    + g.queue.capacity() * std::mem::size_of::<u32>()
            })
    }

    /// Returns the awareness state to clean (fault-free) in place: every
    /// mask, the fact map, the gossip queue, and the first-fault anchor are
    /// cleared, exactly as freshly constructed. The alive-graph state keeps
    /// its allocations with the mask zeroed and the table emptied (both are
    /// re-derived from facts and never consulted while clean).
    pub fn reset(&mut self) {
        self.dead_out = DirMap::default();
        self.dead_in = DirMap::default();
        self.facts.clear();
        self.dead_count = 0;
        if let Some(graph) = &mut self.graph {
            graph.dead_mask.fill(0);
            graph.table.clear();
        }
        self.pending_gossip.clear();
        self.dirty = false;
        self.first_fault_at = None;
    }

    /// Sets or clears the dead bit of the link `node -> dir`, allocating
    /// the mask on first use.
    fn set_dead_bit(&mut self, node: NodeId, dir: Direction, dead: bool) {
        let n = self.mesh.node_count();
        let mask = &mut self
            .graph
            .get_or_insert_with(|| {
                Box::new(AliveGraph {
                    dead_mask: vec![0; n],
                    table: Vec::new(),
                    queue: Vec::new(),
                })
            })
            .dead_mask[node.index()];
        let bit = 1u8 << dir.index();
        if dead {
            *mask |= bit;
        } else {
            *mask &= !bit;
        }
    }

    /// Serializes the fault state (fact map, gossip queue, first-fault
    /// cycle). The routing table and cached masks are derived state and are
    /// rebuilt on load.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.facts.len());
        for (&(node, dir), fact) in &self.facts {
            w.put_usize(node);
            w.put_u8(dir);
            w.put_u32(fact.epoch);
            w.put_bool(fact.alive);
        }
        w.put_usize(self.pending_gossip.len());
        for &(node, dir, epoch, alive) in &self.pending_gossip {
            w.put_usize(node.index());
            w.put_u8(dir.index() as u8);
            w.put_u32(epoch);
            w.put_bool(alive);
        }
        match self.first_fault_at {
            Some(cycle) => {
                w.put_bool(true);
                w.put_u64(cycle);
            }
            None => w.put_bool(false),
        }
    }

    /// Restores state written by [`FaultAwareness::save`], recomputing the
    /// derived masks and marking the routing table for rebuild.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] for facts that are not in strictly
    /// ascending key order (the order `save` writes — a duplicate key would
    /// otherwise be counted dead twice), for facts or gossip naming a link
    /// the mesh does not have, and for epoch-0 facts or gossip (epoch 0 is
    /// the implicit initial state, never a transition).
    pub fn load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let known = r.get_usize("fault-awareness fact count")?;
        self.reset();
        let mut last_key = None;
        for _ in 0..known {
            let node = r.get_usize("fault-awareness fact node")?;
            let dir = r.get_u8("fault-awareness fact direction")?;
            let epoch = r.get_u32("fault-awareness fact epoch")?;
            let alive = r.get_bool("fault-awareness fact alive")?;
            let (node, d) = self.checked_link(node, dir, epoch, "fault-awareness fact")?;
            let key = (node.index(), dir);
            if last_key.is_some_and(|last| last >= key) {
                return Err(SnapshotError::Malformed {
                    what: "fault-awareness fact order",
                });
            }
            last_key = Some(key);
            self.facts.insert(key, LinkFact { epoch, alive });
            if !alive {
                self.dead_count += 1;
            }
            self.set_dead_bit(node, d, !alive);
            if node == self.node {
                self.dead_out[d] = !alive;
            }
            if self.mesh.neighbor(node, d) == Some(self.node) {
                self.dead_in[d.opposite()] = !alive;
            }
        }
        for _ in 0..r.get_usize("fault-awareness gossip count")? {
            let node = r.get_usize("fault-awareness gossip node")?;
            let dir = r.get_u8("fault-awareness gossip direction")?;
            let epoch = r.get_u32("fault-awareness gossip epoch")?;
            let alive = r.get_bool("fault-awareness gossip alive")?;
            let (node, d) = self.checked_link(node, dir, epoch, "fault-awareness gossip")?;
            self.pending_gossip.push_back((node, d, epoch, alive));
        }
        if r.get_bool("fault-awareness first-fault presence")? {
            self.first_fault_at = Some(r.get_u64("fault-awareness first-fault cycle")?);
        }
        self.dirty = !self.facts.is_empty();
        Ok(())
    }

    /// Validates a loaded `(node, dir, epoch)` triple: the directed link
    /// must exist in the mesh and the epoch must be a transition (≥ 1).
    fn checked_link(
        &self,
        node: usize,
        dir: u8,
        epoch: u32,
        what: &'static str,
    ) -> Result<(NodeId, Direction), SnapshotError> {
        let link = Direction::from_index(dir as usize)
            .filter(|_| node < self.mesh.node_count() && epoch > 0)
            .map(|d| (NodeId::new(node), d))
            .filter(|&(n, d)| self.mesh.neighbor(n, d).is_some());
        link.ok_or(SnapshotError::Malformed { what })
    }
}

impl AliveGraph {
    /// Rebuilds the per-destination next-hop table of `node` with one
    /// forward BFS from it over alive links, one depth level at a time.
    /// While it runs, `table[v]` holds the bitmask of `node`'s output
    /// directions that start a shortest path to `v`; a node reached again
    /// while it still sits in the level being built ([`BFS_FRONTIER`]) is
    /// another shortest-path predecessor and merges that predecessor's
    /// mask. The masks are then resolved by the tie-break order.
    fn rebuild_table(&mut self, mesh: &Mesh, node: NodeId) {
        let n = mesh.node_count();
        let me = node.index();
        self.table.clear();
        self.table.resize(n, 0);
        self.queue.clear();
        self.table[me] = BFS_ORIGIN;
        self.queue.push(me as u32);
        let mut level = 0..1;
        while !level.is_empty() {
            for qi in level.clone() {
                let u = self.queue[qi] as usize;
                for dir in Direction::ALL {
                    if self.dead_mask[u] & (1 << dir.index()) != 0 {
                        continue;
                    }
                    let Some(v) = mesh.neighbor(NodeId::new(u), dir) else {
                        continue;
                    };
                    let via = if u == me {
                        1 << dir.index()
                    } else {
                        self.table[u]
                    };
                    let slot = &mut self.table[v.index()];
                    if *slot == 0 {
                        *slot = BFS_FRONTIER | via;
                        self.queue.push(v.index() as u32);
                    } else if *slot & BFS_FRONTIER != 0 {
                        *slot |= via;
                    }
                }
            }
            let next = level.end..self.queue.len();
            for qi in next.clone() {
                self.table[self.queue[qi] as usize] &= !BFS_FRONTIER;
            }
            level = next;
        }
        for v in 0..n {
            let hops = self.table[v];
            self.table[v] = if v == me {
                HOP_LOCAL
            } else if hops == 0 {
                HOP_UNREACHABLE
            } else {
                preference_order(mesh, node, NodeId::new(v))
                    .into_iter()
                    .find(|d| hops & (1 << d.index()) != 0)
                    .expect("non-empty first-hop mask")
                    .index() as u8
            };
        }
    }
}

/// Tie-break order for next-hop selection at `from`: productive X then
/// productive Y (matching DOR's dimension order), then the remaining
/// directions in canonical order.
fn preference_order(mesh: &Mesh, from: NodeId, dest: NodeId) -> [Direction; 4] {
    let productive = mesh.productive_dirs(from, dest);
    let mut order = [Direction::North; 4];
    let mut len = 0;
    for d in productive.iter() {
        order[len] = d;
        len += 1;
    }
    for d in Direction::ALL {
        if !order[..len].contains(&d) {
            order[len] = d;
            len += 1;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn mesh3() -> Mesh {
        Mesh::new(3, 3).unwrap()
    }

    #[test]
    fn clean_state_reports_clean_and_routes_nothing() {
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh3());
        assert!(fa.is_clean());
        assert!(!fa.has_pending_gossip());
        assert_eq!(fa.route(NodeId::new(0)), RouteOutcome::Local);
    }

    #[test]
    fn learn_marks_masks_and_queues_gossip() {
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(4), mesh);
        let up = fa
            .learn(NodeId::new(4), Direction::East, 1, false, 10)
            .unwrap();
        assert_eq!(up.local_out, Some((Direction::East, false, 1)));
        assert!(
            fa.learn(NodeId::new(4), Direction::East, 1, false, 11)
                .is_none(),
            "dedup"
        );
        assert!(fa.dead_out(Direction::East));
        assert!(fa.has_pending_gossip());
        assert_eq!(fa.first_fault_at(), Some(10));
        // Node 3 -> East feeds node 4's West input port.
        let up = fa
            .learn(NodeId::new(3), Direction::East, 1, false, 12)
            .unwrap();
        assert_eq!(up.local_in, Some((Direction::West, false, 1)));
        assert!(fa.dead_in(Direction::West));
        let mut out = RouterOutputs::new();
        fa.drain_gossip(&mut out);
        assert_eq!(out.control.len(), 2);
        assert!(!fa.has_pending_gossip());
    }

    #[test]
    fn revival_supersedes_kill_regardless_of_arrival_order() {
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(4), mesh);
        // In-order: kill (epoch 1) then revival (epoch 2).
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 1, false, 10)
            .is_some());
        assert!(!fa.is_clean());
        let up = fa
            .learn(NodeId::new(4), Direction::East, 2, true, 50)
            .unwrap();
        assert_eq!(up.local_out, Some((Direction::East, true, 2)));
        assert!(fa.is_clean(), "all links alive again");
        assert!(!fa.dead_out(Direction::East));
        // Out-of-order: a stale kill fact (epoch 1) arriving after the
        // revival is rejected — the revival wins regardless of order.
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 1, false, 60)
            .is_none());
        assert!(fa.is_clean());
        assert_eq!(fa.link_epoch(NodeId::new(4), Direction::East), 2);
        // A later kill (epoch 3) is accepted normally.
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 3, false, 70)
            .is_some());
        assert!(!fa.is_clean());
    }

    #[test]
    fn revival_first_then_stale_kill_never_wedges() {
        // Gossip can deliver the revival (epoch 2) before the kill
        // (epoch 1) it supersedes; the kill must be dropped on arrival.
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh3());
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 2, true, 5)
            .is_some());
        assert!(fa.is_clean());
        assert!(fa
            .learn(NodeId::new(4), Direction::East, 1, false, 9)
            .is_none());
        assert!(fa.is_clean(), "stale kill must not resurrect the fault");
    }

    #[test]
    fn routes_around_a_single_dead_link() {
        // Kill 3 -> East (center row, westmost link). Node 3 must still
        // reach node 5 (same row, east side) by detouring through an
        // adjacent row.
        let mut fa = FaultAwareness::new(NodeId::new(3), mesh3());
        fa.learn(NodeId::new(3), Direction::East, 1, false, 0);
        match fa.route(NodeId::new(5)) {
            RouteOutcome::Dir(d) => {
                assert!(d == Direction::North || d == Direction::South, "got {d:?}")
            }
            other => panic!("expected detour, got {other:?}"),
        }
        // Unaffected destinations keep their productive hop.
        assert_eq!(
            fa.route(NodeId::new(0)),
            RouteOutcome::Dir(Direction::North)
        );
    }

    #[test]
    fn healed_table_routes_like_dor_again() {
        let mut fa = FaultAwareness::new(NodeId::new(3), mesh3());
        fa.learn(NodeId::new(3), Direction::East, 1, false, 0);
        assert_ne!(fa.route(NodeId::new(5)), RouteOutcome::Dir(Direction::East));
        fa.learn(NodeId::new(3), Direction::East, 2, true, 40);
        assert!(fa.is_clean());
        // Callers stop consulting route() while clean, but if they did the
        // rebuilt table must agree with DOR again.
        assert_eq!(fa.route(NodeId::new(5)), RouteOutcome::Dir(Direction::East));
    }

    #[test]
    fn fully_cut_destination_is_unreachable() {
        // Kill every link entering node 8 (southeast corner).
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh);
        fa.learn(NodeId::new(7), Direction::East, 1, false, 0);
        fa.learn(NodeId::new(5), Direction::South, 1, false, 0);
        assert_eq!(fa.route(NodeId::new(8)), RouteOutcome::Unreachable);
        // Other destinations unaffected.
        assert_eq!(fa.route(NodeId::new(4)), RouteOutcome::Dir(Direction::East));
    }

    #[test]
    fn tie_break_prefers_dimension_order() {
        // No faults relevant to 0 -> 8 paths except one that forces a
        // rebuild; the table's hop for 8 must be the DOR X-first hop East.
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh3());
        fa.learn(NodeId::new(8), Direction::North, 1, false, 0);
        assert_eq!(fa.route(NodeId::new(8)), RouteOutcome::Dir(Direction::East));
    }

    #[test]
    fn blocked_dirs_relax_under_overflow() {
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(4), mesh);
        fa.learn(NodeId::new(4), Direction::East, 1, false, 0);
        fa.learn(NodeId::new(4), Direction::West, 1, false, 0);
        let dirs = [
            Direction::North,
            Direction::South,
            Direction::East,
            Direction::West,
        ];
        let mut blocked = Vec::new();
        fa.fill_blocked(&dirs, 2, &mut blocked);
        assert_eq!(blocked, vec![Direction::East, Direction::West]);
        fa.fill_blocked(&dirs, 3, &mut blocked);
        assert_eq!(blocked, vec![Direction::East]);
        fa.fill_blocked(&dirs, 4, &mut blocked);
        assert!(blocked.is_empty());
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical() {
        let mesh = mesh3();
        let mut fa = FaultAwareness::new(NodeId::new(4), mesh.clone());
        fa.learn(NodeId::new(4), Direction::East, 1, false, 7);
        fa.learn(NodeId::new(0), Direction::South, 1, false, 9);
        fa.learn(NodeId::new(0), Direction::South, 2, true, 20);
        let mut w = SnapshotWriter::new();
        fa.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FaultAwareness::new(NodeId::new(4), mesh);
        let mut r = SnapshotReader::new(&bytes);
        restored.load(&mut r).unwrap();
        r.finish("fault awareness").unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert!(restored.dead_out(Direction::East));
        assert!(restored.has_pending_gossip());
        assert_eq!(restored.link_epoch(NodeId::new(0), Direction::South), 2);
        assert!(!restored.is_clean());
        assert_eq!(restored.route(NodeId::new(5)), fa.route(NodeId::new(5)));
    }

    #[test]
    fn gossip_signal_round_trips_through_on_control() {
        let mut fa = FaultAwareness::new(NodeId::new(0), mesh3());
        assert!(fa
            .on_control(
                ControlSignal::LinkFault {
                    node: NodeId::new(4),
                    dir: Direction::East,
                    epoch: 1,
                    alive: false,
                },
                3,
            )
            .is_some());
        assert!(fa
            .on_control(ControlSignal::StartCreditTracking, 4)
            .is_none());
        assert!(fa
            .on_control(
                ControlSignal::CreditResync {
                    node: NodeId::new(0),
                    dir: Direction::East,
                    epoch: 2,
                },
                5,
            )
            .is_none());
        assert!(!fa.is_clean());
        assert_eq!(fa.first_fault_at(), None, "remote faults are not local");
    }

    /// The historical table rule, kept as the oracle: one BFS per
    /// destination over reversed alive edges (dead-ness read from the fact
    /// map), then the tie-broken argmin over this node's alive outputs.
    fn oracle_route(fa: &FaultAwareness, dest: NodeId) -> RouteOutcome {
        if dest == fa.node {
            return RouteOutcome::Local;
        }
        let link_dead = |from: NodeId, dir: Direction| {
            fa.facts
                .get(&(from.index(), dir.index() as u8))
                .is_some_and(|f| !f.alive)
        };
        let mut dist = vec![u32::MAX; fa.mesh.node_count()];
        let mut queue = VecDeque::new();
        dist[dest.index()] = 0;
        queue.push_back(dest);
        while let Some(v) = queue.pop_front() {
            for dir in Direction::ALL {
                let Some(u) = fa.mesh.neighbor(v, dir) else {
                    continue;
                };
                if link_dead(u, dir.opposite()) || dist[u.index()] != u32::MAX {
                    continue;
                }
                dist[u.index()] = dist[v.index()] + 1;
                queue.push_back(u);
            }
        }
        let mut best: Option<(u32, Direction)> = None;
        for dir in preference_order(&fa.mesh, fa.node, dest) {
            let Some(w) = fa.mesh.neighbor(fa.node, dir) else {
                continue;
            };
            if fa.dead_out[dir] || dist[w.index()] == u32::MAX {
                continue;
            }
            if best.is_none_or(|(d, _)| dist[w.index()] < d) {
                best = Some((dist[w.index()], dir));
            }
        }
        best.map_or(RouteOutcome::Unreachable, |(_, d)| RouteOutcome::Dir(d))
    }

    /// Checks every destination's hop against the oracle; `at` labels the
    /// failure (trial, fact step).
    fn assert_matches_oracle(fa: &mut FaultAwareness, at: (usize, usize)) {
        for dest in fa.mesh.clone().nodes() {
            let want = oracle_route(fa, dest);
            assert_eq!(
                fa.route(dest),
                want,
                "{:?} at {at:?}: {} -> {dest}",
                fa.mesh,
                fa.node
            );
        }
    }

    /// Every directed link of `mesh`.
    fn links(mesh: &Mesh) -> Vec<(NodeId, Direction)> {
        mesh.nodes()
            .flat_map(|n| Direction::ALL.into_iter().map(move |d| (n, d)))
            .filter(|&(n, d)| mesh.neighbor(n, d).is_some())
            .collect()
    }

    /// A random epoch-versioned fact stream: kills, revivals (some arriving
    /// before the kill they supersede), re-kills, and on meshes wider than
    /// one column a full column cut that partitions the mesh.
    fn random_facts(mesh: &Mesh, rng: &mut SimRng) -> Vec<(NodeId, Direction, u32, bool)> {
        let all = links(mesh);
        let mut facts = Vec::new();
        for _ in 0..1 + rng.gen_index(all.len().min(12)) {
            let (n, d) = all[rng.gen_index(all.len())];
            let transitions = 1 + rng.gen_index(3) as u32;
            for epoch in 1..=transitions {
                facts.push((n, d, epoch, epoch % 2 == 0));
            }
        }
        if mesh.width() > 1 && rng.gen_bool(0.3) {
            let x = rng.gen_index(mesh.width() as usize - 1) as u16;
            for y in 0..mesh.height() {
                let n = mesh.node_at(crate::geom::Coord::new(x, y)).unwrap();
                facts.push((n, Direction::East, 1, false));
            }
        }
        rng.shuffle(&mut facts);
        facts
    }

    #[test]
    fn alive_graph_table_matches_per_destination_oracle() {
        let mut rng = SimRng::seed_from(0x7AB1E);
        for (w, h, trials) in [(1, 6, 40), (6, 1, 40), (2, 2, 40), (3, 3, 40), (8, 8, 4)] {
            let mesh = Mesh::new(w, h).unwrap();
            // The oracle costs O(N²) per router, so on 8x8 check the four
            // corners, one node per edge and two interior nodes.
            let nodes: Vec<NodeId> = if w * h > 9 {
                [0, 7, 56, 63, 3, 24, 39, 60, 27, 45]
                    .map(NodeId::new)
                    .to_vec()
            } else {
                mesh.nodes().collect()
            };
            for trial in 0..trials {
                let facts = random_facts(&mesh, &mut rng);
                for &node in &nodes {
                    let mut fa = FaultAwareness::new(node, mesh.clone());
                    for (i, &(n, d, epoch, alive)) in facts.iter().enumerate() {
                        fa.learn(n, d, epoch, alive, i as Cycle);
                        // Interleave lookups so rebuilds reuse the scratch
                        // buffers against an incrementally updated mask.
                        if i % 4 == 1 && !fa.is_clean() && w * h <= 9 {
                            assert_matches_oracle(&mut fa, (trial, i));
                        }
                    }
                    assert_matches_oracle(&mut fa, (trial, facts.len()));
                    // The loaded mask must rebuild the same table.
                    let mut wr = SnapshotWriter::new();
                    fa.save(&mut wr);
                    let bytes = wr.into_bytes();
                    let mut restored = FaultAwareness::new(node, mesh.clone());
                    restored.load(&mut SnapshotReader::new(&bytes)).unwrap();
                    assert_matches_oracle(&mut restored, (trial, usize::MAX));
                    assert_eq!(restored.is_clean(), fa.is_clean());
                }
            }
        }
    }

    #[test]
    fn reset_clears_the_dead_mask() {
        let mut fa = FaultAwareness::new(NodeId::new(3), mesh3());
        fa.learn(NodeId::new(3), Direction::East, 1, false, 0);
        fa.learn(NodeId::new(4), Direction::East, 1, false, 0);
        assert_ne!(fa.route(NodeId::new(5)), RouteOutcome::Dir(Direction::East));
        fa.reset();
        fa.learn(NodeId::new(0), Direction::South, 1, false, 0);
        assert_matches_oracle(&mut fa, (0, 0));
        assert_eq!(fa.route(NodeId::new(5)), RouteOutcome::Dir(Direction::East));
    }

    /// Encodes a fault-awareness block from raw records.
    fn block(facts: &[(usize, u8, u32, bool)], gossip: &[(usize, u8, u32, bool)]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        for list in [facts, gossip] {
            w.put_usize(list.len());
            for &(node, dir, epoch, alive) in list {
                w.put_usize(node);
                w.put_u8(dir);
                w.put_u32(epoch);
                w.put_bool(alive);
            }
        }
        w.put_bool(false);
        w.into_bytes()
    }

    fn load_block(bytes: &[u8]) -> Result<FaultAwareness, SnapshotError> {
        let mut fa = FaultAwareness::new(NodeId::new(4), mesh3());
        fa.load(&mut SnapshotReader::new(bytes))?;
        Ok(fa)
    }

    fn malformed(bytes: &[u8]) -> &'static str {
        match load_block(bytes) {
            Err(SnapshotError::Malformed { what }) => what,
            other => panic!("expected a malformed-snapshot error, got {other:?}"),
        }
    }

    const EAST: u8 = 2;
    const WEST: u8 = 3;

    #[test]
    fn load_accepts_well_formed_blocks() {
        let fa = load_block(&block(
            &[(3, EAST, 1, false), (4, EAST, 2, true)],
            &[(4, EAST, 2, true)],
        ))
        .unwrap();
        assert!(!fa.is_clean());
        assert!(fa.dead_in(Direction::West));
    }

    #[test]
    fn load_rejects_duplicate_fact_keys() {
        // Counted dead twice, one revival would leave the router degraded
        // forever.
        let dup = block(&[(3, EAST, 1, false), (3, EAST, 1, false)], &[]);
        assert_eq!(malformed(&dup), "fault-awareness fact order");
    }

    #[test]
    fn load_rejects_non_ascending_fact_keys() {
        let unordered = block(&[(4, EAST, 1, false), (3, EAST, 1, false)], &[]);
        assert_eq!(malformed(&unordered), "fault-awareness fact order");
    }

    #[test]
    fn load_rejects_facts_for_links_the_mesh_lacks() {
        // Node 3 sits on the 3x3 west edge: it has no West link.
        let off_mesh = block(&[(3, WEST, 1, false)], &[]);
        assert_eq!(malformed(&off_mesh), "fault-awareness fact");
        assert_eq!(
            malformed(&block(&[(9, EAST, 1, false)], &[])),
            "fault-awareness fact"
        );
        assert_eq!(
            malformed(&block(&[(3, 7, 1, false)], &[])),
            "fault-awareness fact"
        );
    }

    #[test]
    fn load_rejects_gossip_for_links_the_mesh_lacks() {
        let off_mesh = block(&[], &[(3, WEST, 1, false)]);
        assert_eq!(malformed(&off_mesh), "fault-awareness gossip");
        assert_eq!(
            malformed(&block(&[], &[(9, EAST, 1, false)])),
            "fault-awareness gossip"
        );
    }

    #[test]
    fn load_rejects_epoch_zero_gossip() {
        let zero = block(&[], &[(3, EAST, 0, false)]);
        assert_eq!(malformed(&zero), "fault-awareness gossip");
    }
}
