//! The network engine: wires routers, channels and network interfaces
//! together and advances them cycle by cycle.
//!
//! ## Activity tracking (DESIGN.md §8)
//!
//! The engine keeps dirty bitmasks over routers, channels and NIs and — on
//! the fast path — walks only the active members each cycle, in ascending
//! index order so the walk is bit-identical to the historical full scan.
//! Quiescent routers ([`Router::is_quiescent`]) are skipped entirely; their
//! per-cycle counters are replayed in bulk via [`Router::note_idle_cycles`]
//! the moment they re-activate. Setting the `AFC_FULL_SCAN` environment
//! variable (or calling [`Network::set_full_scan`]) forces the historical
//! every-component walk; both paths maintain the activity sets identically,
//! so the mode can be toggled mid-run and must produce byte-identical
//! results — the self-check the golden tests pin.

use crate::channel::{Channel, ReverseSlot, Slots};
use crate::config::NetworkConfig;
use crate::counters::ActivityCounters;
use crate::cycle::{self, Bits, Cx, Node, Tally, View};
use crate::error::SimError;
use crate::faults::{FaultEvent, FaultEventKind, FaultIndex, FlitFate, LinkEvent};
use crate::flit::{Cycle, Flit, PacketId};
use crate::geom::{DirMap, Direction, NodeId};
use crate::ni::{NodeInterface, UnreachablePacket};
use crate::packet::{DeliveredPacket, PacketDescriptor, PacketInput};
use crate::rng::SimRng;
use crate::router::{Router, RouterFactory, RouterMode, RouterOutputs};
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::NetworkStats;
use crate::topology::Mesh;
use std::collections::VecDeque;

/// Endpoints of one directed channel.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelEnds {
    pub(crate) from: NodeId,
    pub(crate) dir: Direction,
    pub(crate) to: NodeId,
}

/// A fixed-size dirty bitmask over component indices.
///
/// Members are iterated in ascending order (word by word, lowest set bit
/// first), which is what keeps the active-set walk order identical to a
/// full `0..n` scan. Inserting an already-present member or removing an
/// absent one is a no-op, so the sets may safely be conservative
/// supersets of the truly active components.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    /// Raw bitmask words. Crate-visible so the parallel engine can reborrow
    /// them as `&[AtomicU64]` during a sharded cycle (per-bit single-writer,
    /// word-level RMW — see `parallel.rs`).
    pub(crate) words: Vec<u64>,
}

impl ActiveSet {
    fn empty(len: usize) -> ActiveSet {
        ActiveSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    fn full(len: usize) -> ActiveSet {
        let mut set = ActiveSet::empty(len);
        set.fill_full(len);
        set
    }

    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Heap bytes of the bitmask (1 bit per component).
    fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Refills the set to all-members-present in place (the arena-reuse
    /// counterpart of [`ActiveSet::full`]); `len` must match the length
    /// the set was built for.
    fn fill_full(&mut self, len: usize) {
        debug_assert_eq!(self.words.len(), len.div_ceil(64));
        for (wi, word) in self.words.iter_mut().enumerate() {
            *word = all_below(len, wi);
        }
    }

    /// Empties the set in place.
    pub(crate) fn fill_empty(&mut self) {
        self.words.fill(0);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i >> 6)
            .is_some_and(|w| w & (1u64 << (i & 63)) != 0)
    }

    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Snapshot of one word; iterate its bits while freely mutating the set.
    #[inline]
    pub(crate) fn word(&self, wi: usize) -> u64 {
        self.words[wi]
    }

    /// Number of set bits (activity-threshold heuristic for the parallel
    /// engine's serial fallback).
    #[inline]
    pub(crate) fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn save(&self, w: &mut SnapshotWriter) {
        for &word in &self.words {
            w.put_u64(word);
        }
    }

    /// Reads a set over `len` members written by [`ActiveSet::save`],
    /// rejecting stray bits beyond the member range.
    fn load(r: &mut SnapshotReader<'_>, len: usize) -> Result<ActiveSet, SnapshotError> {
        let word_count = len.div_ceil(64);
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            words.push(r.get_u64("active-set word")?);
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last & !((1u64 << (len % 64)) - 1) != 0 {
                    return Err(SnapshotError::Malformed {
                        what: "active-set tail bits",
                    });
                }
            }
        }
        Ok(ActiveSet { words })
    }
}

/// Word `wi` of a bitmask holding every member below `len`.
fn all_below(len: usize, wi: usize) -> u64 {
    match len.saturating_sub(wi << 6) {
        64.. => !0,
        rest => (1u64 << rest) - 1,
    }
}

fn write_fault_event(w: &mut SnapshotWriter, ev: &FaultEvent) {
    w.put_u64(ev.cycle);
    w.put_usize(ev.from.index());
    w.put_u8(ev.dir.index() as u8);
    match ev.kind {
        FaultEventKind::FlitDropped { packet, seq } => {
            w.put_u8(0);
            w.put_u64(packet.0);
            w.put_u16(seq);
        }
        FaultEventKind::FlitCorrupted { packet, seq } => {
            w.put_u8(1);
            w.put_u64(packet.0);
            w.put_u16(seq);
        }
        FaultEventKind::CreditLost => w.put_u8(2),
    }
}

fn read_fault_event(r: &mut SnapshotReader<'_>) -> Result<FaultEvent, SnapshotError> {
    let cycle = r.get_u64("fault event cycle")?;
    let from = NodeId::new(r.get_usize("fault event node")?);
    let dir = Direction::from_index(r.get_u8("fault event direction")? as usize).ok_or(
        SnapshotError::Malformed {
            what: "fault event direction",
        },
    )?;
    let kind = match r.get_u8("fault event kind")? {
        tag @ (0 | 1) => {
            let packet = PacketId(r.get_u64("fault event packet")?);
            let seq = r.get_u16("fault event seq")?;
            if tag == 0 {
                FaultEventKind::FlitDropped { packet, seq }
            } else {
                FaultEventKind::FlitCorrupted { packet, seq }
            }
        }
        2 => FaultEventKind::CreditLost,
        _ => {
            return Err(SnapshotError::Malformed {
                what: "fault event kind",
            })
        }
    };
    Ok(FaultEvent {
        cycle,
        from,
        dir,
        kind,
    })
}

/// Approximate heap usage of a [`Network`], broken down by component
/// class. Produced by [`Network::memory_footprint`].
///
/// Byte counts are capacity-based estimates (they track what the
/// allocator holds, not what is momentarily initialized) and are intended
/// for *scaling* audits — per-node cost must stay flat as the mesh grows
/// — rather than exact accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Routers: buffers, latches, scratch, fault state.
    pub router_bytes: usize,
    /// Network interfaces: queues, reassembly, retransmit state.
    pub ni_bytes: usize,
    /// Channels: pipeline rings, fault hold-back queues and the compiled
    /// per-link fault index.
    pub channel_bytes: usize,
    /// Parallel engine: plan tables and per-shard deltas (0 when serial).
    pub engine_bytes: usize,
    /// Everything else: stats, activity bitmasks and the due calendar,
    /// queues, logs.
    pub other_bytes: usize,
    /// Mesh nodes, for per-node normalization.
    pub nodes: usize,
}

impl MemoryFootprint {
    /// Sum over all component classes.
    pub fn total_bytes(&self) -> usize {
        self.router_bytes
            + self.ni_bytes
            + self.channel_bytes
            + self.engine_bytes
            + self.other_bytes
    }

    /// Total divided by node count — the number that must stay bounded as
    /// the mesh scales from 8×8 to 128×128.
    pub fn per_node_bytes(&self) -> usize {
        self.total_bytes() / self.nodes.max(1)
    }
}

/// Wall-clock attribution of [`Network::try_step`] time to engine phases,
/// accumulated while [`Network::set_phase_profiling`] is enabled.
///
/// Categories follow the cycle structure (see `try_step`): `channel_ns`
/// covers channel delivery (phase 1); `ni_ns` covers the
/// NACK/ack/timeout plumbing and injection (phases 2a/2b/3b); `router_ns`
/// is the router pipeline walk (phase 3); `merge_ns` is time spent inside
/// the parallel engine (shard step + merge tree — zero on serial runs);
/// `other_ns` is fault detection, stats and watchdog bookkeeping.
///
/// This is an observer, not simulation state: it is never snapshotted and
/// enabling it changes no results. The `Instant` reads themselves cost a
/// few tens of nanoseconds per phase boundary, so profiled ns/cycle runs
/// slightly above an unprofiled run — compare phase *shares* against an
/// unprofiled total, not absolute sums.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Channel delivery (phase 1).
    pub channel_ns: u64,
    /// NI work: NACK/ack/timeouts, injection, corrupt/ack pickup (2a/2b/3b).
    pub ni_ns: u64,
    /// Router pipeline steps (phase 3).
    pub router_ns: u64,
    /// Parallel engine cycles: shard stepping plus output merge (0 serial).
    pub merge_ns: u64,
    /// Fault detection, stats, watchdog, and remaining bookkeeping.
    pub other_ns: u64,
    /// Cycles accumulated into the counters above.
    pub cycles: u64,
}

/// A complete simulated network: routers, channels and network interfaces.
///
/// Construct via [`Network::new`] with a [`RouterFactory`] selecting the
/// flow-control mechanism, then drive with [`Network::step`] — usually
/// indirectly through [`Simulation`](crate::sim::Simulation).
pub struct Network {
    pub(crate) mesh: Mesh,
    pub(crate) config: NetworkConfig,
    mechanism: &'static str,
    flit_width_bits: u32,
    buffer_flits_per_port: usize,
    pub(crate) routers: Vec<Box<dyn Router>>,
    pub(crate) nis: Vec<NodeInterface>,
    pub(crate) channels: Vec<Channel>,
    pub(crate) ends: Vec<ChannelEnds>,
    /// Outgoing channel index per (node, direction).
    pub(crate) out_chan: Vec<DirMap<Option<usize>>>,
    /// Incoming channel index per (node, direction of the input port).
    pub(crate) in_chan: Vec<DirMap<Option<usize>>>,
    pub(crate) now: Cycle,
    /// Ring slots of cycle `now` (`Slots::at(now, L)`); derived from the
    /// clock, advanced each step without a division.
    pub(crate) slots: Slots,
    pub(crate) rng: SimRng,
    /// Independent RNG stream for the fault plane: drawing fault outcomes
    /// never perturbs router/traffic randomness, so a run with an empty
    /// `FaultPlan` is bit-identical to one built before faults existed.
    fault_rng: SimRng,
    pub(crate) stats: NetworkStats,
    next_packet_id: u64,
    /// Router outputs scratch of the serial walk; boxed so the walk can
    /// take it out of the network (which it passes to the kernels) by
    /// moving a pointer.
    scratch: Option<Box<RouterOutputs>>,
    /// Dropped flits in flight on the modeled NACK circuit:
    /// `(retransmission-ready cycle, flit)`.
    pub(crate) nack_queue: Vec<(Cycle, Flit)>,
    /// End-to-end acknowledgements riding back to packet sources:
    /// `(arrival cycle, source node, packet)`.
    pub(crate) ack_queue: Vec<(Cycle, NodeId, PacketId)>,
    /// Per-channel flits held back at the receiving end while the receiver
    /// is stalled by a fault (released one per cycle once the stall lifts).
    pub(crate) held: Vec<VecDeque<Flit>>,
    /// Channels whose `held` queue is non-empty (derived, not snapshotted).
    pub(crate) held_set: ActiveSet,
    /// Log of injected faults (capped at [`Network::FAULT_LOG_CAP`]).
    pub(crate) fault_log: Vec<FaultEvent>,
    /// The fault plan compiled per directed link: the only form of the plan
    /// the engines read per flit and credit. Derived from the configuration
    /// — not snapshotted, kept by arena resets.
    pub(crate) fault_index: FaultIndex,
    /// Deterministic fault-detection schedule derived from the fault plan's
    /// alive-state timeline (kills *and* revivals), in firing order with
    /// per-link epochs. Static per configuration — not snapshotted.
    detect_schedule: Vec<LinkEvent>,
    /// Next [`Network::detect_schedule`] entry to fire (derived from `now`
    /// on snapshot load).
    detect_next: usize,
    /// Run-wide log of packets retired as unreachable (bounded retransmit
    /// exhausted) — the structured per-packet outcome of DESIGN.md §13.
    pub(crate) unreachable_packets: Vec<UnreachablePacket>,
    /// Credit audit, in-flight and retransmit-queue counts, mode residency
    /// counts and the NI high-water max, maintained incrementally by the
    /// phase kernels.
    pub(crate) tally: Tally,
    /// Stall watchdog: progress counter sample and the cycle it last moved.
    pub(crate) last_progress: u64,
    pub(crate) last_progress_cycle: Cycle,
    /// Flits that were already in flight when metrics were last reset
    /// (anchors the conservation audit).
    audit_baseline: usize,
    /// When enabled, every offered packet is logged for trace capture.
    offer_log: Option<Vec<(Cycle, NodeId, PacketInput)>>,
    /// Force the historical walk over every component each cycle
    /// (`AFC_FULL_SCAN` self-check mode).
    full_scan: bool,
    /// Routers that must be stepped: everything not proven quiescent.
    pub(crate) router_active: ActiveSet,
    /// The due calendar: per forward-ring slot, the channels with a flit
    /// in that slot; phase 1 of cycle `t` walks slot `t mod (L + 3)`.
    /// Derived from the rings (rebuilt on snapshot load).
    pub(crate) fwd_due: Vec<ActiveSet>,
    /// Per reverse-ring slot, the channels with credits or control in it;
    /// phase 1 of cycle `t` walks slot `t mod (L + 1)`.
    pub(crate) rev_due: Vec<ActiveSet>,
    /// NIs with send-side work (queued packets or pending retransmits).
    pub(crate) ni_send_active: ActiveSet,
    /// NIs holding completed packets awaiting [`Network::take_delivered`].
    pub(crate) ni_delivered: ActiveSet,
    /// Per-router cycle up to which counters are accounted: counters of
    /// router `i` reflect cycles `[reset, accounted_upto[i])`; the gap to
    /// `now` is idle cycles pending bulk replay.
    pub(crate) accounted_upto: Vec<Cycle>,
    /// Cached post-step router modes (their residency counts are in
    /// [`Tally::mode_counts`]) so per-cycle mode stats are O(1), not O(n).
    pub(crate) modes_cache: Vec<RouterMode>,
    /// Debug-build cross-checking of the incremental accounting against a
    /// from-scratch recount. Disabled only by tests that install
    /// deliberately conservation-violating routers.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) check_conservation: bool,
    /// Worker-thread budget for the intra-run parallel engine; `1` steps
    /// serially. Not part of snapshots: a restored run may use any value
    /// (results are byte-identical regardless — DESIGN.md §12).
    sim_threads: usize,
    /// Lazily-built shard plans + thread pools (`sim_threads > 1` only),
    /// one per thread count the adaptive gate probes — at most two live
    /// (2 and the full budget), since serial needs no engine.
    pub(crate) engines: Vec<crate::parallel::Engine>,
    /// Cycles actually stepped by the parallel engine (diagnostic only:
    /// lets tests assert non-vacuity; excluded from snapshots and stats).
    pub(crate) parallel_cycles: u64,
    /// Minimum active components per shard before a cycle runs parallel
    /// (see [`Network::set_parallel_threshold`]).
    pub(crate) par_min_active: usize,
    /// Probe/commit wall-clock controller deciding serial vs parallel for
    /// gated cycles (see [`Network::set_parallel_adaptive`]). Wall-clock
    /// state only — never snapshotted.
    pub(crate) par_gate: crate::parallel::AdaptiveGate,
    /// Parallel cycles between deterministic shard re-plan points
    /// (see [`Network::set_replan_interval`]; 0 disables re-planning).
    pub(crate) replan_every: u64,
    /// High-water mark of [`Network::memory_footprint`] samples.
    pub(crate) mem_high_water: usize,
    /// Per-phase wall-clock attribution (see [`PhaseProfile`]); `None`
    /// unless enabled. Observer state: never snapshotted, carried over by
    /// arena resets exactly like the adaptive gate.
    phase_profile: Option<Box<PhaseProfile>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("mechanism", &self.mechanism)
            .field("mesh", &self.mesh)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Maximum fault events retained in the fault log.
    pub const FAULT_LOG_CAP: usize = 65_536;

    /// Maximum [`UnreachablePacket`] records retained; the log is a ring —
    /// the *oldest* records are dropped past the cap, and
    /// [`NetworkStats::unreachable_records_dropped`] counts the evictions.
    /// Long churn runs would otherwise grow the log without bound.
    pub const UNREACHABLE_LOG_CAP: usize = 16_384;

    /// Builds a network from a validated configuration, a router factory and
    /// an RNG seed.
    ///
    /// The `AFC_FULL_SCAN` environment variable (any value other than empty
    /// or `0`) starts the network in full-scan self-check mode; see
    /// [`Network::set_full_scan`].
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`](crate::error::ConfigError) from
    /// [`NetworkConfig::validate`].
    pub fn new(
        config: NetworkConfig,
        factory: &dyn RouterFactory,
        seed: u64,
    ) -> Result<Network, crate::error::ConfigError> {
        config.validate()?;
        let mesh = config.mesh()?;
        let n = mesh.node_count();
        let buffer_flits_per_port = factory.buffer_flits_per_port(&config);

        let routers: Vec<Box<dyn Router>> = mesh
            .nodes()
            .map(|node| factory.build(node, &mesh, &config))
            .collect();
        let nis: Vec<NodeInterface> = mesh
            .nodes()
            .map(|node| {
                let mut ni = NodeInterface::new(node, config.vnet_count());
                if let Some(r) = config.retransmit {
                    ni.enable_recovery(r);
                }
                ni
            })
            .collect();

        let mut channels = Vec::new();
        let mut ends = Vec::new();
        let mut out_chan: Vec<DirMap<Option<usize>>> = vec![DirMap::default(); n];
        let mut in_chan: Vec<DirMap<Option<usize>>> = vec![DirMap::default(); n];
        for node in mesh.nodes() {
            for dir in Direction::ALL {
                if let Some(nb) = mesh.neighbor(node, dir) {
                    let idx = channels.len();
                    channels.push(Channel::new(config.link_latency));
                    ends.push(ChannelEnds {
                        from: node,
                        dir,
                        to: nb,
                    });
                    out_chan[node.index()][dir] = Some(idx);
                    in_chan[nb.index()][dir.opposite()] = Some(idx);
                }
            }
        }
        let held = vec![VecDeque::new(); channels.len()];
        let rng = SimRng::seed_from(seed);
        let fault_rng = rng.fork(0x00FA_0171);
        let full_scan =
            std::env::var_os("AFC_FULL_SCAN").is_some_and(|v| !v.is_empty() && v != "0");
        // `AFC_SIM_THREADS=<n>` overrides the configured intra-run thread
        // budget, mirroring AFC_FULL_SCAN: because the parallel engine is
        // byte-identical to the serial one, entire test suites can be forced
        // through it without touching their configs.
        let sim_threads = std::env::var("AFC_SIM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(config.sim_threads);
        let fault_index = FaultIndex::new(&config.faults, &mesh);
        let detect_schedule = fault_index.event_schedule(config.faults.detection_delay);
        let modes_cache: Vec<RouterMode> = routers.iter().map(|r| r.mode()).collect();
        let mut tally = Tally::default();
        for m in &modes_cache {
            tally.mode_counts[Self::mode_slot(*m)] += 1;
        }
        let chan_count = channels.len();
        let (fwd_depth, rev_depth) = crate::channel::ring_depths(config.link_latency);
        let fwd_due = vec![ActiveSet::empty(chan_count); fwd_depth as usize];
        let rev_due = vec![ActiveSet::empty(chan_count); rev_depth as usize];
        let slots = Slots::at(0, config.link_latency);

        Ok(Network {
            mesh,
            config,
            mechanism: factory.name(),
            flit_width_bits: factory.flit_width_bits(),
            buffer_flits_per_port,
            routers,
            nis,
            channels,
            ends,
            out_chan,
            in_chan,
            now: 0,
            slots,
            rng,
            fault_rng,
            fault_index,
            stats: NetworkStats::new(),
            next_packet_id: 0,
            scratch: Some(Box::default()),
            nack_queue: Vec::new(),
            ack_queue: Vec::new(),
            held,
            held_set: ActiveSet::empty(chan_count),
            fault_log: Vec::new(),
            detect_schedule,
            detect_next: 0,
            unreachable_packets: Vec::new(),
            tally,
            last_progress: 0,
            last_progress_cycle: 0,
            audit_baseline: 0,
            offer_log: None,
            full_scan,
            // Conservative starts: every router/NI walks until it proves
            // itself inactive (unknown implementations default to
            // never-quiescent and simply stay on the always-step path).
            router_active: ActiveSet::full(n),
            fwd_due,
            rev_due,
            ni_send_active: ActiveSet::full(n),
            ni_delivered: ActiveSet::empty(n),
            accounted_upto: vec![0; n],
            modes_cache,
            check_conservation: true,
            sim_threads,
            engines: Vec::new(),
            parallel_cycles: 0,
            par_min_active: crate::parallel::MIN_ACTIVE_PER_SHARD,
            // When a whole suite is forced through the parallel engine via
            // AFC_SIM_THREADS, the adaptive gate must not silently route
            // cycles back to the serial walk — coverage is the point there.
            par_gate: crate::parallel::AdaptiveGate::new(
                std::env::var_os("AFC_SIM_THREADS").is_none(),
                sim_threads,
            ),
            replan_every: crate::parallel::DEFAULT_REPLAN_INTERVAL,
            mem_high_water: 0,
            phase_profile: None,
        })
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Mechanism name from the router factory.
    pub fn mechanism(&self) -> &'static str {
        self.mechanism
    }

    /// Flit width in bits (for energy accounting).
    pub fn flit_width_bits(&self) -> u32 {
        self.flit_width_bits
    }

    /// Instantiated buffer capacity per input port in flits (for energy
    /// accounting; 0 for bufferless mechanisms).
    pub fn buffer_flits_per_port(&self) -> usize {
        self.buffer_flits_per_port
    }

    /// Cumulative run statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Read access to a node's router (e.g. for mode inspection).
    pub fn router(&self, node: NodeId) -> &dyn Router {
        self.routers[node.index()].as_ref()
    }

    /// Read access to a node's network interface.
    pub fn ni(&self, node: NodeId) -> &NodeInterface {
        &self.nis[node.index()]
    }

    /// Forces (or releases) the historical full-component walk. The active
    /// sets are maintained identically in both modes, so this may be
    /// toggled mid-run; results must be byte-identical either way.
    pub fn set_full_scan(&mut self, on: bool) {
        self.full_scan = on;
    }

    /// Whether the full-scan self-check walk is currently forced.
    pub fn full_scan(&self) -> bool {
        self.full_scan
    }

    /// Enables (or disables) per-phase wall-clock attribution; enabling
    /// resets the accumulated [`PhaseProfile`]. Purely an observer —
    /// results are byte-identical either way, only `try_step` gains a few
    /// `Instant` reads per cycle while enabled.
    pub fn set_phase_profiling(&mut self, on: bool) {
        self.phase_profile = on.then(|| Box::new(PhaseProfile::default()));
    }

    /// Accumulated per-phase attribution since profiling was enabled, or
    /// `None` when [`Network::set_phase_profiling`] is off.
    pub fn phase_profile(&self) -> Option<PhaseProfile> {
        self.phase_profile.as_deref().copied()
    }

    /// Sets the intra-run parallel engine's thread budget (`1` = serial).
    ///
    /// May be changed mid-run: the parallel engine is byte-identical to the
    /// serial one, so this only affects wall-clock time. Shrinking or
    /// growing the budget tears down the old thread pool lazily.
    pub fn set_sim_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.sim_threads {
            self.sim_threads = threads;
            self.engines.clear();
            // Learned ns/cycle estimates (and the candidate set itself)
            // belong to the old thread budget.
            self.par_gate =
                crate::parallel::AdaptiveGate::new(self.par_gate.is_adaptive(), threads);
        }
    }

    /// Current intra-run thread budget.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Cycles stepped by the parallel engine so far (0 when serial). A
    /// wall-clock diagnostic — never part of simulation state, stats, or
    /// snapshots — used by the equivalence suite to prove the parallel
    /// path actually engaged.
    pub fn parallel_cycles(&self) -> u64 {
        self.parallel_cycles
    }

    /// Overrides the parallel engine's activity gate: a cycle is stepped in
    /// parallel only when at least `min_active_per_shard` components
    /// (routers + channels + sending NIs) are active per shard. Purely a
    /// wall-clock heuristic — results are byte-identical either way — so
    /// this knob exists for tuning and for tests that need the parallel
    /// path to engage on small meshes.
    pub fn set_parallel_threshold(&mut self, min_active_per_shard: usize) {
        self.par_min_active = min_active_per_shard;
    }

    /// Enables (default) or disables the adaptive serial/parallel gate.
    ///
    /// When enabled, cycles that pass the static activity threshold are
    /// further routed by a probe/commit controller that periodically times
    /// a few cycles of each engine and commits to the faster one with
    /// hysteresis — so workloads where the barriers do not pay (low load,
    /// oversubscribed hosts) fall back to the serial walk. When disabled,
    /// every gated cycle runs parallel (the raw engine — what benchmarks
    /// measure). Purely a wall-clock heuristic: results are byte-identical
    /// either way. Forcing a suite through the engine with
    /// `AFC_SIM_THREADS` disables adaptivity so coverage stays parallel.
    pub fn set_parallel_adaptive(&mut self, on: bool) {
        self.par_gate.set_adaptive(on);
    }

    /// Whether the adaptive serial/parallel gate is currently enabled.
    pub fn parallel_adaptive(&self) -> bool {
        self.par_gate.is_adaptive()
    }

    /// Sets how many parallel cycles pass between deterministic shard
    /// re-plan points (load-proportional boundary recomputation from the
    /// activity bitmasks); `0` disables re-planning. Output-neutral: any
    /// contiguous partition yields byte-identical results.
    pub fn set_replan_interval(&mut self, cycles: u64) {
        self.replan_every = cycles;
    }

    /// The shard boundaries (node starts) a fresh engine would use right
    /// now for the given thread budget. Test hook for the shard-planner
    /// property suite.
    #[doc(hidden)]
    pub fn debug_shard_plan(&self, threads: usize) -> Vec<usize> {
        crate::parallel::plan_preview(self, threads)
    }

    /// Walks every component and totals approximate heap usage, updating
    /// the high-water mark ([`Network::memory_high_water`]).
    ///
    /// This is the large-mesh leanness audit: per-node cost must stay
    /// O(ports × VCs × traffic-through-the-node) — the only O(mesh) terms
    /// allowed are the compact flat index tables listed in
    /// [`MemoryFootprint::engine_bytes`] and the per-component vectors
    /// themselves. O(n) walk; call it between runs, not per cycle.
    pub fn memory_footprint(&mut self) -> MemoryFootprint {
        use std::mem::size_of;
        let router_bytes: usize = self.routers.iter().map(|r| r.heap_bytes()).sum::<usize>()
            + self.routers.capacity() * size_of::<Box<dyn Router>>();
        let ni_bytes: usize = self
            .nis
            .iter()
            .map(NodeInterface::heap_bytes)
            .sum::<usize>()
            + self.nis.capacity() * size_of::<NodeInterface>();
        let channel_bytes: usize = self.channels.iter().map(Channel::heap_bytes).sum::<usize>()
            + self.channels.capacity() * size_of::<Channel>()
            + self.ends.capacity() * size_of::<ChannelEnds>()
            + self
                .held
                .iter()
                .map(|h| h.capacity() * size_of::<Flit>())
                .sum::<usize>()
            + self.held.capacity() * size_of::<VecDeque<Flit>>()
            + self.fault_index.heap_bytes();
        let engine_bytes = self.engines.iter().map(|e| e.heap_bytes()).sum();
        let other_bytes = self.stats.heap_bytes()
            + self
                .scratch
                .as_ref()
                .map_or(0, |s| size_of::<RouterOutputs>() + s.heap_bytes())
            + (self.out_chan.capacity() + self.in_chan.capacity())
                * size_of::<DirMap<Option<usize>>>()
            + self.nack_queue.capacity() * size_of::<(Cycle, Flit)>()
            + self.ack_queue.capacity() * size_of::<(Cycle, NodeId, PacketId)>()
            + self.fault_log.capacity() * size_of::<FaultEvent>()
            + self.detect_schedule.capacity() * size_of::<LinkEvent>()
            + self.unreachable_packets.capacity() * size_of::<UnreachablePacket>()
            + self.accounted_upto.capacity() * size_of::<Cycle>()
            + self.modes_cache.capacity() * size_of::<RouterMode>()
            + self.router_active.heap_bytes()
            + self
                .fwd_due
                .iter()
                .chain(&self.rev_due)
                .map(ActiveSet::heap_bytes)
                .sum::<usize>()
            + self.held_set.heap_bytes()
            + self.ni_send_active.heap_bytes()
            + self.ni_delivered.heap_bytes();
        let fp = MemoryFootprint {
            router_bytes,
            ni_bytes,
            channel_bytes,
            engine_bytes,
            other_bytes,
            nodes: self.routers.len(),
        };
        self.mem_high_water = self.mem_high_water.max(fp.total_bytes());
        fp
    }

    /// Largest [`Network::memory_footprint`] total sampled so far.
    pub fn memory_high_water(&self) -> usize {
        self.mem_high_water
    }

    /// True when this step may take the activity-tracked fast path.
    ///
    /// A *probabilistic* fault plane forces the full walk, for two reasons.
    /// The fast walks do not model router stalls exactly: a stalled router
    /// outside the activity sets is never visited, so its stalled cycles
    /// are later replayed as idle ones, which the full scan never counts.
    /// And the sharded phase 1
    /// of the parallel engine walks arrivals in per-router order, not in
    /// the global ascending channel order that `flit_fate` and
    /// `credit_lost` draw from the fault RNG in. Both walks draw only for
    /// arriving flits and credits, so deterministic plans (kills and
    /// revivals only — `FaultPlan::is_deterministic`), which draw nothing
    /// and stall no router, keep activity tracking exact. The retransmit
    /// layer is fast-path-safe: timeouts are scanned every cycle
    /// regardless, and re-materialized copies re-mark their NI in the send
    /// set.
    fn fast_path(&self) -> bool {
        !self.full_scan && (self.config.faults.is_empty() || self.config.faults.is_deterministic())
    }

    /// Enqueues a packet for injection at `src`, assigning its id and
    /// creation timestamp. Returns the id.
    ///
    /// # Panics
    ///
    /// Panics if `input.len == 0` or the vnet is out of range (both
    /// indicate traffic-model bugs).
    pub fn offer_packet(&mut self, src: NodeId, input: PacketInput) -> PacketId {
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let desc = PacketDescriptor {
            id,
            src,
            dest: input.dest,
            vnet: input.vnet,
            len: input.len,
            created_at: self.now,
            kind: input.kind,
            tag: input.tag,
        };
        if let Some(log) = &mut self.offer_log {
            log.push((self.now, src, input));
        }
        self.ni_send_active.insert(src.index());
        self.nis[src.index()].enqueue(desc, &mut self.stats);
        id
    }

    /// Starts logging every offered packet (for trace capture).
    pub fn enable_offer_recording(&mut self) {
        self.offer_log = Some(Vec::new());
    }

    /// Takes the offered-packet log recorded since
    /// [`Network::enable_offer_recording`]; recording continues.
    pub fn take_offer_log(&mut self) -> Vec<(Cycle, NodeId, PacketInput)> {
        self.offer_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Advances the simulation one cycle (three phases — see crate docs).
    ///
    /// # Panics
    ///
    /// Panics if [`Network::try_step`] fails — e.g. the livelock watchdog
    /// fires or a router violates an engine invariant.
    pub fn step(&mut self) {
        if let Err(e) = self.try_step() {
            panic!("{e} (mechanism {})", self.mechanism);
        }
    }

    /// Advances the simulation one cycle, reporting watchdog and protocol
    /// failures as structured errors instead of panicking.
    ///
    /// After an error the network is mid-cycle and must not be stepped
    /// further; the error is terminal for the run.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] when no flit has made progress for the
    /// configured window while flits are in flight; [`SimError::FlitOverAge`]
    /// when a flit exceeds `max_flit_age`; [`SimError::Misrouted`] /
    /// [`SimError::ProtocolViolation`] on router bugs.
    pub fn try_step(&mut self) -> Result<(), SimError> {
        let mut lap = self.phase_profile.is_some().then(std::time::Instant::now);
        self.detect_link_events();

        // Intra-run parallel engine (DESIGN.md §12): only on the fast path
        // and only when enough components are active to amortize the
        // per-cycle barrier cost. Gated cycles are then routed by the
        // adaptive probe/commit controller, which picks a *thread count*
        // — serial, 2, or the full budget — and commits to the fastest;
        // any choice is legal because every engine configuration is
        // byte-identical. A probe cycle is timed from here to the end of
        // the cycle, on either engine.
        let (mut threads, mut probe) = (1, None);
        if self.sim_threads > 1 && self.fast_path() && crate::parallel::static_gate(self) {
            let timed;
            (threads, timed) = self.par_gate.decide();
            if timed {
                if threads > 1 {
                    // Thread-pool spawn must not be charged to the probe.
                    crate::parallel::ensure_engine_for(self, threads);
                }
                probe = Some(std::time::Instant::now());
            }
        }
        self.charge(&mut lap, |p| &mut p.other_ns);

        self.retire_queues();
        self.charge(&mut lap, |p| &mut p.ni_ns);
        if threads > 1 {
            crate::parallel::step_parallel_with(self, threads)?;
            self.charge(&mut lap, |p| &mut p.merge_ns);
        } else {
            self.serial_phases(&mut lap)?;
        }
        self.collect_ni_returns();
        self.charge(&mut lap, |p| &mut p.ni_ns);
        let result = self.end_cycle();
        if let Some(t0) = probe {
            self.par_gate
                .feedback(threads, t0.elapsed().as_nanos() as f64);
        }
        self.charge(&mut lap, |p| &mut p.other_ns);
        if let Some(p) = self.phase_profile.as_deref_mut() {
            p.cycles += 1;
        }
        result
    }

    /// Charges the time since the previous lap to one phase of the
    /// profile and restarts the lap (one branch unless profiling is on).
    #[inline]
    fn charge(
        &mut self,
        lap: &mut Option<std::time::Instant>,
        phase: fn(&mut PhaseProfile) -> &mut u64,
    ) {
        if let (Some(p), Some(t)) = (self.phase_profile.as_deref_mut(), lap.as_mut()) {
            *phase(p) += t.elapsed().as_nanos() as u64;
            *t = std::time::Instant::now();
        }
    }

    /// Phase 0: deterministic fault/repair detection. Each alive-state
    /// transition of a link is reported a fixed number of cycles after it
    /// happens (the plan's detection delay — modeling a local
    /// credit/progress timeout without any wall clock). Kills go to the
    /// upstream router only; revivals go to *both* endpoints at the same
    /// cycle so the downstream end can run its half of the credit re-sync
    /// handshake (DESIGN.md §15) — the gossiped duplicate the downstream
    /// would otherwise relearn later is rejected by the epoch filter.
    fn detect_link_events(&mut self) {
        let now = self.now;
        while let Some(&ev) = self
            .detect_schedule
            .get(self.detect_next)
            .filter(|ev| ev.detect_at <= now)
        {
            self.detect_next += 1;
            self.routers[ev.node.index()].note_link_event(ev.node, ev.dir, ev.epoch, ev.alive, now);
            self.router_active.insert(ev.node.index());
            if ev.alive {
                if let Some(down) = self.mesh.neighbor(ev.node, ev.dir) {
                    self.routers[down.index()]
                        .note_link_event(ev.node, ev.dir, ev.epoch, ev.alive, now);
                    self.router_active.insert(down.index());
                }
                self.stats.links_revived += 1;
            } else {
                self.stats.links_failed += 1;
                self.stats
                    .fault_detection_latency
                    .record(self.config.faults.detection_delay);
            }
        }
    }

    /// Head of phase 2a: NACKs that have reached their source become
    /// pending retransmissions and end-to-end acks retire outstanding
    /// packets. Both retire queue entries with order-sensitive
    /// `swap_remove` scans, so they run serially, before phase 1; that is
    /// legal because they touch only NI and queue state, disjoint from
    /// phase 1's router and ring-slot writes.
    fn retire_queues(&mut self) {
        let now = self.now;
        let recovery = self.config.retransmit.is_some();
        let mut i = 0;
        while i < self.nack_queue.len() {
            if self.nack_queue[i].0 <= now {
                let (_, flit) = self.nack_queue.swap_remove(i);
                let src = flit.src.index();
                self.nis[src].nack(flit, now, &mut self.stats);
                if !recovery {
                    // Without end-to-end recovery a NACK requeues the flit
                    // directly; with it the copy is absorbed and the
                    // timeout path re-materializes the packet.
                    self.tally.retx_queued += 1;
                }
                self.ni_send_active.insert(src);
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.ack_queue.len() {
            if self.ack_queue[i].0 <= now {
                let (_, src, id) = self.ack_queue.swap_remove(i);
                self.nis[src.index()].acknowledge(id, &mut self.stats);
            } else {
                i += 1;
            }
        }
    }

    /// The serial schedule of phases 1–3. Phase 1 walks the channels due
    /// in this cycle's ring slots plus those holding flits back, in
    /// ascending channel order (the fault RNG draws and router stalls
    /// depend on that order). The NI and router walks follow, masked by
    /// the activity sets. The full scan is the same walk with every due
    /// word and set filled.
    fn serial_phases(&mut self, lap: &mut Option<std::time::Instant>) -> Result<(), SimError> {
        let (now, at) = (self.now, self.slots);
        debug_assert_eq!(at, Slots::at(now, self.config.link_latency));
        let fast = self.fast_path();
        let stalled = |net: &Network, i: usize| {
            !net.config.faults.is_empty() && net.config.faults.router_stalled(NodeId::new(i), now)
        };

        for wi in 0..self.held_set.word_count() {
            let mut flits = std::mem::take(&mut self.fwd_due[at.fwd_take].words[wi]);
            let mut backs = std::mem::take(&mut self.rev_due[at.rev_take].words[wi]);
            if !fast {
                flits = all_below(self.channels.len(), wi);
                backs = flits;
            }
            let held = self.held_set.word(wi);
            let mut w = flits | backs | held;
            while w != 0 {
                let bit = w & w.wrapping_neg();
                w ^= bit;
                let c = (wi << 6) + bit.trailing_zeros() as usize;
                if backs & bit != 0 {
                    cycle::back_arrival(self, c);
                }
                if (flits | held) & bit != 0 {
                    cycle::flit_arrival(self, c, flits & bit != 0)?;
                }
            }
        }
        self.charge(lap, |p| &mut p.channel_ns);

        if self.config.retransmit.is_some() {
            for i in 0..self.nis.len() {
                cycle::retransmit_timeouts(self, i);
            }
        }
        // Stalled routers accept no injection.
        self.walk(
            fast,
            |net| &net.ni_send_active,
            |net, i| {
                if !stalled(net, i) {
                    cycle::inject(net, i);
                }
                Ok(())
            },
        )?;
        self.charge(lap, |p| &mut p.ni_ns);

        // Stalled routers skip their step but still accrue mode residency
        // via the cached mode counts.
        let mut out = self.scratch.take().unwrap_or_default();
        let result = self.walk(
            fast,
            |net| &net.router_active,
            |net, i| {
                if stalled(net, i) {
                    // The stalled cycle is never accounted in the router's
                    // counters, so mark it handled without replaying it as idle.
                    net.accounted_upto[i] = now + 1;
                    Ok(())
                } else {
                    cycle::step_router(net, i, &mut out)
                }
            },
        );
        self.scratch = Some(out);
        self.charge(lap, |p| &mut p.router_ns);
        result
    }

    /// Runs `f` over the members of an activity set in ascending order,
    /// from per-word snapshots — or, off the fast path, over every node.
    fn walk(
        &mut self,
        fast: bool,
        set: fn(&Network) -> &ActiveSet,
        mut f: impl FnMut(&mut Network, usize) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        for wi in 0..set(self).word_count() {
            let mut w = if fast {
                set(self).word(wi)
            } else {
                all_below(self.routers.len(), wi)
            };
            while w != 0 {
                let i = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                f(self, i)?;
            }
        }
        Ok(())
    }

    /// Phase 3b: corrupt arrivals join the NACK circuit; fresh end-to-end
    /// acks start their trip back to the source; unreachable-packet
    /// records are collected. Corrupt flits exist only under the fault
    /// plane and acks only under recovery, so the phase is provably a
    /// no-op otherwise.
    fn collect_ni_returns(&mut self) {
        if self.config.faults.is_empty() && self.config.retransmit.is_none() {
            return;
        }
        let (now, latency) = (self.now, self.config.link_latency);
        for i in 0..self.nis.len() {
            let node = NodeId::new(i);
            for flit in self.nis[i].take_corrupt() {
                let dist = self.mesh.distance(node, flit.src) as u64;
                self.nack_queue.push((now + dist * latency + 2, flit));
            }
            for (src, id) in self.nis[i].take_acks() {
                let dist = self.mesh.distance(node, src) as u64;
                self.ack_queue.push((now + dist * latency, src, id));
            }
            self.nis[i].drain_unreachable_into(&mut self.unreachable_packets);
        }
        self.cap_unreachable_log();
    }

    /// The end of a cycle: advance the clock and the ring slots, accrue
    /// mode residency and the reassembly high water, cross-check the
    /// incremental accounting (debug builds) and run the stall watchdog.
    fn end_cycle(&mut self) -> Result<(), SimError> {
        self.now += 1;
        self.slots = self.slots.next(self.config.link_latency);
        let modes = self.tally.mode_counts;
        self.stats.cycles += 1;
        self.stats.cycles_backpressured += modes[0] as u64;
        self.stats.cycles_backpressureless += modes[1] as u64;
        self.stats.cycles_transitioning += modes[2] as u64;
        self.stats.reassembly_high_water = self
            .stats
            .reassembly_high_water
            .max(self.tally.ni_high_water_max);

        #[cfg(debug_assertions)]
        if self.check_conservation {
            debug_assert_eq!(
                self.tally.in_flight as usize,
                self.flits_in_network(),
                "incremental in-flight accounting diverged"
            );
            debug_assert_eq!(
                self.tally.retx_queued as usize,
                self.nis
                    .iter()
                    .map(NodeInterface::pending_retransmits)
                    .sum::<usize>(),
                "incremental retransmit-queue accounting diverged"
            );
        }

        // Stall watchdog: flit progress is injection, delivery, or a
        // structured give-up. Retransmission deliberately does not count —
        // a source endlessly resending into a dead link is churn, not
        // progress, and must eventually trip the watchdog instead of
        // masking the wedge. Retiring a packet as unreachable *is* progress
        // (monotone and bounded by the offered-packet count), so bounded
        // recovery winds a faulted run down cleanly instead of racing the
        // watchdog through its backoff tail.
        let progress =
            self.stats.flits_injected + self.stats.flits_delivered + self.stats.packets_unreachable;
        if progress != self.last_progress {
            self.last_progress = progress;
            self.last_progress_cycle = self.now;
        } else if self.config.stall_watchdog > 0
            && self.now.saturating_sub(self.last_progress_cycle) >= self.config.stall_watchdog
        {
            let in_flight = self.unaccounted_flits() as u64;
            if in_flight > 0 {
                return Err(SimError::Stalled {
                    cycle: self.now,
                    in_flight,
                    per_router_occupancy: self.routers.iter().map(|r| r.occupancy()).collect(),
                });
            }
        }
        Ok(())
    }

    /// Channels with anything on a lane or held back: the union of every
    /// due slot and the held set (the parallel gate's channel count).
    pub(crate) fn live_channel_count(&self) -> usize {
        (0..self.held_set.word_count())
            .map(|wi| {
                let word = (self.fwd_due.iter().chain(&self.rev_due))
                    .fold(self.held_set.word(wi), |w, set| w | set.word(wi));
                word.count_ones() as usize
            })
            .sum()
    }

    /// Whether channel `c` has anything on a lane or held back.
    pub(crate) fn channel_live(&self, c: usize) -> bool {
        self.held_set.contains(c)
            || self
                .fwd_due
                .iter()
                .chain(&self.rev_due)
                .any(|s| s.contains(c))
    }

    pub(crate) fn mode_slot(mode: RouterMode) -> usize {
        match mode {
            RouterMode::Backpressured => 0,
            RouterMode::Backpressureless => 1,
            RouterMode::Transitioning => 2,
        }
    }

    /// Drains all completed packets from every network interface into
    /// `out` (appended in NI index order), retaining `out`'s capacity — the
    /// allocation-free form of [`Network::take_delivered`].
    pub fn take_delivered_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        for wi in 0..self.ni_delivered.word_count() {
            let mut w = self.ni_delivered.word(wi);
            self.ni_delivered.words[wi] = 0;
            while w != 0 {
                let i = (wi << 6) + w.trailing_zeros() as usize;
                w &= w - 1;
                self.nis[i].drain_delivered_into(out);
            }
        }
    }

    /// Drains all completed packets from every network interface.
    pub fn take_delivered(&mut self) -> Vec<DeliveredPacket> {
        let mut out = Vec::new();
        self.take_delivered_into(&mut out);
        out
    }

    /// Flits currently inside routers and channels (not counting NI queues),
    /// recounted from scratch. The engine tracks the same quantity
    /// incrementally (and cross-checks it in debug builds); this scan is for
    /// audits and external callers.
    pub fn flits_in_network(&self) -> usize {
        let in_routers: usize = self.routers.iter().map(|r| r.occupancy()).sum();
        let in_channels: usize = self.channels.iter().map(Channel::flits_in_flight).sum();
        let held: usize = self.held.iter().map(VecDeque::len).sum();
        in_routers + in_channels + held
    }

    /// True when no flit is anywhere in the system and all NIs are idle.
    /// O(1) whenever anything is in flight; the NI scan only runs on
    /// candidate-drained cycles.
    pub fn is_drained(&self) -> bool {
        self.tally.in_flight == 0
            && self.nack_queue.is_empty()
            && self.ack_queue.is_empty()
            && self.nis.iter().all(NodeInterface::is_idle)
    }

    /// Drain residue by component — `(in-flight flits, pending NACKs,
    /// pending acks, non-idle NIs)`. All zeros iff [`Network::is_drained`];
    /// chaos/soak tests use this to say *what* failed to drain.
    pub fn drain_residue(&self) -> (usize, usize, usize, usize) {
        (
            self.tally.in_flight as usize,
            self.nack_queue.len(),
            self.ack_queue.len(),
            self.nis.iter().filter(|ni| !ni.is_idle()).count(),
        )
    }

    /// The faults injected so far (capped at [`Network::FAULT_LOG_CAP`]
    /// events; [`NetworkStats::faults_injected`] keeps the true count).
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// Structured per-packet records of packets retired as unreachable
    /// (bounded retransmission exhausted), in give-up order. Bounded at
    /// [`Network::UNREACHABLE_LOG_CAP`] records (oldest evicted first);
    /// [`NetworkStats::packets_unreachable`] keeps the true count and
    /// [`NetworkStats::unreachable_records_dropped`] the evictions.
    pub fn unreachable_packets(&self) -> &[UnreachablePacket] {
        &self.unreachable_packets
    }

    /// Enforces [`Network::UNREACHABLE_LOG_CAP`] on the unreachable log,
    /// evicting oldest records and counting them in the stats.
    pub(crate) fn cap_unreachable_log(&mut self) {
        if self.unreachable_packets.len() > Self::UNREACHABLE_LOG_CAP {
            let excess = self.unreachable_packets.len() - Self::UNREACHABLE_LOG_CAP;
            self.unreachable_packets.drain(..excess);
            self.stats.unreachable_records_dropped += excess as u64;
        }
    }

    pub(crate) fn log_fault(&mut self, ev: FaultEvent) {
        if self.fault_log.len() < Self::FAULT_LOG_CAP {
            self.fault_log.push(ev);
        }
    }

    /// Aggregated activity counters over all routers, including idle cycles
    /// not yet replayed into skipped routers.
    pub fn total_counters(&self) -> ActivityCounters {
        let mut total = ActivityCounters::new();
        for (i, r) in self.routers.iter().enumerate() {
            total.merge(&r.counters_view(self.now - self.accounted_upto[i]));
        }
        total
    }

    /// Activity counters of a single router (idle cycles pending replay
    /// are folded in, so the view always reads as if fully stepped).
    pub fn router_counters(&self, node: NodeId) -> ActivityCounters {
        let i = node.index();
        self.routers[i].counters_view(self.now - self.accounted_upto[i])
    }

    /// Zeroes statistics and router activity counters (end-of-warmup reset).
    /// Simulation time and in-flight state are preserved.
    pub fn reset_metrics(&mut self) {
        self.stats = NetworkStats::new();
        for i in 0..self.routers.len() {
            // Flush outstanding idle cycles first: the replay also advances
            // non-counter state (e.g. AFC's load monitor), which must not be
            // lost when the counters are zeroed.
            let pending_idle = self.now - self.accounted_upto[i];
            if pending_idle > 0 {
                self.routers[i].note_idle_cycles(pending_idle);
            }
            self.accounted_upto[i] = self.now;
            *self.routers[i].counters_mut() = ActivityCounters::new();
        }
        self.audit_baseline = self.unaccounted_flits_recount();
        self.last_progress = 0;
        self.last_progress_cycle = self.now;
    }

    /// Returns this network, in place, to the state
    /// `Network::new(config, factory, seed)` would produce — reusing every
    /// allocation (router buffers, channel rings, NI queues, activity
    /// bitmasks) instead of freeing and reacquiring them. Succeeds only
    /// when the target is *arena-compatible*: the factory names the same
    /// mechanism and `config` equals the network's own. On `false` the
    /// network is untouched and the caller must construct fresh.
    ///
    /// Routers whose [`Router::reset`] declines are rebuilt through the
    /// factory; everything else clears in place. The parallel-engine
    /// state (thread budget, shard plan, adaptive gate) is deliberately
    /// carried over — it is wall-clock-only and never observable in
    /// results, exactly as with snapshot restore (DESIGN.md §12).
    /// Byte-identity to fresh construction is pinned by the arena test
    /// wall via [`Network::save_state`] fingerprints.
    pub fn reset_from_config(
        &mut self,
        config: &NetworkConfig,
        factory: &dyn RouterFactory,
        seed: u64,
    ) -> bool {
        if factory.name() != self.mechanism || *config != self.config {
            return false;
        }
        let n = self.mesh.node_count();
        for (i, r) in self.routers.iter_mut().enumerate() {
            if !r.reset() {
                *r = factory.build(NodeId::new(i), &self.mesh, &self.config);
            }
        }
        for ni in &mut self.nis {
            ni.reset();
            if let Some(r) = self.config.retransmit {
                ni.enable_recovery(r);
            }
        }
        for c in &mut self.channels {
            c.reset();
        }
        for h in &mut self.held {
            h.clear();
        }
        for set in self.fwd_due.iter_mut().chain(&mut self.rev_due) {
            set.fill_empty();
        }
        self.held_set.fill_empty();
        self.now = 0;
        self.slots = Slots::at(0, self.config.link_latency);
        self.rng = SimRng::seed_from(seed);
        self.fault_rng = self.rng.fork(0x00FA_0171);
        self.stats.clear();
        self.next_packet_id = 0;
        self.scratch.get_or_insert_default().clear();
        self.nack_queue.clear();
        self.ack_queue.clear();
        self.fault_log.clear();
        // `fault_index` and `detect_schedule` are pure functions of the
        // (equal) configuration and stay; only the firing cursor rewinds.
        self.detect_next = 0;
        self.unreachable_packets.clear();
        self.tally = Tally::default();
        self.last_progress = 0;
        self.last_progress_cycle = 0;
        self.audit_baseline = 0;
        self.offer_log = None;
        self.router_active.fill_full(n);
        self.ni_send_active.fill_full(n);
        self.ni_delivered.fill_empty();
        self.accounted_upto.fill(0);
        for i in 0..n {
            self.modes_cache[i] = self.routers[i].mode();
            self.tally.mode_counts[Self::mode_slot(self.modes_cache[i])] += 1;
        }
        self.check_conservation = true;
        self.mem_high_water = 0;
        true
    }

    /// Flits currently in limbo between injection and delivery: inside
    /// routers/channels, riding the NACK circuit, or queued for
    /// retransmission. O(1) via the engine's incremental accounting.
    pub(crate) fn unaccounted_flits(&self) -> usize {
        (self.tally.in_flight + self.tally.retx_queued) as usize + self.nack_queue.len()
    }

    /// [`Network::unaccounted_flits`] recounted from actual component
    /// state. The audits must use this form: a conservation-violating
    /// router keeps the incremental counter's books balanced (the flit is
    /// counted in but never observed leaving), and only a from-scratch
    /// recount exposes the discrepancy.
    fn unaccounted_flits_recount(&self) -> usize {
        self.flits_in_network()
            + self.nack_queue.len()
            + self
                .nis
                .iter()
                .map(NodeInterface::pending_retransmits)
                .sum::<usize>()
    }

    /// Disables the debug-build incremental-accounting cross-checks, for
    /// tests that install deliberately conservation-violating routers.
    #[cfg(test)]
    pub(crate) fn disable_conservation_check(&mut self) {
        self.check_conservation = false;
    }

    /// Verifies flit conservation: every flit injected (or re-materialized
    /// by a retransmit timeout) since the last metrics reset is delivered,
    /// still in flight, lost to an injected fault, discarded as a
    /// redundant retransmitted copy, or abandoned when its packet was
    /// retired as unreachable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the imbalance — which would
    /// indicate a router silently losing or duplicating flits.
    pub fn audit(&self) -> Result<(), String> {
        let injected = self.stats.flits_injected as i128;
        let copies = self.stats.flits_retransmit_copies as i128;
        let delivered = self.stats.flits_delivered as i128;
        let in_flight = self.unaccounted_flits_recount() as i128;
        let baseline = self.audit_baseline as i128;
        let faulted = self.stats.flits_lost_to_faults as i128;
        let duplicates = self.stats.duplicate_flits_discarded as i128;
        let absorbed = self.stats.nacks_absorbed as i128;
        let abandoned = self.stats.flits_abandoned as i128;
        if injected + baseline + copies
            == delivered + in_flight + faulted + duplicates + absorbed + abandoned
        {
            Ok(())
        } else {
            Err(format!(
                "flit conservation violated: injected {injected} + baseline {baseline} \
                 + retransmit copies {copies} != delivered {delivered} + in-flight \
                 {in_flight} + faulted {faulted} + duplicates {duplicates} + absorbed \
                 NACKs {absorbed} + abandoned {abandoned}"
            ))
        }
    }

    /// Verifies credit conservation: every credit pushed onto a reverse
    /// lane since construction is delivered upstream, lost to an injected
    /// credit fault, or still on the wire. A mismatch means a router (or an
    /// AFC mode switch) leaked or double-freed a credit.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the imbalance.
    pub fn credit_audit(&self) -> Result<(), String> {
        let on_wire: usize = self.channels.iter().map(Channel::credits_in_flight).sum();
        let t = &self.tally;
        let lhs = t.credits_pushed;
        let rhs = t.credits_delivered + t.credits_faulted + on_wire as u64;
        if lhs == rhs {
            Ok(())
        } else {
            Err(format!(
                "credit conservation violated: pushed {lhs} != delivered {} + faulted {} \
                 + on-wire {}",
                t.credits_delivered, t.credits_faulted, on_wire
            ))
        }
    }

    /// Per-node modes right now (useful for spatial-variation analysis).
    pub fn modes(&self) -> Vec<RouterMode> {
        self.routers.iter().map(|r| r.mode()).collect()
    }

    /// Serializes the network's complete mutable state — fingerprint,
    /// clock, RNG streams, stats, routers, NIs, channel rings, NACK/ack
    /// circuits, held flits, fault log, audit counters, and the router/NI
    /// activity sets — into `w`. The due calendar and the held set are
    /// derived from the rings and held queues and are not written.
    ///
    /// Static topology and configuration are *not* written: restore
    /// targets a network freshly built from the same configuration, and
    /// the embedded fingerprint (mechanism, mesh dimensions, vnet count,
    /// link latency) catches mismatches. Engine-mode toggles
    /// ([`Network::set_full_scan`], conservation checking) are
    /// deliberately excluded — they are observer settings, not simulation
    /// state. The bytes do carry the walk's deferred idle-cycle
    /// bookkeeping (`accounted_upto` and the router state a pending replay
    /// would advance), which the full scan never defers: a full-scan run's
    /// snapshot differs from a fast-path run's there, while every
    /// observable result agrees.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if any router lacks state capture.
    pub fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        // Fingerprint: everything restore() verifies before touching state.
        w.put_str(self.mechanism);
        w.put_u16(self.mesh.width());
        w.put_u16(self.mesh.height());
        w.put_u32(self.config.vnet_count() as u32);
        w.put_u64(self.config.link_latency);

        w.put_u64(self.now);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        for word in self.fault_rng.state() {
            w.put_u64(word);
        }
        self.stats.save(w);
        w.put_u64(self.next_packet_id);

        for r in &self.routers {
            r.save_state(w)?;
        }
        for ni in &self.nis {
            ni.save(w);
        }
        for ch in &self.channels {
            ch.save(w);
        }

        w.put_usize(self.nack_queue.len());
        for (ready, flit) in &self.nack_queue {
            w.put_u64(*ready);
            snapshot::write_flit(w, flit);
        }
        w.put_usize(self.ack_queue.len());
        for (ready, src, id) in &self.ack_queue {
            w.put_u64(*ready);
            w.put_usize(src.index());
            w.put_u64(id.0);
        }
        for held in &self.held {
            w.put_usize(held.len());
            for flit in held {
                snapshot::write_flit(w, flit);
            }
        }
        w.put_usize(self.fault_log.len());
        for ev in &self.fault_log {
            write_fault_event(w, ev);
        }
        w.put_usize(self.unreachable_packets.len());
        for u in &self.unreachable_packets {
            w.put_u64(u.id.0);
            w.put_usize(u.src.index());
            w.put_usize(u.dest.index());
            w.put_u32(u.attempts);
            w.put_u64(u.gave_up_at);
        }

        w.put_u64(self.tally.credits_pushed);
        w.put_u64(self.tally.credits_delivered);
        w.put_u64(self.tally.credits_faulted);
        w.put_u64(self.last_progress);
        w.put_u64(self.last_progress_cycle);
        w.put_usize(self.audit_baseline);

        match &self.offer_log {
            Some(log) => {
                w.put_bool(true);
                w.put_usize(log.len());
                for (cycle, src, input) in log {
                    w.put_u64(*cycle);
                    w.put_usize(src.index());
                    snapshot::write_packet_input(w, input);
                }
            }
            None => w.put_bool(false),
        }

        self.router_active.save(w);
        self.ni_send_active.save(w);
        self.ni_delivered.save(w);
        for &upto in &self.accounted_upto {
            w.put_u64(upto);
        }
        Ok(())
    }

    /// Restores state written by [`Network::save_state`] into this network,
    /// which must have been built from the same configuration, mechanism
    /// and seed. Derived accounting (in-flight counts, mode residency
    /// cache, retransmit-queue depth, NI high-water max) is recomputed
    /// from the restored components rather than trusted from the payload,
    /// so a decoding bug surfaces as a conservation-audit failure instead
    /// of silent drift.
    ///
    /// On error the network may be partially overwritten and must be
    /// discarded; restore into a freshly constructed network.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ContextMismatch`] when the fingerprint disagrees
    /// with this network; decode errors on a malformed payload;
    /// [`SnapshotError::Unsupported`] if a router lacks state capture.
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let mechanism = r.get_str("fingerprint mechanism")?;
        if mechanism != self.mechanism {
            return Err(SnapshotError::ContextMismatch {
                what: "mechanism",
                snapshot: mechanism,
                current: self.mechanism.to_string(),
            });
        }
        let width = r.get_u16("fingerprint mesh width")?;
        let height = r.get_u16("fingerprint mesh height")?;
        if (width, height) != (self.mesh.width(), self.mesh.height()) {
            return Err(SnapshotError::ContextMismatch {
                what: "mesh dimensions",
                snapshot: format!("{width}x{height}"),
                current: format!("{}x{}", self.mesh.width(), self.mesh.height()),
            });
        }
        let vnets = r.get_u32("fingerprint vnet count")?;
        if vnets as usize != self.config.vnet_count() {
            return Err(SnapshotError::ContextMismatch {
                what: "vnet count",
                snapshot: vnets.to_string(),
                current: self.config.vnet_count().to_string(),
            });
        }
        let link_latency = r.get_u64("fingerprint link latency")?;
        if link_latency != self.config.link_latency {
            return Err(SnapshotError::ContextMismatch {
                what: "link latency",
                snapshot: link_latency.to_string(),
                current: self.config.link_latency.to_string(),
            });
        }

        self.now = r.get_u64("network now")?;
        self.slots = Slots::at(self.now, link_latency);
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.get_u64("network rng state")?;
        }
        self.rng = SimRng::from_state(rng_state);
        let mut fault_state = [0u64; 4];
        for word in &mut fault_state {
            *word = r.get_u64("network fault rng state")?;
        }
        self.fault_rng = SimRng::from_state(fault_state);
        self.stats = NetworkStats::load(r)?;
        self.next_packet_id = r.get_u64("network next packet id")?;

        for router in &mut self.routers {
            router.load_state(r)?;
        }
        for ni in &mut self.nis {
            ni.load(r)?;
        }
        let vnets = self.config.vnet_count();
        for ch in &mut self.channels {
            ch.load(r, vnets)?;
        }

        let nacks = r.get_usize("nack queue length")?;
        self.nack_queue.clear();
        for _ in 0..nacks {
            let ready = r.get_u64("nack ready cycle")?;
            let flit = snapshot::read_flit(r)?;
            self.nack_queue.push((ready, flit));
        }
        let acks = r.get_usize("ack queue length")?;
        self.ack_queue.clear();
        for _ in 0..acks {
            let ready = r.get_u64("ack ready cycle")?;
            let src = NodeId::new(r.get_usize("ack source")?);
            if src.index() >= self.nis.len() {
                return Err(SnapshotError::Malformed { what: "ack source" });
            }
            let id = PacketId(r.get_u64("ack packet id")?);
            self.ack_queue.push((ready, src, id));
        }
        for held in &mut self.held {
            let n = r.get_usize("held flit count")?;
            held.clear();
            for _ in 0..n {
                let flit = snapshot::read_flit(r)?;
                if flit.vnet.0 as usize >= vnets {
                    return Err(SnapshotError::Malformed {
                        what: "held flit vnet",
                    });
                }
                held.push_back(flit);
            }
        }
        let faults = r.get_usize("fault log length")?;
        if faults > Self::FAULT_LOG_CAP {
            return Err(SnapshotError::Malformed {
                what: "fault log length",
            });
        }
        self.fault_log.clear();
        for _ in 0..faults {
            self.fault_log.push(read_fault_event(r)?);
        }
        self.unreachable_packets.clear();
        let unreachable = r.get_usize("unreachable log length")?;
        if unreachable > Self::UNREACHABLE_LOG_CAP {
            return Err(SnapshotError::Malformed {
                what: "unreachable log length",
            });
        }
        for _ in 0..unreachable {
            self.unreachable_packets.push(UnreachablePacket {
                id: PacketId(r.get_u64("unreachable packet id")?),
                src: NodeId::new(r.get_usize("unreachable src")?),
                dest: NodeId::new(r.get_usize("unreachable dest")?),
                attempts: r.get_u32("unreachable attempts")?,
                gave_up_at: r.get_u64("unreachable cycle")?,
            });
        }

        self.tally.credits_pushed = r.get_u64("credits pushed")?;
        self.tally.credits_delivered = r.get_u64("credits delivered")?;
        self.tally.credits_faulted = r.get_u64("credits faulted")?;
        self.last_progress = r.get_u64("last progress")?;
        self.last_progress_cycle = r.get_u64("last progress cycle")?;
        self.audit_baseline = r.get_usize("audit baseline")?;

        self.offer_log = if r.get_bool("offer log presence")? {
            let n = r.get_usize("offer log length")?;
            let mut log = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                let cycle = r.get_u64("offer log cycle")?;
                let src = NodeId::new(r.get_usize("offer log source")?);
                let input = snapshot::read_packet_input(r)?;
                log.push((cycle, src, input));
            }
            Some(log)
        } else {
            None
        };

        let n = self.routers.len();
        self.router_active = ActiveSet::load(r, n)?;
        self.ni_send_active = ActiveSet::load(r, n)?;
        self.ni_delivered = ActiveSet::load(r, n)?;
        for upto in &mut self.accounted_upto {
            *upto = r.get_u64("accounted-upto cycle")?;
        }

        // Derived state, recomputed from the restored components: the due
        // calendar from the ring slots (a slot's index is its arrival cycle
        // modulo the ring depth), the held set from the held queues, then
        // the accounting.
        for set in self.fwd_due.iter_mut().chain(&mut self.rev_due) {
            set.fill_empty();
        }
        self.held_set.fill_empty();
        for (c, ch) in self.channels.iter().enumerate() {
            for (slot, flit) in ch.fwd.iter().enumerate() {
                if flit.is_some() {
                    self.fwd_due[slot].insert(c);
                }
            }
            for (slot, back) in ch.rev.iter().enumerate() {
                if !back.is_empty() {
                    self.rev_due[slot].insert(c);
                }
            }
            if !self.held[c].is_empty() {
                self.held_set.insert(c);
            }
        }
        self.modes_cache = self.routers.iter().map(|router| router.mode()).collect();
        self.tally.mode_counts = [0; 3];
        for m in &self.modes_cache {
            self.tally.mode_counts[Self::mode_slot(*m)] += 1;
        }
        self.tally.in_flight = self.flits_in_network() as i64;
        self.tally.retx_queued = self
            .nis
            .iter()
            .map(|ni| ni.pending_retransmits() as i64)
            .sum();
        self.tally.ni_high_water_max = self
            .nis
            .iter()
            .map(NodeInterface::reassembly_high_water)
            .max()
            .unwrap_or(0);
        // The detection cursor is a pure function of the (static) schedule
        // and the restored clock: entries strictly before `now` fired
        // during already-replayed cycles.
        self.detect_next = self
            .detect_schedule
            .iter()
            .position(|ev| ev.detect_at >= self.now)
            .unwrap_or(self.detect_schedule.len());
        self.scratch.get_or_insert_default().clear();
        Ok(())
    }
}

/// The serial cycle context: the network itself, writing its own
/// accumulators, activity sets, fault log and NACK queue directly.
impl Cx for Network {
    fn view(&self) -> View<'_> {
        View {
            now: self.now,
            at: self.slots,
            config: &self.config,
            mesh: &self.mesh,
            rng: &self.rng,
            ends: &self.ends,
            out_chan: &self.out_chan,
            in_chan: &self.in_chan,
        }
    }
    fn node(&mut self, i: usize) -> Node<'_> {
        Node {
            router: self.routers[i].as_mut(),
            ni: &mut self.nis[i],
            accounted_upto: &mut self.accounted_upto[i],
            mode: &mut self.modes_cache[i],
            stats: &mut self.stats,
            tally: &mut self.tally,
        }
    }
    fn fwd_slot(&mut self, c: usize, slot: usize) -> &mut Option<Flit> {
        &mut self.channels[c].fwd[slot]
    }
    fn rev_slot(&mut self, c: usize, slot: usize) -> &mut ReverseSlot {
        &mut self.channels[c].rev[slot]
    }
    fn set_bit(&mut self, bits: Bits, i: usize, on: bool) {
        let set = match bits {
            Bits::Router => &mut self.router_active,
            Bits::Sender => &mut self.ni_send_active,
            Bits::Delivered => &mut self.ni_delivered,
            Bits::FwdSend => &mut self.fwd_due[self.slots.fwd_send],
            Bits::RevSend => &mut self.rev_due[self.slots.rev_send],
        };
        if on {
            set.insert(i);
        } else {
            set.remove(i);
        }
    }
    fn nack(&mut self, ready: Cycle, flit: Flit) {
        self.nack_queue.push((ready, flit));
    }
    fn credit_lost(&mut self, ends: ChannelEnds) -> bool {
        !self.config.faults.is_empty()
            && self
                .fault_index
                .credit_lost(ends.from, ends.dir, self.now, &mut self.fault_rng)
    }
    fn flit_fate(&mut self, ends: ChannelEnds) -> FlitFate {
        if self.config.faults.is_empty() {
            return FlitFate::Deliver;
        }
        self.fault_index
            .flit_fate(ends.from, ends.dir, self.now, &mut self.fault_rng)
    }
    /// Arrivals queue while the receiver is stalled by a fault, or while
    /// earlier arrivals still wait, and drain one per cycle (the link's
    /// bandwidth) once the stall lifts.
    fn hold(&mut self, c: usize, to: NodeId, arrived: Option<Flit>) -> Option<Flit> {
        let stalled =
            !self.config.faults.is_empty() && self.config.faults.router_stalled(to, self.now);
        if !stalled && !self.held_set.contains(c) {
            return arrived;
        }
        let held = &mut self.held[c];
        held.extend(arrived);
        let next = if stalled { None } else { held.pop_front() };
        if held.is_empty() {
            self.held_set.remove(c);
        } else {
            self.held_set.insert(c);
        }
        next
    }
    fn log_fault(&mut self, _c: usize, _is_flit: bool, ev: FaultEvent) {
        Network::log_fault(self, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::ni::UnreachablePacket;
    use crate::testutil::FifoFactory;

    #[test]
    fn unreachable_log_is_capped_with_oldest_evicted() {
        let mut net = Network::new(NetworkConfig::paper_3x3(), &FifoFactory { lossy: false }, 1)
            .expect("valid config");
        let record = |i: u64| UnreachablePacket {
            id: crate::flit::PacketId(i),
            src: NodeId::new(0),
            dest: NodeId::new(8),
            attempts: 1,
            gave_up_at: i,
        };
        for i in 0..(Network::UNREACHABLE_LOG_CAP as u64 + 10) {
            net.unreachable_packets.push(record(i));
        }
        net.cap_unreachable_log();
        assert_eq!(
            net.unreachable_packets().len(),
            Network::UNREACHABLE_LOG_CAP
        );
        assert_eq!(net.stats().unreachable_records_dropped, 10);
        // Oldest records went first: the head is now record 10.
        assert_eq!(net.unreachable_packets()[0].id, crate::flit::PacketId(10));
        // Under the cap, a second sweep is a no-op.
        net.cap_unreachable_log();
        assert_eq!(net.stats().unreachable_records_dropped, 10);
        assert_eq!(
            net.unreachable_packets().len(),
            Network::UNREACHABLE_LOG_CAP
        );
    }
}
