//! Deterministic intra-run parallel cycle engine (DESIGN.md §12).
//!
//! The mesh is partitioned into `T` contiguous **spatial shards** — a node
//! range plus each node's ejection NI and the channels whose upstream end
//! lies in the range. Shard boundaries are *load-proportional*: they are
//! re-planned at deterministic points from the activity bitmasks, which is
//! output-neutral because byte-identity holds for **any** contiguous
//! ascending partition (see below).
//!
//! This module is the *sharded schedule* of the cycle: it walks the same
//! phase kernels as the serial engine ([`crate::cycle`]) through a shard
//! context ([`ShardCx`]). The prologue (phase 0, NACK/ack queue
//! retirement) and the end of the cycle (phase 3b, clock, watchdog) are
//! the network's own and run outside this module for either engine.
//! Each parallel cycle runs as one region on a persistent `std::thread`
//! pool, opened by a barrier and closed by a barrier-free binomial merge
//! tree:
//!
//! * **Exclusive window** (main thread, workers parked): re-planning if
//!   due, and publication of the cycle's `Job` (pointers + cycle number +
//!   ring slots + RNG + current plan).
//! * **Region AB** (phases 1 + 2a-scan + 2b + 3, fused): each shard takes
//!   this cycle's arrivals on the channels incident to its own routers
//!   (phase 1), scans its own NIs' retransmit timeouts (the sharded tail of
//!   phase 2a), injects from its own NIs (2b), then steps its own routers
//!   (3). Produced flits go into the forward ring of the router's outgoing
//!   channels, credits/control into the reverse ring of its incoming
//!   channels. Both ends of a channel touch both of its rings, but never
//!   the same slot: phase 1 takes slot `t mod (D + 1)` and phase 3 writes
//!   slot `(t + D) mod (D + 1)` ([`Slots`](crate::channel::Slots)), so neither needs the other
//!   to finish. Ring slots are addressed through element pointers, never
//!   through a `&mut Channel`.
//! * **Merge tree**: per-shard deltas fold up a binomial tree — shard `k`
//!   merges shard `k+s` for `s = 1, 2, 4, …` while `k mod 2s == 0`,
//!   spin-waiting on the child's generation-tagged ready flag. Shard 0's
//!   root merge therefore transitively waits on every shard, so the main
//!   thread needs no further barrier before it adds the merged delta to
//!   the network: one barrier per cycle, total. Tree order concatenates
//!   shard vectors in ascending shard order, byte-identical to the old
//!   serial shard-order fold.
//!
//! ## Why the output is byte-identical at any thread count
//!
//! Every mutation in a cycle either (a) targets state owned by exactly one
//! shard (router, NI, ring slot, mode-cache slot,
//! `accounted_upto` slot, activity bit), in which case the per-owner
//! mutation order matches the serial walk (ascending index), or (b) is a
//! commutative fold (counter sums, latency-distribution merges, idempotent
//! bitmask inserts via atomic OR) replayed in ascending shard order by the
//! merge tree. Router-step randomness is already thread-free: the per-step
//! RNG is forked as a pure function of `(seed, cycle, router)`. Hence the
//! post-cycle state — including the bytes of a snapshot — is a function of
//! the pre-cycle state only, never of `T`, the boundaries, or the
//! interleaving. Re-planning shard boundaries mid-run is likewise
//! unobservable: per-owner walks stay ascending and the tree fold equals
//! ascending component order under any contiguous partition.
//!
//! Terminal errors keep their *identity* (the same `SimError` the serial
//! engine would have returned first) by taking the minimum over
//! `(phase, component index)` across shards (a shard's phase-1 walk keeps
//! going after an error so every due flit is age-checked); the post-error
//! partial state
//! may differ from serial, which is fine because errors are terminal — the
//! network must not be stepped further either way.
//!
//! ## The adaptive gate
//!
//! Whether a cycle runs parallel at all is a pure wall-clock decision
//! (both engines are byte-identical). A static activity threshold filters
//! out near-idle cycles; on top of it, [`AdaptiveGate`] runs a
//! probe/commit controller that periodically times a few cycles of each
//! engine and commits to the faster one with hysteresis, so workloads
//! where the barriers do not pay (low load, oversubscribed hosts) fall
//! back to the serial walk instead of burning 4× the time.
#![allow(unsafe_code)]

use crate::channel::{Channel, ReverseSlot};
use crate::cycle::{self, Bits, Cx, Node, Tally, View};
use crate::error::SimError;
use crate::faults::{FaultEvent, FaultIndex, FlitFate};
use crate::flit::{Cycle, Flit};
use crate::geom::NodeId;
use crate::network::{ChannelEnds, Network};
use crate::ni::NodeInterface;
use crate::router::{Router, RouterMode, RouterOutputs};
use crate::stats::NetworkStats;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::addr_of_mut;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Minimum active components (routers + channels + sending NIs) per shard
/// for a cycle to be worth the barrier overhead; below this the engine
/// declines and the cycle runs serially.
pub(crate) const MIN_ACTIVE_PER_SHARD: usize = 16;

/// Default re-plan period: every this many parallel cycles the shard
/// boundaries are recomputed from the activity bitmasks (see
/// [`Network::set_replan_interval`]).
pub(crate) const DEFAULT_REPLAN_INTERVAL: u64 = 64;

/// Spins before a barrier/merge waiter starts yielding its timeslice.
const SPIN_LIMIT: u32 = 128;
/// Yields before a barrier waiter parks on the condvar (merge waits never
/// park — they are bounded by a fraction of one cycle).
const YIELD_LIMIT: u32 = 64;

/// Pads hot per-shard state to its own cache line pair so neighbouring
/// shards' writes (delta accumulation, ready flags, barrier counters)
/// never false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

// ---------------------------------------------------------------------------
// Shard plan
// ---------------------------------------------------------------------------

/// The boundary-independent part of a plan, built once per engine and
/// shared (via `Arc`) across re-plans — re-planning only recomputes the
/// small boundary vectors, never the O(channels) tables.
struct PlanStatic {
    /// Flattened per-router phase-1 pull lists: `(channel, is_fwd)` pairs,
    /// ascending channel index. `is_fwd` = the router is the channel's
    /// downstream end (receives the flit); otherwise it is the upstream
    /// end (receives credits/control).
    events: Vec<(u32, bool)>,
    ev_off: Vec<u32>,
}

impl PlanStatic {
    fn build(net: &Network) -> PlanStatic {
        let n = net.routers.len();
        let mut per: Vec<Vec<(u32, bool)>> = vec![Vec::new(); n];
        for (c, e) in net.ends.iter().enumerate() {
            per[e.from.index()].push((c as u32, false));
            per[e.to.index()].push((c as u32, true));
        }
        let mut events = Vec::with_capacity(2 * net.channels.len());
        let mut ev_off = vec![0u32; n + 1];
        for (j, mut list) in per.into_iter().enumerate() {
            list.sort_unstable_by_key(|&(c, _)| c);
            events.extend_from_slice(&list);
            ev_off[j + 1] = events.len() as u32;
        }

        PlanStatic { events, ev_off }
    }
}

/// One concrete partition: the static tables plus current boundaries.
struct Plan {
    shards: usize,
    /// Node range of shard `k`: `[node_start[k], node_start[k+1])`.
    node_start: Vec<usize>,
    stat: Arc<PlanStatic>,
}

impl Plan {
    fn with_boundaries(stat: Arc<PlanStatic>, node_start: Vec<usize>) -> Plan {
        Plan {
            shards: node_start.len() - 1,
            node_start,
            stat,
        }
    }
}

/// Splits `weights.len()` nodes into `shards` contiguous non-empty ranges
/// whose weight sums are as even as a greedy left-to-right cut allows.
/// Returns the `shards + 1` boundary vector (`[0, …, n]`, strictly
/// increasing). Pure and deterministic: same inputs, same cuts — the
/// engine's re-plan points feed it bitmask-derived weights, so plans are a
/// function of simulation state only, never of wall-clock timing.
#[doc(hidden)]
pub fn shard_boundaries(weights: &[u64], shards: usize) -> Vec<usize> {
    let n = weights.len();
    let shards = shards.min(n).max(1);
    let mut starts = Vec::with_capacity(shards + 1);
    starts.push(0usize);
    let total: u64 = weights.iter().sum();
    if total == 0 {
        for k in 1..=shards {
            starts.push(k * n / shards);
        }
        return starts;
    }
    let mut acc: u64 = 0;
    let mut k = 1usize;
    for (j, &w) in weights.iter().enumerate() {
        if k == shards {
            break;
        }
        acc += w;
        // Cut when the running sum reaches the k-th even share, or when
        // exactly enough nodes remain to keep later shards non-empty.
        let reached = (acc as u128) * (shards as u128) >= (k as u128) * (total as u128);
        let forced = n - (j + 1) == shards - k;
        if reached || forced {
            starts.push(j + 1);
            k += 1;
        }
    }
    debug_assert_eq!(starts.len(), shards, "boundary cut invariant violated");
    starts.push(n);
    starts
}

/// Per-node load weights derived from the activity bitmasks: an active
/// router dominates (it pays the pipeline step), a sending NI and each
/// live upstream channel add smaller shares, and every node keeps a floor
/// of 1 so idle stretches still split evenly.
fn shard_weights(net: &Network) -> Vec<u64> {
    (0..net.routers.len())
        .map(|j| {
            let live = net.out_chan[j].iter().filter_map(|(_, c)| *c);
            1 + 4 * u64::from(net.router_active.contains(j))
                + 2 * u64::from(net.ni_send_active.contains(j))
                + live.filter(|&c| net.channel_live(c)).count() as u64
        })
        .collect()
}

/// Builds the boundary vector a fresh engine would use right now — the
/// test hook behind [`Network::debug_shard_plan`].
pub(crate) fn plan_preview(net: &Network, threads: usize) -> Vec<usize> {
    let shards = threads.min(net.routers.len()).max(1);
    shard_boundaries(&shard_weights(net), shards)
}

// ---------------------------------------------------------------------------
// Per-cycle job + per-shard delta
// ---------------------------------------------------------------------------

/// Raw shard views published by the main thread before each cycle.
///
/// The pointers are bases of the `Network`'s component vectors, re-derived
/// every cycle (so snapshot restores, which replace contents in place, and
/// struct moves are both safe). Workers only ever dereference elements
/// their shard owns — or, for activity bitmasks, go through word-level
/// atomics — so no two threads form overlapping `&mut`. The `plan`
/// pointer is kept alive by the engine's `Arc`, which the main thread
/// replaces only inside the exclusive window (no worker holds a reference
/// then — the merge-tree flags prove it).
struct Job {
    seq: u64,
    plan: *const Plan,
    /// The network's own [`View`] of the cycle, on the publishing frame.
    view: *const View<'static>,
    /// The network's compiled fault index; the fast path admits only
    /// deterministic plans, whose whole effect is its dead-link test.
    faults: *const FaultIndex,
    routers: *mut Box<dyn Router>,
    nis: *mut NodeInterface,
    channels: *mut Channel,
    accounted_upto: *mut Cycle,
    modes_cache: *mut RouterMode,
    /// Due-calendar words of this cycle's arrival slots (read-only during
    /// the region; emptied after it).
    fwd_arrivals: *const [u64],
    rev_arrivals: *const [u64],
    /// The bitmask words kernels mark, indexed by [`Bits`]: activity sets
    /// and the due-calendar words of this cycle's send slots.
    bits: [*const [AtomicU64]; 5],
}

/// Everything a shard accumulates during a cycle, folded by the merge
/// tree and added to the network after the region.
struct ShardDelta {
    stats: NetworkStats,
    tally: Tally,
    /// Dropped flits (NACK circuit), in this shard's router-walk order.
    dropped: Vec<(Cycle, Flit)>,
    /// Fault-plane events, tagged `(channel, is_flit_event)`. The merge
    /// stable-sorts the union by that key, which reproduces the serial
    /// engine's fault-log order (ascending channel, credits before the
    /// flit within one channel's delivery).
    fault_events: Vec<(u32, bool, FaultEvent)>,
    /// Router outputs scratch, boxed so region AB takes it out of the
    /// delta (which it lends to the kernels) by moving a pointer.
    scratch: Option<Box<RouterOutputs>>,
    /// First/minimal terminal error: `(phase, component index, error)`.
    error: Option<(u8, u32, SimError)>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl ShardDelta {
    fn new() -> ShardDelta {
        ShardDelta {
            stats: NetworkStats::new(),
            tally: Tally::default(),
            dropped: Vec::new(),
            fault_events: Vec::new(),
            scratch: Some(Box::default()),
            error: None,
            panic: None,
        }
    }

    fn reset(&mut self) {
        self.stats.clear();
        self.tally = Tally::default();
        self.dropped.clear();
        self.fault_events.clear();
        self.error = None;
        self.panic = None;
    }

    /// Records a terminal error, keeping the minimum over
    /// `(phase, component index)`: the error the serial walk meets first.
    fn fail(&mut self, phase: u8, index: u32, err: SimError) {
        match &self.error {
            Some((p, i, _)) if (*p, *i) <= (phase, index) => {}
            _ => self.error = Some((phase, index, err)),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.stats.heap_bytes()
            + self.dropped.capacity() * std::mem::size_of::<(Cycle, Flit)>()
            + self.fault_events.capacity() * std::mem::size_of::<(u32, bool, FaultEvent)>()
            + self
                .scratch
                .as_ref()
                .map_or(0, |s| std::mem::size_of::<RouterOutputs>() + s.heap_bytes())
    }
}

/// Folds `src` into `dst`, preserving the ascending-shard concatenation
/// order for the vectors and the `(phase, index)` minimum for errors. The
/// binomial tree calls this bottom-up, so `dst`'s contents always cover a
/// contiguous shard range ending right where `src`'s begins.
fn merge_deltas(dst: &mut ShardDelta, src: &mut ShardDelta) {
    dst.stats.merge(&src.stats);
    dst.tally.add(&src.tally);
    dst.dropped.append(&mut src.dropped);
    dst.fault_events.append(&mut src.fault_events);
    if let Some((p, i, e)) = src.error.take() {
        dst.fail(p, i, e);
    }
    if dst.panic.is_none() {
        dst.panic = src.panic.take();
    }
}

// ---------------------------------------------------------------------------
// Barrier + shared pool state
// ---------------------------------------------------------------------------

/// Sense-reversing barrier: bounded spin, then bounded yielding, then a
/// condvar park — so oversubscribed hosts (threads > cores) and workers
/// idling between parallel cycles never burn whole timeslices.
///
/// The last arriver's `fetch_add` closes the release chain over every
/// earlier arriver's writes and its `gen` store releases them to all
/// waiters, so crossing the barrier is an all-to-all happens-before edge —
/// which is why the engine's bitmask ops can be `Relaxed`.
///
/// Wake-up correctness: a parked waiter re-checks `gen` under the mutex
/// inside the condvar wait loop, and the releaser notifies *while holding
/// the same mutex* after storing `gen` — the classic monitor discipline,
/// so the store can never fall into the window between a waiter's check
/// and its park. The uncontended lock on the release path is one CAS.
struct SpinBarrier {
    count: CachePadded<AtomicUsize>,
    gen: CachePadded<AtomicUsize>,
    total: usize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            count: CachePadded(AtomicUsize::new(0)),
            gen: CachePadded(AtomicUsize::new(0)),
            total,
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    fn wait(&self) {
        let g = self.gen.0.load(Ordering::Relaxed);
        if self.count.0.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.0.store(0, Ordering::Relaxed);
            self.gen.0.store(g.wrapping_add(1), Ordering::Release);
            let guard = self.lock.lock().unwrap();
            self.cond.notify_all();
            drop(guard);
        } else {
            let mut spins = 0u32;
            loop {
                if self.gen.0.load(Ordering::Acquire) != g {
                    return;
                }
                spins = spins.saturating_add(1);
                if spins < SPIN_LIMIT {
                    std::hint::spin_loop();
                } else if spins < SPIN_LIMIT + YIELD_LIMIT {
                    std::thread::yield_now();
                } else {
                    let mut guard = self.lock.lock().unwrap();
                    while self.gen.0.load(Ordering::Acquire) == g {
                        guard = self.cond.wait(guard).unwrap();
                    }
                    return;
                }
            }
        }
    }
}

struct Shared {
    barrier: SpinBarrier,
    job: UnsafeCell<Option<Job>>,
    deltas: Vec<CachePadded<UnsafeCell<ShardDelta>>>,
    /// Merge-tree ready flags: shard `k` stores the cycle's `seq` after its
    /// last access to `deltas[k]`; a parent spin-waits the child's flag up
    /// to `seq` before merging. Generation-tagging (instead of a reset
    /// boolean) removes any cross-cycle reset race.
    ready: Vec<CachePadded<AtomicU64>>,
    shutdown: AtomicBool,
}

// SAFETY: `Job`'s raw pointers are only dereferenced between the barrier
// that publishes them and the merge-tree flag store that retires each
// shard's access, and only on shard-owned elements (or via word atomics) —
// see the module docs. The deltas are single-writer (their shard) until
// the shard's ready flag is set, after which only the unique tree parent
// touches them.
#[allow(unsafe_code)]
unsafe impl Send for Shared {}
#[allow(unsafe_code)]
unsafe impl Sync for Shared {}

/// Persistent shard plan + worker pool attached to a [`Network`].
pub(crate) struct Engine {
    /// The thread count this engine was built for (the adaptive gate may
    /// keep one engine per probed candidate).
    pub(crate) threads: usize,
    plan: Arc<Plan>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Parallel cycles stepped by this engine instance — the deterministic
    /// clock for re-plan points.
    cycles: u64,
}

impl Engine {
    fn new(net: &Network, threads: usize) -> Engine {
        let stat = Arc::new(PlanStatic::build(net));
        let shards = threads.min(net.routers.len()).max(1);
        let plan = Arc::new(Plan::with_boundaries(
            stat,
            shard_boundaries(&shard_weights(net), shards),
        ));
        let shared = Arc::new(Shared {
            barrier: SpinBarrier::new(plan.shards),
            job: UnsafeCell::new(None),
            deltas: (0..plan.shards)
                .map(|_| CachePadded(UnsafeCell::new(ShardDelta::new())))
                .collect(),
            ready: (0..plan.shards)
                .map(|_| CachePadded(AtomicU64::new(0)))
                .collect(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..plan.shards)
            .map(|shard| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("afc-sim-{shard}"))
                    .spawn(move || worker_loop(&sh, shard))
                    .expect("failed to spawn sim worker thread")
            })
            .collect();
        Engine {
            threads,
            plan,
            shared,
            workers,
            cycles: 0,
        }
    }

    /// Recomputes load-proportional boundaries from the current activity
    /// bitmasks. Called only from the exclusive window (workers parked, no
    /// in-flight `Job` references the old plan), so swapping the `Arc` is
    /// safe; byte-identity is unaffected because any contiguous ascending
    /// partition produces the same output.
    fn replan(&mut self, net: &Network) {
        let node_start = shard_boundaries(&shard_weights(net), self.plan.shards);
        if node_start != self.plan.node_start {
            self.plan = Arc::new(Plan::with_boundaries(
                Arc::clone(&self.plan.stat),
                node_start,
            ));
        }
    }

    /// Heap bytes owned by the engine: plan tables (the only O(mesh)
    /// terms, ≤ ~32 bytes per node/channel) plus the per-shard deltas.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let stat = &self.plan.stat;
        let plan = stat.events.capacity() * size_of::<(u32, bool)>()
            + stat.ev_off.capacity() * size_of::<u32>()
            + self.plan.node_start.capacity() * size_of::<usize>();
        // SAFETY: called only from the exclusive window between cycles
        // (workers parked at the start barrier), where the owning thread
        // has sole access to every delta.
        #[allow(unsafe_code)]
        let deltas: usize = self
            .shared
            .deltas
            .iter()
            .map(|d| unsafe { (*d.0.get()).heap_bytes() })
            .sum();
        plan + deltas
            + self.shared.deltas.capacity() * size_of::<CachePadded<UnsafeCell<ShardDelta>>>()
            + self.shared.ready.capacity() * size_of::<CachePadded<AtomicU64>>()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        // Workers are parked at the start barrier between cycles; one
        // crossing releases them to observe the shutdown flag and exit.
        self.shared.barrier.wait();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The shard context and the sharded schedule
// ---------------------------------------------------------------------------

/// Walks set bits of `[lo, hi)` in ascending order from per-word snapshots
/// (the serial engine's exact iteration discipline, masked to the shard's
/// range). The callback returns `false` to stop early.
fn walk_masked(words: &[AtomicU64], lo: usize, hi: usize, mut f: impl FnMut(usize) -> bool) {
    if lo >= hi {
        return;
    }
    let w_lo = lo >> 6;
    let w_hi = (hi - 1) >> 6;
    for (wi, word) in words.iter().enumerate().take(w_hi + 1).skip(w_lo) {
        let mut w = word.load(Ordering::Relaxed);
        if wi == w_lo {
            w &= !0u64 << (lo & 63);
        }
        if wi == hi >> 6 {
            // Only reachable when `hi % 64 != 0` (else `hi >> 6 > w_hi`).
            w &= (1u64 << (hi & 63)) - 1;
        }
        while w != 0 {
            let i = (wi << 6) + w.trailing_zeros() as usize;
            w &= w - 1;
            if !f(i) {
                return;
            }
        }
    }
}

/// The cycle context of one shard: the phase kernels' view of the
/// components the shard owns, writing the shard's delta and atomic bitmask
/// words. Every node and ring slot a kernel asks for is checked against
/// the ownership argument of the module docs, so the raw-pointer accesses
/// behind them stay race-free whatever index a kernel passes.
struct ShardCx<'a> {
    job: &'a Job,
    /// The shard's node range.
    nodes: Range<usize>,
    delta: &'a mut ShardDelta,
    view: View<'a>,
    faults: &'a FaultIndex,
    bits: [&'a [AtomicU64]; 5],
}

impl ShardCx<'_> {
    /// Checks that `slot` of channel `c` is this cycle's `take` slot of a
    /// channel whose receiving end is owned, or its `send` slot of one
    /// whose sending end is owned — the only slots a shard may touch.
    fn check_slot(&self, c: usize, slot: usize, take: (usize, NodeId), send: (usize, NodeId)) {
        let owner = if slot == take.0 { take.1 } else { send.1 };
        assert!(
            (slot == take.0 || slot == send.0) && self.nodes.contains(&owner.index()),
            "channel {c}, slot {slot}: not this shard's"
        );
    }
}

impl Cx for ShardCx<'_> {
    fn view(&self) -> View<'_> {
        self.view
    }
    fn node(&mut self, i: usize) -> Node<'_> {
        assert!(self.nodes.contains(&i), "node {i} is not this shard's");
        let job = self.job;
        // SAFETY: node `i` belongs to this shard (checked above), so no
        // other thread touches its router, NI, accounted-upto or mode-cache
        // slot during the region; the borrow is tied to `self`, so a kernel
        // holds at most one node at a time.
        unsafe {
            Node {
                router: (*job.routers.add(i)).as_mut(),
                ni: &mut *job.nis.add(i),
                accounted_upto: &mut *job.accounted_upto.add(i),
                mode: &mut *job.modes_cache.add(i),
                stats: &mut self.delta.stats,
                tally: &mut self.delta.tally,
            }
        }
    }
    /// Slot `slot` of channel `c`'s forward ring, addressed without forming
    /// a reference to the channel or its ring: the downstream end takes
    /// this cycle's arrival slot while the upstream end writes its send
    /// slot.
    fn fwd_slot(&mut self, c: usize, slot: usize) -> &mut Option<Flit> {
        let (ends, at) = (self.view.ends[c], self.view.at);
        self.check_slot(c, slot, (at.fwd_take, ends.to), (at.fwd_send, ends.from));
        // SAFETY: `c` is a channel of the network (`ends` is indexed by
        // channel) and the slot is this shard's (checked above): exactly
        // one shard touches it this cycle.
        unsafe { &mut *addr_of_mut!((*(*self.job.channels.add(c)).fwd)[slot]) }
    }
    /// The reverse-ring twin of [`ShardCx::fwd_slot`], with the channel's
    /// ends swapped.
    fn rev_slot(&mut self, c: usize, slot: usize) -> &mut ReverseSlot {
        let (ends, at) = (self.view.ends[c], self.view.at);
        self.check_slot(c, slot, (at.rev_take, ends.from), (at.rev_send, ends.to));
        // SAFETY: as for `fwd_slot`.
        unsafe { &mut *addr_of_mut!((*(*self.job.channels.add(c)).rev)[slot]) }
    }
    fn set_bit(&mut self, bits: Bits, i: usize, on: bool) {
        let (word, bit) = (&self.bits[bits as usize][i >> 6], 1u64 << (i & 63));
        if on {
            word.fetch_or(bit, Ordering::Relaxed);
        } else {
            word.fetch_and(!bit, Ordering::Relaxed);
        }
    }
    fn nack(&mut self, ready: Cycle, flit: Flit) {
        self.delta.dropped.push((ready, flit));
    }
    /// The fast path's fault plane is deterministic: a dead link loses its
    /// credits, and draws no RNG.
    fn credit_lost(&mut self, ends: ChannelEnds) -> bool {
        self.faults.link_dead(ends.from, ends.dir, self.view.now)
    }
    /// A dead link eats its flits; nothing else happens on the fast path.
    fn flit_fate(&mut self, ends: ChannelEnds) -> FlitFate {
        if self.faults.link_dead(ends.from, ends.dir, self.view.now) {
            FlitFate::Drop
        } else {
            FlitFate::Deliver
        }
    }
    /// Nothing is held: the fast path stalls no router, and the static
    /// gate refuses cycles with held-back flits.
    fn hold(&mut self, _c: usize, _to: NodeId, arrived: Option<Flit>) -> Option<Flit> {
        arrived
    }
    /// Tagged by `(channel, is_flit)` so the merge can replay the serial
    /// fault-log order.
    fn log_fault(&mut self, c: usize, is_flit: bool, ev: FaultEvent) {
        self.delta.fault_events.push((c as u32, is_flit, ev));
    }
}

/// Region AB, the sharded schedule of phases 1, 2a-scan, 2b and 3 over the
/// phase kernels of [`cycle`]: the shard takes this cycle's arrivals on the
/// channels incident to its own routers, scans its own NIs' retransmit
/// timeouts, injects from its own NIs, then steps its own routers.
///
/// # Safety
/// Must run after the start barrier with a valid published `Job`; only
/// shard `shard` may call it for that shard.
unsafe fn region_ab(job: &Job, plan: &Plan, shard: usize, delta: &mut ShardDelta) {
    let stat = &*plan.stat;
    let (lo, hi) = (plan.node_start[shard], plan.node_start[shard + 1]);
    let (fwd_arrivals, rev_arrivals) = (&*job.fwd_arrivals, &*job.rev_arrivals);
    let mut out = delta.scratch.take().unwrap_or_default();
    let mut cx = ShardCx {
        job,
        nodes: lo..hi,
        delta,
        view: *job.view,
        faults: &*job.faults,
        bits: job.bits.map(|words| &*words),
    };

    // Phase 1: every shard takes this cycle's arrivals incident on its own
    // routers — credits/control from the reverse rings of its routers'
    // outgoing channels, flits from the forward rings of its incoming
    // channels — walking each router's incident channels in ascending
    // channel order, which reproduces the serial engine's per-router
    // mutation sequence exactly; the due calendar skips channels with
    // nothing in this cycle's slot. Taking this cycle's slots while other
    // shards run phase 3 is race-free: phase 3 writes the send slots.
    for j in lo..hi {
        let evs = &stat.events[stat.ev_off[j] as usize..stat.ev_off[j + 1] as usize];
        for &(c32, is_fwd) in evs {
            let c = c32 as usize;
            let due = if is_fwd { fwd_arrivals } else { rev_arrivals };
            if due[c >> 6] & (1u64 << (c & 63)) == 0 {
                continue;
            }
            if !is_fwd {
                cycle::back_arrival(&mut cx, c);
            } else if let Err(e) = cycle::flit_arrival(&mut cx, c, true) {
                // Keep walking: every due flit is age-checked, so the
                // minimal erroring channel — the serial walk's first — is
                // the one reported.
                cx.delta.fail(1, c32, e);
            }
        }
    }

    if cx.delta.error.is_none() {
        if cx.view.config.retransmit.is_some() {
            for i in lo..hi {
                cycle::retransmit_timeouts(&mut cx, i);
            }
        }
        let (senders, routers) = (
            cx.bits[Bits::Sender as usize],
            cx.bits[Bits::Router as usize],
        );
        walk_masked(senders, lo, hi, |i| {
            cycle::inject(&mut cx, i);
            true
        });
        walk_masked(routers, lo, hi, |i| {
            match cycle::step_router(&mut cx, i, &mut out) {
                Ok(()) => true,
                Err(e) => {
                    // Stop at the shard's first router error: within-shard
                    // order is ascending, so it is the shard's minimal one.
                    cx.delta.fail(3, i as u32, e);
                    false
                }
            }
        });
    }
    cx.delta.scratch = Some(out);
}

// ---------------------------------------------------------------------------
// Worker loop + merge tree + main-thread orchestration
// ---------------------------------------------------------------------------

fn run_guarded(shared: &Shared, shard: usize, f: impl FnOnce(&mut ShardDelta)) {
    // SAFETY: each delta is written only by its shard until the shard's
    // ready flag is set (which happens strictly after this call).
    let delta = unsafe { &mut *shared.deltas[shard].0.get() };
    let result = catch_unwind(AssertUnwindSafe(|| f(delta)));
    // SAFETY: as above (the closure's borrow ended with the call).
    let delta = unsafe { &mut *shared.deltas[shard].0.get() };
    if let Err(payload) = result {
        if delta.panic.is_none() {
            delta.panic = Some(payload);
        }
    }
}

/// Spin-waits (bounded, then yielding — merge waits are shorter than a
/// cycle, so they never park) until `flag` reaches `seq`.
fn wait_ready(flag: &AtomicU64, seq: u64) {
    let mut spins = 0u32;
    while flag.load(Ordering::Acquire) < seq {
        spins = spins.saturating_add(1);
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Binomial-tree fold: shard `k` merges shard `k + s` for
/// `s = 1, 2, 4, …` while `k mod 2s == 0`, then publishes its own ready
/// flag — *unconditionally*, even if a merge panicked (the payload rides
/// up in the delta), so the tree can never deadlock. Shard 0's return
/// therefore means every shard's full delta (and last `Job` access) is
/// complete: the tree replaces both the final barrier and the serial
/// shard-order fold, with an identical ascending concatenation order.
fn merge_subtree(shared: &Shared, shard: usize, seq: u64) {
    let shards = shared.deltas.len();
    let mut stride = 1usize;
    while shard.is_multiple_of(stride * 2) && shard + stride < shards {
        let child = shard + stride;
        wait_ready(&shared.ready[child].0, seq);
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the child's flag at `seq` retires its (and its whole
            // subtree's) delta accesses for this cycle; this shard is the
            // unique tree parent of `child`.
            let dst = unsafe { &mut *shared.deltas[shard].0.get() };
            let src = unsafe { &mut *shared.deltas[child].0.get() };
            merge_deltas(dst, src);
        }));
        if let Err(payload) = result {
            // SAFETY: as above — sole accessor of both deltas right now.
            let dst = unsafe { &mut *shared.deltas[shard].0.get() };
            if dst.panic.is_none() {
                dst.panic = Some(payload);
            }
        }
        stride *= 2;
    }
    shared.ready[shard].0.store(seq, Ordering::Release);
}

fn worker_loop(shared: &Shared, shard: usize) {
    loop {
        shared.barrier.wait(); // start barrier: job published (or shutdown)
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        // SAFETY: the job is published before the start barrier and not
        // mutated again until every shard's ready flag retires the cycle;
        // reading it here is data-race free.
        let job = unsafe { (*shared.job.get()).as_ref().expect("job published") };
        // SAFETY: the engine's plan Arc outlives the cycle (it is only
        // replaced in the exclusive window, when no job is in flight).
        let plan = unsafe { &*job.plan };
        let seq = job.seq;
        run_guarded(shared, shard, |d| {
            d.reset();
            // SAFETY: after the start barrier, on this shard.
            unsafe { region_ab(job, plan, shard, d) }
        });
        merge_subtree(shared, shard, seq);
    }
}

/// Static activity gate: true when the cycle has enough live components to
/// amortize the barrier cost and no residual held-back flits (from a
/// restored faulted run) force the serial walk.
pub(crate) fn static_gate(net: &Network) -> bool {
    let threads = net.sim_threads().min(net.routers.len());
    if threads < 2 || !net.held_set.is_empty() {
        return false;
    }
    let needed = net.par_min_active.saturating_mul(threads);
    let active = net.router_active.popcount() + net.ni_send_active.popcount();
    active >= needed || active + net.live_channel_count() >= needed
}

/// Builds the engine (plan + worker pool) for `threads` workers if it
/// does not exist yet, so timed gate probes never charge thread-spawn
/// cost to a parallel sample. The cache holds one engine per thread count
/// the adaptive gate probes — at most two ([`AdaptiveGate`]'s parallel
/// candidates are 2 and the full budget).
pub(crate) fn ensure_engine_for(net: &mut Network, threads: usize) {
    let threads = threads.min(net.routers.len()).max(2);
    if !net.engines.iter().any(|e| e.threads == threads) {
        let engine = Engine::new(net, threads);
        net.engines.push(engine);
    }
}

/// Steps one cycle on the parallel engine built for `threads` workers.
/// Callers must have passed [`static_gate`]; the adaptive gate's decision
/// is made by the caller.
pub(crate) fn step_parallel_with(net: &mut Network, threads: usize) -> Result<(), SimError> {
    ensure_engine_for(net, threads);
    let threads = threads.min(net.routers.len()).max(2);
    let idx = net
        .engines
        .iter()
        .position(|e| e.threads == threads)
        .expect("engine just ensured");
    let mut engine = net.engines.swap_remove(idx);
    engine.cycles += 1;
    let seq = engine.cycles;
    if net.replan_every > 0 && seq.is_multiple_of(net.replan_every) {
        engine.replan(net);
    }
    let shared = Arc::clone(&engine.shared);
    let plan = Arc::clone(&engine.plan);
    net.engines.push(engine);
    step_cycle(net, &shared, &plan, seq)
}

/// One parallel cycle of phases 1–3: publish the job, run region AB on
/// every shard, then merge the folded delta into the network. The
/// prologue (phase 0 and queue retirement) and the end of the cycle
/// (phase 3b, clock, watchdog) are the network's own, shared with the
/// serial schedule.
fn step_cycle(
    net: &mut Network,
    shared: &Shared,
    plan: &Arc<Plan>,
    seq: u64,
) -> Result<(), SimError> {
    let at = net.slots;
    net.parallel_cycles += 1;

    // Exclusive window: workers are parked at the start barrier.
    let mut job = Job {
        seq,
        plan: Arc::as_ptr(plan),
        view: std::ptr::null(),
        faults: &net.fault_index,
        routers: net.routers.as_mut_ptr(),
        nis: net.nis.as_mut_ptr(),
        channels: net.channels.as_mut_ptr(),
        accounted_upto: net.accounted_upto.as_mut_ptr(),
        modes_cache: net.modes_cache.as_mut_ptr(),
        fwd_arrivals: net.fwd_due[at.fwd_take].words.as_slice(),
        rev_arrivals: net.rev_due[at.rev_take].words.as_slice(),
        bits: [
            atomic_words(&mut net.router_active.words),
            atomic_words(&mut net.ni_send_active.words),
            atomic_words(&mut net.ni_delivered.words),
            atomic_words(&mut net.fwd_due[at.fwd_send].words),
            atomic_words(&mut net.rev_due[at.rev_send].words),
        ],
    };
    // The view borrows fields no shard writes; it stays on this frame
    // until the merge below has retired every shard's access.
    let view = net.view();
    job.view = (&view as *const View<'_>).cast();
    // SAFETY: sole accessor of the job cell until the barrier crossing;
    // every prior cycle's accesses were retired by its merge-tree flags.
    unsafe {
        *shared.job.get() = Some(job);
    }

    {
        // SAFETY: published above; immutable until every ready flag
        // reaches `seq` (shard 0's merge below transitively waits for
        // that). Scoped so the borrow ends before the merge.
        let job = unsafe { (*shared.job.get()).as_ref().expect("job just published") };
        shared.barrier.wait(); // start barrier
        run_guarded(shared, 0, |d| {
            d.reset();
            // SAFETY: after the start barrier, on shard 0.
            unsafe { region_ab(job, plan, 0, d) }
        });
        merge_subtree(shared, 0, seq);
    }
    // Every shard has taken its arrivals: empty this cycle's arrival slots
    // of the due calendar before the next cycle's pushes land there.
    net.fwd_due[at.fwd_take].fill_empty();
    net.rev_due[at.rev_take].fill_empty();

    // Exclusive again: the root merge waited on every shard, and the tree
    // already folded all deltas into shard 0's in ascending shard order —
    // the serial engine's accumulation order.
    // SAFETY: all ready flags reached `seq`; main is the sole accessor.
    let d = unsafe { &mut *shared.deltas[0].0.get() };
    net.stats.merge(&d.stats);
    net.tally.add(&d.tally);
    net.nack_queue.append(&mut d.dropped);
    // Serial fault-log order: ascending channel, a channel's lost credits
    // before its dropped flit (one flit per channel per cycle, so the key
    // is a total order up to same-channel credits, whose relative order
    // the stable sort preserves).
    d.fault_events.sort_by_key(|&(c, is_flit, _)| (c, is_flit));
    for (_, _, ev) in d.fault_events.drain(..) {
        net.log_fault(ev);
    }
    if let Some(payload) = d.panic.take() {
        resume_unwind(payload);
    }
    match d.error.take() {
        Some((_, _, e)) => Err(e),
        None => Ok(()),
    }
}

/// A bitmask's words as a raw atomic view for the job (`u64` and
/// `AtomicU64` share layout on supported 64-bit targets).
fn atomic_words(words: &mut [u64]) -> *const [AtomicU64] {
    words as *mut [u64] as *const [AtomicU64]
}

// ---------------------------------------------------------------------------
// Adaptive gate
// ---------------------------------------------------------------------------

/// Cycles timed per probe burst.
const PROBE_CYCLES: u32 = 8;
/// Untimed cycles between probe reviews.
const COMMIT_CYCLES: u32 = 256;
/// Switching to a *more*-threaded candidate needs a 10% projected win
/// (hysteresis); dropping threads happens on any measured loss.
const SWITCH_UP_MARGIN: f64 = 0.9;

#[derive(Debug, Clone, Copy)]
enum GatePhase {
    /// Timing candidate `cand` (an index into `candidates`), starting
    /// with the committed candidate so its estimate stays freshest.
    Probe {
        /// Position in the review's probe sequence (0 = committed).
        pos: usize,
        /// Timed cycles left for this candidate.
        left: u32,
    },
    /// Running the committed candidate untimed.
    Committed(u32),
}

/// Probe/commit wall-clock controller for the thread-count choice.
///
/// Every engine configuration is byte-identical, so this gate can never
/// affect results — only wall-clock time. It maintains an EWMA of
/// ns/cycle for each *candidate thread count* — serial, 2 threads, and
/// the configured maximum (deduplicated) — refreshed by brief probe
/// bursts every [`COMMIT_CYCLES`] gated cycles, and commits to the
/// fastest with hysteresis: claiming more threads requires a
/// [`SWITCH_UP_MARGIN`] projected win, shedding threads happens on any
/// measured loss. The intermediate 2-thread candidate is what rescues
/// small meshes, where the full thread budget loses to serial but a
/// two-way split still pays. Because every review probes every
/// candidate, the controller never starves itself of fresh evidence;
/// committed stretches pay zero timer overhead.
#[derive(Debug)]
pub(crate) struct AdaptiveGate {
    adaptive: bool,
    /// Candidate thread counts, ascending, deduplicated; `candidates[0]`
    /// is always 1 (serial) and the last entry is the configured budget.
    candidates: Vec<usize>,
    /// Index of the committed candidate.
    committed: usize,
    phase: GatePhase,
    /// EWMA ns/cycle per candidate; 0.0 = no sample yet.
    estimates: Vec<f64>,
}

impl AdaptiveGate {
    /// `adaptive = false` pins the gate open (always the full
    /// `max_threads` budget when the static gate passes) — the
    /// pre-hysteresis behavior, used by CI equivalence suites (forced via
    /// `AFC_SIM_THREADS`) and benchmarks that measure the raw engine.
    pub(crate) fn new(adaptive: bool, max_threads: usize) -> AdaptiveGate {
        let mut candidates = vec![1usize, 2, max_threads.max(1)];
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&t| t == 1 || t <= max_threads);
        let n = candidates.len();
        AdaptiveGate {
            adaptive,
            candidates,
            committed: n - 1,
            phase: GatePhase::Probe {
                pos: 0,
                left: PROBE_CYCLES,
            },
            estimates: vec![0.0; n],
        }
    }

    pub(crate) fn set_adaptive(&mut self, on: bool) {
        self.adaptive = on;
        self.reset();
    }

    pub(crate) fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Forgets learned estimates (call when the thread budget changes —
    /// via [`AdaptiveGate::new`] when the candidate set itself changes).
    pub(crate) fn reset(&mut self) {
        self.committed = self.candidates.len() - 1;
        self.phase = GatePhase::Probe {
            pos: 0,
            left: PROBE_CYCLES,
        };
        self.estimates.fill(0.0);
    }

    /// Maps a probe-sequence position to a candidate index: position 0 is
    /// the committed candidate, the rest are the others in ascending
    /// order.
    fn probe_candidate(&self, pos: usize) -> usize {
        if pos == 0 {
            self.committed
        } else {
            // Skip the committed candidate in the ascending walk.
            let i = pos - 1;
            if i < self.committed {
                i
            } else {
                i + 1
            }
        }
    }

    /// Picks the thread count for one gated cycle: `(threads, timed)`.
    /// `threads == 1` means serial. When `timed`, the caller must report
    /// the cycle's wall-clock cost via [`AdaptiveGate::feedback`].
    pub(crate) fn decide(&mut self) -> (usize, bool) {
        let max = *self.candidates.last().expect("at least one candidate");
        if !self.adaptive {
            return (max, false);
        }
        match &mut self.phase {
            GatePhase::Probe { pos, .. } => {
                let pos = *pos;
                (self.candidates[self.probe_candidate(pos)], true)
            }
            GatePhase::Committed(left) => {
                if *left > 0 {
                    *left -= 1;
                    (self.candidates[self.committed], false)
                } else {
                    self.phase = GatePhase::Probe {
                        pos: 0,
                        left: PROBE_CYCLES,
                    };
                    (self.candidates[self.committed], true)
                }
            }
        }
    }

    /// Feeds one timed cycle back; advances the probe state machine and,
    /// at the end of a review (every candidate probed), re-commits to the
    /// fastest with hysteresis.
    pub(crate) fn feedback(&mut self, threads: usize, ns: f64) {
        if let Some(i) = self.candidates.iter().position(|&t| t == threads) {
            let est = &mut self.estimates[i];
            *est = if *est == 0.0 {
                ns
            } else {
                0.75 * *est + 0.25 * ns
            };
        }
        if let GatePhase::Probe { pos, left } = &mut self.phase {
            *left -= 1;
            if *left == 0 {
                if *pos + 1 < self.candidates.len() {
                    self.phase = GatePhase::Probe {
                        pos: *pos + 1,
                        left: PROBE_CYCLES,
                    };
                } else {
                    self.commit();
                    self.phase = GatePhase::Committed(COMMIT_CYCLES);
                }
            }
        }
    }

    /// End-of-review commitment: the candidate with the lowest estimate
    /// wins, but claiming *more* threads than currently committed
    /// requires beating the incumbent by [`SWITCH_UP_MARGIN`].
    fn commit(&mut self) {
        let sampled = |i: usize| self.estimates[i] > 0.0;
        let mut best = self.committed;
        for i in 0..self.candidates.len() {
            if !sampled(i) || i == best {
                continue;
            }
            if self.estimates[i] < self.estimates[best] {
                best = i;
            }
        }
        if best == self.committed || !sampled(self.committed) {
            self.committed = best;
            return;
        }
        if self.candidates[best] > self.candidates[self.committed] {
            if self.estimates[best] < SWITCH_UP_MARGIN * self.estimates[self.committed] {
                self.committed = best;
            }
        } else if self.estimates[best] < self.estimates[self.committed] {
            self.committed = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_is_all_to_all() {
        let barrier = Arc::new(SpinBarrier::new(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for round in 1..=100usize {
                    c.fetch_add(1, Ordering::Relaxed);
                    b.wait();
                    // Every participant's pre-barrier increment is visible.
                    assert!(c.load(Ordering::Relaxed) >= 4 * round);
                    b.wait();
                }
            }));
        }
        for round in 1..=100usize {
            counter.fetch_add(1, Ordering::Relaxed);
            barrier.wait();
            assert!(counter.load(Ordering::Relaxed) >= 4 * round);
            barrier.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn masked_walk_matches_reference() {
        let words: [AtomicU64; 4] = Default::default();
        let bits = [0usize, 1, 5, 63, 64, 65, 127, 128, 200, 255];
        for &b in &bits {
            words[b >> 6].fetch_or(1 << (b & 63), Ordering::Relaxed);
        }
        let atomics = &words[..];
        for (lo, hi) in [(0, 256), (1, 255), (64, 128), (63, 65), (65, 65), (5, 6)] {
            let mut got = Vec::new();
            walk_masked(atomics, lo, hi, |i| {
                got.push(i);
                true
            });
            let want: Vec<usize> = bits
                .iter()
                .copied()
                .filter(|&b| b >= lo && b < hi)
                .collect();
            assert_eq!(got, want, "range [{lo}, {hi})");
        }
    }

    fn check_partition(starts: &[usize], n: usize, shards: usize) {
        assert_eq!(starts.len(), shards + 1);
        assert_eq!(starts[0], 0);
        assert_eq!(*starts.last().unwrap(), n);
        for w in starts.windows(2) {
            assert!(w[0] < w[1], "empty or inverted shard in {starts:?}");
        }
    }

    #[test]
    fn boundaries_partition_any_weights() {
        // A tiny deterministic LCG stands in for arbitrary activity.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in [1usize, 2, 3, 7, 9, 64, 100, 1024] {
            for shards in [1usize, 2, 3, 5, 8, 16, 200] {
                let eff = shards.min(n).max(1);
                // Uniform-ish weights.
                let weights: Vec<u64> = (0..n).map(|_| rand() % 9).collect();
                check_partition(&shard_boundaries(&weights, shards), n, eff);
                // All-zero weights fall back to even splits.
                check_partition(&shard_boundaries(&vec![0; n], shards), n, eff);
                // One node carries all the load.
                let mut skew = vec![0u64; n];
                skew[(rand() % n as u64) as usize] = 1 << 40;
                check_partition(&shard_boundaries(&skew, shards), n, eff);
            }
        }
    }

    #[test]
    fn boundaries_track_load() {
        // Heavy left half → the first shard should take fewer nodes than
        // an even split would give it.
        let mut weights = vec![1u64; 100];
        for w in weights.iter_mut().take(10) {
            *w = 100;
        }
        let starts = shard_boundaries(&weights, 4);
        check_partition(&starts, 100, 4);
        assert!(
            starts[1] <= 13,
            "first shard should hug the hot region: {starts:?}"
        );
    }

    #[cfg(target_os = "linux")]
    fn process_cpu_ms() -> u64 {
        // utime + stime from /proc/self/stat, fields 14/15 (1-indexed)
        // after the parenthesised comm. USER_HZ is 100 on every supported
        // Linux configuration; the test's margins are far wider than any
        // plausible deviation.
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        let rest = &stat[stat.rfind(')').unwrap() + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields[11].parse().unwrap();
        let stime: u64 = fields[12].parse().unwrap();
        (utime + stime) * 10
    }

    /// Satellite regression: waiters parked at a barrier must not burn the
    /// host while the releaser is busy elsewhere — even when the pool is
    /// oversubscribed (threads = 4× cores).
    #[test]
    #[cfg(target_os = "linux")]
    fn parked_barrier_waiters_burn_no_cpu() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let total = 4 * cores + 1;
        let barrier = Arc::new(SpinBarrier::new(total));
        let handles: Vec<_> = (0..total - 1)
            .map(|_| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    b.wait(); // round 1: rendezvous
                    b.wait(); // round 2: park here while main sleeps
                })
            })
            .collect();
        barrier.wait(); // round 1 complete; workers move to round 2
        std::thread::sleep(std::time::Duration::from_millis(100));
        let cpu0 = process_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(400));
        let cpu1 = process_cpu_ms();
        barrier.wait(); // release round 2
        for h in handles {
            h.join().unwrap();
        }
        let burned = cpu1.saturating_sub(cpu0);
        assert!(
            burned < 150,
            "parked barrier waiters burned {burned} ms of CPU over a 400 ms sleep \
             ({total} threads on {cores} cores)"
        );
    }

    /// Runs the gate for `cycles` gated cycles against a synthetic cost
    /// model (ns per cycle as a function of thread count), returning the
    /// last committed, untimed decision observed.
    fn drive(gate: &mut AdaptiveGate, cycles: u32, cost: impl Fn(usize) -> f64) -> usize {
        let mut last_committed = 0;
        for _ in 0..cycles {
            let (threads, timed) = gate.decide();
            if timed {
                gate.feedback(threads, cost(threads));
            } else {
                last_committed = threads;
            }
        }
        last_committed
    }

    /// One full review (every candidate probed) plus a committed stretch.
    const REVIEW: u32 = COMMIT_CYCLES + 3 * PROBE_CYCLES + 4;

    #[test]
    fn adaptive_gate_commits_to_the_fastest_thread_count() {
        let mut gate = AdaptiveGate::new(true, 8);
        // Small-mesh regime: the full budget loses badly, two threads
        // lose mildly — the gate must fall back to serial.
        let committed = drive(&mut gate, 2 * REVIEW, |t| match t {
            1 => 1000.0,
            2 => 1500.0,
            _ => 4000.0,
        });
        assert_eq!(committed, 1, "gate should have committed to serial");
        // Two threads become the sweet spot (the 8×8 over-threading fix:
        // neither serial nor the full budget wins, the middle does).
        let committed = drive(&mut gate, 4 * REVIEW, |t| match t {
            1 => 1000.0,
            2 => 600.0,
            _ => 1200.0,
        });
        assert_eq!(committed, 2, "gate should have committed to 2 threads");
        // Load grows until the full budget wins by >10%: switch up.
        let committed = drive(&mut gate, 4 * REVIEW, |t| match t {
            1 => 4000.0,
            2 => 2000.0,
            _ => 900.0,
        });
        assert_eq!(committed, 8, "gate should have claimed the full budget");
        // A <10% projected win must NOT unseat a smaller commitment
        // (hysteresis): drop back to 2, then offer 8 a marginal edge.
        let committed = drive(&mut gate, 4 * REVIEW, |t| match t {
            1 => 2000.0,
            2 => 1000.0,
            _ => 1500.0,
        });
        assert_eq!(committed, 2);
        let committed = drive(&mut gate, 4 * REVIEW, |t| match t {
            1 => 2000.0,
            2 => 1000.0,
            _ => 950.0,
        });
        assert_eq!(committed, 2, "a sub-margin win must not claim more threads");
    }

    #[test]
    fn adaptive_gate_keeps_probing_every_candidate() {
        let mut gate = AdaptiveGate::new(true, 8);
        // Commit to serial, then verify later reviews still time 2 and 8.
        drive(
            &mut gate,
            2 * REVIEW,
            |t| if t == 1 { 100.0 } else { 9000.0 },
        );
        let mut probed = [false; 3];
        for _ in 0..(2 * REVIEW) {
            let (threads, timed) = gate.decide();
            if timed {
                match threads {
                    1 => probed[0] = true,
                    2 => probed[1] = true,
                    8 => probed[2] = true,
                    other => panic!("unexpected candidate {other}"),
                }
                gate.feedback(threads, if threads == 1 { 100.0 } else { 9000.0 });
            }
        }
        assert_eq!(
            probed, [true; 3],
            "reviews must keep probing every candidate"
        );
    }

    #[test]
    fn gate_candidates_deduplicate() {
        // Budget 2: candidates collapse to {1, 2}.
        let mut gate = AdaptiveGate::new(true, 2);
        let committed = drive(&mut gate, 2 * REVIEW, |t| match t {
            1 => 1000.0,
            2 => 500.0,
            other => panic!("budget-2 gate probed {other} threads"),
        });
        assert_eq!(committed, 2);
    }

    #[test]
    fn non_adaptive_gate_is_always_full_budget_untimed() {
        let mut gate = AdaptiveGate::new(false, 8);
        for _ in 0..100 {
            assert_eq!(gate.decide(), (8, false));
        }
    }
}
