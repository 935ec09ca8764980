//! Run-wide statistics: latency accounting, load measurement utilities
//! (sliding window + EWMA, as used by AFC's contention monitor), and the
//! aggregate [`NetworkStats`] snapshot.

use crate::flit::Cycle;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Streaming summary of a latency (or any nonnegative) distribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl LatencyStats {
    /// Creates an empty summary.
    pub fn new() -> LatencyStats {
        LatencyStats::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Minimum sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Maximum sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Serializes the summary for a snapshot.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_opt_u64(self.min);
        w.put_opt_u64(self.max);
    }

    /// Restores a summary written by [`LatencyStats::save`].
    pub fn load(r: &mut SnapshotReader<'_>) -> Result<LatencyStats, SnapshotError> {
        Ok(LatencyStats {
            count: r.get_u64("latency stats count")?,
            sum: r.get_u64("latency stats sum")?,
            min: r.get_opt_u64("latency stats min")?,
            max: r.get_opt_u64("latency stats max")?,
        })
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A fixed-bucket latency histogram with percentile queries.
///
/// Buckets are linear with the given width; samples beyond the last bucket
/// land in an overflow bucket (counted, and reported as the overflow
/// boundary by percentile queries).
///
/// # Examples
///
/// ```
/// use afc_netsim::stats::Histogram;
/// let mut h = Histogram::new(10, 10); // 10 buckets of width 10
/// for v in [5, 15, 15, 95, 1000] { h.record(v); }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.percentile(0.5), Some(10)); // bucket lower bound
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram of `buckets` linear buckets of `bucket_width`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(buckets: usize, bucket_width: u64) -> Histogram {
        assert!(
            buckets > 0 && bucket_width > 0,
            "histogram must be nonempty"
        );
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
        self.count += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Lower bound of the bucket containing the `p`-quantile
    /// (`0.0 <= p <= 1.0`), or `None` if empty. Overflowing quantiles
    /// report the overflow boundary.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((self.count as f64 * p).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(i as u64 * self.bucket_width);
            }
        }
        Some(self.buckets.len() as u64 * self.bucket_width)
    }

    /// Iterates `(bucket_lower_bound, count)` for nonempty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i as u64 * self.bucket_width, *c))
    }

    /// Serializes the histogram (geometry and contents) for a snapshot.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.bucket_width);
        w.put_usize(self.buckets.len());
        for b in &self.buckets {
            w.put_u64(*b);
        }
        w.put_u64(self.overflow);
        w.put_u64(self.count);
    }

    /// Restores a histogram written by [`Histogram::save`].
    pub fn load(r: &mut SnapshotReader<'_>) -> Result<Histogram, SnapshotError> {
        let bucket_width = r.get_u64("histogram bucket width")?;
        let n = r.get_count("histogram bucket count", 8)?;
        if bucket_width == 0 || n == 0 {
            return Err(SnapshotError::Malformed {
                what: "histogram geometry",
            });
        }
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(r.get_u64("histogram bucket")?);
        }
        Ok(Histogram {
            bucket_width,
            buckets,
            overflow: r.get_u64("histogram overflow")?,
            count: r.get_u64("histogram count")?,
        })
    }

    /// Zeroes all counts in place, keeping the geometry and the bucket
    /// allocation (the parallel engine resets per-shard deltas every
    /// cycle; reallocating here would be per-cycle churn).
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.overflow = 0;
        self.count = 0;
    }

    /// Bytes of heap owned by this histogram (the bucket array).
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u64>()
    }

    /// Merges another histogram (must have identical geometry).
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket width mismatch"
        );
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

impl Default for Histogram {
    /// 256 buckets of width 8 cycles — covers latencies up to 2048 cycles
    /// before overflowing, which suits on-chip networks.
    fn default() -> Self {
        Histogram::new(256, 8)
    }
}

/// Exponentially weighted moving average:
/// `m_new = weight * m_old + (1 - weight) * sample`.
///
/// The paper smooths AFC's 4-cycle traffic-intensity window with weight 0.99
/// (Section IV).
#[derive(Debug, Clone, PartialEq)]
pub struct Ewma {
    weight: f64,
    value: f64,
}

impl Ewma {
    /// Creates an EWMA with the given weight on the *old* value.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not in `[0, 1)`.
    pub fn new(weight: f64) -> Ewma {
        assert!(
            (0.0..1.0).contains(&weight),
            "ewma weight must be in [0, 1)"
        );
        Ewma { weight, value: 0.0 }
    }

    /// Feeds one sample and returns the updated average.
    pub fn update(&mut self, sample: f64) -> f64 {
        self.value = self.weight * self.value + (1.0 - self.weight) * sample;
        self.value
    }

    /// Current average.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Whether the average sits exactly at zero, the fixed point of
    /// all-zero input: `update(0.0)` computes `weight * 0.0 + (1 -
    /// weight) * 0.0 == 0.0` bit-exactly, so once settled, any number of
    /// idle updates is a no-op. The activity-tracked engine uses this to
    /// skip idle replays without perturbing the estimate.
    pub fn is_settled(&self) -> bool {
        self.value == 0.0
    }

    /// Applies `count` zero-sample updates, bit-identical to calling
    /// `update(0.0)` `count` times: since the value is never negative,
    /// `weight * value + (1 - weight) * 0.0 == weight * value` at the bit
    /// level, and `0.0` is a fixed point (allowing early exit once the
    /// decay underflows). The loop is a bare multiply per skipped cycle —
    /// far cheaper than a full pipeline step, and bounded by the ~75k
    /// multiplies it takes any double to underflow to zero.
    pub fn decay_zero(&mut self, count: u64) {
        debug_assert!(self.value >= 0.0, "ewma fed negative samples");
        for _ in 0..count {
            if self.value == 0.0 {
                break;
            }
            self.value *= self.weight;
        }
    }

    /// Resets the average to zero.
    pub fn reset(&mut self) {
        self.value = 0.0;
    }

    /// Serializes the average for a snapshot (bit-exact: the value is
    /// written as its IEEE-754 pattern).
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.weight);
        w.put_f64(self.value);
    }

    /// Restores an average written by [`Ewma::save`].
    pub fn load(r: &mut SnapshotReader<'_>) -> Result<Ewma, SnapshotError> {
        let weight = r.get_f64("ewma weight")?;
        let value = r.get_f64("ewma value")?;
        if !(0.0..1.0).contains(&weight) || !value.is_finite() {
            return Err(SnapshotError::Malformed { what: "ewma state" });
        }
        Ok(Ewma { weight, value })
    }
}

/// Fixed-length sliding window over integer samples, reporting their mean.
///
/// AFC measures local traffic intensity as the flit count averaged over the
/// previous 4 cycles (Section III-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingWindow {
    buf: Vec<u32>,
    next: usize,
    sum: u64,
    filled: usize,
}

impl SlidingWindow {
    /// Creates a window of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> SlidingWindow {
        assert!(len > 0, "window length must be positive");
        SlidingWindow {
            buf: vec![0; len],
            next: 0,
            sum: 0,
            filled: 0,
        }
    }

    /// Pushes a sample, evicting the oldest once full.
    pub fn push(&mut self, sample: u32) {
        self.sum -= self.buf[self.next] as u64;
        self.buf[self.next] = sample;
        self.sum += sample as u64;
        self.next = (self.next + 1) % self.buf.len();
        if self.filled < self.buf.len() {
            self.filled += 1;
        }
    }

    /// Mean over the window (over samples seen so far if not yet full;
    /// zero when empty).
    pub fn mean(&self) -> f64 {
        if self.filled == 0 {
            0.0
        } else {
            self.sum as f64 / self.filled as f64
        }
    }

    /// Whether every slot holds zero (`sum == 0` implies all-zero
    /// contents, since samples are unsigned).
    pub fn is_all_zero(&self) -> bool {
        self.sum == 0
    }

    /// Advances the window by `count` zero samples in O(1).
    ///
    /// Exactly equivalent to `count` calls of `push(0)` **provided the
    /// window is already all-zero** ([`SlidingWindow::is_all_zero`]):
    /// each such push evicts a zero, writes a zero, and only moves the
    /// cursor and the fill level.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the window still holds nonzero samples.
    pub fn skip_zero(&mut self, count: u64) {
        debug_assert!(self.is_all_zero(), "skip_zero on a nonzero window");
        let len = self.buf.len();
        self.next = (self.next + (count % len as u64) as usize) % len;
        self.filled = self
            .filled
            .saturating_add(count.min(len as u64) as usize)
            .min(len);
    }

    /// Zeroes the window in place — contents, cursor, sum, and fill level
    /// all return to the freshly constructed state — without touching the
    /// backing allocation (the arena-reuse path relies on this being
    /// allocation-free).
    pub fn reset(&mut self) {
        self.buf.fill(0);
        self.next = 0;
        self.sum = 0;
        self.filled = 0;
    }

    /// Serializes the window (contents and cursor) for a snapshot.
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.buf.len());
        for s in &self.buf {
            w.put_u32(*s);
        }
        w.put_usize(self.next);
        w.put_u64(self.sum);
        w.put_usize(self.filled);
    }

    /// Restores a window written by [`SlidingWindow::save`].
    pub fn load(r: &mut SnapshotReader<'_>) -> Result<SlidingWindow, SnapshotError> {
        let len = r.get_count("sliding window length", 4)?;
        if len == 0 {
            return Err(SnapshotError::Malformed {
                what: "sliding window length",
            });
        }
        let mut buf = Vec::with_capacity(len);
        for _ in 0..len {
            buf.push(r.get_u32("sliding window sample")?);
        }
        let next = r.get_usize("sliding window cursor")?;
        let sum = r.get_u64("sliding window sum")?;
        let filled = r.get_usize("sliding window fill")?;
        if next >= len || filled > len || sum != buf.iter().map(|s| *s as u64).sum::<u64>() {
            return Err(SnapshotError::Malformed {
                what: "sliding window invariants",
            });
        }
        Ok(SlidingWindow {
            buf,
            next,
            sum,
            filled,
        })
    }
}

/// Aggregate statistics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Packets enqueued at network interfaces.
    pub packets_offered: u64,
    /// Packets whose first flit entered the network.
    pub packets_injected: u64,
    /// Packets fully reassembled at their destination.
    pub packets_delivered: u64,
    /// Flits injected into the network.
    pub flits_injected: u64,
    /// Flits delivered (ejected and reassembled).
    pub flits_delivered: u64,
    /// Flits re-injected after being dropped (drop-based routers only).
    pub flits_retransmitted: u64,
    /// Flits that arrived at their destination NI with a mismatched
    /// checksum (corrupted by a link fault) and were NACKed to the source.
    pub flits_corrupted: u64,
    /// Flits silently lost to injected link faults (transient drop or a
    /// permanent kill).
    pub flits_lost_to_faults: u64,
    /// Credits lost to injected credit-channel faults.
    pub credits_lost: u64,
    /// NI retransmit timeouts that fired (each re-sends one whole packet).
    pub retransmit_timeouts: u64,
    /// Flits re-materialized by NI retransmit timeouts.
    pub flits_retransmit_copies: u64,
    /// Packets delivered only after at least one end-to-end retransmission.
    pub recovered_packets: u64,
    /// Redundant flit copies discarded at reassembly (a retransmitted copy
    /// raced an original that eventually arrived).
    pub duplicate_flits_discarded: u64,
    /// NACKed flits retired at their source in favor of a full-packet
    /// timeout retransmission (end-to-end recovery mode only).
    pub nacks_absorbed: u64,
    /// Total fault events injected by the fault plane.
    pub faults_injected: u64,
    /// Packets the NI gave up on after `max_attempts` retransmissions: the
    /// structured `Unreachable` outcome of DESIGN.md §13 (the per-packet
    /// records live in [`Network::unreachable_packets`]
    /// (crate::network::Network::unreachable_packets)).
    pub packets_unreachable: u64,
    /// Retransmit-queue flit copies discarded (never injected) when their
    /// packet was declared unreachable — the balancing term that keeps the
    /// flit-conservation audit exact under bounded retransmission.
    pub flits_abandoned: u64,
    /// Partial reassembly buffers discarded after going quiet for the
    /// recovery TTL — the destination-side cleanup for packets whose
    /// source gave up (or whose remaining flits a kill made undeliverable);
    /// without it a half-received packet would hold its NI non-idle
    /// forever.
    pub reassemblies_expired: u64,
    /// Directed links whose death the engine's deterministic fault
    /// detection has reported to the upstream router.
    pub links_failed: u64,
    /// Directed links whose revival the engine's deterministic repair
    /// detection has reported to both endpoints (DESIGN.md §15).
    pub links_revived: u64,
    /// [`UnreachablePacket`](crate::ni::UnreachablePacket) records evicted
    /// from the bounded unreachable log (oldest first) once it exceeded
    /// [`Network::UNREACHABLE_LOG_CAP`](crate::network::Network::UNREACHABLE_LOG_CAP).
    pub unreachable_records_dropped: u64,
    /// Cycles from each link kill to its local detection (the fault plan's
    /// configured detection delay; a distribution once plans mix delays).
    pub fault_detection_latency: LatencyStats,
    /// Network latency of delivered packets: first-flit injection to
    /// last-flit delivery.
    pub network_latency: LatencyStats,
    /// Histogram of network latencies (for percentile reporting).
    pub network_latency_hist: Histogram,
    /// Total latency of delivered packets: enqueue (packet creation) to
    /// last-flit delivery — includes source queueing delay.
    pub total_latency: LatencyStats,
    /// Hops taken by delivered flits.
    pub flit_hops: LatencyStats,
    /// Deflections suffered by delivered flits.
    pub flit_deflections: LatencyStats,
    /// Router-cycles spent in backpressured mode.
    pub cycles_backpressured: u64,
    /// Router-cycles spent in backpressureless mode.
    pub cycles_backpressureless: u64,
    /// Router-cycles spent transitioning between modes.
    pub cycles_transitioning: u64,
    /// High-water mark of simultaneously open reassembly buffers, across all
    /// network interfaces.
    pub reassembly_high_water: usize,
    /// Cycles simulated.
    pub cycles: Cycle,
}

impl NetworkStats {
    /// Creates zeroed statistics.
    pub fn new() -> NetworkStats {
        NetworkStats::default()
    }

    /// Zeroes every counter and distribution in place, keeping the
    /// histogram's bucket allocation (allocation-free reset for the
    /// parallel engine's per-shard deltas). The exhaustive destructuring
    /// makes adding a field without clearing it a compile error.
    pub fn clear(&mut self) {
        let NetworkStats {
            packets_offered,
            packets_injected,
            packets_delivered,
            flits_injected,
            flits_delivered,
            flits_retransmitted,
            flits_corrupted,
            flits_lost_to_faults,
            credits_lost,
            retransmit_timeouts,
            flits_retransmit_copies,
            recovered_packets,
            duplicate_flits_discarded,
            nacks_absorbed,
            faults_injected,
            packets_unreachable,
            flits_abandoned,
            reassemblies_expired,
            links_failed,
            links_revived,
            unreachable_records_dropped,
            fault_detection_latency,
            network_latency,
            network_latency_hist,
            total_latency,
            flit_hops,
            flit_deflections,
            cycles_backpressured,
            cycles_backpressureless,
            cycles_transitioning,
            reassembly_high_water,
            cycles,
        } = self;
        *packets_offered = 0;
        *packets_injected = 0;
        *packets_delivered = 0;
        *flits_injected = 0;
        *flits_delivered = 0;
        *flits_retransmitted = 0;
        *flits_corrupted = 0;
        *flits_lost_to_faults = 0;
        *credits_lost = 0;
        *retransmit_timeouts = 0;
        *flits_retransmit_copies = 0;
        *recovered_packets = 0;
        *duplicate_flits_discarded = 0;
        *nacks_absorbed = 0;
        *faults_injected = 0;
        *packets_unreachable = 0;
        *flits_abandoned = 0;
        *reassemblies_expired = 0;
        *links_failed = 0;
        *links_revived = 0;
        *unreachable_records_dropped = 0;
        *fault_detection_latency = LatencyStats::default();
        *network_latency = LatencyStats::default();
        network_latency_hist.clear();
        *total_latency = LatencyStats::default();
        *flit_hops = LatencyStats::default();
        *flit_deflections = LatencyStats::default();
        *cycles_backpressured = 0;
        *cycles_backpressureless = 0;
        *cycles_transitioning = 0;
        *reassembly_high_water = 0;
        *cycles = 0;
    }

    /// Bytes of heap owned by the statistics (histogram buckets).
    pub fn heap_bytes(&self) -> usize {
        self.network_latency_hist.heap_bytes()
    }

    /// Folds a worker shard's statistics delta into this accumulator.
    ///
    /// Every field is either a sum-mergeable counter, a mergeable
    /// distribution ([`LatencyStats::merge`] / [`Histogram::merge`]), or a
    /// monotone high-water mark (max). Addition is commutative and
    /// associative, and `LatencyStats`/`Histogram` merges are too, so the
    /// parallel engine's per-shard deltas fold to the exact bytes the
    /// serial engine would have produced regardless of shard count — as
    /// long as deltas are merged in a fixed order (they are: shard index).
    ///
    /// `cycles` is advanced by the shared end of the cycle, never by shards, so a
    /// worker delta always carries `cycles == 0`.
    pub fn merge(&mut self, other: &NetworkStats) {
        self.packets_offered += other.packets_offered;
        self.packets_injected += other.packets_injected;
        self.packets_delivered += other.packets_delivered;
        self.flits_injected += other.flits_injected;
        self.flits_delivered += other.flits_delivered;
        self.flits_retransmitted += other.flits_retransmitted;
        self.flits_corrupted += other.flits_corrupted;
        self.flits_lost_to_faults += other.flits_lost_to_faults;
        self.credits_lost += other.credits_lost;
        self.retransmit_timeouts += other.retransmit_timeouts;
        self.flits_retransmit_copies += other.flits_retransmit_copies;
        self.recovered_packets += other.recovered_packets;
        self.duplicate_flits_discarded += other.duplicate_flits_discarded;
        self.nacks_absorbed += other.nacks_absorbed;
        self.faults_injected += other.faults_injected;
        self.packets_unreachable += other.packets_unreachable;
        self.flits_abandoned += other.flits_abandoned;
        self.reassemblies_expired += other.reassemblies_expired;
        self.links_failed += other.links_failed;
        self.links_revived += other.links_revived;
        self.unreachable_records_dropped += other.unreachable_records_dropped;
        self.fault_detection_latency
            .merge(&other.fault_detection_latency);
        self.network_latency.merge(&other.network_latency);
        self.network_latency_hist.merge(&other.network_latency_hist);
        self.total_latency.merge(&other.total_latency);
        self.flit_hops.merge(&other.flit_hops);
        self.flit_deflections.merge(&other.flit_deflections);
        self.cycles_backpressured += other.cycles_backpressured;
        self.cycles_backpressureless += other.cycles_backpressureless;
        self.cycles_transitioning += other.cycles_transitioning;
        self.reassembly_high_water = self.reassembly_high_water.max(other.reassembly_high_water);
        self.cycles += other.cycles;
    }

    /// Delivered throughput in flits per node per cycle.
    pub fn throughput(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.flits_delivered as f64 / (self.cycles as f64 * nodes as f64)
        }
    }

    /// Offered injection rate in flits per node per cycle.
    pub fn injection_rate(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.flits_injected as f64 / (self.cycles as f64 * nodes as f64)
        }
    }

    /// Serializes every counter and distribution for a snapshot.
    pub fn save(&self, w: &mut SnapshotWriter) {
        for v in [
            self.packets_offered,
            self.packets_injected,
            self.packets_delivered,
            self.flits_injected,
            self.flits_delivered,
            self.flits_retransmitted,
            self.flits_corrupted,
            self.flits_lost_to_faults,
            self.credits_lost,
            self.retransmit_timeouts,
            self.flits_retransmit_copies,
            self.recovered_packets,
            self.duplicate_flits_discarded,
            self.nacks_absorbed,
            self.faults_injected,
            self.packets_unreachable,
            self.flits_abandoned,
            self.reassemblies_expired,
            self.links_failed,
            self.links_revived,
            self.unreachable_records_dropped,
        ] {
            w.put_u64(v);
        }
        self.fault_detection_latency.save(w);
        self.network_latency.save(w);
        self.network_latency_hist.save(w);
        self.total_latency.save(w);
        self.flit_hops.save(w);
        self.flit_deflections.save(w);
        w.put_u64(self.cycles_backpressured);
        w.put_u64(self.cycles_backpressureless);
        w.put_u64(self.cycles_transitioning);
        w.put_usize(self.reassembly_high_water);
        w.put_u64(self.cycles);
    }

    /// Restores statistics written by [`NetworkStats::save`].
    pub fn load(r: &mut SnapshotReader<'_>) -> Result<NetworkStats, SnapshotError> {
        Ok(NetworkStats {
            packets_offered: r.get_u64("stats packets_offered")?,
            packets_injected: r.get_u64("stats packets_injected")?,
            packets_delivered: r.get_u64("stats packets_delivered")?,
            flits_injected: r.get_u64("stats flits_injected")?,
            flits_delivered: r.get_u64("stats flits_delivered")?,
            flits_retransmitted: r.get_u64("stats flits_retransmitted")?,
            flits_corrupted: r.get_u64("stats flits_corrupted")?,
            flits_lost_to_faults: r.get_u64("stats flits_lost_to_faults")?,
            credits_lost: r.get_u64("stats credits_lost")?,
            retransmit_timeouts: r.get_u64("stats retransmit_timeouts")?,
            flits_retransmit_copies: r.get_u64("stats flits_retransmit_copies")?,
            recovered_packets: r.get_u64("stats recovered_packets")?,
            duplicate_flits_discarded: r.get_u64("stats duplicate_flits_discarded")?,
            nacks_absorbed: r.get_u64("stats nacks_absorbed")?,
            faults_injected: r.get_u64("stats faults_injected")?,
            packets_unreachable: r.get_u64("stats packets_unreachable")?,
            flits_abandoned: r.get_u64("stats flits_abandoned")?,
            reassemblies_expired: r.get_u64("stats reassemblies_expired")?,
            links_failed: r.get_u64("stats links_failed")?,
            links_revived: r.get_u64("stats links_revived")?,
            unreachable_records_dropped: r.get_u64("stats unreachable_records_dropped")?,
            fault_detection_latency: LatencyStats::load(r)?,
            network_latency: LatencyStats::load(r)?,
            network_latency_hist: Histogram::load(r)?,
            total_latency: LatencyStats::load(r)?,
            flit_hops: LatencyStats::load(r)?,
            flit_deflections: LatencyStats::load(r)?,
            cycles_backpressured: r.get_u64("stats cycles_backpressured")?,
            cycles_backpressureless: r.get_u64("stats cycles_backpressureless")?,
            cycles_transitioning: r.get_u64("stats cycles_transitioning")?,
            reassembly_high_water: r.get_usize("stats reassembly_high_water")?,
            cycles: r.get_u64("stats cycles")?,
        })
    }

    /// Fraction of router-cycles spent in backpressured mode (including
    /// transitions, which run backpressureless hardware but are attributed
    /// separately).
    pub fn backpressured_fraction(&self) -> f64 {
        let total =
            self.cycles_backpressured + self.cycles_backpressureless + self.cycles_transitioning;
        if total == 0 {
            0.0
        } else {
            self.cycles_backpressured as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hostile snapshots: a histogram whose bucket count promises more
    /// buckets than the payload holds is refused before allocation (2^62
    /// used to overflow the capacity computation, 2^40 to abort on an
    /// 8 TiB allocation).
    #[test]
    fn hostile_histogram_bucket_count_is_refused() {
        for count in [1u64 << 62, 1 << 40, 3] {
            let mut w = SnapshotWriter::new();
            w.put_u64(1); // bucket width
            w.put_u64(count);
            w.put_u64(0); // two of the promised buckets
            w.put_u64(0);
            let bytes = w.into_bytes();
            let err = Histogram::load(&mut SnapshotReader::new(&bytes))
                .expect_err("a count beyond the payload must be refused");
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "count {count}: {err:?}"
            );
        }
    }

    /// The sliding-window twin of the histogram test (the AFC contention
    /// window restores through this decoder).
    #[test]
    fn hostile_sliding_window_length_is_refused() {
        for len in [1u64 << 62, 1 << 40, 5] {
            let mut w = SnapshotWriter::new();
            w.put_u64(len);
            for _ in 0..4 {
                w.put_u32(0);
            }
            let bytes = w.into_bytes();
            let err = SlidingWindow::load(&mut SnapshotReader::new(&bytes))
                .expect_err("a length beyond the payload must be refused");
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "length {len}: {err:?}"
            );
        }
    }

    #[test]
    fn latency_stats_basic() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean(), None);
        s.record(4);
        s.record(8);
        s.record(6);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(6.0));
        assert_eq!(s.min(), Some(4));
        assert_eq!(s.max(), Some(8));
    }

    #[test]
    fn latency_stats_merge() {
        let mut a = LatencyStats::new();
        a.record(1);
        let mut b = LatencyStats::new();
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(9));
        let empty = LatencyStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn histogram_records_and_queries_percentiles() {
        let mut h = Histogram::new(10, 5);
        for v in [0, 4, 7, 12, 49] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(0.5), Some(5)); // third sample: bucket [5,10)
        assert_eq!(h.percentile(1.0), Some(45));
        assert_eq!(h.iter().count(), 4);
    }

    #[test]
    fn histogram_overflow_and_merge() {
        let mut a = Histogram::new(4, 10);
        a.record(100); // overflow
        a.record(5);
        let mut b = Histogram::new(4, 10);
        b.record(15);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.percentile(1.0), Some(40)); // overflow boundary
    }

    #[test]
    #[should_panic(expected = "bucket width mismatch")]
    fn histogram_merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(4, 10);
        let b = Histogram::new(4, 20);
        a.merge(&b);
    }

    #[test]
    fn histogram_empty_percentile_is_none() {
        assert_eq!(Histogram::new(4, 10).percentile(0.5), None);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.99);
        for _ in 0..2000 {
            e.update(2.0);
        }
        assert!((e.value() - 2.0).abs() < 0.01);
        e.reset();
        assert_eq!(e.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "ewma weight")]
    fn ewma_rejects_bad_weight() {
        let _ = Ewma::new(1.0);
    }

    #[test]
    fn sliding_window_mean() {
        let mut w = SlidingWindow::new(4);
        assert_eq!(w.mean(), 0.0);
        w.push(4);
        assert_eq!(w.mean(), 4.0);
        w.push(0);
        w.push(0);
        w.push(4);
        assert_eq!(w.mean(), 2.0);
        // Evicts the first 4.
        w.push(0);
        assert_eq!(w.mean(), 1.0);
    }

    #[test]
    fn stats_snapshot_round_trip_is_exact() {
        let mut s = NetworkStats::new();
        s.packets_offered = 10;
        s.flits_injected = 37;
        s.network_latency.record(12);
        s.network_latency_hist.record(12);
        s.flit_hops.record(3);
        s.cycles_backpressured = 5;
        s.reassembly_high_water = 7;
        s.cycles = 400;
        let mut hw = SnapshotWriter::new();
        s.save(&mut hw);
        let bytes = hw.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let restored = NetworkStats::load(&mut r).unwrap();
        r.finish("stats").unwrap();
        let mut w2 = SnapshotWriter::new();
        restored.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(restored.packets_offered, 10);
        assert_eq!(restored.network_latency.mean(), Some(12.0));
    }

    #[test]
    fn measurement_state_round_trips() {
        let mut e = Ewma::new(0.99);
        e.update(1.5);
        e.update(0.25);
        let mut win = SlidingWindow::new(4);
        win.push(3);
        win.push(0);
        let mut lw = SnapshotWriter::new();
        e.save(&mut lw);
        win.save(&mut lw);
        let bytes = lw.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let e2 = Ewma::load(&mut r).unwrap();
        let w2 = SlidingWindow::load(&mut r).unwrap();
        r.finish("measurement").unwrap();
        assert_eq!(e2, e);
        assert_eq!(w2, win);
    }

    #[test]
    fn throughput_math() {
        let stats = NetworkStats {
            flits_delivered: 900,
            flits_injected: 1000,
            cycles: 100,
            ..NetworkStats::new()
        };
        assert!((stats.throughput(9) - 1.0).abs() < 1e-12);
        assert!((stats.injection_rate(10) - 1.0).abs() < 1e-12);
        assert_eq!(NetworkStats::new().throughput(9), 0.0);
    }

    #[test]
    fn mode_fraction() {
        let stats = NetworkStats {
            cycles_backpressured: 75,
            cycles_backpressureless: 25,
            ..NetworkStats::new()
        };
        assert!((stats.backpressured_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(NetworkStats::new().backpressured_fraction(), 0.0);
    }
}
