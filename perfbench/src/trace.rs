//! Span recording for the traced benchmark run.
//!
//! Spans are recorded by the benchmark around its calls into the simulator's
//! public API, in the hierarchy `workload > run > setup / warmup / snapshot /
//! measure / drain / price`. Per-cycle work (`traffic.pre_cycle`, `net.step`,
//! `traffic.on_delivered`) is too fine-grained to keep span by span: it is
//! folded into per-span [`CycleFold`] counts and log-bucket histograms. All
//! spans stay in memory and are written out once the benchmark run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Sub-buckets per power of two in a [`LogHist`]: about 4% resolution.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = 64 * SUB;

/// A log-bucket histogram of nanosecond durations.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LogHist {
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let sub = (v >> (octave - SUB_BITS)) as usize & (SUB - 1);
        (octave - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Inclusive lower bound of bucket `i`.
    fn lower(i: usize) -> u64 {
        if i < SUB {
            return i as u64;
        }
        let octave = (i / SUB) as u32 + SUB_BITS - 1;
        let sub = (i % SUB) as u64;
        (1u64 << octave) + (sub << (octave - SUB_BITS))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 <= q <= 1`), as the midpoint of its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::lower(i) as f64;
                let hi = Self::lower(i + 1) as f64;
                return (lo + hi) / 2.0;
            }
        }
        unreachable!("rank never exceeds the total count")
    }

    /// Non-empty buckets as `[lower_ns, count]` pairs, in JSON.
    fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            if s.len() > 1 {
                s.push(',');
            }
            let _ = write!(s, "[{},{c}]", Self::lower(i));
        }
        s.push(']');
        s
    }
}

/// Per-cycle spans folded into counts, sums and a histogram.
#[derive(Clone, Default)]
pub struct CycleFold {
    pub cycles: u64,
    pub pre_cycle_ns: u64,
    pub step_ns: u64,
    pub on_delivered_ns: u64,
    /// `traffic.on_delivered` callbacks (one per delivered packet).
    pub delivered: u64,
    pub step_hist: LogHist,
}

impl CycleFold {
    pub fn merge(&mut self, other: &CycleFold) {
        self.cycles += other.cycles;
        self.pre_cycle_ns += other.pre_cycle_ns;
        self.step_ns += other.step_ns;
        self.on_delivered_ns += other.on_delivered_ns;
        self.delivered += other.delivered;
        self.step_hist.merge(&other.step_hist);
    }
}

/// One recorded span. `parent` indexes the same [`Trace`].
pub struct Span {
    pub name: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub fold: Option<Box<CycleFold>>,
}

/// The spans of one workload repetition (or one sweep job, before it is
/// grafted into its repetition).
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, run: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
            fold: None,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Moves every span of `other` under `parent`.
    pub fn graft(&mut self, other: Trace, parent: usize) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            self.spans.push(s);
        }
    }

    /// Self time of each span: its duration minus the part of it that its
    /// children, folded per-cycle spans included, cover. Children never
    /// overlap on one thread; sweep jobs on parallel workers may, so the
    /// coverage is capped at the duration.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child: Vec<u64> = self
            .spans
            .iter()
            .map(|s| {
                s.fold
                    .as_ref()
                    .map_or(0, |f| f.pre_cycle_ns + f.step_ns + f.on_delivered_ns)
            })
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Appends the spans as JSON lines to `out`.
    pub fn write_jsonl(&self, rep: usize, out: &mut String) {
        for ((i, s), self_ns) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"rep\":{rep},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"run\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}",
                s.name, s.run, s.start_ns, s.end_ns
            );
            if let Some(f) = &s.fold {
                let _ = write!(
                    out,
                    ",\"cycles\":{},\"traffic.pre_cycle_ns\":{},\"net.step_ns\":{},\
                     \"traffic.on_delivered_ns\":{},\"delivered\":{},\"net.step_hist\":{}",
                    f.cycles,
                    f.pre_cycle_ns,
                    f.step_ns,
                    f.on_delivered_ns,
                    f.delivered,
                    f.step_hist.to_json()
                );
            }
            out.push_str("}\n");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_contain_their_values() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, 1 << 40] {
            let b = LogHist::bucket(v);
            assert!(LogHist::lower(b) <= v && v < LogHist::lower(b + 1), "{v}");
        }
    }

    #[test]
    fn quantiles_follow_the_data() {
        let mut h = LogHist::default();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "{p50}");
        assert!(h.quantile(0.999) > h.quantile(0.5));
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(Instant::now());
        let root = t.open("run", 0, None);
        let child = t.open("measure", 0, Some(root));
        t.spans[child].start_ns = 10;
        t.spans[child].end_ns = 30;
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        assert_eq!(t.self_ns(), vec![80, 20]);
    }
}
