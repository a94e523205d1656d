//! The metrics registry: counters, gauges, and log-scale histograms.
//!
//! Everything is plain single-threaded data — the campaign loop is
//! single-threaded and determinism matters more than lock-free updates.
//! Histograms use power-of-two ("log2") buckets, the standard shape for
//! latency and size distributions whose dynamic range spans many orders
//! of magnitude: bucket `i` counts values whose bit length is `i`, i.e.
//! values in `[2^(i-1), 2^i)` (bucket 0 holds exactly the zeros).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, sizes in instructions/bytes, step counts, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sparse bucket table: bit length of the sample → count.
    pub buckets: BTreeMap<u8, u64>,
}

/// The log2 bucket index of a value: its bit length (0 for 0, 1 for 1,
/// 2 for 2–3, 11 for 1024–2047, ..., 64 for the top half of `u64`).
pub fn bucket_index(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// The inclusive lower bound of bucket `i`.
pub fn bucket_lower_bound(i: u8) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds another histogram into this one, as if every sample recorded
    /// into `other` had been recorded here. Bucket tables are summed
    /// exactly; `min`/`max`/`count`/`sum` aggregate losslessly, so the
    /// merge is associative and commutative — the property the local
    /// campaign runner relies on when it folds per-worker registries in
    /// worker-id order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&bit, &n) in &other.buckets {
            *self.buckets.entry(bit).or_insert(0) += n;
        }
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the lower bound of the
    /// bucket containing the `q`-th sample. Bucket resolution is a
    /// factor of two, which is all a log-scale histogram promises.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            // The top of the distribution is known exactly.
            return self.max;
        }
        let mut seen = 0;
        for (&bit, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_lower_bound(bit).max(self.min).min(self.max);
            }
        }
        self.max
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Names are dotted paths (`verify.do_check_ns`, `oracle.dedup_hits`);
/// lookups allocate only on first use.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Registry {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-value-wins measurements (corpus size, coverage points).
    pub gauges: BTreeMap<String, i64>,
    /// Log2 histograms of per-event samples.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Reads a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Reads a gauge (0 when never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records a sample into a histogram.
    pub fn record(&mut self, name: &str, v: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds another registry into this one: counters add, histograms
    /// [`Histogram::merge`], and gauges **sum** — the only meaning that
    /// is associative when combining per-worker shards (a corpus of 40
    /// entries on each of 4 workers is a 160-entry campaign corpus).
    /// Campaign-level gauges that are not additive (e.g. the merged
    /// coverage point count, which is a set union) must be re-set by the
    /// caller after merging.
    pub fn merge(&mut self, other: &Registry) {
        for (name, &n) in &other.counters {
            match self.counters.get_mut(name) {
                Some(c) => *c += n,
                None => {
                    self.counters.insert(name.clone(), n);
                }
            }
        }
        for (name, &v) in &other.gauges {
            match self.gauges.get_mut(name) {
                Some(g) => *g += v,
                None => {
                    self.gauges.insert(name.clone(), v);
                }
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(11), 1024);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 5, 100, 4096, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v);
            if i < 64 {
                assert!(v < bucket_lower_bound(i + 1).max(1));
            }
        }
    }

    #[test]
    fn histogram_aggregates() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1106);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
        // 1 → bit 1; 2,3 → bit 2; 100 → bit 7; 1000 → bit 10.
        assert_eq!(h.buckets.get(&1), Some(&1));
        assert_eq!(h.buckets.get(&2), Some(&2));
        assert_eq!(h.buckets.get(&7), Some(&1));
        assert_eq!(h.buckets.get(&10), Some(&1));
        assert_eq!(h.buckets.values().sum::<u64>(), h.count);
    }

    #[test]
    fn histogram_zero_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.buckets.get(&0), Some(&2));
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn histogram_quantiles_are_bucket_resolution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // The median (500) lies in bucket 9 = [256, 512).
        assert_eq!(p50, 256);
        assert_eq!(h.quantile(1.0), h.max.min(1000));
        assert!(h.quantile(0.0) >= h.min);
        assert!(h.quantile(0.99) <= h.max);
    }

    #[test]
    fn histogram_merge_equals_sequential_recording() {
        let samples_a = [1u64, 7, 0, 900, 4096];
        let samples_b = [2u64, 7, 1 << 20];
        let mut merged = Histogram::new();
        let mut b = Histogram::new();
        for v in samples_a {
            merged.record(v);
        }
        for v in samples_b {
            b.record(v);
        }
        merged.merge(&b);

        let mut all = Histogram::new();
        for v in samples_a.iter().chain(&samples_b) {
            all.record(*v);
        }
        assert_eq!(merged, all);

        // Merging into/with an empty histogram is the identity.
        let mut empty = Histogram::new();
        empty.merge(&all);
        assert_eq!(empty, all);
        let mut copy = all.clone();
        copy.merge(&Histogram::new());
        assert_eq!(copy, all);
    }

    #[test]
    fn registry_merge_aggregates_per_worker_shards() {
        let mut a = Registry::new();
        a.add("iterations", 10);
        a.inc("only_a");
        a.set_gauge("corpus_len", 40);
        a.record("lat", 8);

        let mut b = Registry::new();
        b.add("iterations", 15);
        b.inc("only_b");
        b.set_gauge("corpus_len", 25);
        b.set_gauge("only_b_gauge", -3);
        b.record("lat", 32);
        b.record("other", 1);

        a.merge(&b);
        assert_eq!(a.counter("iterations"), 25);
        assert_eq!(a.counter("only_a"), 1);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("corpus_len"), 65);
        assert_eq!(a.gauge("only_b_gauge"), -3);
        assert_eq!(a.histogram("lat").unwrap().count, 2);
        assert_eq!(a.histogram("lat").unwrap().sum, 40);
        assert_eq!(a.histogram("other").unwrap().count, 1);
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = Registry::new();
        r.inc("a");
        r.add("a", 2);
        r.set_gauge("g", -5);
        r.record("h", 7);
        r.record("h", 9);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), -5);
        assert_eq!(r.histogram("h").unwrap().count, 2);

        let json = serde_json::to_string(&r).unwrap();
        let back: Registry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
