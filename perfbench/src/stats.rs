//! Small, self-contained helpers the workloads share: order statistics,
//! the order-independent pair checksum, and the in-memory span tracer.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`). `+∞` entries (failed
/// or refused requests) sort last, so they count as misses of any limit.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Percentiles the report may quote, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The percentile rule: the highest percentile of [`TAIL_LADDER`] that has
/// at least ten samples beyond it (nearest rank), or `None` when even the
/// median has fewer than ten.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        // Nearest rank ceil(p·n/100), in integers (p has one decimal).
        let tenths = (p * 10.0).round() as usize;
        let rank = (tenths * samples).div_ceil(1000);
        samples.saturating_sub(rank) >= 10
    })
}

/// Order-independent checksum of a pair multiset: a wrapping sum of a
/// strong 64-bit mix of each pair, plus the count. Any permutation of the
/// same pairs gives the same value; a missing, extra or duplicated pair
/// changes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairSum {
    pub count: u64,
    pub sum: u64,
}

impl PairSum {
    pub fn add(&mut self, a: u64, b: u64) {
        self.count += 1;
        self.sum = self
            .sum
            .wrapping_add(mix(a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mix(b)));
    }

    pub fn of(pairs: impl IntoIterator<Item = (u64, u64)>) -> PairSum {
        let mut s = PairSum::default();
        for (a, b) in pairs {
            s.add(a, b);
        }
        s
    }
}

impl std::fmt::Display for PairSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{:016x}", self.count, self.sum)
    }
}

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded SplitMix64 stream for request mixes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u64,
}

/// In-memory span recorder. Disabled, [`Tracer::span`] only calls its
/// closure; enabled, it records name, start, end, parent and run id, and
/// keeps everything in memory until [`Tracer::to_json`] at the end.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty tracer on the same clock and run id, for another thread.
    pub fn child(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            run_id: self.run_id,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Appends a [`Tracer::child`]'s spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (nested under the open span).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run_id: self.run_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Summed self time per span name, in seconds.
    pub fn self_seconds_by_name(&self) -> Vec<(String, f64)> {
        let mut acc: std::collections::BTreeMap<&str, u64> = Default::default();
        for i in 0..self.spans.len() {
            *acc.entry(self.spans[i].name.as_str()).or_default() += self_ns(&self.spans, i);
        }
        acc.into_iter()
            .map(|(k, v)| (k.to_owned(), v as f64 * 1e-9))
            .collect()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run_id\":{},\"self_ns\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.run_id,
                self_ns(&self.spans, i),
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of span `i`: its duration minus the part of its interval that
/// its direct children cover (overlapping children counted once).
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let (lo, hi) = (spans[i].start_ns, spans[i].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)))
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (hi - lo).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles_keep_misses_last() {
        let v = [5.0, 1.0, f64::INFINITY, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(f64::INFINITY));
        assert_eq!(median(&v[..5]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn checksum_is_order_independent_but_multiset_sensitive() {
        let pairs = [(1, 2), (3, 4), (5, 6), (7, 7)];
        let mut rev = pairs;
        rev.reverse();
        assert_eq!(PairSum::of(pairs), PairSum::of(rev));
        // Swapped roles, a duplicate or a missing pair all differ.
        assert_ne!(PairSum::of([(2, 1)]), PairSum::of([(1, 2)]));
        assert_ne!(
            PairSum::of(pairs),
            PairSum::of(pairs.iter().copied().chain([(1, 2)]))
        );
        assert_ne!(PairSum::of(pairs), PairSum::of(pairs[..3].iter().copied()));
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            run_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the first child
            span(25, 45, Some(2)),  // grandchild: charged to span 2 only
            span(90, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 2), 30 - 20);
        assert_eq!(self_ns(&spans, 3), 20);
    }

    #[test]
    fn tracer_nests_spans_and_disabled_records_nothing() {
        let mut t = Tracer::new(true, 7);
        let v = t.span("outer", |t| t.span("inner", |_| 3));
        assert_eq!(v, 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].run_id, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut off = Tracer::new(false, 7);
        off.span("x", |_| ());
        assert!(off.spans().is_empty());
    }
}
