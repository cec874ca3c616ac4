//! A set of byte ranges over the 64-bit sequence space.
//!
//! TCP keeps three interval stores per connection — the receiver's
//! out-of-order map, the sender's SACK scoreboard and its set of
//! retransmissions still in flight. All three hold a handful of disjoint
//! half-open ranges `[start, end)`, are probed on every segment, and change
//! by merging a range in or cutting a span out. [`RangeSet`] is that one
//! structure: a `Vec<(u64, u64)>` sorted by start, kept *canonical* (ranges
//! disjoint and non-adjacent, so the representation of a byte set is
//! unique), searched by binary search and edited in place, with a running
//! byte total.

/// Disjoint, non-adjacent half-open ranges sorted by start.
#[derive(Clone, Debug, Default)]
pub(crate) struct RangeSet {
    ranges: Vec<(u64, u64)>,
    bytes: u64,
}

impl RangeSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total bytes covered.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The ranges in ascending order.
    pub(crate) fn as_slice(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// The lowest range.
    pub(crate) fn first(&self) -> Option<(u64, u64)> {
        self.ranges.first().copied()
    }

    /// The highest range.
    pub(crate) fn last(&self) -> Option<(u64, u64)> {
        self.ranges.last().copied()
    }

    pub(crate) fn clear(&mut self) {
        self.ranges.clear();
        self.bytes = 0;
    }

    /// Adds `[start, end)`, absorbing every stored range it overlaps or
    /// touches. Returns the start of the range that now holds it.
    pub(crate) fn insert_merged(&mut self, mut start: u64, mut end: u64) -> u64 {
        debug_assert!(start < end);
        let lo = self.ranges.partition_point(|r| r.1 < start);
        let hi = lo + self.ranges[lo..].partition_point(|r| r.0 <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            self.bytes += end - start;
            return start;
        }
        start = start.min(self.ranges[lo].0);
        end = end.max(self.ranges[hi - 1].1);
        let absorbed: u64 = self.ranges[lo..hi].iter().map(|r| r.1 - r.0).sum();
        self.ranges[lo] = (start, end);
        self.ranges.drain(lo + 1..hi);
        self.bytes = self.bytes - absorbed + (end - start);
        start
    }

    /// Removes every byte of `[start, end)` from the set, trimming or
    /// splitting the ranges that straddle its edges.
    pub(crate) fn remove_span(&mut self, start: u64, end: u64) {
        let lo = self.ranges.partition_point(|r| r.1 <= start);
        let hi = lo + self.ranges[lo..].partition_point(|r| r.0 < end);
        if lo == hi {
            return;
        }
        let (first_start, last_end) = (self.ranges[lo].0, self.ranges[hi - 1].1);
        let covered: u64 = self.ranges[lo..hi].iter().map(|r| r.1 - r.0).sum();
        let left = (first_start < start).then_some((first_start, start));
        let right = (last_end > end).then_some((end, last_end));
        let kept = left.map_or(0, |r| r.1 - r.0) + right.map_or(0, |r| r.1 - r.0);
        self.bytes -= covered - kept;
        self.ranges.splice(lo..hi, left.into_iter().chain(right));
    }

    /// Removes every byte below `seq`.
    pub(crate) fn prune_below(&mut self, seq: u64) {
        // Asked on every new ACK; almost always there is nothing below.
        if self.ranges.first().is_none_or(|r| r.0 >= seq) {
            return;
        }
        let gone = self.ranges.partition_point(|r| r.1 <= seq);
        self.bytes -= self.ranges[..gone].iter().map(|r| r.1 - r.0).sum::<u64>();
        self.ranges.drain(..gone);
        if let Some(r) = self.ranges.first_mut() {
            if r.0 < seq {
                self.bytes -= seq - r.0;
                r.0 = seq;
            }
        }
    }

    /// If `seq` lies inside a stored range, that range's end.
    pub(crate) fn covering_end(&self, seq: u64) -> Option<u64> {
        let after = self.ranges.partition_point(|r| r.0 <= seq);
        let (_, end) = *self.ranges[..after].last()?;
        (end > seq).then_some(end)
    }

    /// The ranges starting at or after `seq`.
    pub(crate) fn starting_from(&self, seq: u64) -> &[(u64, u64)] {
        &self.ranges[self.ranges.partition_point(|r| r.0 < seq)..]
    }

    /// Start of the first range starting at or after `seq`.
    pub(crate) fn next_start_from(&self, seq: u64) -> Option<u64> {
        self.starting_from(seq).first().map(|r| r.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_sim::SimRng;

    /// Size of the byte universe the oracle covers.
    const UNIVERSE: usize = 160;

    /// The naive model: one flag per byte.
    struct Bits([bool; UNIVERSE]);

    impl Bits {
        fn set(&mut self, start: u64, end: u64, v: bool) {
            for b in &mut self.0[start as usize..end as usize] {
                *b = v;
            }
        }

        /// Maximal runs of set bytes — the canonical form a `RangeSet` must
        /// hold for the same byte set.
        fn runs(&self) -> Vec<(u64, u64)> {
            let mut out: Vec<(u64, u64)> = Vec::new();
            for (i, &b) in self.0.iter().enumerate() {
                let i = i as u64;
                match out.last_mut() {
                    Some(r) if b && r.1 == i => r.1 = i + 1,
                    _ if b => out.push((i, i + 1)),
                    _ => {}
                }
            }
            out
        }
    }

    fn check(rs: &RangeSet, bits: &Bits, ctx: &str) {
        let runs = bits.runs();
        assert_eq!(rs.as_slice(), &runs[..], "{ctx}: ranges");
        assert_eq!(rs.bytes(), runs.iter().map(|r| r.1 - r.0).sum::<u64>(), "{ctx}: bytes");
        assert_eq!(rs.is_empty(), runs.is_empty(), "{ctx}: is_empty");
        assert_eq!(rs.first(), runs.first().copied(), "{ctx}: first");
        assert_eq!(rs.last(), runs.last().copied(), "{ctx}: last");
        for seq in 0..=UNIVERSE as u64 {
            let covering = runs.iter().find(|r| r.0 <= seq && seq < r.1).map(|r| r.1);
            assert_eq!(rs.covering_end(seq), covering, "{ctx}: covering_end({seq})");
            let next = runs.iter().find(|r| r.0 >= seq).map(|r| r.0);
            assert_eq!(rs.next_start_from(seq), next, "{ctx}: next_start_from({seq})");
            let from: Vec<_> = runs.iter().copied().filter(|r| r.0 >= seq).collect();
            assert_eq!(rs.starting_from(seq), &from[..], "{ctx}: starting_from({seq})");
        }
    }

    #[test]
    fn every_operation_matches_the_bit_vector_oracle() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x4A6E_0000 + seed);
            let mut rs = RangeSet::new();
            let mut bits = Bits([false; UNIVERSE]);
            for step in 0..200 {
                let start = rng.uniform_u64(0, UNIVERSE as u64 - 1);
                let end = (start + 1 + rng.uniform_u64(0, 24)).min(UNIVERSE as u64);
                let ctx = format!("seed {seed} step {step} [{start},{end})");
                match rng.choose_index(8) {
                    0..=3 => {
                        let merged = rs.insert_merged(start, end);
                        bits.set(start, end, true);
                        let holder = bits.runs().into_iter().find(|r| r.0 <= start && end <= r.1);
                        assert_eq!(Some(merged), holder.map(|r| r.0), "{ctx}: merged start");
                    }
                    4..=5 => {
                        rs.remove_span(start, end);
                        bits.set(start, end, false);
                    }
                    6 => {
                        rs.prune_below(start);
                        bits.set(0, start, false);
                    }
                    _ => {
                        if rng.choose_index(4) == 0 {
                            rs.clear();
                            bits.set(0, UNIVERSE as u64, false);
                        }
                    }
                }
                check(&rs, &bits, &ctx);
            }
        }
    }

    #[test]
    fn adjacent_ranges_merge_into_one() {
        let mut rs = RangeSet::new();
        assert_eq!(rs.insert_merged(10, 20), 10);
        assert_eq!(rs.insert_merged(30, 40), 30);
        assert_eq!(rs.as_slice(), &[(10, 20), (30, 40)]);
        // Touching on the right, then bridging the gap exactly.
        assert_eq!(rs.insert_merged(40, 45), 30);
        assert_eq!(rs.insert_merged(20, 30), 10);
        assert_eq!(rs.as_slice(), &[(10, 45)]);
        assert_eq!(rs.bytes(), 35);
    }

    #[test]
    fn removing_an_interior_span_splits_the_range() {
        let mut rs = RangeSet::new();
        rs.insert_merged(100, 200);
        rs.remove_span(120, 150);
        assert_eq!(rs.as_slice(), &[(100, 120), (150, 200)]);
        assert_eq!(rs.bytes(), 70);
        // A span across both pieces and the gap trims each side.
        rs.remove_span(110, 160);
        assert_eq!(rs.as_slice(), &[(100, 110), (160, 200)]);
        assert_eq!(rs.bytes(), 50);
        // Removing nothing stored is a no-op.
        rs.remove_span(110, 160);
        rs.remove_span(0, 100);
        rs.remove_span(200, 300);
        assert_eq!(rs.as_slice(), &[(100, 110), (160, 200)]);
    }

    #[test]
    fn prune_trims_the_straddling_range() {
        let mut rs = RangeSet::new();
        rs.insert_merged(0, 10);
        rs.insert_merged(20, 30);
        rs.insert_merged(40, 50);
        rs.prune_below(25);
        assert_eq!(rs.as_slice(), &[(25, 30), (40, 50)]);
        assert_eq!(rs.bytes(), 15);
        rs.prune_below(30);
        assert_eq!(rs.as_slice(), &[(40, 50)]);
        rs.prune_below(1_000);
        assert!(rs.is_empty());
        assert_eq!(rs.bytes(), 0);
    }
}
