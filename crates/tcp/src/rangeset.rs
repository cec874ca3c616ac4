//! A set of byte ranges over the 64-bit sequence space.
//!
//! TCP keeps three interval stores per connection — the receiver's
//! out-of-order map, the sender's SACK scoreboard and its set of
//! retransmissions still in flight. All three hold disjoint half-open ranges
//! `[start, end)`, are probed on every segment, and change by merging a
//! range in or cutting a span out. [`RangeSet`] is that one structure: a
//! `Vec<(u64, u64)>` sorted by start, kept *canonical* (ranges disjoint and
//! non-adjacent, so the representation of a byte set is unique), searched by
//! binary search and edited in place, with a running byte total.
//!
//! On a lossy path the sets are not small: the `sessions_paced` workload
//! inserts into scoreboards of 36 ranges on average and into out-of-order
//! maps of 25, and a fifth of scoreboard inserts meet more than 64. But
//! most edits land where TCP's arrival order puts them, so each edit tries
//! the O(1) answers first and searches only when they do not apply:
//!
//! * `insert_merged` pushes a range that starts beyond the top one and grows
//!   the top range in place when the new one starts inside or touching it —
//!   ascending arrivals, which is most of the out-of-order map's traffic;
//! * after one binary search, it returns at once for a block the set already
//!   holds — SACK blocks re-reported by successive ACKs, most of the
//!   scoreboard's traffic;
//! * `remove_span` returns at once for a span outside
//!   `[first.start, last.end)` — a SACKed block above every repair in flight;
//! * `pop_first` releases the lowest range, the one reassembly delivers.
//!
//! Every edit leaves the set canonical, which debug builds assert.

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
    pub(crate) fn insert_merged(&mut self, start: u64, end: u64) -> u64 {
        debug_assert!(start < end);
        let merged = match self.ranges.last_mut() {
            Some(top) if start < top.0 => self.insert_below_top(start, end),
            Some(top) if start <= top.1 => {
                took(Path::GrowTop);
                if end > top.1 {
                    self.bytes += end - top.1;
                    top.1 = end;
                }
                top.0
            }
            _ => {
                took(Path::Push);
                self.ranges.push((start, end));
                self.bytes += end - start;
                start
            }
        };
        self.debug_assert_canonical();
        merged
    }

    /// [`Self::insert_merged`] of a range starting below the top range:
    /// one search finds the first range it can reach, which either already
    /// holds it or starts the general merge.
    fn insert_below_top(&mut self, start: u64, end: u64) -> u64 {
        // The top range ends above `start`, so `lo` is in bounds.
        let lo = self.ranges.partition_point(|r| r.1 < start);
        let (held_start, held_end) = self.ranges[lo];
        if held_start <= start && end <= held_end {
            took(Path::Held);
            return held_start;
        }
        took(Path::Merge);
        let hi = lo + self.ranges[lo..].partition_point(|r| r.0 <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            self.bytes += end - start;
            return start;
        }
        let start = start.min(held_start);
        let end = end.max(self.ranges[hi - 1].1);
        let absorbed: u64 = self.ranges[lo..hi].iter().map(|r| r.1 - r.0).sum();
        self.ranges[lo] = (start, end);
        self.ranges.drain(lo + 1..hi);
        self.bytes = self.bytes - absorbed + (end - start);
        start
    }

    /// Removes every byte of `[start, end)` from the set, trimming or
    /// splitting the ranges that straddle its edges.
    #[inline]
    pub(crate) fn remove_span(&mut self, start: u64, end: u64) {
        match (self.ranges.first(), self.ranges.last()) {
            (Some(first), Some(last)) if end > first.0 && start < last.1 => took(Path::Cut),
            _ => {
                took(Path::RemoveMiss);
                return;
            }
        }
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
        self.debug_assert_canonical();
    }

    /// Removes the lowest range.
    pub(crate) fn pop_first(&mut self) {
        if let Some((start, end)) = self.first() {
            self.ranges.remove(0);
            self.bytes -= end - start;
            self.debug_assert_canonical();
        }
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
        self.debug_assert_canonical();
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

    /// Asserts, in debug builds, what every edit must leave behind: ranges
    /// non-empty, sorted, disjoint and non-adjacent, and `bytes` their size.
    fn debug_assert_canonical(&self) {
        debug_assert!(
            self.ranges.iter().all(|r| r.0 < r.1)
                && self.ranges.windows(2).all(|w| w[0].1 < w[1].0)
                && self.bytes == self.ranges.iter().map(|r| r.1 - r.0).sum::<u64>(),
            "range set not canonical: {self:?}"
        );
    }
}

/// The branch an edit took. Tests count them to show that their streams
/// reach every fast path; elsewhere [`took`] compiles to nothing.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// `insert_merged` into an empty set or beyond the top range.
    Push,
    /// `insert_merged` starting inside or touching the top range.
    GrowTop,
    /// `insert_merged` of a block the set already holds.
    Held,
    /// `insert_merged` down the general merge.
    Merge,
    /// `remove_span` of a span outside every stored range.
    RemoveMiss,
    /// `remove_span` down the general cut.
    Cut,
}

#[inline(always)]
fn took(path: Path) {
    #[cfg(test)]
    tests::TAKEN.with(|t| t.borrow_mut()[path as usize] += 1);
    #[cfg(not(test))]
    let _ = path;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use vstream_sim::SimRng;

    thread_local! {
        /// How often each [`Path`] ran on this thread.
        pub(super) static TAKEN: RefCell<[u64; 6]> = const { RefCell::new([0; 6]) };
    }

    /// `insert_merged` without its fast paths: two searches, a sum and a
    /// `drain` on every call. The reference the fast paths are held to.
    fn insert_merged_reference(rs: &mut RangeSet, mut start: u64, mut end: u64) -> u64 {
        let lo = rs.ranges.partition_point(|r| r.1 < start);
        let hi = lo + rs.ranges[lo..].partition_point(|r| r.0 <= end);
        if lo == hi {
            rs.ranges.insert(lo, (start, end));
            rs.bytes += end - start;
            return start;
        }
        start = start.min(rs.ranges[lo].0);
        end = end.max(rs.ranges[hi - 1].1);
        let absorbed: u64 = rs.ranges[lo..hi].iter().map(|r| r.1 - r.0).sum();
        rs.ranges[lo] = (start, end);
        rs.ranges.drain(lo + 1..hi);
        rs.bytes = rs.bytes - absorbed + (end - start);
        start
    }

    /// `remove_span` without its early miss: the reference for it.
    fn remove_span_reference(rs: &mut RangeSet, start: u64, end: u64) {
        let lo = rs.ranges.partition_point(|r| r.1 <= start);
        let hi = lo + rs.ranges[lo..].partition_point(|r| r.0 < end);
        if lo == hi {
            return;
        }
        let (first_start, last_end) = (rs.ranges[lo].0, rs.ranges[hi - 1].1);
        let covered: u64 = rs.ranges[lo..hi].iter().map(|r| r.1 - r.0).sum();
        let left = (first_start < start).then_some((first_start, start));
        let right = (last_end > end).then_some((end, last_end));
        let kept = left.map_or(0, |r| r.1 - r.0) + right.map_or(0, |r| r.1 - r.0);
        rs.bytes -= covered - kept;
        rs.ranges.splice(lo..hi, left.into_iter().chain(right));
    }

    /// Size of the byte universe the random sweep covers.
    const UNIVERSE: usize = 160;

    /// The naive model: one flag per byte.
    struct Bits(Vec<bool>);

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

    /// A set edited through the fast paths, one edited through the
    /// references, and the oracle, driven in lock step: after every edit
    /// all three hold the same bytes.
    struct LockStep {
        fast: RangeSet,
        reference: RangeSet,
        bits: Bits,
    }

    impl LockStep {
        fn new(universe: usize) -> Self {
            LockStep { fast: RangeSet::new(), reference: RangeSet::new(), bits: Bits(vec![false; universe]) }
        }

        fn insert(&mut self, start: u64, end: u64) -> u64 {
            let merged = self.fast.insert_merged(start, end);
            let expected = insert_merged_reference(&mut self.reference, start, end);
            assert_eq!(merged, expected, "insert [{start},{end}): merged start");
            self.bits.set(start, end, true);
            self.agree(format_args!("insert [{start},{end})"));
            merged
        }

        fn remove(&mut self, start: u64, end: u64) {
            self.fast.remove_span(start, end);
            remove_span_reference(&mut self.reference, start, end);
            self.bits.set(start, end, false);
            self.agree(format_args!("remove [{start},{end})"));
        }

        fn prune(&mut self, seq: u64) {
            self.fast.prune_below(seq);
            self.reference.prune_below(seq);
            self.bits.set(0, seq, false);
            self.agree(format_args!("prune below {seq}"));
        }

        fn pop_first(&mut self) {
            let first = self.fast.first();
            self.fast.pop_first();
            if let Some((start, end)) = first {
                remove_span_reference(&mut self.reference, start, end);
                self.bits.set(start, end, false);
            }
            self.agree(format_args!("pop {first:?}"));
        }

        fn clear(&mut self) {
            self.fast.clear();
            self.reference.clear();
            let universe = self.bits.0.len() as u64;
            self.bits.set(0, universe, false);
            self.agree(format_args!("clear"));
        }

        fn agree(&self, op: std::fmt::Arguments) {
            assert_eq!(self.fast.as_slice(), self.reference.as_slice(), "{op}: fast vs reference");
            assert_eq!(self.fast.bytes(), self.reference.bytes(), "{op}: bytes");
            assert_eq!(self.fast.as_slice(), &self.bits.runs()[..], "{op}: fast vs oracle");
        }
    }

    fn check(rs: &RangeSet, bits: &Bits, ctx: &str) {
        let runs = bits.runs();
        assert_eq!(rs.as_slice(), &runs[..], "{ctx}: ranges");
        assert_eq!(rs.bytes(), runs.iter().map(|r| r.1 - r.0).sum::<u64>(), "{ctx}: bytes");
        assert_eq!(rs.is_empty(), runs.is_empty(), "{ctx}: is_empty");
        assert_eq!(rs.first(), runs.first().copied(), "{ctx}: first");
        assert_eq!(rs.last(), runs.last().copied(), "{ctx}: last");
        for seq in 0..=bits.0.len() as u64 {
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
            let mut ls = LockStep::new(UNIVERSE);
            for step in 0..200 {
                let start = rng.uniform_u64(0, UNIVERSE as u64 - 1);
                let end = (start + 1 + rng.uniform_u64(0, 24)).min(UNIVERSE as u64);
                let ctx = format!("seed {seed} step {step} [{start},{end})");
                match rng.choose_index(8) {
                    0..=3 => {
                        let merged = ls.insert(start, end);
                        let holder = ls.bits.runs().into_iter().find(|r| r.0 <= start && end <= r.1);
                        assert_eq!(Some(merged), holder.map(|r| r.0), "{ctx}: merged start");
                    }
                    4 => ls.remove(start, end),
                    5 => ls.pop_first(),
                    6 => ls.prune(start),
                    _ => {
                        if rng.choose_index(4) == 0 {
                            ls.clear();
                        }
                    }
                }
                check(&ls.fast, &ls.bits, &ctx);
            }
        }
    }

    /// One connection's three stores, each a [`LockStep`], fed the way the
    /// endpoint feeds them.
    struct Connection {
        /// The receiver's out-of-order map.
        ooo: LockStep,
        /// The sender's SACK scoreboard.
        sacked: LockStep,
        /// The sender's repairs in flight.
        retx: LockStep,
        rcv_nxt: u64,
        snd_una: u64,
        /// Rotation cursor over the out-of-order ranges for the second and
        /// third SACK block.
        rotate: usize,
        /// Most ranges each store held at once: out-of-order, scoreboard,
        /// repairs.
        widest: [usize; 3],
    }

    /// Segment size of the TCP-shaped streams.
    const SEG: u64 = 4;

    impl Connection {
        fn new(universe: usize) -> Self {
            Connection {
                ooo: LockStep::new(universe),
                sacked: LockStep::new(universe),
                retx: LockStep::new(universe),
                rcv_nxt: 0,
                snd_una: 0,
                rotate: 0,
                widest: [0; 3],
            }
        }

        /// The segment at `seq` reaches the receiver, whose ACK reaches the
        /// sender.
        fn arrive(&mut self, seq: u64) {
            let end = seq + SEG;
            // Receiver: in order with nothing held goes straight through;
            // anything else is stored, and the lowest range is released
            // once it reaches `rcv_nxt`.
            if self.ooo.fast.is_empty() && seq == self.rcv_nxt {
                self.rcv_nxt = end;
            } else if end > self.rcv_nxt {
                self.ooo.insert(seq.max(self.rcv_nxt), end);
                if let Some((s, e)) = self.ooo.fast.first().filter(|r| r.0 <= self.rcv_nxt) {
                    assert_eq!(s, self.rcv_nxt);
                    self.ooo.pop_first();
                    self.rcv_nxt = e;
                }
            }
            // The ACK: the range holding this segment, then two more in
            // rotation, so the same blocks are reported again and again.
            let ranges = self.ooo.fast.as_slice();
            let mut blocks: Vec<(u64, u64)> =
                ranges.iter().copied().filter(|r| r.0 <= seq && seq < r.1).collect();
            for _ in 0..2.min(ranges.len()) {
                let r = ranges[self.rotate % ranges.len()];
                self.rotate += 1;
                if !blocks.contains(&r) {
                    blocks.push(r);
                }
            }
            // Sender: merge the blocks, a SACKed repair has left the
            // network, and the cumulative ACK prunes both sets.
            for (s, e) in blocks {
                let s = s.max(self.snd_una);
                if s < e {
                    self.sacked.insert(s, e);
                    self.retx.remove(s, e);
                }
            }
            if self.rcv_nxt > self.snd_una {
                self.snd_una = self.rcv_nxt;
                self.sacked.prune(self.snd_una);
                self.retx.prune(self.snd_una);
            }
            let sizes = [&self.ooo, &self.sacked, &self.retx].map(|ls| ls.fast.as_slice().len());
            for (w, n) in self.widest.iter_mut().zip(sizes) {
                *w = (*w).max(n);
            }
        }
    }

    /// TCP-shaped streams through the three stores of a connection: rounds
    /// of ascending segment arrivals with a quarter lost, a flight of
    /// repairs for every hole (a tenth of them lost again), SACK blocks
    /// re-reported on every ACK, and the cumulative ACK pruning. Every fast
    /// path must agree with the reference and be taken, and the stores must
    /// grow past 64 ranges, as they do on the lossy paths of the benchmark.
    #[test]
    fn tcp_shaped_streams_match_the_reference_and_take_every_fast_path() {
        const SEGMENTS: u64 = 1_200;
        TAKEN.with(|t| *t.borrow_mut() = [0; 6]);
        let mut widest = [0; 3];
        for seed in 0..6u64 {
            let mut rng = SimRng::new(0x7C9_0000 + seed);
            let mut conn = Connection::new((SEGMENTS * SEG) as usize);
            let mut next = 0u64;
            let mut holes: Vec<u64> = Vec::new();
            while next < SEGMENTS || !holes.is_empty() {
                let window = rng.uniform_u64(40, 400).min(SEGMENTS - next);
                for _ in 0..window {
                    let seq = next * SEG;
                    next += 1;
                    if rng.bernoulli(0.25) {
                        holes.push(seq);
                    } else {
                        conn.arrive(seq);
                    }
                }
                // The repair flight leaves before its first ACK returns.
                for &seq in &holes {
                    conn.retx.insert(seq, seq + SEG);
                }
                holes.retain(|_| rng.bernoulli(0.1));
                let mut repaired = Vec::new();
                for seq in (conn.rcv_nxt..next * SEG).step_by(SEG as usize) {
                    let held = conn.ooo.fast.covering_end(seq).is_some();
                    if !held && !holes.contains(&seq) {
                        repaired.push(seq);
                    }
                }
                for seq in repaired {
                    conn.arrive(seq);
                }
            }
            assert_eq!(conn.rcv_nxt, SEGMENTS * SEG, "seed {seed}: every byte delivered");
            for (name, ls) in [("ooo", &conn.ooo), ("sacked", &conn.sacked), ("retx", &conn.retx)] {
                assert!(ls.fast.is_empty(), "seed {seed}: {name} drained");
            }
            for (w, n) in widest.iter_mut().zip(conn.widest) {
                *w = (*w).max(n);
            }
        }
        assert!(widest.iter().all(|&n| n > 64), "most ranges held (ooo, sacked, retx): {widest:?}");
        let taken = TAKEN.with(|t| *t.borrow());
        assert!(taken.iter().all(|&n| n > 0), "paths taken (push, grow, held, merge, miss, cut): {taken:?}");
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
