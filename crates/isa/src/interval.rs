//! Shared byte-interval primitives.
//!
//! The cross-core conflict check of the fused-window chunk
//! (`crates/core/src/sim.rs`) is expressed over this module:
//! [`AccessInterval`] plus [`cross_owner_conflict`] implement the
//! write-anchored overlap test, and [`ByteIntervalSet`] is the sorted,
//! coalesced byte-range container the static analysis crate builds
//! footprints and text-overlap queries on.
//!
//! The conflict semantics are exactly the ones the orchestrator relies
//! on: two half-open byte ranges conflict when they overlap, belong
//! to *different* owners (cores), and at least one of them is a
//! write. Same-owner overlap and read/read sharing are never
//! conflicts.

/// One half-open byte range `[start, end)` tagged with the core (or
/// other party) that produced it and whether it writes.
///
/// The derived lexicographic order — `start`, then `end`, `owner`,
/// `write` — is what [`cross_owner_conflict`] sorts writes by; its
/// write/write pass relies on `start`-then-`end` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessInterval {
    /// First byte touched.
    pub start: u64,
    /// One past the last byte touched.
    pub end: u64,
    /// Identifier of the party making the access (core index).
    pub owner: usize,
    /// `true` for a store, `false` for a load.
    pub write: bool,
}

impl AccessInterval {
    /// Builds the interval for an access of `size` bytes at `addr`.
    ///
    /// The end saturates at `u64::MAX`. The simulator faults every
    /// access whose end would not fit before executing it, so for the
    /// accesses the conflict check sees the end is exact.
    #[must_use]
    pub fn new(addr: u64, size: u64, owner: usize, write: bool) -> AccessInterval {
        AccessInterval {
            start: addr,
            end: addr.saturating_add(size),
            owner,
            write,
        }
    }
}

/// Write-anchored cross-owner conflict test.
///
/// Returns `true` iff some pair of overlapping intervals has different
/// owners and at least one write. A conflict always involves a write,
/// so the test is anchored on the writes alone:
///
/// 1. the writes are moved to the front of `intervals` and sorted
///    (the rest of the slice is left in unspecified order);
/// 2. one pass over the sorted writes finds any write/write overlap
///    across owners, tracking the furthest-reaching earlier write and
///    the furthest-reaching one of any other owner;
/// 3. each read binary-searches the sorted writes for the first one
///    that could reach it (a write starting the longest write's length
///    or more below the read cannot) and scans forward until writes
///    start at or past the read's end.
///
/// Cost is O(W log W + R log W + k) for W writes, R reads and k
/// candidate writes scanned; a write-free slice returns after one
/// linear pass.
pub fn cross_owner_conflict(intervals: &mut [AccessInterval]) -> bool {
    let mut write_count = 0;
    for i in 0..intervals.len() {
        if intervals[i].write {
            intervals.swap(i, write_count);
            write_count += 1;
        }
    }
    let (writes, reads) = intervals.split_at_mut(write_count);
    if writes.is_empty() {
        return false;
    }
    writes.sort_unstable();

    // With writes in (start, end) order, an earlier write `a` overlaps
    // a later write `b` exactly when `b.start < a.end`. Any initial
    // owner works: both reaches start at 0, which no start is below.
    let (mut top_end, mut top_owner, mut other_end) = (0u64, 0usize, 0u64);
    let mut max_len = 0u64;
    for w in writes.iter() {
        let reach = if w.owner == top_owner {
            other_end
        } else {
            top_end
        };
        if w.start < reach {
            return true;
        }
        max_len = max_len.max(w.end - w.start);
        if w.owner == top_owner {
            top_end = top_end.max(w.end);
        } else if w.end > top_end {
            other_end = top_end;
            (top_end, top_owner) = (w.end, w.owner);
        } else {
            other_end = other_end.max(w.end);
        }
    }

    reads.iter().any(|r| {
        let lo = writes.partition_point(|w| w.start.saturating_add(max_len) <= r.start);
        writes[lo..]
            .iter()
            .take_while(|w| w.start < r.end)
            .any(|w| w.owner != r.owner && r.start < w.end)
    })
}

/// A sorted, coalesced set of half-open byte ranges.
///
/// Ranges are kept non-empty, non-overlapping, non-adjacent and in
/// ascending order, so membership and intersection queries are linear
/// two-pointer walks and the representation is canonical (two sets
/// are equal iff their range vectors are equal).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ByteIntervalSet {
    ranges: Vec<(u64, u64)>,
}

impl ByteIntervalSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> ByteIntervalSet {
        ByteIntervalSet::default()
    }

    /// True when no bytes are in the set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The coalesced ranges, ascending.
    #[must_use]
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Total number of bytes covered.
    #[must_use]
    pub fn byte_count(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Inserts `[start, end)`, merging with any ranges it touches.
    /// Empty input ranges are ignored.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // First range whose end could touch the new one.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        // One past the last range whose start touches the new one.
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return;
        }
        let merged_start = start.min(self.ranges[lo].0);
        let merged_end = end.max(self.ranges[hi - 1].1);
        self.ranges.drain(lo..hi);
        self.ranges.insert(lo, (merged_start, merged_end));
    }

    /// True when `addr` is in the set.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let idx = self.ranges.partition_point(|&(_, e)| e <= addr);
        self.ranges.get(idx).is_some_and(|&(s, _)| s <= addr)
    }

    /// True when `[start, end)` shares at least one byte with the set.
    #[must_use]
    pub fn overlaps_range(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return false;
        }
        let idx = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges.get(idx).is_some_and(|&(s, _)| s < end)
    }

    /// True when the two sets share at least one byte.
    #[must_use]
    pub fn intersects(&self, other: &ByteIntervalSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (a_s, a_e) = self.ranges[i];
            let (b_s, b_e) = other.ranges[j];
            if a_s < b_e && b_s < a_e {
                return true;
            }
            if a_e <= b_e {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64, owner: usize, write: bool) -> AccessInterval {
        AccessInterval {
            start,
            end,
            owner,
            write,
        }
    }

    #[test]
    fn conflict_matches_orchestrator_semantics() {
        // Same owner: never a conflict, even write/write.
        let mut same = vec![iv(0, 8, 0, true), iv(4, 12, 0, true)];
        assert!(!cross_owner_conflict(&mut same));
        // Read/read across owners: fine.
        let mut rr = vec![iv(0, 8, 0, false), iv(4, 12, 1, false)];
        assert!(!cross_owner_conflict(&mut rr));
        // Read/write overlap across owners: conflict.
        let mut rw = vec![iv(0, 8, 0, false), iv(7, 8, 1, true)];
        assert!(cross_owner_conflict(&mut rw));
        // Byte-adjacent (touching, not overlapping): fine.
        let mut adj = vec![iv(0, 8, 0, true), iv(8, 16, 1, true)];
        assert!(!cross_owner_conflict(&mut adj));
    }

    #[test]
    fn interval_set_coalesces_and_queries() {
        let mut set = ByteIntervalSet::new();
        set.insert(16, 24);
        set.insert(0, 8);
        set.insert(8, 16); // bridges the gap
        assert_eq!(set.ranges(), &[(0, 24)]);
        assert_eq!(set.byte_count(), 24);
        set.insert(40, 48);
        assert!(set.contains(23));
        assert!(!set.contains(24));
        assert!(set.overlaps_range(20, 30));
        assert!(!set.overlaps_range(24, 40));

        let mut other = ByteIntervalSet::new();
        other.insert(30, 41);
        assert!(set.intersects(&other));
        let mut disjoint = ByteIntervalSet::new();
        disjoint.insert(24, 40);
        assert!(!set.intersects(&disjoint));
    }

    #[test]
    fn empty_inserts_are_ignored() {
        let mut set = ByteIntervalSet::new();
        set.insert(8, 8);
        assert!(set.is_empty());
        assert!(!set.overlaps_range(0, 0));
    }
}
