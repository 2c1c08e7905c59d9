//! Shared byte-interval primitives.
//!
//! The cross-core conflict sweep of the fused-window chunk check
//! (`crates/core/src/sim.rs`) and the superblock pairwise checker
//! (`crates/iss/src/superblock.rs`) are both expressed over this
//! module: [`AccessInterval`] plus [`sweep_conflicts`] implement
//! the sort-and-sweep overlap test once, and [`ByteIntervalSet`] is
//! the sorted, coalesced byte-range container the static analysis
//! crate builds footprints and text-overlap queries on.
//!
//! The sweep semantics are exactly the ones the orchestrator relies
//! on: two half-open byte ranges conflict when they overlap, belong
//! to *different* owners (cores), and at least one of them is a
//! write. Same-owner overlap and read/read sharing are never
//! conflicts.

/// One half-open byte range `[start, end)` tagged with the core (or
/// other party) that produced it and whether it writes.
///
/// The derived lexicographic order — `start`, then `end`, `owner`,
/// `write` — is what [`sweep_conflicts`] sorts by; it matches the
/// tuple ordering the duplicated sweeps historically used, so the
/// deduplication is behaviour-preserving.
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

/// Sort-and-sweep cross-owner conflict test.
///
/// Sorts `intervals` in place, then sweeps left to right keeping the
/// set of still-open ranges in `open` (a caller-provided scratch
/// vector so hot paths can reuse the allocation; it is cleared on
/// entry). Returns `true` iff some pair of overlapping intervals has
/// different owners and at least one write.
pub fn sweep_conflicts(
    intervals: &mut [AccessInterval],
    open: &mut Vec<(u64, usize, bool)>,
) -> bool {
    intervals.sort_unstable();
    open.clear();
    for &AccessInterval {
        start,
        end,
        owner,
        write,
    } in intervals.iter()
    {
        open.retain(|&(o_end, _, _)| o_end > start);
        if open
            .iter()
            .any(|&(_, o_owner, o_write)| o_owner != owner && (o_write || write))
        {
            return true;
        }
        open.push((end, owner, write));
    }
    false
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
    fn sweep_matches_orchestrator_semantics() {
        let mut open = Vec::new();
        // Same owner: never a conflict, even write/write.
        let mut same = vec![iv(0, 8, 0, true), iv(4, 12, 0, true)];
        assert!(!sweep_conflicts(&mut same, &mut open));
        // Read/read across owners: fine.
        let mut rr = vec![iv(0, 8, 0, false), iv(4, 12, 1, false)];
        assert!(!sweep_conflicts(&mut rr, &mut open));
        // Read/write overlap across owners: conflict.
        let mut rw = vec![iv(0, 8, 0, false), iv(7, 8, 1, true)];
        assert!(sweep_conflicts(&mut rw, &mut open));
        // Byte-adjacent (touching, not overlapping): fine.
        let mut adj = vec![iv(0, 8, 0, true), iv(8, 16, 1, true)];
        assert!(!sweep_conflicts(&mut adj, &mut open));
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
