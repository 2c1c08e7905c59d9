//! Property tests for the shared byte-interval module: the
//! write-anchored conflict check must agree with a naive O(n²)
//! pairwise overlap oracle on every interval shape the orchestrator
//! can produce, and the interval set must answer queries exactly like
//! a byte-level reference.

use proptest::prelude::*;

use coyote_isa::{cross_owner_conflict, AccessInterval, ByteIntervalSet};

fn naive_conflicts(intervals: &[AccessInterval]) -> bool {
    for (i, a) in intervals.iter().enumerate() {
        for b in &intervals[i + 1..] {
            if a.owner == b.owner || (!a.write && !b.write) {
                continue;
            }
            if a.start < b.end && b.start < a.end {
                return true;
            }
        }
    }
    false
}

fn interval_strategy() -> impl Strategy<Value = AccessInterval> {
    // Small address space and sizes force plenty of overlaps; empty
    // ranges must follow the oracle's predicate too.
    (0_u64..96, 0_u64..12, 0_usize..4, any::<bool>())
        .prop_map(|(addr, size, owner, write)| AccessInterval::new(addr, size, owner, write))
}

/// Runs the check on a copy (it reorders its input) and returns the
/// oracle's verdict alongside it.
fn both(intervals: &[AccessInterval]) -> (bool, bool) {
    let mut scratch = intervals.to_vec();
    (
        cross_owner_conflict(&mut scratch),
        naive_conflicts(intervals),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn check_agrees_with_naive_oracle(intervals in proptest::collection::vec(interval_strategy(), 0..24)) {
        let (got, expected) = both(&intervals);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn read_only_sets_never_conflict(
        reads in proptest::collection::vec((0_u64..96, 1_u64..12, 0_usize..8), 0..32),
    ) {
        let intervals: Vec<AccessInterval> = reads
            .iter()
            .map(|&(addr, size, owner)| AccessInterval::new(addr, size, owner, false))
            .collect();
        prop_assert_eq!(both(&intervals), (false, false));
    }

    #[test]
    fn many_owners_reading_one_address(
        owners in 64_usize..160,
        addr in 0_u64..64,
        with_write in any::<bool>(),
        write in (0_u64..96, 1_u64..12, 0_usize..160),
    ) {
        // Every core reads the same element in lockstep (the shared
        // `B` operand of matmul), optionally with one core writing.
        let mut intervals: Vec<AccessInterval> = (0..owners)
            .map(|owner| AccessInterval::new(addr, 8, owner, false))
            .collect();
        if with_write {
            let (w_addr, w_size, w_owner) = write;
            intervals.push(AccessInterval::new(w_addr, w_size, w_owner, true));
        }
        let (got, expected) = both(&intervals);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn same_owner_overlapping_writes(
        own in proptest::collection::vec((0_u64..48, 1_u64..16), 1..12),
        others in proptest::collection::vec(interval_strategy(), 0..12),
    ) {
        // Owner 9 rewrites overlapping ranges (an accumulator stored
        // every iteration); only the other owners can make a conflict.
        let mut intervals: Vec<AccessInterval> = own
            .iter()
            .map(|&(addr, size)| AccessInterval::new(addr, size, 9, true))
            .collect();
        intervals.extend(others);
        let (got, expected) = both(&intervals);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn writes_longer_than_reads(
        writes in proptest::collection::vec((0_u64..256, 16_u64..96, 0_usize..4), 1..6),
        reads in proptest::collection::vec((0_u64..384, 1_u64..4, 0_usize..4), 0..24),
    ) {
        // Long writes force the read probe to look further back than
        // the read's own length.
        let mut intervals: Vec<AccessInterval> = writes
            .iter()
            .map(|&(addr, size, owner)| AccessInterval::new(addr, size, owner, true))
            .collect();
        intervals.extend(
            reads
                .iter()
                .map(|&(addr, size, owner)| AccessInterval::new(addr, size, owner, false)),
        );
        let (got, expected) = both(&intervals);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn ranges_at_the_top_of_the_address_space(
        accesses in proptest::collection::vec((0_u64..64, 1_u64..9, 0_usize..4, any::<bool>()), 0..24),
    ) {
        // Every range ends at or below `u64::MAX`, some exactly there:
        // the largest end an access the simulator executes can have.
        let intervals: Vec<AccessInterval> = accesses
            .iter()
            .map(|&(below_top, size, owner, write)| {
                let size = size.min(below_top.max(1));
                let start = u64::MAX - below_top.max(size);
                AccessInterval::new(start, size, owner, write)
            })
            .collect();
        for iv in &intervals {
            prop_assert!(iv.start < iv.end);
        }
        let (got, expected) = both(&intervals);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn interval_set_matches_byte_level_reference(
        ranges in proptest::collection::vec((0_u64..64, 0_u64..16), 0..12),
        probe in 0_u64..80,
        other_ranges in proptest::collection::vec((0_u64..64, 0_u64..16), 0..12),
    ) {
        let mut set = ByteIntervalSet::new();
        let mut bytes = [false; 96];
        for &(start, len) in &ranges {
            set.insert(start, start + len);
            for b in start..start + len {
                bytes[b as usize] = true;
            }
        }
        // Canonical form: sorted, coalesced, non-empty, non-adjacent.
        for pair in set.ranges().windows(2) {
            prop_assert!(pair[0].1 < pair[1].0);
        }
        for &(s, e) in set.ranges() {
            prop_assert!(s < e);
        }
        prop_assert_eq!(set.byte_count(), bytes.iter().filter(|&&b| b).count() as u64);
        prop_assert_eq!(set.contains(probe), bytes.get(probe as usize).copied().unwrap_or(false));

        let mut other = ByteIntervalSet::new();
        let mut other_bytes = vec![false; 96];
        for &(start, len) in &other_ranges {
            other.insert(start, start + len);
            for b in start..start + len {
                other_bytes[b as usize] = true;
            }
        }
        let expected_intersect = bytes.iter().zip(&other_bytes).any(|(&a, &b)| a && b);
        prop_assert_eq!(set.intersects(&other), expected_intersect);
        let expected_overlap = (0..bytes.len() as u64)
            .any(|b| b >= probe && b < probe + 8 && bytes[b as usize]);
        prop_assert_eq!(set.overlaps_range(probe, probe + 8), expected_overlap);
    }
}
