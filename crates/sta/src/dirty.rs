//! The dirty set every forward flush drains, and the one drain loop
//! that drains it.
//!
//! A [`DirtySet`] is a bitset over topo positions with a mark count and
//! a low cursor hint. [`DirtySet::drain`] pops it in ascending
//! (dependency) order and marks each changed gate's fanouts as it goes.
//! Those marks always land past the cursor (a gate's fanouts sit at
//! higher positions), so one pass over the words visits every mark in
//! order without a priority queue.

/// What one drain did: kernel evaluations, and the ones whose output
/// came back bit-unchanged (cutting the cone there).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Drained {
    pub evals: usize,
    pub cuts: usize,
}

/// A set of positions `0..size`; every mark `i` satisfies `lo <= i`.
#[derive(Debug, Clone)]
pub(crate) struct DirtySet {
    bits: Vec<u64>,
    size: usize,
    count: usize,
    lo: usize,
}

impl DirtySet {
    pub(crate) fn new(size: usize) -> Self {
        DirtySet {
            bits: vec![0; size.div_ceil(64)],
            size,
            count: 0,
            lo: size,
        }
    }

    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// A position at or below every mark (`size` when none).
    pub(crate) fn low_bound(&self) -> usize {
        self.lo
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub(crate) fn mark(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.count += 1;
            self.lo = self.lo.min(i);
        }
    }

    /// Mark every position.
    pub(crate) fn fill(&mut self) {
        self.bits.fill(u64::MAX);
        let tail = self.size % 64;
        if let Some(last) = self.bits.last_mut().filter(|_| tail != 0) {
            *last = (1u64 << tail) - 1;
        }
        (self.count, self.lo) = (self.size, 0);
    }

    pub(crate) fn clear(&mut self) {
        self.bits.fill(0);
        (self.count, self.lo) = (0, self.size);
    }

    pub(crate) fn pop_lowest(&mut self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let mut word = self.lo / 64;
        while self.bits[word] == 0 {
            word += 1;
        }
        let i = word * 64 + self.bits[word].trailing_zeros() as usize;
        self.lo = i + 1;
        Some(self.unmark(i))
    }

    fn unmark(&mut self, i: usize) -> usize {
        self.bits[i / 64] &= !(1u64 << (i % 64));
        self.count -= 1;
        if self.count == 0 {
            self.lo = self.size;
        }
        i
    }

    /// Drain the set in ascending order. Each popped position runs
    /// `step` — the kernel re-evaluation, returning whether its output
    /// changed — and a changed one runs `neighbours`, which marks the
    /// positions reading that output.
    pub(crate) fn drain(
        &mut self,
        mut step: impl FnMut(usize) -> bool,
        mut neighbours: impl FnMut(usize, &mut Self),
    ) -> Drained {
        let mut done = Drained::default();
        while let Some(i) = self.pop_lowest() {
            done.evals += 1;
            if step(i) {
                neighbours(i, self);
            } else {
                done.cuts += 1;
            }
        }
        done
    }

    /// [`DirtySet::drain`], restricted to the marks inside `within` (a
    /// bitset over the same positions, none above `last`): those pop in
    /// ascending order, while every other mark stays, still bounded by
    /// the cursor hint.
    pub(crate) fn drain_within(
        &mut self,
        within: &[u64],
        last: usize,
        mut step: impl FnMut(usize) -> bool,
        mut neighbours: impl FnMut(usize, &mut Self),
    ) -> Drained {
        let mut done = Drained::default();
        let mut word = self.lo / 64;
        while self.count > 0 && word <= last / 64 {
            let hits = self.bits[word] & within[word];
            if hits == 0 {
                word += 1;
                continue;
            }
            let i = word * 64 + hits.trailing_zeros() as usize;
            self.unmark(i);
            done.evals += 1;
            if step(i) {
                neighbours(i, self);
            } else {
                done.cuts += 1;
            }
        }
        done
    }

    /// `(lowest level hit, number of levels hit)`, where
    /// `level_start[l]..level_start[l + 1]` are the positions of level
    /// `l`; `None` for an empty set. O(levels + words).
    pub(crate) fn level_profile(&self, level_start: &[u32]) -> Option<(usize, usize)> {
        let mut hits = level_start
            .windows(2)
            .enumerate()
            .filter(|(_, w)| self.any_in(w[0] as usize, w[1] as usize))
            .map(|(level, _)| level);
        let lo = hits.next()?;
        Some((lo, 1 + hits.count()))
    }

    /// Whether any position in `lo..hi` is marked.
    fn any_in(&self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return false;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        (first..=last).any(|word| {
            let mut mask = u64::MAX;
            if word == first {
                mask &= u64::MAX << (lo % 64);
            }
            if word == last {
                mask &= u64::MAX >> (63 - (hi - 1) % 64);
            }
            self.bits[word] & mask != 0
        })
    }

    /// The popcount agrees with the maintained count (for
    /// [`crate::TimingGraph::verify_state`]).
    pub(crate) fn check_count(&self) -> Result<(), String> {
        let pop: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        if pop == self.count {
            Ok(())
        } else {
            Err(format!("popcount {pop} != count {}", self.count))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(size: usize, marks: &[usize]) -> DirtySet {
        let mut set = DirtySet::new(size);
        marks.iter().for_each(|&i| set.mark(i));
        set
    }

    #[test]
    fn marks_dedupe_count_and_pop_in_ascending_order() {
        let marks = [3, 63, 64, 65, 127, 128, 200];
        let mut set = set_of(201, &[200, 64, 3, 128, 63, 64, 127, 65, 3]);
        assert_eq!(set.count(), marks.len());
        assert_eq!(set.low_bound(), 3);
        set.check_count().unwrap();
        assert!(std::iter::from_fn(|| set.pop_lowest()).eq(marks));
        assert!(set.is_empty());
        assert_eq!(set.low_bound(), 201);
    }

    #[test]
    fn drains_pop_marks_made_inside_the_current_word() {
        // Each changed position marks the next two in drain order, all
        // inside one word; the ends stop changing.
        let mut seen = Vec::new();
        let mut set = set_of(64, &[1]);
        let done = set.drain(
            |i| {
                seen.push(i);
                i < 60
            },
            |i, set| (1..=2).for_each(|d| set.mark(i + d)),
        );
        assert_eq!(seen, (1..=61).collect::<Vec<_>>());
        assert_eq!((done.evals, done.cuts), (61, 2));
        assert!(set.is_empty());
    }

    #[test]
    fn fill_and_clear() {
        for size in [0, 1, 63, 64, 65, 200] {
            let mut set = DirtySet::new(size);
            set.fill();
            set.check_count().unwrap();
            assert!(std::iter::from_fn(|| set.pop_lowest()).eq(0..size));
            set.fill();
            assert_eq!(set.pop_lowest(), (size > 0).then_some(0));
            set.clear();
            assert_eq!((set.count(), set.pop_lowest()), (0, None));
            set.check_count().unwrap();
        }
    }

    #[test]
    fn level_profile_crosses_word_boundaries() {
        // One-position levels at word edges, wide levels spanning words.
        let levels = [0, 1, 70, 71, 150, 151, 192];
        let profile = |marks: &[usize]| set_of(192, marks).level_profile(&levels);
        assert_eq!(profile(&[]), None);
        assert_eq!(profile(&[0, 70, 150]), Some((0, 3)));
        assert_eq!(profile(&[69, 149]), Some((1, 2)));
        assert_eq!(profile(&[64, 191]), Some((1, 2)));
        let set = set_of(192, &[0, 70, 150]);
        let probes = [
            (0, 1),
            (1, 70),
            (70, 71),
            (5, 192),
            (71, 150),
            (71, 151),
            (151, 192),
        ];
        let hits: Vec<bool> = probes.iter().map(|&(lo, hi)| set.any_in(lo, hi)).collect();
        assert_eq!(hits, [true, false, true, true, false, true, false]);
        assert!(!set.any_in(10, 10));
    }
}
