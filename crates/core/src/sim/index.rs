//! The two indexes behind [`super::ClusterSim`]'s scheduling pass.
//!
//! * [`PendingQueue`] — the pending tasks, laid out by queue position so a
//!   pass can jump to the next entry that can act and count the entries it
//!   jumps over.
//! * [`FitIndex`] — per-node free capacity, answering "does this demand
//!   fit on any node" exactly in O(log nodes).
//!
//! DESIGN.md §3.1 carries the argument that a pass over these indexes
//! makes exactly the decisions the linear pass makes.

use std::cmp::Reverse;

use cbp_cluster::Resources;
use cbp_simkit::units::ByteSize;

use crate::task::TaskState;

/// Positions per leaf block of the pending tree (one `u64` of bits).
const BLOCK: usize = 64;

/// The static part of a task's queue key: its priority (served highest
/// first), then its discipline slot (0 under FIFO; the task's index within
/// its job under Fair, which interleaves jobs round-robin). Arrival order
/// breaks the remaining ties.
pub(super) type QueueGroup = (u8, usize);

/// Aggregate of the entries queued in a range of positions: their count
/// and component-wise lower bounds of their demands, which prune whole
/// ranges in a candidate search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    count: u32,
    /// Entries whose task owns a reservation.
    owners: u32,
    /// Component-wise minimum demand over every entry.
    min: (u64, u64),
    /// Component-wise minimum demand over entries flagged as restoring
    /// from a checkpoint.
    ckpt_min: (u64, u64),
}

impl Summary {
    const EMPTY: Summary = Summary {
        count: 0,
        owners: 0,
        min: (u64::MAX, u64::MAX),
        ckpt_min: (u64::MAX, u64::MAX),
    };

    fn merge(a: &Summary, b: &Summary) -> Summary {
        Summary {
            count: a.count + b.count,
            owners: a.owners + b.owners,
            min: (a.min.0.min(b.min.0), a.min.1.min(b.min.1)),
            ckpt_min: (
                a.ckpt_min.0.min(b.ckpt_min.0),
                a.ckpt_min.1.min(b.ckpt_min.1),
            ),
        }
    }
}

fn pair(r: &Resources) -> (u64, u64) {
    (r.cpu_milli(), r.mem().as_u64())
}

fn pair_fits(d: (u64, u64), cap: &Resources) -> bool {
    d.0 <= cap.cpu_milli() && d.1 <= cap.mem().as_u64()
}

/// The pending queue, one bit per queue position.
///
/// Every task gets a position at its first enqueue and keeps it for life.
/// Positions are laid out so that their order is the queue order: each
/// [`QueueGroup`] owns a contiguous range, sized to its task count, and
/// hands out its positions in arrival order. A segment tree of
/// [`Summary`]s over 64-position blocks answers "next entry at or after
/// a position that may act" and "entries between two positions" in
/// O(log tasks).
pub(super) struct PendingQueue {
    /// Next unassigned position of each group, indexed by priority, then
    /// discipline slot.
    next_pos: Vec<Vec<u32>>,
    /// Task handle at each assigned position.
    task_at: Vec<u32>,
    /// Queued positions.
    present: Vec<u64>,
    /// Positions whose task owns a reservation.
    owner: Vec<u64>,
    /// Positions queued with a checkpoint whose restore placement draws
    /// from the run's RNG. Set at enqueue; a chain dropped while queued
    /// leaves a stale bit, which only costs a visit.
    ckpt: Vec<u64>,
    /// Segment tree over blocks; leaf `b` sits at `leaves + b`.
    tree: Vec<Summary>,
    leaves: usize,
    len: usize,
}

impl PendingQueue {
    /// An empty queue with a position for every task: `groups` yields
    /// each group with a number of tasks it holds (a group may repeat).
    pub(super) fn new(groups: impl IntoIterator<Item = (QueueGroup, u32)>) -> Self {
        let mut next_pos: Vec<Vec<u32>> = vec![Vec::new(); 1 << u8::BITS];
        for ((priority, slot), tasks) in groups {
            let sizes = &mut next_pos[priority as usize];
            if sizes.len() <= slot {
                sizes.resize(slot + 1, 0);
            }
            sizes[slot] += tasks;
        }
        // Group sizes become group bases, in queue order.
        let mut base = 0u32;
        for sizes in next_pos.iter_mut().rev() {
            for next in sizes.iter_mut() {
                let size = *next;
                *next = base;
                base += size;
            }
        }
        let positions = base as usize;
        let blocks = positions.div_ceil(BLOCK).max(1);
        let leaves = blocks.next_power_of_two();
        PendingQueue {
            next_pos,
            task_at: vec![0; positions],
            present: vec![0; blocks],
            owner: vec![0; blocks],
            ckpt: vec![0; blocks],
            tree: vec![Summary::EMPTY; 2 * leaves],
            leaves,
            len: 0,
        }
    }

    /// Hands out the next position of `group` to task `t`.
    pub(super) fn assign(&mut self, (priority, slot): QueueGroup, t: u32) -> u32 {
        let next = &mut self.next_pos[priority as usize][slot];
        let pos = *next;
        *next += 1;
        self.task_at[pos as usize] = t;
        pos
    }

    /// Entries queued.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Queues the task at `pos`; `ckpt` flags it as restoring from a
    /// checkpoint through an RNG-drawing placement.
    pub(super) fn insert(&mut self, pos: u32, ckpt: bool, tasks: &[TaskState]) {
        let (b, bit) = split(pos);
        debug_assert_eq!(self.present[b] & bit, 0, "position {pos} queued twice");
        self.present[b] |= bit;
        set_bit(&mut self.ckpt[b], bit, ckpt);
        self.len += 1;
        self.refresh(b, tasks);
    }

    /// Dequeues the task at `pos`.
    pub(super) fn remove(&mut self, pos: u32, tasks: &[TaskState]) {
        let (b, bit) = split(pos);
        debug_assert_ne!(self.present[b] & bit, 0, "position {pos} not queued");
        self.present[b] &= !bit;
        self.ckpt[b] &= !bit;
        self.owner[b] &= !bit;
        self.len -= 1;
        self.refresh(b, tasks);
    }

    /// Marks whether the queued task at `pos` owns a reservation.
    pub(super) fn set_owner(&mut self, pos: u32, owner: bool, tasks: &[TaskState]) {
        let (b, bit) = split(pos);
        if (self.owner[b] & bit != 0) != owner {
            set_bit(&mut self.owner[b], bit, owner);
            self.refresh(b, tasks);
        }
    }

    /// True if the task queued at `pos` owns a reservation.
    pub(super) fn is_owner(&self, pos: u32) -> bool {
        let (b, bit) = split(pos);
        self.owner[b] & bit != 0
    }

    /// True if `pos` is flagged as restoring through an RNG draw.
    pub(super) fn is_ckpt(&self, pos: u32) -> bool {
        let (b, bit) = split(pos);
        self.ckpt[b] & bit != 0
    }

    /// Clears a stale checkpoint flag (the chain was dropped while queued).
    pub(super) fn clear_ckpt(&mut self, pos: u32, tasks: &[TaskState]) {
        let (b, bit) = split(pos);
        self.ckpt[b] &= !bit;
        self.refresh(b, tasks);
    }

    /// Queued task handles in queue order.
    pub(super) fn tasks(&self) -> impl Iterator<Item = u32> + '_ {
        self.present
            .iter()
            .enumerate()
            .flat_map(move |(b, &word)| Bits(word).map(move |i| self.task_at[b * BLOCK + i]))
    }

    /// The first queued `(position, task)` at or after `lo`.
    pub(super) fn first_at_or_after(&self, lo: usize) -> Option<(usize, u32)> {
        self.find(lo, |s| s.count > 0, |_| true)
    }

    /// The first queued `(position, task)` at or after `lo` that can act
    /// in a pass whose loose capacity bound is `max_avail`: its task owns
    /// a reservation, or it restores through an RNG draw and passes the
    /// loose bound, or its demand passes the loose bound and `fits` some
    /// node. Every entry skipped on the way is a no-op.
    pub(super) fn first_candidate(
        &self,
        lo: usize,
        max_avail: &Resources,
        fits: impl Fn(&Resources) -> bool,
        tasks: &[TaskState],
    ) -> Option<(usize, u32)> {
        let bound_fits = |d: (u64, u64)| {
            pair_fits(d, max_avail) && fits(&Resources::new(d.0, ByteSize::from_bytes(d.1)))
        };
        self.find(
            lo,
            |s| s.owners > 0 || pair_fits(s.ckpt_min, max_avail) || bound_fits(s.min),
            |pos| {
                let (b, bit) = split(pos as u32);
                if self.owner[b] & bit != 0 {
                    return true;
                }
                let d = pair(&tasks[self.task_at[pos] as usize].spec.resources);
                (self.ckpt[b] & bit != 0 && pair_fits(d, max_avail)) || bound_fits(d)
            },
        )
    }

    /// Queued entries at positions in `lo..hi`.
    pub(super) fn count_range(&self, lo: usize, hi: usize) -> usize {
        self.count_before(hi) - self.count_before(lo)
    }

    /// Recomputes the exact leaf summary of block `b` and its ancestors.
    fn refresh(&mut self, b: usize, tasks: &[TaskState]) {
        let mut node = self.leaves + b;
        self.tree[node] = self.summarize(b, tasks);
        while node > 1 {
            node /= 2;
            self.tree[node] = Summary::merge(&self.tree[2 * node], &self.tree[2 * node + 1]);
        }
    }

    /// The exact summary of block `b`'s queued entries.
    fn summarize(&self, b: usize, tasks: &[TaskState]) -> Summary {
        let mut s = Summary::EMPTY;
        for i in Bits(self.present[b]) {
            let d = pair(&tasks[self.task_at[b * BLOCK + i] as usize].spec.resources);
            let bit = 1u64 << i;
            s.count += 1;
            s.min = (s.min.0.min(d.0), s.min.1.min(d.1));
            if self.owner[b] & bit != 0 {
                s.owners += 1;
            }
            if self.ckpt[b] & bit != 0 {
                s.ckpt_min = (s.ckpt_min.0.min(d.0), s.ckpt_min.1.min(d.1));
            }
        }
        s
    }

    /// Queued entries at positions below `pos`.
    fn count_before(&self, pos: usize) -> usize {
        let (b, i) = (pos / BLOCK, pos % BLOCK);
        let mut sum = 0usize;
        let (mut l, mut r) = (self.leaves, self.leaves + b);
        while l < r {
            if l & 1 == 1 {
                sum += self.tree[l].count as usize;
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                sum += self.tree[r].count as usize;
            }
            l /= 2;
            r /= 2;
        }
        if i > 0 && b < self.present.len() {
            sum += (self.present[b] & ((1u64 << i) - 1)).count_ones() as usize;
        }
        sum
    }

    /// First queued position at or after `lo` whose block passes `block_ok`
    /// and which itself passes `leaf_ok`. `block_ok` must hold for every
    /// block that holds a position passing `leaf_ok`.
    fn find(
        &self,
        lo: usize,
        block_ok: impl Fn(&Summary) -> bool,
        leaf_ok: impl Fn(usize) -> bool,
    ) -> Option<(usize, u32)> {
        let mut b = lo / BLOCK;
        let mut from = lo % BLOCK;
        while b < self.present.len() {
            if block_ok(&self.tree[self.leaves + b]) {
                for i in Bits(self.present[b] & (u64::MAX << from)) {
                    let pos = b * BLOCK + i;
                    if leaf_ok(pos) {
                        return Some((pos, self.task_at[pos]));
                    }
                }
            }
            b = self.next_block(1, 0, self.leaves, b + 1, &block_ok)?;
            from = 0;
        }
        None
    }

    /// First block at or after `start` within tree node `node` (covering
    /// blocks `lo..hi`) whose every ancestor and itself pass `ok`.
    fn next_block(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        start: usize,
        ok: &impl Fn(&Summary) -> bool,
    ) -> Option<usize> {
        if hi <= start || !ok(&self.tree[node]) {
            return None;
        }
        if hi - lo == 1 {
            return Some(lo);
        }
        let mid = (lo + hi) / 2;
        self.next_block(2 * node, lo, mid, start, ok)
            .or_else(|| self.next_block(2 * node + 1, mid, hi, start, ok))
    }

    /// Debug audit: every tree summary equals the one recomputed from the
    /// bits, and the queued count matches.
    #[cfg(debug_assertions)]
    pub(super) fn assert_consistent(&self, tasks: &[TaskState]) {
        for b in 0..self.present.len() {
            assert_eq!(
                self.tree[self.leaves + b],
                self.summarize(b, tasks),
                "pending block {b} summary out of date"
            );
        }
        for node in (1..self.leaves).rev() {
            assert_eq!(
                self.tree[node],
                Summary::merge(&self.tree[2 * node], &self.tree[2 * node + 1]),
                "pending tree node {node} out of date"
            );
        }
        assert_eq!(
            self.tree[1].count as usize, self.len,
            "pending count out of date"
        );
    }

    /// Debug audit view of one queued position: `(owner, ckpt)` flags.
    #[cfg(debug_assertions)]
    pub(super) fn flags(&self, pos: u32) -> Option<(bool, bool)> {
        let (b, bit) = split(pos);
        (self.present[b] & bit != 0).then(|| (self.owner[b] & bit != 0, self.ckpt[b] & bit != 0))
    }
}

fn split(pos: u32) -> (usize, u64) {
    let pos = pos as usize;
    (pos / BLOCK, 1u64 << (pos % BLOCK))
}

fn set_bit(word: &mut u64, bit: u64, on: bool) {
    if on {
        *word |= bit;
    } else {
        *word &= !bit;
    }
}

/// Indices of the set bits of a word, ascending.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// Per-node free capacity and its Pareto frontier.
///
/// `avail` mirrors `Node::available()` and is kept current by the
/// simulator on every allocate and release. The frontier is the set of
/// maximal free vectors (availability minus reservations; zero while a
/// node is down) — exactly what a task without a reservation of its own
/// can use — rebuilt lazily after any capacity, reservation or up/down
/// change.
pub(super) struct FitIndex {
    avail: Vec<Resources>,
    /// Maximal free vectors, cpu strictly descending (so mem strictly
    /// ascending).
    frontier: Vec<Resources>,
    stale: bool,
}

impl FitIndex {
    /// An index over `nodes` nodes, each with `capacity` free.
    pub(super) fn new(nodes: usize, capacity: Resources) -> Self {
        FitIndex {
            avail: vec![capacity; nodes],
            frontier: Vec::new(),
            stale: true,
        }
    }

    /// Records node `i`'s new `Node::available()`.
    pub(super) fn set_avail(&mut self, i: usize, avail: Resources) {
        if self.avail[i] != avail {
            self.avail[i] = avail;
            self.stale = true;
        }
    }

    /// Marks the frontier out of date (a reservation or up/down change).
    pub(super) fn invalidate(&mut self) {
        self.stale = true;
    }

    /// Rebuilds the frontier if anything changed since the last build.
    pub(super) fn refresh(&mut self, up: impl Fn(usize) -> bool, reserved: &[Resources]) {
        if self.stale {
            self.frontier = frontier(&self.avail, up, reserved);
            self.stale = false;
        }
    }

    /// True if `demand` fits the free capacity of some node (for a task
    /// without a reservation of its own).
    pub(super) fn fits_any(&self, demand: &Resources) -> bool {
        debug_assert!(!self.stale, "fit frontier queried while stale");
        let k = self
            .frontier
            .partition_point(|f| f.cpu_milli() >= demand.cpu_milli());
        k > 0 && demand.mem() <= self.frontier[k - 1].mem()
    }

    /// Debug audit: the cached availability matches the nodes, and a
    /// fresh frontier matches the recomputed one.
    #[cfg(debug_assertions)]
    pub(super) fn assert_consistent(
        &self,
        available: impl Fn(usize) -> Resources,
        up: impl Fn(usize) -> bool,
        reserved: &[Resources],
    ) {
        for (i, a) in self.avail.iter().enumerate() {
            assert_eq!(
                *a,
                available(i),
                "cached free capacity of node {i} is stale"
            );
        }
        if !self.stale {
            assert!(
                self.frontier == frontier(&self.avail, up, reserved),
                "fit frontier out of date"
            );
        }
    }
}

/// The maximal free vectors over all nodes.
fn frontier(
    avail: &[Resources],
    up: impl Fn(usize) -> bool,
    reserved: &[Resources],
) -> Vec<Resources> {
    let mut free: Vec<Resources> = avail
        .iter()
        .enumerate()
        .map(|(i, a)| {
            if up(i) {
                a.saturating_sub(&reserved[i])
            } else {
                Resources::ZERO
            }
        })
        .collect();
    free.sort_unstable_by_key(|f| Reverse((f.cpu_milli(), f.mem())));
    let mut out: Vec<Resources> = Vec::with_capacity(free.len());
    for f in free {
        if out.last().is_none_or(|last| f.mem() > last.mem()) {
            out.push(f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(cpu: u64, mem: u64) -> Resources {
        Resources::new(cpu, ByteSize::from_bytes(mem))
    }

    #[test]
    fn fits_any_matches_brute_force() {
        let avail = [
            r(4000, 10),
            r(1000, 40),
            r(2500, 25),
            r(500, 50),
            r(3000, 5),
        ];
        let reserved = [r(0, 0), r(0, 0), r(500, 0), r(0, 0), r(0, 0)];
        let mut idx = FitIndex::new(avail.len(), r(0, 0));
        for (i, a) in avail.iter().enumerate() {
            idx.set_avail(i, *a);
        }
        let up = |i: usize| i != 3;
        idx.refresh(up, &reserved);
        for cpu in (0..=4500).step_by(250) {
            for mem in 0..=55 {
                let d = r(cpu, mem);
                let brute = (0..avail.len()).any(|i| {
                    let free = if up(i) {
                        avail[i].saturating_sub(&reserved[i])
                    } else {
                        Resources::ZERO
                    };
                    d.fits_in(&free)
                });
                assert_eq!(idx.fits_any(&d), brute, "{d:?}");
            }
        }
    }

    #[test]
    fn bits_iterates_ascending() {
        let v: Vec<usize> = Bits(0b1010_0001).collect();
        assert_eq!(v, vec![0, 5, 7]);
    }
}
