//! The two indexes behind [`super::ClusterSim`]'s scheduling pass.
//!
//! * [`PendingQueue`] — the pending tasks, laid out by queue position so a
//!   pass can jump to the next entry that can act and count the entries it
//!   jumps over.
//! * [`FitIndex`] — per-node free capacity and running demand by
//!   priority, answering "does this demand fit on any node" and "can a
//!   victim search for this task succeed" exactly, without looking at a
//!   container.
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

/// Aggregate of the entries queued in a range of positions: their count,
/// component-wise lower bounds of their demands and their highest
/// priority, which prune whole ranges in a search for an entry that may
/// act.
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
    /// Highest priority over every entry.
    max_prio: u8,
}

impl Summary {
    const EMPTY: Summary = Summary {
        count: 0,
        owners: 0,
        min: (u64::MAX, u64::MAX),
        ckpt_min: (u64::MAX, u64::MAX),
        max_prio: 0,
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
            max_prio: a.max_prio.max(b.max_prio),
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
        let mut next_pos: Vec<Vec<u32>> = Vec::new();
        for ((priority, slot), tasks) in groups {
            if next_pos.len() <= priority as usize {
                next_pos.resize(priority as usize + 1, Vec::new());
            }
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
        let task = &tasks[self.task_at[pos as usize] as usize];
        let d = pair(&task.spec.resources);
        let entry = Summary {
            count: 1,
            owners: 0,
            min: d,
            ckpt_min: if ckpt { d } else { Summary::EMPTY.ckpt_min },
            max_prio: task.priority.0,
        };
        self.update(b, Summary::merge(&self.tree[self.leaves + b], &entry));
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
    pub(super) fn set_owner(&mut self, pos: u32, owner: bool) {
        let (b, bit) = split(pos);
        if (self.owner[b] & bit != 0) != owner {
            set_bit(&mut self.owner[b], bit, owner);
            let mut leaf = self.tree[self.leaves + b];
            if owner {
                leaf.owners += 1;
            } else {
                leaf.owners -= 1;
            }
            self.update(b, leaf);
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
    #[cfg(test)]
    pub(super) fn first_at_or_after(&self, lo: usize) -> Option<(usize, u32)> {
        self.find(lo, |s| s.count > 0, |_| true)
    }

    /// The first queued `(position, task)` at or after `lo` that can act
    /// in a pass whose loose capacity bound is `max_avail`. A *candidate*
    /// can: its task owns a reservation, or it restores through an RNG
    /// draw and passes the loose bound, or its demand passes the loose
    /// bound and `fits` some node. While preemption budget remains
    /// (`search` given), so can a task whose victim search succeeds:
    /// `cap[p]` bounds, per dimension, every demand a search at priority
    /// `p` can satisfy, and grows with `p`; `succeeds(t)` is the exact
    /// search test for a task without a reservation whose demand passes
    /// that bound. Every entry skipped on the way is a no-op, apart from
    /// the unit of budget the pass charges it while budget remains.
    pub(super) fn first_acting(
        &self,
        lo: usize,
        max_avail: &Resources,
        fits: impl Fn(&Resources) -> bool,
        search: Option<(&[Resources], impl Fn(u32) -> bool)>,
        tasks: &[TaskState],
    ) -> Option<(usize, u32)> {
        let bound_fits = |d: (u64, u64)| {
            pair_fits(d, max_avail) && fits(&Resources::new(d.0, ByteSize::from_bytes(d.1)))
        };
        self.find(
            lo,
            |s| {
                s.owners > 0
                    || pair_fits(s.ckpt_min, max_avail)
                    || bound_fits(s.min)
                    // Every demand here is at least `min` and every
                    // priority at most `max_prio`, and `cap` grows with
                    // priority: no search here succeeds unless `min` fits
                    // `cap[max_prio]`.
                    || search
                        .as_ref()
                        .is_some_and(|(cap, _)| pair_fits(s.min, &cap[s.max_prio as usize]))
            },
            |pos| {
                let (b, bit) = split(pos as u32);
                if self.owner[b] & bit != 0 {
                    return true;
                }
                let t = self.task_at[pos];
                let task = &tasks[t as usize];
                let d = pair(&task.spec.resources);
                (self.ckpt[b] & bit != 0 && pair_fits(d, max_avail))
                    || bound_fits(d)
                    || search.as_ref().is_some_and(|(cap, succeeds)| {
                        pair_fits(d, &cap[task.priority.0 as usize]) && succeeds(t)
                    })
            },
        )
    }

    /// Queued entries at positions in `lo..hi`.
    pub(super) fn count_range(&self, lo: usize, hi: usize) -> usize {
        let end = self.task_at.len();
        self.count_before(hi.min(end)) - self.count_before(lo.min(end))
    }

    /// Recomputes the exact leaf summary of block `b` and its ancestors.
    fn refresh(&mut self, b: usize, tasks: &[TaskState]) {
        self.update(b, self.summarize(b, tasks));
    }

    /// Sets the leaf summary of block `b` and recomputes its ancestors.
    fn update(&mut self, b: usize, leaf: Summary) {
        let mut node = self.leaves + b;
        self.tree[node] = leaf;
        while node > 1 {
            node /= 2;
            self.tree[node] = Summary::merge(&self.tree[2 * node], &self.tree[2 * node + 1]);
        }
    }

    /// The exact summary of block `b`'s queued entries.
    fn summarize(&self, b: usize, tasks: &[TaskState]) -> Summary {
        let mut s = Summary::EMPTY;
        for i in Bits(self.present[b]) {
            let task = &tasks[self.task_at[b * BLOCK + i] as usize];
            let d = pair(&task.spec.resources);
            let bit = 1u64 << i;
            s.count += 1;
            s.min = (s.min.0.min(d.0), s.min.1.min(d.1));
            s.max_prio = s.max_prio.max(task.priority.0);
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

    /// First non-empty block at or after `start` within tree node `node`
    /// (covering blocks `lo..hi`) that passes `ok`, as does every ancestor
    /// lying wholly at or after `start`.
    fn next_block(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        start: usize,
        ok: &impl Fn(&Summary) -> bool,
    ) -> Option<usize> {
        // A node reaching below `start` also summarizes blocks already
        // searched, so it is not tested: only nodes wholly at or after
        // `start` are pruned.
        if hi <= start || self.tree[node].count == 0 || (lo >= start && !ok(&self.tree[node])) {
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

/// Per-node free capacity, its Pareto frontier, and what a victim search
/// can clear on each node.
///
/// `avail` mirrors `Node::available()` and `running` the summed demand of
/// each node's running (preemptible) tasks by priority; the simulator
/// keeps both current on every allocate and release and on every
/// transition into or out of `Running`. From them the reach table holds,
/// per node and priority `p`, the node's free vector (availability minus
/// reservations; zero while the node is down) plus its running demand
/// below `p`: column 0 is exactly what a task without a reservation of
/// its own can use, column `p` exactly what a victim search by such a task
/// at priority `p` can clear. The frontier is the set of maximal free
/// vectors. A node's cells are rebuilt lazily after a change on it, the
/// per-dimension column maxima with them, and the frontier after any free
/// vector changed.
pub(super) struct FitIndex {
    avail: Vec<Resources>,
    /// Priority levels tracked: every task priority is below this.
    levels: usize,
    /// Summed demand of the running tasks of priority `q` on node `i`, at
    /// `i * levels + q`.
    running: Vec<Resources>,
    /// Node `i`'s free vector plus its running demand below priority `p`,
    /// at `p * nodes + i`.
    reach: Vec<Resources>,
    /// Per-dimension maximum over nodes of each reach column.
    cap: Vec<Resources>,
    /// Nodes whose reach cells are out of date.
    stale_nodes: Vec<bool>,
    /// True if any node's reach cells are out of date.
    stale: bool,
    /// Maximal free vectors, cpu strictly descending (so mem strictly
    /// ascending).
    frontier: Vec<Resources>,
    frontier_stale: bool,
}

impl FitIndex {
    /// An index over `nodes` nodes, each with `capacity` free and nothing
    /// running, for tasks of priorities below `levels`.
    pub(super) fn new(nodes: usize, capacity: Resources, levels: usize) -> Self {
        FitIndex {
            avail: vec![capacity; nodes],
            levels,
            running: vec![Resources::ZERO; nodes * levels],
            reach: vec![Resources::ZERO; levels * nodes],
            cap: vec![Resources::ZERO; levels],
            stale_nodes: vec![true; nodes],
            stale: true,
            frontier: Vec::new(),
            frontier_stale: true,
        }
    }

    /// Records node `i`'s new `Node::available()`.
    pub(super) fn set_avail(&mut self, i: usize, avail: Resources) {
        if self.avail[i] != avail {
            self.avail[i] = avail;
            self.invalidate(i);
        }
    }

    /// Records that a task of priority `q` demanding `demand` starts
    /// (`on`) or stops running on node `i`.
    pub(super) fn set_running(&mut self, i: usize, q: u8, demand: Resources, on: bool) {
        let slot = &mut self.running[i * self.levels + q as usize];
        if on {
            *slot += demand;
        } else {
            *slot -= demand;
        }
        self.stale_nodes[i] = true;
        self.stale = true;
    }

    /// Marks node `i`'s free vector out of date (its availability,
    /// reservations or up/down state changed).
    pub(super) fn invalidate(&mut self, i: usize) {
        self.stale_nodes[i] = true;
        self.stale = true;
        self.frontier_stale = true;
    }

    /// Rebuilds the reach cells of every node changed since the last
    /// build, the column maxima and, if a free vector changed, the
    /// frontier. A column's maximum is recomputed over all nodes only when
    /// the node that held it lost capacity there; otherwise the new cell is
    /// folded in.
    pub(super) fn refresh(&mut self, up: impl Fn(usize) -> bool, reserved: &[Resources]) {
        if !self.stale {
            return;
        }
        let n = self.avail.len();
        // Columns to recompute, one bit per priority level.
        let mut recompute = [0u64; (u8::MAX as usize + 1) / 64];
        for (i, stale) in self.stale_nodes.iter_mut().enumerate() {
            if !std::mem::take(stale) {
                continue;
            }
            let free = free_vector(i, &self.avail, &up, reserved);
            let running = &self.running[i * self.levels..][..self.levels];
            for (p, new) in reach_cells(free, running).enumerate() {
                let (old, cap) = (self.reach[p * n + i], &mut self.cap[p]);
                self.reach[p * n + i] = new;
                let lost_cpu =
                    new.cpu_milli() < old.cpu_milli() && old.cpu_milli() == cap.cpu_milli();
                let lost_mem = new.mem() < old.mem() && old.mem() == cap.mem();
                if lost_cpu || lost_mem {
                    recompute[p / 64] |= 1 << (p % 64);
                } else {
                    *cap = max_pair(cap, &new);
                }
            }
        }
        for (p, column) in self.reach.chunks(n).enumerate() {
            if recompute[p / 64] & (1 << (p % 64)) != 0 {
                self.cap[p] = column.iter().fold(Resources::ZERO, |c, r| max_pair(&c, r));
            }
        }
        if std::mem::take(&mut self.frontier_stale) {
            frontier(&self.reach[..n], &mut self.frontier);
        }
        self.stale = false;
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

    /// Per priority, a per-dimension upper bound on every demand a victim
    /// search at that priority can satisfy.
    pub(super) fn search_cap(&self) -> &[Resources] {
        debug_assert!(!self.stale, "reach table queried while stale");
        &self.cap
    }

    /// True if a victim search by a task of priority `p` demanding
    /// `demand`, without a reservation of its own and limited to node
    /// `only` if given, finds a victim set: some up node lacks the free
    /// capacity but would have it with every task below `p` evicted.
    pub(super) fn search_succeeds(&self, demand: &Resources, p: u8, only: Option<usize>) -> bool {
        debug_assert!(!self.stale, "reach table queried while stale");
        let n = self.avail.len();
        let (free, reach) = (&self.reach[..n], &self.reach[p as usize * n..][..n]);
        let succeeds = |i: usize| !demand.fits_in(&free[i]) && demand.fits_in(&reach[i]);
        match only {
            Some(i) => succeeds(i),
            None => (0..n).any(succeeds),
        }
    }

    /// Debug audit: the cached availability matches the nodes, the running
    /// demand matches the sum over `running` (each running task's node,
    /// priority and demand), and a fresh reach table, its column maxima and
    /// the frontier match rebuilt ones.
    #[cfg(debug_assertions)]
    pub(super) fn assert_consistent(
        &self,
        available: impl Fn(usize) -> Resources,
        running: impl Iterator<Item = (usize, u8, Resources)>,
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
        let mut expected = vec![Resources::ZERO; self.running.len()];
        for (i, q, demand) in running {
            expected[i * self.levels + q as usize] += demand;
        }
        for (k, (cached, expected)) in self.running.iter().zip(&expected).enumerate() {
            assert_eq!(
                cached,
                expected,
                "running demand of node {} at priority {} is stale",
                k / self.levels,
                k % self.levels
            );
        }
        if !self.stale {
            let n = self.avail.len();
            let mut reach = vec![Resources::ZERO; self.reach.len()];
            for i in 0..n {
                let free = free_vector(i, &self.avail, &up, reserved);
                let running = &self.running[i * self.levels..][..self.levels];
                for (p, r) in reach_cells(free, running).enumerate() {
                    reach[p * n + i] = r;
                }
            }
            let cap: Vec<Resources> = reach
                .chunks(n)
                .map(|column| column.iter().fold(Resources::ZERO, |c, r| max_pair(&c, r)))
                .collect();
            assert!(self.reach == reach, "reach table out of date");
            assert!(self.cap == cap, "reach column maxima out of date");
            let mut rebuilt = Vec::new();
            frontier(&reach[..n], &mut rebuilt);
            assert!(self.frontier == rebuilt, "fit frontier out of date");
        }
    }
}

/// Node `i`'s free vector: availability minus reservations, zero while
/// down.
fn free_vector(
    i: usize,
    avail: &[Resources],
    up: impl Fn(usize) -> bool,
    reserved: &[Resources],
) -> Resources {
    if up(i) {
        avail[i].saturating_sub(&reserved[i])
    } else {
        Resources::ZERO
    }
}

/// A node's reach cells by priority: `free` plus its `running` demand
/// below each priority. (A down node runs nothing, so its cells are zero.)
fn reach_cells(free: Resources, running: &[Resources]) -> impl Iterator<Item = Resources> + '_ {
    running.iter().scan(free, |r, run| {
        let cell = *r;
        *r += *run;
        Some(cell)
    })
}

/// Rebuilds in `out` the maximal vectors among the `free` vectors.
fn frontier(free: &[Resources], out: &mut Vec<Resources>) {
    out.clear();
    out.extend_from_slice(free);
    out.sort_unstable_by_key(|f| Reverse((f.cpu_milli(), f.mem())));
    // Keep each vector whose mem beats every vector with more cpu.
    let mut kept = 0;
    for k in 0..out.len() {
        if kept == 0 || out[k].mem() > out[kept - 1].mem() {
            out[kept] = out[k];
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// The per-dimension maximum of two vectors.
fn max_pair(a: &Resources, b: &Resources) -> Resources {
    Resources::new(a.cpu_milli().max(b.cpu_milli()), a.mem().max(b.mem()))
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
        let mut idx = FitIndex::new(avail.len(), r(0, 0), 1);
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

    /// A deterministic stream of small numbers (an LCG).
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    fn task(index: u32, priority: u8, demand: Resources) -> TaskState {
        use cbp_simkit::{SimDuration, SimTime};
        use cbp_workload::{JobId, Priority, TaskId, TaskSpec};
        let spec = TaskSpec {
            id: TaskId {
                job: JobId(0),
                index,
            },
            resources: demand,
            duration: SimDuration::from_secs(100),
            dirty_rate_per_sec: 0.0,
        };
        TaskState::new(spec, Priority(priority), 0, SimTime::ZERO)
    }

    #[test]
    fn merge_carries_the_maximum_priority() {
        let (low, high) = (
            Summary {
                count: 2,
                owners: 1,
                min: (500, 7),
                ckpt_min: (u64::MAX, u64::MAX),
                max_prio: 3,
            },
            Summary {
                count: 1,
                owners: 0,
                min: (900, 2),
                ckpt_min: (900, 2),
                max_prio: 9,
            },
        );
        let merged = Summary {
            count: 3,
            owners: 1,
            min: (500, 2),
            ckpt_min: (900, 2),
            max_prio: 9,
        };
        assert_eq!(Summary::merge(&low, &high), merged);
        assert_eq!(Summary::merge(&high, &low), merged);
        assert_eq!(Summary::merge(&Summary::EMPTY, &low), low);
    }

    /// A node of the search tests: its availability, its running tasks as
    /// `(priority, demand)`, and its reservations.
    type TestNode = (Resources, Vec<(u8, Resources)>, Resources);

    fn cluster(draws: &mut Draws, nodes: usize) -> Vec<TestNode> {
        (0..nodes)
            .map(|_| {
                let running = (0..draws.below(6))
                    .map(|_| {
                        (
                            draws.below(6) as u8,
                            r(250 * draws.below(9), draws.below(30)),
                        )
                    })
                    .collect();
                let avail = r(250 * draws.below(9), draws.below(30));
                let reserved = r(250 * draws.below(3), draws.below(10));
                (avail, running, reserved)
            })
            .collect()
    }

    #[test]
    fn search_succeeds_matches_the_greedy_fill() {
        let mut draws = Draws(7);
        for round in 0..200 {
            let nodes = cluster(&mut draws, 1 + round % 5);
            let up = |i: usize| i % 4 != 3;
            let reserved: Vec<Resources> = nodes.iter().map(|n| n.2).collect();
            let mut idx = FitIndex::new(nodes.len(), r(0, 0), 6);
            for (i, (avail, running, _)) in nodes.iter().enumerate() {
                idx.set_avail(i, *avail);
                for &(q, d) in running.iter().filter(|_| up(i)) {
                    idx.set_running(i, q, d, true);
                }
            }
            idx.refresh(up, &reserved);
            for _ in 0..50 {
                let (p, d) = (
                    draws.below(6) as u8,
                    r(250 * draws.below(12), draws.below(40)),
                );
                let only = (draws.below(3) == 0).then(|| draws.below(nodes.len() as u64) as usize);
                // `try_preempt_for` without a reservation: evict victims
                // below `p` one by one until the shortfall is covered.
                let greedy = nodes.iter().enumerate().any(|(i, (avail, running, res))| {
                    if !up(i) || only.is_some_and(|o| o != i) {
                        return false;
                    }
                    let needed = d.saturating_sub(&avail.saturating_sub(res));
                    if needed.is_zero() {
                        return false;
                    }
                    let mut freed = Resources::ZERO;
                    for &(_, v) in running.iter().filter(|(q, _)| *q < p) {
                        if needed.fits_in(&freed) {
                            break;
                        }
                        freed += v;
                    }
                    needed.fits_in(&freed)
                });
                assert_eq!(
                    idx.search_succeeds(&d, p, only),
                    greedy,
                    "{d:?} at {p}, only {only:?}"
                );
                if greedy && only.is_none() {
                    assert!(d.fits_in(&idx.search_cap()[p as usize]), "cap below {d:?}");
                }
            }
        }
    }

    #[test]
    fn budget_finder_skips_only_entries_that_cannot_act() {
        let mut draws = Draws(11);
        // Entries found only because their search succeeds, and entries
        // skipped, over every round: both must occur.
        let (mut searchers, mut skips) = (0, 0);
        for round in 0..40 {
            // A mixed queue over several blocks: priorities 0..6, FIFO
            // within each, some owners and some checkpoint flags.
            let tasks: Vec<TaskState> = (0..150 + 20 * round)
                .map(|k| {
                    task(
                        k,
                        draws.below(6) as u8,
                        r(250 * draws.below(12), draws.below(40)),
                    )
                })
                .collect();
            let mut queue = PendingQueue::new(tasks.iter().map(|t| ((t.priority.0, 0), 1)));
            let mut queued = Vec::new();
            for (t, state) in tasks.iter().enumerate() {
                let pos = queue.assign((state.priority.0, 0), t as u32);
                if draws.below(4) != 0 {
                    queue.insert(pos, draws.below(8) == 0, &tasks);
                    queue.set_owner(pos, draws.below(25) == 0);
                    queued.push(pos as usize);
                }
            }
            queued.sort_unstable();

            let nodes = cluster(&mut draws, 2 + round as usize % 4);
            let up = |i: usize| i != 2;
            let reserved: Vec<Resources> = nodes.iter().map(|n| n.2).collect();
            let mut fit = FitIndex::new(nodes.len(), r(0, 0), 6);
            for (i, (avail, running, _)) in nodes.iter().enumerate() {
                fit.set_avail(i, *avail);
                for &(q, d) in running.iter().filter(|_| up(i)) {
                    fit.set_running(i, q, d, true);
                }
            }
            fit.refresh(up, &reserved);
            let max_avail = nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| up(*i))
                .fold(Resources::ZERO, |m, (_, n)| max_pair(&m, &n.0));
            // Every third task is pinned to node 0, as a local-only
            // restore pins a checkpointed task to its origin.
            let only = |t: u32| t.is_multiple_of(3).then_some(0);
            let candidate = |pos: usize| {
                let d = tasks[queue.task_at[pos] as usize].spec.resources;
                queue.is_owner(pos as u32)
                    || (queue.is_ckpt(pos as u32) && d.fits_in(&max_avail))
                    || (d.fits_in(&max_avail) && fit.fits_any(&d))
            };
            let search = |pos: usize| {
                let t = queue.task_at[pos];
                let task = &tasks[t as usize];
                fit.search_succeeds(&task.spec.resources, task.priority.0, only(t))
            };
            let acts = |pos: usize| candidate(pos) || search(pos);
            searchers += queued
                .iter()
                .filter(|&&pos| search(pos) && !candidate(pos))
                .count();
            skips += queued.iter().filter(|&&pos| !acts(pos)).count();
            let searches = |t: u32| {
                let task = &tasks[t as usize];
                fit.search_succeeds(&task.spec.resources, task.priority.0, only(t))
            };
            let fits = |d: &Resources| fit.fits_any(d);
            for lo in 0..=queue.task_at.len() {
                let expected = queued.iter().copied().find(|&pos| pos >= lo && acts(pos));
                let found = queue.first_acting(
                    lo,
                    &max_avail,
                    fits,
                    Some((fit.search_cap(), searches)),
                    &tasks,
                );
                assert_eq!(
                    found.map(|(pos, _)| pos),
                    expected,
                    "round {round}, from {lo}"
                );
                let skipped = queued
                    .iter()
                    .filter(|&&pos| pos >= lo && expected.is_none_or(|e| pos < e));
                assert_eq!(
                    queue.count_range(lo, expected.unwrap_or(usize::MAX)),
                    skipped.count(),
                    "round {round}, skipped from {lo}"
                );
            }
            #[cfg(debug_assertions)]
            queue.assert_consistent(&tasks);
        }
        assert!(
            searchers > 100 && skips > 1000,
            "{searchers} searchers, {skips} skips"
        );
    }

    #[test]
    fn bits_iterates_ascending() {
        let v: Vec<usize> = Bits(0b1010_0001).collect();
        assert_eq!(v, vec![0, 5, 7]);
    }
}
