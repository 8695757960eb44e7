//! The checkpoint plane: one implementation of checkpoint storage and
//! recovery shared by both simulators.
//!
//! [`CheckpointPlane`] owns everything between "the scheduler decided to
//! checkpoint a victim" and "the image chain is gone": the CRIU engine and
//! its image catalog, one checkpoint [`Device`] per node, the leaked-bytes
//! ledger, the optional DFS with every task's image paths, the fault plan,
//! the checkpoint-path circuit breakers and the per-episode retry state.
//! It runs the image-lifecycle ladder (GC → evict → spill → no-space
//! kill), the chunked-resume dump retry frontier, the restore integrity
//! ladder (refetch → truncate → scratch) and the lost-chain teardown, and
//! writes their trace records straight into the caller's [`Tracer`].
//!
//! The simulators keep task state and scheduling. What differs between
//! them reaches the plane as a parameter or comes back as a return value:
//! the slowdown factor of the checkpoint path, the CPU bucket a cost is
//! charged to, the DFS path naming, and what a dropped chain or a dead
//! restore does to the task ([`TaskView`], [`Validation::Dead`]).
//!
//! Conservation holds by construction here: every reservation on a
//! device is a live catalog image or an injected leak, and
//! [`CheckpointPlane::assert_image_conservation`] checks it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};

use cbp_dfs::{DfsCluster, DnId};
use cbp_faults::{BreakerTransition, FaultPlan, HealthMonitor};
use cbp_simkit::units::ByteSize;
use cbp_simkit::{SimDuration, SimTime};
use cbp_storage::{Device, MediaSpec, OpCompletion};
use cbp_telemetry::{MetricsRegistry, TraceRecord, Tracer};

use crate::criu::{Criu, OverheadEstimate};
use crate::image::CheckpointKind;
use crate::lifecycle::{plan_evictions, EvictionCandidate};
use crate::memory::TaskMemory;

/// The simulator-side view the lifecycle ladder needs. Task keys are the
/// opaque keys the plane's image catalog uses.
pub trait TaskView {
    /// Whether `node` is up (spills only go to live nodes).
    fn node_up(&self, node: usize) -> bool;
    /// Whether the task's chain belongs to an in-flight dump or restore;
    /// GC and eviction leave such chains alone.
    fn in_episode(&self, key: u64) -> bool;
    /// Core-seconds of checkpointed progress lost if the chain goes.
    fn chain_value(&self, key: u64) -> f64;
    /// Degrades the task after the plane dropped its chain (dead-chain
    /// GC or eviction): the next dump is full and a queued restore
    /// becomes a fresh start.
    fn chain_dropped(&mut self, key: u64);
}

/// A dump that was admitted and submitted.
#[derive(Debug, Clone, Copy)]
pub struct DumpStarted {
    /// Device timing: the dump completes at `op.end`.
    pub op: OpCompletion,
    /// Whether the image is incremental.
    pub incremental: bool,
}

/// Outcome of chunk-level validation of a restored chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validation {
    /// Every image verified (possibly after replica re-fetches).
    Intact,
    /// The chain was cut to its longest valid prefix and a re-read of the
    /// shorter chain is in flight. The task rolls back to `progress_us`,
    /// the progress stamp of the surviving tip.
    Truncated {
        /// Progress (µs) the surviving tip certifies.
        progress_us: u64,
        /// The re-read (completes at `op.end`).
        op: OpCompletion,
    },
    /// No valid prefix survived: the caller restarts the task from scratch.
    Dead,
}

/// Lifecycle, integrity and recovery counters kept by the plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Bytes reclaimed by GC passes.
    pub gc_reclaimed_bytes: u64,
    /// Live chains evicted to make room for a dump.
    pub evicted_chains: u64,
    /// Dumps written to a remote node's device.
    pub spill_dumps: u64,
    /// Dumps that found no space even after the ladder.
    pub no_space_kills: u64,
    /// Failed dump attempts that were retried.
    pub dump_fail_retries: u64,
    /// Dumps abandoned after exhausting their retry budget.
    pub dump_fail_kills: u64,
    /// Failed restore attempts that were retried.
    pub restore_fail_retries: u64,
    /// Checkpoint preemptions degraded to kills by an open breaker.
    pub breaker_open_kills: u64,
    /// Failed dumps that resumed past a durable chunk frontier.
    pub resumed_dumps: u64,
    /// Bytes those resumed dumps did not rewrite.
    pub resumed_bytes: u64,
    /// Corrupt chunks repaired from a DFS replica.
    pub chunk_refetches: u64,
    /// Chains truncated to their longest valid prefix.
    pub chain_truncations: u64,
    /// Scratch restarts forced by integrity loss.
    pub integrity_scratch_restarts: u64,
    /// DFS blocks re-replicated after datanode failures.
    pub dfs_blocks_repaired: u64,
    /// Bytes copied by those repairs.
    pub dfs_repair_bytes: u64,
    /// DFS blocks whose every replica died.
    pub dfs_blocks_lost: u64,
}

/// Checkpoint storage and recovery for one simulated cluster (see the
/// [module docs](self)).
pub struct CheckpointPlane {
    criu: Criu,
    devices: Vec<Device>,
    /// Per-node device bytes reserved by injected leaks that no image owns.
    leaked: Vec<u64>,
    plan: Option<FaultPlan>,
    health: Option<HealthMonitor>,
    dfs: Option<DfsCluster>,
    /// Task key → DFS paths of its chain images, oldest first.
    paths: BTreeMap<u64, Vec<String>>,
    lifecycle: bool,
    device_name: &'static str,
    /// Rack currently isolated by a chaos-plan partition.
    active_partition: Option<u32>,
    /// Task key → 0-based attempt of its in-flight dump episode.
    dump_attempts: HashMap<u64, u32>,
    /// Task key → durable bytes of its in-flight dump episode: monotone
    /// within the episode, so a retry never re-pays landed chunks.
    dump_frontier: HashMap<u64, u64>,
    /// Task key → 0-based attempt of its in-flight restore episode.
    restore_attempts: HashMap<u64, u32>,
    /// Tasks whose current chain was corrupted whole at dump time.
    corrupt_images: HashSet<u64>,
    stats: PlaneStats,
}

impl CheckpointPlane {
    /// Builds the plane for `nodes` nodes with checkpoint devices of
    /// `media`. A pressure plan shrinks every device; a fault plan also
    /// sets the manifest chunk size and (if configured) the breakers.
    /// `lifecycle` enables the GC → evict → spill ladder.
    pub fn new(
        criu: Criu,
        media: MediaSpec,
        nodes: usize,
        plan: Option<FaultPlan>,
        dfs: Option<DfsCluster>,
        lifecycle: bool,
    ) -> Self {
        let frac = plan.as_ref().map_or(1.0, |p| p.capacity_frac());
        let device_media = if frac < 1.0 {
            media.with_capacity(media.capacity().mul_f64(frac))
        } else {
            media
        };
        let criu = match &plan {
            // Manifests chunk at the plan's transfer granularity so the
            // per-chunk corruption draws and the resume frontier agree.
            Some(p) => criu.with_chunk_bytes(p.chunk_bytes()),
            None => criu,
        };
        let health = plan
            .as_ref()
            .and_then(|p| p.breaker())
            .map(|spec| HealthMonitor::new(*spec, nodes));
        CheckpointPlane {
            criu,
            devices: (0..nodes).map(|_| Device::new(device_media)).collect(),
            leaked: vec![0; nodes],
            plan,
            health,
            dfs,
            paths: BTreeMap::new(),
            lifecycle,
            device_name: media.kind().name(),
            active_partition: None,
            dump_attempts: HashMap::new(),
            dump_frontier: HashMap::new(),
            restore_attempts: HashMap::new(),
            corrupt_images: HashSet::new(),
            stats: PlaneStats::default(),
        }
    }

    // ---- queries ---------------------------------------------------------

    /// The fault plan, if injection is on.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// The plane's counters.
    pub fn stats(&self) -> &PlaneStats {
        &self.stats
    }

    /// Node `node`'s checkpoint device.
    pub fn device(&self, node: usize) -> &Device {
        &self.devices[node]
    }

    /// Retires finished device operations on `node` up to `now`.
    pub fn on_advance(&mut self, node: usize, now: SimTime) {
        self.devices[node].on_advance(now);
    }

    /// Whether checkpoint images go through a DFS.
    pub fn has_dfs(&self) -> bool {
        self.dfs.is_some()
    }

    /// True if `key` has a restorable image chain.
    pub fn has_image(&self, key: u64) -> bool {
        self.criu.has_image(key)
    }

    /// True if `key` has image files in the DFS.
    pub fn has_dfs_paths(&self, key: u64) -> bool {
        self.paths.get(&key).is_some_and(|p| !p.is_empty())
    }

    /// Origin node of `key`'s newest image.
    pub fn tip_origin(&self, key: u64) -> Option<u32> {
        self.criu
            .chain(key)
            .and_then(|c| c.tip())
            .map(|r| r.origin_node)
    }

    /// Number of incremental dumps performed.
    pub fn incremental_dumps(&self) -> u64 {
        self.criu.incremental_dumps()
    }

    /// Raw bytes the next dump of `key` would write.
    pub fn next_dump_size(&self, key: u64, mem: &TaskMemory) -> ByteSize {
        self.criu.next_dump_size(key, mem).0
    }

    /// Algorithm 1's overhead estimate for checkpointing `key` on `node`.
    pub fn estimate(
        &self,
        key: u64,
        mem: &TaskMemory,
        node: usize,
        now: SimTime,
    ) -> OverheadEstimate {
        self.criu.estimate(key, mem, &self.devices[node], now)
    }

    /// Attempt index of `key`'s in-flight restore episode.
    pub fn restore_attempt(&self, key: u64) -> u32 {
        self.restore_attempts.get(&key).copied().unwrap_or(0)
    }

    /// Transfer time of reading `key`'s whole chain onto `node`: the DFS
    /// reads of every image, or a local device read without a DFS.
    pub fn restore_service(&self, key: u64, node: usize) -> SimDuration {
        match &self.dfs {
            Some(dfs) => self.paths.get(&key).map_or(SimDuration::ZERO, |paths| {
                paths
                    .iter()
                    .map(|p| {
                        dfs.read_cost(p, DnId(node as u32))
                            .map(|c| c.duration)
                            .unwrap_or(SimDuration::ZERO)
                    })
                    .sum()
            }),
            None => self.devices[node]
                .spec()
                .read_time(self.criu.image_size(key)),
        }
    }

    /// Image bytes `key`'s chain holds on `node`'s device.
    fn chain_bytes_on(&self, key: u64, node: usize) -> ByteSize {
        let Some(chain) = self.criu.chain(key) else {
            return ByteSize::ZERO;
        };
        chain
            .images()
            .iter()
            .filter(|r| r.origin_node == node as u32)
            .map(|r| r.size)
            .fold(ByteSize::ZERO, |a, b| a + b)
    }

    // ---- degradation factors and failure domains -------------------------

    /// Stall-window slowdown of `node`'s device at `now` (1.0 if healthy).
    pub fn stall_factor(&self, node: usize, now: SimTime) -> f64 {
        self.plan
            .as_ref()
            .map_or(1.0, |p| p.device_factor(node as u32, now))
    }

    /// Partition penalty on checkpoint I/O touching `node` (1.0 unless a
    /// partition isolates its rack).
    pub fn partition_factor(&self, node: usize) -> f64 {
        match (self.active_partition, self.plan.as_ref()) {
            (Some(rack), Some(plan)) => match plan.partition() {
                Some(p) if plan.rack_of(node as u32) == rack => p.penalty,
                _ => 1.0,
            },
            _ => 1.0,
        }
    }

    /// One window of the chaos partition schedule: starts or heals the
    /// partition the oracle dictates. Returns the window to tick again
    /// after, or `None` when there is no partition schedule or the
    /// workload has `drained` (the partition is healed then, so the
    /// trace's start/end records tile).
    pub fn partition_tick(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        drained: bool,
    ) -> Option<SimDuration> {
        let plan = self.plan.as_ref()?;
        let p = plan.partition()?;
        let widx = now.as_micros() / p.window.as_micros().max(1);
        let racks = match self.devices.len() {
            0 => 0,
            n => plan.rack_of(n as u32 - 1) + 1,
        };
        let (window, next) = (p.window, plan.partition_isolates(widx, racks));
        if next != self.active_partition {
            if tr.enabled() {
                if let Some(rack) = self.active_partition {
                    tr.record(now.as_micros(), &TraceRecord::PartitionEnd { rack });
                }
                if let Some(rack) = next {
                    tr.record(now.as_micros(), &TraceRecord::PartitionStart { rack });
                }
            }
            self.active_partition = next;
        }
        if !drained {
            return Some(window);
        }
        if let Some(rack) = self.active_partition.take() {
            if tr.enabled() {
                tr.record(now.as_micros(), &TraceRecord::PartitionEnd { rack });
            }
        }
        None
    }

    /// One window of the chaos crash schedule: the stateless oracle's
    /// draw of which nodes that are `up` crash in the window starting at
    /// `now`. Returns the window to tick again after, the crashed nodes'
    /// downtime and the crashed nodes in ascending order, or `None`
    /// without a crash schedule.
    pub fn crash_draw(
        &self,
        now: SimTime,
        up: impl Fn(usize) -> bool,
    ) -> Option<(SimDuration, SimDuration, Vec<usize>)> {
        let plan = self.plan.as_ref()?;
        let c = plan.crash()?;
        let widx = now.as_micros() / c.window.as_micros().max(1);
        let crashed = (0..self.devices.len())
            .filter(|&i| up(i) && plan.node_crashes(i as u32, widx))
            .collect();
        Some((c.window, c.downtime, crashed))
    }

    /// One window of the pressure plan's leak schedule: reserves device
    /// bytes no image owns on every live node the oracle selects (never
    /// more than the device has free). Returns the window to tick again
    /// after, or `None` without a pressure plan.
    pub fn inject_leaks(
        &mut self,
        now: SimTime,
        up: impl Fn(usize) -> bool,
    ) -> Option<SimDuration> {
        let plan = self.plan.as_ref()?;
        let p = plan.pressure()?;
        let widx = now.as_micros() / p.window.as_micros().max(1);
        for i in 0..self.devices.len() {
            if !(up(i) && plan.leaks(i as u32, widx)) {
                continue;
            }
            let amount = p.leak_bytes.min(self.devices[i].free_capacity());
            if amount.is_zero() {
                continue;
            }
            self.devices[i]
                .reserve(amount)
                .expect("leak amount clamped to free capacity");
            self.leaked[i] += amount.as_u64();
        }
        Some(p.window)
    }

    /// Handles the loss of `node`'s datanode: the DFS re-replicates what
    /// it can. Returns the keys (ascending) of chains that became
    /// unreadable; the caller tears them down.
    pub fn fail_datanode(&mut self, tr: &mut dyn Tracer, now: SimTime, node: usize) -> Vec<u64> {
        let Some(dfs) = &mut self.dfs else {
            return Vec::new();
        };
        let Ok(repair) = dfs.fail_datanode(DnId(node as u32)) else {
            return Vec::new();
        };
        if tr.enabled() && (repair.blocks_repaired > 0 || repair.blocks_lost > 0) {
            tr.record(
                now.as_micros(),
                &TraceRecord::ReplicationRepair {
                    node: node as u32,
                    blocks: repair.blocks_repaired as u64,
                    bytes: repair.bytes_copied.as_u64(),
                },
            );
        }
        self.stats.dfs_blocks_repaired += repair.blocks_repaired as u64;
        self.stats.dfs_repair_bytes += repair.bytes_copied.as_u64();
        self.stats.dfs_blocks_lost += repair.blocks_lost as u64;
        if repair.blocks_lost == 0 {
            return Vec::new();
        }
        self.paths
            .iter()
            .filter(|(_, paths)| paths.iter().any(|p| !dfs.is_readable(p).unwrap_or(true)))
            .map(|(&key, _)| key)
            .collect()
    }

    /// A recovered node's datanode re-registers (empty).
    pub fn recover_datanode(&mut self, node: usize) {
        if let Some(dfs) = &mut self.dfs {
            let _ = dfs.recover_datanode(DnId(node as u32));
        }
    }

    /// Drops `key`'s chain if, without a DFS, any of its images lived on
    /// the failed `node`. Returns whether it did.
    pub fn lose_local_images(&mut self, key: u64, node: usize) -> bool {
        if self.dfs.is_some() || !self.criu.has_image_on(key, node as u32) {
            return false;
        }
        self.discard_chain(key);
        true
    }

    // ---- circuit breakers --------------------------------------------------

    /// Feeds one checkpoint-path outcome on `node` into the breakers and
    /// traces any state transitions.
    pub fn observe_health(&mut self, tr: &mut dyn Tracer, now: SimTime, node: usize, ok: bool) {
        let Some(h) = self.health.as_mut() else {
            return;
        };
        let events = h.observe(node as u32, now, ok);
        if tr.enabled() {
            for e in events {
                let (node, global) = (e.node.unwrap_or(0), e.node.is_none());
                let rec = match e.transition {
                    BreakerTransition::Opened => TraceRecord::BreakerOpen { node, global },
                    BreakerTransition::Closed => TraceRecord::BreakerClose { node, global },
                };
                tr.record(now.as_micros(), &rec);
            }
        }
    }

    /// Whether the breakers let a checkpoint through on `node` now.
    pub fn breaker_allows(&mut self, node: usize, now: SimTime) -> bool {
        self.health
            .as_mut()
            .is_none_or(|h| h.allow(node as u32, now))
    }

    /// Counts and traces a checkpoint preemption degraded to a kill by an
    /// open breaker.
    pub fn breaker_kill(&mut self, tr: &mut dyn Tracer, now: SimTime, key: u64, node: usize) {
        self.stats.breaker_open_kills += 1;
        fallback(tr, now, key, node, "breaker-open");
    }

    /// Breaker-open seconds summed over every breaker up to `end`.
    pub fn breaker_open_secs(&self, end: SimTime) -> f64 {
        self.health.as_ref().map_or(0.0, |h| h.open_secs_total(end))
    }

    // ---- dumps ---------------------------------------------------------------

    /// Picks the device that will hold a dump of `size` from `node`: local
    /// if it has room, else (DFS only) the live node with the most free
    /// space.
    fn dump_origin_for(&self, node: usize, size: ByteSize, view: &dyn TaskView) -> Option<usize> {
        if self.devices[node].free_capacity() >= size {
            return Some(node);
        }
        self.dfs.as_ref()?;
        (0..self.devices.len())
            .filter(|&i| view.node_up(i))
            .max_by_key(|&i| (self.devices[i].free_capacity(), Reverse(i)))
            .filter(|&i| self.devices[i].free_capacity() >= size)
    }

    /// Finds a device for a dump of `size` from `node`, climbing the
    /// lifecycle ladder when nothing fits. Returns the origin, or `None`
    /// after tracing the no-space fallback; the caller then kills the
    /// victim.
    pub fn admit_dump(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        key: u64,
        node: usize,
        size: ByteSize,
        view: &mut dyn TaskView,
    ) -> Option<usize> {
        let origin = match self.dump_origin_for(node, size, view) {
            Some(origin) => Some(origin),
            None if self.lifecycle => self.reclaim_for_dump(tr, now, key, node, size, view),
            None => None,
        };
        let Some(origin) = origin else {
            self.stats.no_space_kills += 1;
            self.observe_health(tr, now, node, false);
            if tr.enabled() {
                if self.lifecycle {
                    tr.record(
                        now.as_micros(),
                        &TraceRecord::NoSpace {
                            task: key,
                            node: node as u32,
                            wanted: size.as_u64(),
                        },
                    );
                }
                let reason = if self.lifecycle {
                    "no-space"
                } else {
                    "no-capacity"
                };
                fallback(tr, now, key, node, reason);
            }
            return None;
        };
        if origin != node && self.lifecycle {
            self.stats.spill_dumps += 1;
            if tr.enabled() {
                tr.record(
                    now.as_micros(),
                    &TraceRecord::ImageSpill {
                        task: key,
                        node: node as u32,
                        origin: origin as u32,
                        bytes: size.as_u64(),
                    },
                );
            }
        }
        Some(origin)
    }

    /// The degradation ladder, entered when no device can hold the dump:
    /// a GC pass, then eviction of the cheapest-to-lose chains on the
    /// local device, re-running the origin search after each rung (which
    /// also re-offers the remote spill).
    fn reclaim_for_dump(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        key: u64,
        node: usize,
        size: ByteSize,
        view: &mut dyn TaskView,
    ) -> Option<usize> {
        self.gc_pass(tr, now, view);
        if let Some(origin) = self.dump_origin_for(node, size, view) {
            return Some(origin);
        }
        self.evict_for(tr, now, key, node, size, view);
        self.dump_origin_for(node, size, view)
    }

    /// GC pass: releases every leaked reservation and discards dead
    /// (corrupt) chains outside an in-flight episode.
    fn gc_pass(&mut self, tr: &mut dyn Tracer, now: SimTime, view: &mut dyn TaskView) {
        let n = self.devices.len();
        let mut reclaimed = vec![0u64; n];
        let mut chains = vec![0u64; n];
        for (i, bytes) in self.leaked.iter_mut().enumerate() {
            if *bytes > 0 {
                self.devices[i].release(ByteSize::from_bytes(*bytes));
                reclaimed[i] += *bytes;
                *bytes = 0;
            }
        }
        let mut corrupt: Vec<u64> = self.corrupt_images.iter().copied().collect();
        corrupt.sort_unstable();
        for key in corrupt {
            if view.in_episode(key) {
                continue;
            }
            let tip_origin = self.tip_origin(key);
            let mut freed_any = false;
            if let Some(chain) = self.criu.chain(key) {
                for r in chain.images() {
                    reclaimed[r.origin_node as usize] += r.size.as_u64();
                    freed_any = true;
                }
            }
            self.discard_chain(key);
            if freed_any {
                if let Some(o) = tip_origin {
                    chains[o as usize] += 1;
                }
                view.chain_dropped(key);
            }
        }
        for i in 0..n {
            if reclaimed[i] == 0 && chains[i] == 0 {
                continue;
            }
            self.stats.gc_reclaimed_bytes += reclaimed[i];
            if tr.enabled() {
                tr.record(
                    now.as_micros(),
                    &TraceRecord::GcPass {
                        node: i as u32,
                        reclaimed: reclaimed[i],
                        chains: chains[i],
                    },
                );
            }
        }
    }

    /// Evicts the cheapest-to-lose chains with bytes on `node` until a dump
    /// of `size` fits, or nothing when no plan covers the shortfall.
    fn evict_for(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        key: u64,
        node: usize,
        size: ByteSize,
        view: &mut dyn TaskView,
    ) {
        let shortfall = size.saturating_sub(self.devices[node].free_capacity());
        if shortfall.is_zero() {
            return;
        }
        // Catalog order does not matter: `plan_evictions` sorts by
        // (cost, task).
        let candidates: Vec<EvictionCandidate> = self
            .criu
            .chains()
            .filter(|&(k, _)| k != key && !view.in_episode(k))
            .map(|(k, _)| EvictionCandidate {
                task: k,
                cost_core_secs: view.chain_value(k),
                bytes_on_node: self.chain_bytes_on(k, node),
            })
            .filter(|c| !c.bytes_on_node.is_zero())
            .collect();
        for victim in plan_evictions(candidates, shortfall) {
            self.stats.evicted_chains += 1;
            if tr.enabled() {
                tr.record(
                    now.as_micros(),
                    &TraceRecord::ImageEvict {
                        task: victim.task,
                        node: node as u32,
                        bytes: victim.bytes_on_node.as_u64(),
                    },
                );
            }
            self.discard_chain(victim.task);
            view.chain_dropped(victim.task);
        }
    }

    /// Writes an admitted dump of `size` raw bytes from `node` to
    /// `origin`'s device. `slowdown` is the degraded node and factor of
    /// the checkpoint path (a factor above 1 stretches the write and
    /// counts as a health failure on that node); `path` names the DFS
    /// file from the number of images the task already has there.
    /// Returns `None` after tracing the storage-full fallback; the caller
    /// then kills the victim.
    #[allow(clippy::too_many_arguments)]
    pub fn write_dump(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        key: u64,
        node: usize,
        origin: usize,
        size: ByteSize,
        slowdown: (usize, f64),
        path: impl FnOnce(usize) -> String,
        mem: &mut TaskMemory,
    ) -> Option<DumpStarted> {
        // Through a DFS the pipelined write is the service time; locally
        // the device's own write speed applies. With compression only the
        // compressed bytes cross the pipeline.
        let wire = self
            .criu
            .compression()
            .map(|c| c.compressed_size(size))
            .unwrap_or(size);
        let (slow_node, factor) = slowdown;
        if factor > 1.0 {
            // A degraded checkpoint path is a health signal even when the
            // dump eventually completes.
            self.observe_health(tr, now, slow_node, false);
        }
        let service = match &mut self.dfs {
            Some(dfs) => {
                let p = path(self.paths.get(&key).map_or(0, Vec::len));
                match dfs.create(&p, wire, DnId(node as u32)) {
                    Ok(receipt) => {
                        self.paths.entry(key).or_default().push(p);
                        Some(if factor > 1.0 {
                            receipt.duration.mul_f64(factor)
                        } else {
                            receipt.duration
                        })
                    }
                    Err(_) => None,
                }
            }
            None if factor > 1.0 => {
                Some(self.devices[origin].spec().write_time(wire).mul_f64(factor))
            }
            None => None,
        };
        let dump = self.criu.dump_with(
            key,
            mem,
            origin as u32,
            &mut self.devices[origin],
            now,
            service,
        );
        let Ok(result) = dump else {
            self.stats.no_space_kills += 1;
            self.observe_health(tr, now, node, false);
            fallback(tr, now, key, node, "storage-full");
            return None;
        };
        for (o, bytes) in &result.freed {
            self.devices[*o as usize].release(*bytes);
        }
        let incremental = matches!(result.kind, CheckpointKind::Incremental { .. });
        if tr.enabled() {
            tr.record(
                now.as_micros(),
                &TraceRecord::DumpStart {
                    task: key,
                    node: node as u32,
                    device: self.device_name,
                    bytes: wire.as_u64(),
                    incremental,
                },
            );
        }
        if self.plan.is_some() {
            // New dump episode: attempt numbering restarts.
            self.dump_attempts.insert(key, 0);
        }
        Some(DumpStarted {
            op: result.op,
            incremental,
        })
    }

    /// The fault oracle's verdict on the dump attempt of `key` that just
    /// completed: `Some(attempt)` if it failed.
    pub fn dump_attempt_failed(&self, key: u64, epoch: u32) -> Option<u32> {
        let plan = self.plan.as_ref()?;
        let attempt = self.dump_attempts.get(&key).copied().unwrap_or(0);
        plan.dump_fails(key, epoch, attempt).then_some(attempt)
    }

    /// Handles a failed dump attempt. While retry budget remains the tip
    /// is rewritten after an exponential backoff (with chunked resume,
    /// only the suffix past the episode's durable frontier); the rewrite
    /// window `× cores` is charged to `bucket` and `Some((start, end))`
    /// of the rewrite is returned. Once the budget is exhausted the tip
    /// is aborted, the dump-fail fallback traced, and `None` returned;
    /// the caller then kills the victim. `factor` is the path's slowdown
    /// and `footprint` the size to rewrite if the tip is gone.
    #[allow(clippy::too_many_arguments)]
    pub fn on_dump_failed(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        (key, node, epoch, attempt): (u64, usize, u32, u32),
        factor: f64,
        cores: f64,
        footprint: ByteSize,
        bucket: &mut f64,
    ) -> Option<(SimTime, SimTime)> {
        self.observe_health(tr, now, node, false);
        let plan = self.plan.as_ref().expect("a failed dump implies a plan");
        let will_retry = attempt < plan.max_dump_retries();
        let backoff = plan.dump_retry_backoff(attempt + 1);
        if tr.enabled() {
            tr.record(
                now.as_micros(),
                &TraceRecord::DumpFail {
                    task: key,
                    node: node as u32,
                    attempt,
                    will_retry,
                },
            );
        }
        if !will_retry {
            self.stats.dump_fail_kills += 1;
            self.abort_dump(tr, now, key, node, "dump-fail", true);
            return None;
        }
        self.stats.dump_fail_retries += 1;
        self.dump_attempts.insert(key, attempt + 1);
        let tip = self.criu.chain(key).and_then(|c| c.tip());
        let size = tip.map_or(footprint, |r| r.size);
        let mut rewrite = size;
        if let (true, Some(tip)) = (plan.resume_enabled(), tip) {
            // Chunks written before the interruption are durable; the
            // frontier is monotone within the episode.
            let frac = plan.dump_durable_frac(key, epoch, attempt);
            let durable = tip.manifest.durable_bytes(frac).as_u64();
            let frontier = self
                .dump_frontier
                .get(&key)
                .copied()
                .unwrap_or(0)
                .max(durable);
            if frontier > 0 {
                self.dump_frontier.insert(key, frontier);
                rewrite = size.saturating_sub(ByteSize::from_bytes(frontier));
                self.stats.resumed_dumps += 1;
                self.stats.resumed_bytes += frontier;
                if tr.enabled() {
                    let done = tip
                        .manifest
                        .durable_chunks(frac)
                        .max(frontier / plan.chunk_bytes().max(1));
                    tr.record(
                        now.as_micros(),
                        &TraceRecord::ChunkDone {
                            task: key,
                            node: node as u32,
                            chunk: done,
                            total: tip.manifest.chunk_count(),
                        },
                    );
                    tr.record(
                        now.as_micros(),
                        &TraceRecord::ResumeDump {
                            task: key,
                            node: node as u32,
                            resumed_bytes: frontier,
                            total_bytes: size.as_u64(),
                        },
                    );
                }
            }
        }
        // The victim keeps holding its resources through the rewrite, so
        // the service window is wasted CPU.
        let service = self.devices[node]
            .spec()
            .write_time(rewrite)
            .mul_f64(factor.max(1.0));
        *bucket += service.as_secs_f64() * cores;
        let start = now + backoff;
        Some((start, start + service))
    }

    /// Aborts `key`'s in-flight dump: ends the episode, drops the
    /// half-written tip and its DFS entry and traces the fallback with
    /// `reason`. `delete_partial` deletes the aborted write's DFS file;
    /// without it the file stays in the namespace (a grace-expiry kill
    /// leaves it behind).
    pub fn abort_dump(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        key: u64,
        node: usize,
        reason: &'static str,
        delete_partial: bool,
    ) {
        self.dump_attempts.remove(&key);
        self.dump_frontier.remove(&key);
        if let Some((origin, bytes)) = self.criu.abort_tip(key) {
            self.devices[origin as usize].release(bytes);
        }
        if let Some(path) = self.paths.get_mut(&key).and_then(Vec::pop) {
            if let (true, Some(dfs)) = (delete_partial, &mut self.dfs) {
                let _ = dfs.delete(&path);
            }
        }
        fallback(tr, now, key, node, reason);
    }

    /// A dump of `key` completed: feeds the breakers, traces it, stamps
    /// the tip with the `progress_us` it certifies (for later prefix
    /// truncation), ends the episode and, with chunked resume, draws
    /// per-chunk corruption into the tip's manifest.
    #[allow(clippy::too_many_arguments)]
    pub fn dump_done(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        key: u64,
        node: usize,
        epoch: u32,
        started: SimTime,
        progress_us: u64,
    ) {
        self.observe_health(tr, now, node, true);
        if tr.enabled() {
            tr.record(
                now.as_micros(),
                &TraceRecord::DumpDone {
                    task: key,
                    node: node as u32,
                    start_us: started.as_micros(),
                },
            );
        }
        self.criu.set_tip_progress(key, progress_us);
        let Some(plan) = &self.plan else {
            return;
        };
        self.dump_attempts.remove(&key);
        self.dump_frontier.remove(&key);
        if !plan.resume_enabled() {
            return;
        }
        let hit: Vec<(u64, u64)> = self
            .criu
            .chain(key)
            .and_then(|c| c.tip())
            .map(|tip| {
                let n = tip.manifest.chunk_count();
                (0..n)
                    .filter(|&c| plan.chunk_corrupt(key, epoch, c, n))
                    .map(|c| (c, tip.id.0))
                    .collect()
            })
            .unwrap_or_default();
        for (chunk, image) in hit {
            self.criu.mark_tip_chunk_corrupt(key, chunk);
            if tr.enabled() {
                tr.record(
                    now.as_micros(),
                    &TraceRecord::ChunkCorrupt {
                        task: key,
                        node: node as u32,
                        image,
                        chunk,
                    },
                );
            }
        }
    }

    /// Whole-image corruption draw for `key`'s new tip when chunked resume
    /// is off: every later restore of a poisoned image fails.
    pub fn draw_image_corruption(&mut self, key: u64, epoch: u32) {
        let Some(plan) = &self.plan else {
            return;
        };
        if plan.resume_enabled() {
            return;
        }
        if plan.image_corrupt(key, epoch) {
            self.corrupt_images.insert(key);
        } else {
            self.corrupt_images.remove(&key);
        }
    }

    // ---- restores ------------------------------------------------------------

    /// Submits the read of `key`'s chain onto `node`, stretched by the
    /// path's slowdown `factor`.
    fn read_chain(&mut self, key: u64, node: usize, factor: f64, now: SimTime) -> OpCompletion {
        let service = self.restore_service(key, node).mul_f64(factor.max(1.0));
        self.criu
            .restore(key, &mut self.devices[node], now, service)
            .expect("a restore reads an existing chain")
            .op
    }

    /// Starts a restore episode of `key` (imaged on `origin`) onto `node`
    /// and traces it. The caller schedules completion at `op.end`.
    pub fn start_restore(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        key: u64,
        (node, origin): (usize, u32),
        factor: f64,
    ) -> OpCompletion {
        if self.plan.is_some() {
            // New restore episode: attempt numbering restarts.
            self.restore_attempts.insert(key, 0);
        }
        let op = self.read_chain(key, node, factor, now);
        if tr.enabled() {
            tr.record(
                now.as_micros(),
                &TraceRecord::RestoreStart {
                    task: key,
                    node: node as u32,
                    origin,
                    device: self.device_name,
                    bytes: self.criu.image_size(key).as_u64(),
                    remote: origin != node as u32,
                },
            );
        }
        op
    }

    /// The fault oracle's verdict on the restore attempt of `key` that
    /// just completed: `Some((attempt, corrupt))` if it failed, transiently
    /// or because the image was corrupted whole.
    pub fn restore_attempt_failed(&self, key: u64, epoch: u32) -> Option<(u32, bool)> {
        let plan = self.plan.as_ref()?;
        let attempt = self.restore_attempt(key);
        let corrupt = self.corrupt_images.contains(&key);
        (corrupt || plan.restore_fails(key, epoch, attempt)).then_some((attempt, corrupt))
    }

    /// Handles a failed restore attempt that read since `started`. The
    /// read's CPU is charged to `bucket`. A transient failure with budget
    /// left re-reads in place: `Some(op)`. A corrupt image or an exhausted
    /// budget returns `None`; the caller restarts the task from scratch.
    #[allow(clippy::too_many_arguments)]
    pub fn on_restore_failed(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        (key, node, attempt, corrupt): (u64, usize, u32, bool),
        started: SimTime,
        cores: f64,
        factor: f64,
        bucket: &mut f64,
    ) -> Option<OpCompletion> {
        let plan = self.plan.as_ref().expect("a failed restore implies a plan");
        let will_retry = !corrupt && attempt < plan.max_restore_retries();
        let reason = if corrupt {
            "corrupt-image"
        } else {
            "transient"
        };
        self.observe_health(tr, now, node, false);
        *bucket += now.since(started).as_secs_f64() * cores;
        if tr.enabled() {
            tr.record(
                now.as_micros(),
                &TraceRecord::RestoreFail {
                    task: key,
                    node: node as u32,
                    attempt,
                    reason,
                    will_retry,
                },
            );
        }
        if !will_retry {
            if corrupt {
                self.stats.integrity_scratch_restarts += 1;
            }
            return None;
        }
        self.stats.restore_fail_retries += 1;
        self.restore_attempts.insert(key, attempt + 1);
        Some(self.read_chain(key, node, factor, now))
    }

    /// Chunk-level validation of `key`'s chain after its read onto `node`
    /// completed (chunked resume only; `Intact` otherwise). Each corrupt
    /// chunk first tries a re-fetch from a DFS replica (its read charged
    /// to `bucket`); an image that stays invalid cuts the chain at its
    /// longest valid prefix and re-reads the shorter chain; a chain with
    /// no valid prefix is `Dead`. The wasted read since `started` is
    /// charged to `bucket` whenever validation fails.
    #[allow(clippy::too_many_arguments)]
    pub fn validate_restored_chain(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        (key, node, epoch): (u64, usize, u32),
        started: SimTime,
        cores: f64,
        factor: f64,
        bucket: &mut f64,
    ) -> Validation {
        let Some(plan) = self.plan.as_ref().filter(|p| p.resume_enabled()) else {
            return Validation::Intact;
        };
        // Snapshot (image idx → corrupt chunks with lengths): the catalog
        // is mutated during repair.
        let images: Vec<(usize, Vec<(u64, u64)>)> = match self.criu.chain(key) {
            Some(chain) => chain
                .images()
                .iter()
                .enumerate()
                .map(|(i, img)| {
                    let bad = img
                        .manifest
                        .corrupt_chunks()
                        .into_iter()
                        .map(|c| (c, img.manifest.chunks[c as usize].len))
                        .collect();
                    (i, bad)
                })
                .collect(),
            None => return Validation::Intact,
        };
        if images.iter().all(|(_, bad)| bad.is_empty()) {
            return Validation::Intact;
        }
        let total = images.len();
        let mut valid_prefix = total;
        'walk: for (i, bad) in images {
            for (chunk, len) in bad {
                // A replica exists when the image went through the DFS and
                // its blocks are still readable.
                let replica = match &self.dfs {
                    Some(dfs) => self
                        .paths
                        .get(&key)
                        .and_then(|p| p.get(i))
                        .is_some_and(|p| dfs.is_readable(p).unwrap_or(false)),
                    None => false,
                };
                // Per-image × per-chunk key so refetch draws across chain
                // images stay independent.
                let ckey = ((i as u64) << 20) | chunk;
                let ok = replica && !plan.chunk_refetch_fails(key, epoch, ckey);
                if tr.enabled() {
                    tr.record(
                        now.as_micros(),
                        &TraceRecord::ChunkRefetch {
                            task: key,
                            node: node as u32,
                            chunk,
                            ok,
                        },
                    );
                }
                if !ok {
                    valid_prefix = i;
                    break 'walk;
                }
                self.criu.repair_chunk(key, i, chunk);
                self.stats.chunk_refetches += 1;
                // The targeted re-read holds the container for the chunk's
                // transfer time.
                let reread = self.devices[node]
                    .spec()
                    .read_time(ByteSize::from_bytes(len));
                *bucket += reread.as_secs_f64() * cores;
            }
        }
        if valid_prefix == total {
            return Validation::Intact;
        }
        let attempt = self.restore_attempt(key);
        *bucket += now.since(started).as_secs_f64() * cores;
        self.observe_health(tr, now, node, false);
        if valid_prefix == 0 {
            if tr.enabled() {
                tr.record(
                    now.as_micros(),
                    &TraceRecord::RestoreFail {
                        task: key,
                        node: node as u32,
                        attempt,
                        reason: "corrupt-image",
                        will_retry: false,
                    },
                );
            }
            self.stats.integrity_scratch_restarts += 1;
            return Validation::Dead;
        }
        let dropped = (total - valid_prefix) as u64;
        for (origin, bytes) in self.criu.truncate_chain(key, valid_prefix) {
            self.devices[origin as usize].release(bytes);
        }
        if let Some(paths) = self.paths.get_mut(&key) {
            while paths.len() > valid_prefix {
                let path = paths.pop().expect("length checked");
                if let Some(dfs) = &mut self.dfs {
                    let _ = dfs.delete(&path);
                }
            }
        }
        self.stats.chain_truncations += 1;
        if tr.enabled() {
            tr.record(
                now.as_micros(),
                &TraceRecord::ChainTruncate {
                    task: key,
                    node: node as u32,
                    dropped,
                    kept: valid_prefix as u64,
                },
            );
            tr.record(
                now.as_micros(),
                &TraceRecord::RestoreFail {
                    task: key,
                    node: node as u32,
                    attempt,
                    reason: "corrupt-image",
                    will_retry: true,
                },
            );
        }
        let progress_us = self
            .criu
            .chain(key)
            .and_then(|c| c.tip())
            .map_or(0, |r| r.progress);
        // The strictly shrinking chain bounds this loop without consuming
        // the transient-retry budget.
        let op = self.read_chain(key, node, factor, now);
        Validation::Truncated { progress_us, op }
    }

    /// A restore of `key` onto `node` completed: ends the episode, feeds
    /// the breakers and traces it.
    pub fn restore_done(
        &mut self,
        tr: &mut dyn Tracer,
        now: SimTime,
        key: u64,
        node: usize,
        started: SimTime,
    ) {
        self.restore_attempts.remove(&key);
        self.observe_health(tr, now, node, true);
        if tr.enabled() {
            tr.record(
                now.as_micros(),
                &TraceRecord::RestoreDone {
                    task: key,
                    node: node as u32,
                    start_us: started.as_micros(),
                },
            );
        }
    }

    // ---- teardown ------------------------------------------------------------

    /// Ends any in-flight dump or restore episode of `key`.
    pub fn end_episodes(&mut self, key: u64) {
        self.dump_attempts.remove(&key);
        self.dump_frontier.remove(&key);
        self.restore_attempts.remove(&key);
    }

    /// Discards `key`'s chain and DFS files, releasing their device
    /// reservations, and forgets its corruption flag and episodes.
    pub fn discard_chain(&mut self, key: u64) {
        for (origin, bytes) in self.criu.discard(key) {
            self.devices[origin as usize].release(bytes);
        }
        if let Some(paths) = self.paths.remove(&key) {
            if let Some(dfs) = &mut self.dfs {
                for path in paths {
                    let _ = dfs.delete(&path);
                }
            }
        }
        self.corrupt_images.remove(&key);
        self.end_episodes(key);
    }

    // ---- audits and reporting ------------------------------------------------

    /// Hard invariant: manifests, catalog and ledger agree, and every byte
    /// reserved on a node's device is a live image or an injected leak.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn assert_image_conservation(&self, now: SimTime) {
        self.criu.assert_manifest_consistency();
        for (i, device) in self.devices.iter().enumerate() {
            assert_eq!(
                device.used().as_u64(),
                self.criu.live_bytes_on(i as u32).as_u64() + self.leaked[i],
                "image-ledger conservation violated on node {i} at {now:?}"
            );
        }
    }

    /// Mean device busy fraction over `horizon`.
    pub fn io_busy_fraction(&self, horizon: SimDuration) -> f64 {
        mean(self.devices.iter().map(|d| d.busy_fraction(horizon)))
    }

    /// Mean peak used fraction of the devices.
    pub fn peak_used_fraction(&self) -> f64 {
        mean(self.devices.iter().map(Device::peak_used_fraction))
    }

    /// Registers the lifecycle, integrity, breaker and storage metrics of
    /// a run that ended at `end`.
    pub fn register(&self, reg: &mut MetricsRegistry, end: SimTime) {
        let s = &self.stats;
        reg.set_counter(
            "lifecycle.gc_reclaimed_bytes",
            "bytes",
            s.gc_reclaimed_bytes,
        );
        reg.set_counter("lifecycle.evicted_chains", "ops", s.evicted_chains);
        reg.set_counter("lifecycle.spill_dumps", "ops", s.spill_dumps);
        reg.set_counter("lifecycle.no_space_kills", "ops", s.no_space_kills);
        reg.set_counter("faults.dump_fail_kills", "ops", s.dump_fail_kills);
        reg.set_counter("faults.breaker_open_kills", "ops", s.breaker_open_kills);
        reg.set_gauge("faults.breaker_open_secs", "s", self.breaker_open_secs(end));
        reg.set_counter("integrity.resumed_dumps", "ops", s.resumed_dumps);
        reg.set_counter("integrity.resumed_bytes", "bytes", s.resumed_bytes);
        reg.set_counter("integrity.chunk_refetches", "ops", s.chunk_refetches);
        reg.set_counter("integrity.chain_truncations", "ops", s.chain_truncations);
        reg.set_counter(
            "integrity.scratch_restarts",
            "ops",
            s.integrity_scratch_restarts,
        );
        let horizon = end.since(SimTime::ZERO);
        reg.set_gauge(
            "storage.io_busy_fraction",
            "fraction",
            self.io_busy_fraction(horizon),
        );
        reg.set_gauge(
            "storage.peak_used_fraction",
            "fraction",
            self.peak_used_fraction(),
        );
        if let Some((first, rest)) = self.devices.split_first() {
            let mut writes = first.write_latency().clone();
            let mut reads = first.read_latency().clone();
            for d in rest {
                writes.merge(d.write_latency());
                reads.merge(d.read_latency());
            }
            reg.set_histogram("storage.write_latency_secs", "s", &writes);
            reg.set_histogram("storage.read_latency_secs", "s", &reads);
            let total = |f: fn(&Device) -> ByteSize| -> u64 {
                self.devices.iter().map(|d| f(d).as_u64()).sum()
            };
            reg.set_counter(
                "storage.bytes_written",
                "bytes",
                total(Device::bytes_written),
            );
            reg.set_counter("storage.bytes_read", "bytes", total(Device::bytes_read));
        }
        let underflows = self.devices.iter().map(Device::accounting_underflows).sum();
        reg.set_counter("storage.accounting_underflows", "ops", underflows);
    }
}

/// Traces a `DumpFallback` (a checkpoint preemption that became a kill).
fn fallback(tr: &mut dyn Tracer, now: SimTime, key: u64, node: usize, reason: &'static str) {
    if tr.enabled() {
        tr.record(
            now.as_micros(),
            &TraceRecord::DumpFallback {
                task: key,
                node: node as u32,
                reason,
            },
        );
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = iter.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_dfs::DfsConfig;
    use cbp_telemetry::NullTracer;

    /// Tasks that are all idle (no in-flight episode), on nodes that are
    /// all up; records which chains the plane dropped.
    #[derive(Default)]
    struct Idle {
        dropped: Vec<u64>,
    }

    impl TaskView for Idle {
        fn node_up(&self, _: usize) -> bool {
            true
        }
        fn in_episode(&self, _: u64) -> bool {
            false
        }
        fn chain_value(&self, key: u64) -> f64 {
            key as f64
        }
        fn chain_dropped(&mut self, key: u64) {
            self.dropped.push(key);
        }
    }

    /// Two nodes with `cap_gb` checkpoint devices, optionally behind a DFS.
    fn plane(cap_gb: u64, dfs: bool, lifecycle: bool) -> CheckpointPlane {
        let media = MediaSpec::nvm().with_capacity(ByteSize::from_gb(cap_gb));
        let dfs =
            dfs.then(|| DfsCluster::homogeneous(DfsConfig::default(), MediaSpec::nvm(), 2, 7));
        CheckpointPlane::new(Criu::new(true), media, 2, None, dfs, lifecycle)
    }

    /// Admits and writes a full dump of a `gb`-sized task from `node`.
    fn dump(p: &mut CheckpointPlane, view: &mut Idle, key: u64, gb: u64) -> Option<DumpStarted> {
        let mut mem = TaskMemory::new(ByteSize::from_gb(gb));
        let size = p.next_dump_size(key, &mem);
        let now = SimTime::ZERO;
        let origin = p.admit_dump(&mut NullTracer, now, key, 0, size, view)?;
        let path = |n| format!("/ckpt/{key}/{n}");
        p.write_dump(
            &mut NullTracer,
            now,
            key,
            0,
            origin,
            size,
            (0, 1.0),
            path,
            &mut mem,
        )
    }

    #[test]
    fn full_device_evicts_the_cheapest_chain_and_conserves_bytes() {
        // Without a DFS nothing can spill, so the ladder must evict.
        let mut p = plane(6, false, true);
        let mut view = Idle::default();
        assert!(dump(&mut p, &mut view, 1, 5).is_some());
        assert!(dump(&mut p, &mut view, 2, 5).is_some());
        assert_eq!(view.dropped, vec![1]);
        assert_eq!(p.stats().evicted_chains, 1);
        assert!(!p.has_image(1) && p.has_image(2));
        p.assert_image_conservation(SimTime::ZERO);
    }

    #[test]
    fn without_lifecycle_a_full_device_is_a_no_space_kill() {
        let mut p = plane(6, false, false);
        let mut view = Idle::default();
        assert!(dump(&mut p, &mut view, 1, 5).is_some());
        assert!(dump(&mut p, &mut view, 2, 5).is_none());
        assert!(view.dropped.is_empty(), "nothing is evicted");
        assert_eq!(p.stats().no_space_kills, 1);
        assert!(p.has_image(1) && !p.has_image(2));
        p.assert_image_conservation(SimTime::ZERO);
    }

    #[test]
    fn aborted_dump_deletes_its_partial_file_unless_told_to_keep_it() {
        let mut p = plane(100, true, true);
        let mut view = Idle::default();
        for key in [1, 2] {
            assert!(dump(&mut p, &mut view, key, 1).is_some());
        }
        let files = |p: &CheckpointPlane| p.dfs.as_ref().map(|d| d.namespace().file_count());
        assert_eq!(files(&p), Some(2));
        p.abort_dump(&mut NullTracer, SimTime::ZERO, 1, 0, "node-crash", true);
        assert_eq!(files(&p), Some(1));
        p.abort_dump(&mut NullTracer, SimTime::ZERO, 2, 0, "grace-expired", false);
        assert_eq!(files(&p), Some(1), "the kept partial file stays");
        assert!(!p.has_image(1) && !p.has_image(2));
        p.assert_image_conservation(SimTime::ZERO);
    }
}
