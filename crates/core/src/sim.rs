//! The trace-driven cluster scheduling simulator.
//!
//! One [`ClusterSim`] runs one [`Workload`] under one [`SimConfig`]. The
//! scheduler is priority-based (the paper's system model, §3.1): pending
//! tasks are served highest priority first, FIFO within a priority; when a
//! task cannot be placed, lower-priority running tasks are preempted
//! according to the configured [`PreemptionPolicy`].

use std::cmp::Reverse;
use std::collections::HashMap;

use cbp_checkpoint::{CheckpointPlane, Criu, NvramCheckpointer, TaskView, Validation};
use cbp_cluster::{Container, ContainerId, EnergyMeter, Node, NodeId, Resources};
use cbp_dfs::DfsCluster;
use cbp_faults::FaultPlan;
use cbp_simkit::{
    run_until_observed, EventQueue, RunStats, SimDuration, SimRng, SimTime, Simulation,
};
use cbp_telemetry::{MetricsRegistry, NullTracer, PreemptAction, TimeSeries, TraceRecord, Tracer};
use cbp_workload::{Priority, PriorityBand, TaskSpec, Workload};

use crate::config::{
    PreemptionPolicy, QueueDiscipline, RestorePlacement, SimConfig, VictimSelection,
};
use crate::metrics::{MetricsCollector, RunReport, RunTotals, TelemetryReport};
use crate::task::{TaskState, TaskStatus};

mod index;
#[cfg(test)]
mod linear;

use index::{FitIndex, PendingQueue, QueueGroup};

/// Periodic sim-time probe state (see [`ClusterSim::enable_sampling`]).
struct Sampler {
    interval: SimDuration,
    next: SimTime,
    /// Cumulative device busy seconds at the previous sample, per node
    /// (used to derive a per-interval busy fraction).
    prev_busy: Vec<f64>,
    series: TimeSeries,
}

/// Simulation events (public because it is [`ClusterSim`]'s associated
/// [`Simulation::Event`] type; not intended for direct construction).
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A job's tasks enter the pending queue.
    JobSubmit(u32),
    /// A running task completes (stale if the epoch moved on).
    TaskFinish { task: u32, epoch: u32 },
    /// A checkpoint dump finished; the victim's resources can be released.
    DumpDone {
        task: u32,
        epoch: u32,
        started: SimTime,
    },
    /// A restore finished; the task resumes execution.
    RestoreDone {
        task: u32,
        epoch: u32,
        started: SimTime,
    },
    /// A node fails: every container on it is lost.
    NodeFail(u32),
    /// A failed node comes back into service.
    NodeRecover(u32),
    /// Window boundary of the chaos plan's crash schedule: evaluate the
    /// stateless crash oracle for every node (and rack) once per window.
    ChaosCrashTick,
    /// Window boundary of the chaos plan's partition schedule: start or
    /// heal the rack partition the stateless oracle dictates.
    ChaosPartitionTick,
    /// A chaos-crashed node comes back into service (separate from
    /// [`Event::NodeRecover`] so the MTBF chain stays untouched).
    ChaosRecover(u32),
    /// Window boundary of the pressure plan's leak schedule: evaluate the
    /// stateless leak oracle for every node once per window, reserving
    /// checkpoint-device bytes that no live image owns (simulating
    /// orphaned dump directories a real NM forgets to clean up).
    PressureTick,
}

/// Exact scheduler work counts of one run (reported on
/// [`TelemetryReport`]).
#[derive(Debug, Default)]
struct SchedWork {
    passes: u64,
    pending_visited: u64,
    node_probes: u64,
    victim_searches: u64,
    victim_searches_memoized: u64,
    placements: u64,
}

/// What a victim search did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Preempted {
    /// No victim set covers the demand (or a drain is already in flight
    /// for the task); nothing changed.
    Nothing,
    /// Victims are draining into a fresh reservation.
    Draining,
    /// Every victim was killed: the space is free now.
    Freed,
}

/// A victim search's inputs besides the cluster state: the searching
/// task's priority, demand and eligible node (see
/// [`ClusterSim::preempt_restrict`]). Two tasks without reservations of
/// their own and with equal keys get the same answer from the same state.
type SearchKey = (Priority, Resources, Option<usize>);

struct NodeSlot {
    node: Node,
    meter: EnergyMeter,
    /// NVRAM checkpoint engine (when the NVRAM backend is configured).
    nvram: Option<NvramCheckpointer>,
    /// False while the node is failed.
    up: bool,
}

/// The simulator. Most users go through [`SimConfig::run`]; constructing a
/// `ClusterSim` directly is useful for stepping or inspecting state in
/// tests.
pub struct ClusterSim {
    cfg: SimConfig,
    workload: Workload,
    nodes: Vec<NodeSlot>,
    tasks: Vec<TaskState>,
    /// Dense task-handle offsets: job `j` owns tasks
    /// `job_start[j]..job_start[j + 1]`.
    job_start: Vec<u32>,
    pending: PendingQueue,
    /// Per-node free capacity for the pass's fit-any test.
    fit: FitIndex,
    /// Scheduler work counters.
    work: SchedWork,
    /// Checkpoint storage, recovery ladders and fault plan.
    plane: CheckpointPlane,
    metrics: MetricsCollector,
    rng: SimRng,
    next_container: u64,
    /// Capacity earmarked for a blocked task while its victims drain:
    /// owner task → reservation. Prevents both duplicate preemption rounds
    /// and backfill stealing the capacity a dump is freeing.
    reservations: HashMap<u32, Reservation>,
    /// Dumping victim → the blocked task its drain serves.
    drain_owner: HashMap<u32, u32>,
    /// Task → node holding its valid NVRAM mirror (NVRAM backend only).
    nvram_origin: HashMap<u32, u32>,
    /// Per-node sum of reservation amounts.
    node_reserved: Vec<Resources>,
    job_remaining: Vec<u32>,
    place_cursor: usize,
    /// Structured-event sink ([`NullTracer`] by default).
    tracer: Box<dyn Tracer>,
    /// Cached `tracer.enabled()` so the disabled path costs one branch.
    trace_on: bool,
    /// Periodic time-series probe (absent unless enabled).
    sampler: Option<Sampler>,
    /// Pending-queue depth after the previous event (for change records).
    last_queue_depth: usize,
    /// Drive passes with the linear oracle instead of the indexes.
    #[cfg(test)]
    linear: bool,
}

#[derive(Debug, Clone, Copy)]
struct Reservation {
    node: usize,
    amount: Resources,
    drains_left: u32,
}

/// The plane's view of the trace simulator's tasks and nodes.
struct View<'a> {
    tasks: &'a mut [TaskState],
    nodes: &'a [NodeSlot],
}

impl TaskView for View<'_> {
    fn node_up(&self, node: usize) -> bool {
        self.nodes[node].up
    }

    fn in_episode(&self, key: u64) -> bool {
        matches!(
            self.tasks[key as usize].status,
            TaskStatus::Dumping { .. } | TaskStatus::Restoring { .. }
        )
    }

    fn chain_value(&self, key: u64) -> f64 {
        let task = &self.tasks[key as usize];
        task.checkpointed_progress.as_secs_f64() * task.spec.resources.cores_f64()
    }

    fn chain_dropped(&mut self, key: u64) {
        drop_checkpoint(&mut self.tasks[key as usize]);
    }
}

/// Degrades a task whose chain is gone: the next dump is full and a
/// queued restore becomes a fresh start (still queued under its key).
fn drop_checkpoint(task: &mut TaskState) {
    task.checkpointed_progress = SimDuration::ZERO;
    if let Some(mem) = task.memory.as_mut() {
        mem.mark_all_dirty();
    }
    if matches!(task.status, TaskStatus::Checkpointed { .. }) {
        task.status = TaskStatus::Pending;
    }
}

impl ClusterSim {
    /// Builds a simulator for `workload` under `cfg`.
    pub fn new(cfg: SimConfig, workload: Workload) -> Self {
        let n_nodes = cfg.nodes;
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let faults = cfg
            .faults
            .clone()
            .filter(|spec| !spec.is_inert())
            .map(FaultPlan::new);
        let nodes = (0..cfg.nodes)
            .map(|i| NodeSlot {
                node: Node::new(NodeId(i as u32), cfg.node_resources),
                meter: EnergyMeter::new(cfg.energy),
                nvram: cfg.nvram.map(NvramCheckpointer::new),
                up: true,
            })
            .collect();
        let dfs = cfg.via_dfs.then(|| {
            DfsCluster::homogeneous(cfg.dfs, cfg.media, cfg.nodes, rng.fork(0xD0F5).next_seed())
        });

        let mut tasks = Vec::with_capacity(workload.task_count());
        let mut job_remaining = Vec::with_capacity(workload.job_count());
        let mut job_start = Vec::with_capacity(workload.job_count() + 1);
        for (job_idx, job) in workload.jobs().iter().enumerate() {
            job_start.push(tasks.len() as u32);
            job_remaining.push(job.tasks.len() as u32);
            for spec in &job.tasks {
                let spec = clamp_to_node(*spec, cfg.node_resources);
                tasks.push(TaskState::new(
                    spec,
                    job.priority,
                    job_idx as u32,
                    job.submit,
                ));
            }
        }
        job_start.push(tasks.len() as u32);
        let pending = match cfg.queue_discipline {
            QueueDiscipline::Fifo => PendingQueue::new(
                workload
                    .jobs()
                    .iter()
                    .map(|job| ((job.priority.0, 0), job.tasks.len() as u32)),
            ),
            QueueDiscipline::Fair => {
                PendingQueue::new(tasks.iter().map(|t| (queue_group(&cfg, t), 1)))
            }
        };
        let fit = FitIndex::new(n_nodes, cfg.node_resources);

        let mut criu = Criu::new(cfg.incremental);
        if let Some(compression) = cfg.compression {
            criu = criu.with_compression(compression);
        }
        // A pressure plan shrinks every checkpoint device before the run
        // (the fleet was provisioned smaller than the workload needs);
        // leak injection on top happens via `PressureTick`.
        let plane = CheckpointPlane::new(criu, cfg.media, n_nodes, faults, dfs, cfg.lifecycle);
        ClusterSim {
            plane,
            cfg,
            workload,
            nodes,
            tasks,
            job_start,
            pending,
            fit,
            work: SchedWork::default(),
            metrics: MetricsCollector::default(),
            rng,
            next_container: 1,
            reservations: HashMap::new(),
            drain_owner: HashMap::new(),
            nvram_origin: HashMap::new(),
            node_reserved: vec![Resources::ZERO; n_nodes],
            job_remaining,
            place_cursor: 0,
            tracer: Box::new(NullTracer),
            trace_on: false,
            sampler: None,
            last_queue_depth: 0,
            #[cfg(test)]
            linear: false,
        }
    }

    /// Replaces the structured-event tracer. The default is a
    /// [`NullTracer`]; pass a `JsonlTracer` / `ChromeTraceTracer` /
    /// `MultiTracer` to capture the run. The tracer's `finish()` is called
    /// at the end of [`ClusterSim::run`].
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.trace_on = tracer.enabled();
        self.tracer = tracer;
    }

    /// Enables the periodic time-series probe: every `interval` of sim
    /// time the simulator records cluster utilization, pending-queue depth
    /// per band, checkpoint-storage occupancy per node and device busy
    /// fraction. The series is returned in `RunReport.telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_sampling(&mut self, interval: SimDuration) {
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        self.sampler = Some(Sampler {
            interval,
            next: SimTime::ZERO,
            prev_busy: vec![0.0; self.nodes.len()],
            series: TimeSeries::new(),
        });
    }

    fn schedule_next_failure(&mut self, node: usize, now: SimTime, q: &mut EventQueue<Event>) {
        // Once the workload has drained, stop injecting failures —
        // otherwise the fail/recover chain regenerates events forever and
        // the run never terminates.
        if self.job_remaining.iter().all(|&r| r == 0) {
            return;
        }
        if let Some(mtbf) = self.cfg.failure_mtbf_per_node {
            let gap = cbp_simkit::dist::Dist::Exp {
                mean: mtbf.as_secs_f64(),
            }
            .sample(&mut self.rng);
            q.push(
                now + SimDuration::from_secs_f64(gap),
                Event::NodeFail(node as u32),
            );
        }
    }

    /// Runs the workload to completion and returns the report.
    pub fn run(mut self) -> RunReport {
        let mut queue = EventQueue::with_capacity(self.tasks.len() * 2);
        for (job_idx, job) in self.workload.jobs().iter().enumerate() {
            queue.push(job.submit, Event::JobSubmit(job_idx as u32));
        }
        if self.cfg.failure_mtbf_per_node.is_some() {
            for node in 0..self.cfg.nodes {
                self.schedule_next_failure(node, SimTime::ZERO, &mut queue);
            }
        }
        if let Some(plan) = self.plane.plan() {
            if plan.crash().is_some() {
                queue.push(SimTime::ZERO, Event::ChaosCrashTick);
            }
            if plan.partition().is_some() {
                queue.push(SimTime::ZERO, Event::ChaosPartitionTick);
            }
            if plan.pressure().is_some_and(|p| p.leak_prob > 0.0) {
                queue.push(SimTime::ZERO, Event::PressureTick);
            }
        }
        let stats = run_until_observed(&mut self, &mut queue, SimTime::MAX, &mut |_| {});
        let makespan = stats.now;
        self.metrics.breaker_open_secs = self.plane.breaker_open_secs(makespan);
        self.tracer.finish();

        let label = format!("{}-{}", self.cfg.policy, self.cfg.media.kind());
        let energy_kwh: f64 = self.nodes.iter().map(|n| n.meter.kwh(makespan)).sum();
        let io_overhead = self.plane.io_busy_fraction(makespan.since(SimTime::ZERO));
        let storage_peak = self.plane.peak_used_fraction();
        let incremental = self.plane.incremental_dumps();
        let registry = self.build_registry(makespan, energy_kwh, &stats);
        let telemetry = TelemetryReport {
            registry,
            timeseries: self.sampler.take().map(|s| s.series),
            engine_events: stats.events,
            engine_wall_secs: stats.wall.as_secs_f64(),
            passes: self.work.passes,
            pending_visited: self.work.pending_visited,
            node_probes: self.work.node_probes,
            victim_searches: self.work.victim_searches,
            victim_searches_memoized: self.work.victim_searches_memoized,
            placements: self.work.placements,
        };
        let metrics = self.metrics.into_metrics(
            makespan,
            energy_kwh,
            io_overhead,
            storage_peak,
            incremental,
            self.plane.stats(),
        );
        RunReport {
            label,
            metrics,
            telemetry,
        }
    }

    /// Snapshots every `subsystem.metric` this run tracked into a
    /// [`MetricsRegistry`].
    ///
    /// Everything registered here is a pure function of the simulation
    /// state, so the registry JSON is byte-stable across runs with the
    /// same seed (wall-clock engine throughput lives on
    /// [`TelemetryReport`] instead).
    fn build_registry(
        &self,
        makespan: SimTime,
        energy_kwh: f64,
        stats: &RunStats,
    ) -> MetricsRegistry {
        let m = &self.metrics;
        let p = self.plane.stats();
        let mut reg = MetricsRegistry::new();
        self.plane.register(&mut reg, makespan);
        reg.set_counter("engine.events", "events", stats.events);
        reg.set_counter("scheduler.preemptions", "ops", m.preemptions);
        reg.set_counter("scheduler.kills", "ops", m.kills);
        reg.set_counter("scheduler.checkpoints", "ops", m.checkpoints);
        reg.set_counter("scheduler.restores", "ops", m.restores);
        reg.set_counter("scheduler.remote_restores", "ops", m.remote_restores);
        reg.set_counter("scheduler.capacity_fallbacks", "ops", m.capacity_fallbacks);
        reg.set_counter("scheduler.failure_evictions", "ops", m.failure_evictions);
        reg.set_counter(
            "scheduler.images_lost_to_failures",
            "ops",
            m.images_lost_to_failures,
        );
        reg.set_counter("scheduler.tasks_finished", "ops", m.tasks_finished);
        reg.set_counter("scheduler.jobs_finished", "ops", m.jobs_finished);
        reg.set_counter("faults.crash_evictions", "ops", m.crash_evictions);
        reg.set_counter("faults.dump_fail_retries", "ops", p.dump_fail_retries);
        reg.set_counter("faults.restore_fail_retries", "ops", p.restore_fail_retries);
        reg.set_counter("faults.scratch_restarts", "ops", m.scratch_restarts);
        reg.set_counter("dfs.blocks_repaired", "blocks", p.dfs_blocks_repaired);
        reg.set_counter("dfs.repair_bytes", "bytes", p.dfs_repair_bytes);
        reg.set_counter("dfs.blocks_lost", "blocks", p.dfs_blocks_lost);
        RunTotals {
            makespan,
            energy_kwh,
            useful_cpu_secs: m.useful_cpu_secs,
            kill_lost_cpu_secs: m.kill_lost_cpu_secs,
            dump_overhead_cpu_secs: m.dump_overhead_cpu_secs,
            restore_overhead_cpu_secs: m.restore_overhead_cpu_secs,
        }
        .register(
            &mut reg,
            m.responses
                .values()
                .flat_map(|s| s.values().iter().copied()),
        );
        reg
    }

    // ---- telemetry probes ----------------------------------------------

    /// Records every due sample up to (and including) `now`. Samples are
    /// timestamped at their exact interval boundary and reflect the state
    /// *before* the event at `now` is processed, so the series is a pure
    /// function of the event stream (deterministic per seed).
    fn sample_up_to(&mut self, now: SimTime) {
        let Some(mut s) = self.sampler.take() else {
            return;
        };
        while s.next <= now {
            let t = s.next;
            self.record_sample(&mut s, t);
            s.next = t + s.interval;
        }
        self.sampler = Some(s);
    }

    fn record_sample(&mut self, s: &mut Sampler, t: SimTime) {
        let n = self.nodes.len();
        let mut util_sum = 0.0;
        let mut up_nodes = 0usize;
        let mut ckpt = Vec::with_capacity(n);
        let mut busy = Vec::with_capacity(n);
        for (i, slot) in self.nodes.iter().enumerate() {
            if slot.up {
                util_sum += slot.node.cpu_utilization();
                up_nodes += 1;
            }
            let device = self.plane.device(i);
            ckpt.push(device.used_fraction());
            let total = device.busy_time().as_secs_f64();
            let delta = (total - s.prev_busy[i]).max(0.0);
            s.prev_busy[i] = total;
            busy.push((delta / s.interval.as_secs_f64()).min(1.0));
        }
        let utilization = if up_nodes == 0 {
            0.0
        } else {
            util_sum / up_nodes as f64
        };
        let ckpt_mean = if n == 0 {
            0.0
        } else {
            ckpt.iter().sum::<f64>() / n as f64
        };
        let busy_mean = if n == 0 {
            0.0
        } else {
            busy.iter().sum::<f64>() / n as f64
        };
        let (mut free, mut middle, mut production) = (0u64, 0u64, 0u64);
        for t in self.pending.tasks() {
            match self.tasks[t as usize].priority.band() {
                PriorityBand::Free => free += 1,
                PriorityBand::Middle => middle += 1,
                PriorityBand::Production => production += 1,
            }
        }
        s.series.push(
            t.as_micros(),
            &[
                ("ckpt_used_frac_mean", ckpt_mean),
                ("dev_busy_frac_mean", busy_mean),
                ("pending_free", free as f64),
                ("pending_middle", middle as f64),
                ("pending_production", production as f64),
                ("pending_total", (free + middle + production) as f64),
                ("utilization", utilization),
            ],
            &[("ckpt_used_frac", &ckpt), ("dev_busy_frac", &busy)],
        );
    }

    // ---- helpers -------------------------------------------------------

    fn enqueue_pending(&mut self, t: u32) {
        // Re-queued (preempted) tasks keep their first position, so they
        // stay ahead of later same-priority arrivals and their images are
        // restored — and discarded — promptly.
        let pos = match self.tasks[t as usize].queue_pos {
            Some(pos) => pos,
            None => {
                let pos = self
                    .pending
                    .assign(queue_group(&self.cfg, &self.tasks[t as usize]), t);
                self.tasks[t as usize].queue_pos = Some(pos);
                pos
            }
        };
        self.tasks[t as usize].status = TaskStatus::Pending;
        // Reservation owners stay queued until placed, so `t` owns none.
        let ckpt = self.restore_draws_rng() && self.has_checkpoint(t);
        self.pending.insert(pos, ckpt, &self.tasks);
    }

    /// Dequeues `t` (about to be placed).
    fn dequeue(&mut self, t: u32) {
        let pos = self.tasks[t as usize]
            .queue_pos
            .expect("queued tasks have a position");
        self.pending.remove(pos, &self.tasks);
    }

    /// Refreshes the fit index's copy of node `i`'s availability.
    fn sync_avail(&mut self, i: usize) {
        self.fit.set_avail(i, self.nodes[i].node.available());
    }

    /// Sets whether node `i` is in service.
    fn set_up(&mut self, i: usize, up: bool) {
        self.nodes[i].up = up;
        self.fit.invalidate();
    }

    fn update_meter(&mut self, node: usize, now: SimTime) {
        let util = self.nodes[node].node.cpu_utilization();
        self.nodes[node].meter.set_utilization(now, util);
    }

    fn max_available(&self) -> Resources {
        let mut cpu = 0u64;
        let mut mem = cbp_simkit::units::ByteSize::ZERO;
        for slot in &self.nodes {
            if !slot.up {
                continue;
            }
            let a = slot.node.available();
            cpu = cpu.max(a.cpu_milli());
            mem = mem.max(a.mem());
        }
        Resources::new(cpu, mem)
    }

    /// Free capacity of node `i` from task `t`'s point of view: physical
    /// availability minus capacity earmarked for *other* blocked tasks.
    fn free_for(&self, i: usize, t: u32) -> Resources {
        if !self.nodes[i].up {
            return Resources::ZERO;
        }
        let free = self.nodes[i].node.available();
        let mut reserved = self.node_reserved[i];
        if let Some(r) = self.reservations.get(&t) {
            if r.node == i {
                reserved = reserved.saturating_sub(&r.amount);
            }
        }
        free.saturating_sub(&reserved)
    }

    /// One node probe of a placement decision.
    fn can_place(&mut self, i: usize, t: u32, demand: &Resources) -> bool {
        self.work.node_probes += 1;
        demand.fits_in(&self.free_for(i, t))
    }

    fn cancel_reservation(&mut self, t: u32) {
        if let Some(r) = self.reservations.remove(&t) {
            self.node_reserved[r.node] = self.node_reserved[r.node].saturating_sub(&r.amount);
            self.fit.invalidate();
            let pos = self.tasks[t as usize].queue_pos.expect("owners are queued");
            self.pending.set_owner(pos, false, &self.tasks);
        }
    }

    /// First-fit node for a fresh (non-checkpointed) task, round-robin.
    fn choose_fresh_node(&mut self, t: u32, demand: &Resources) -> Option<usize> {
        let n = self.nodes.len();
        for k in 0..n {
            let i = (self.place_cursor + k) % n;
            if self.can_place(i, t, demand) {
                self.place_cursor = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    /// True if `t` can resume from a checkpoint (a CRIU image chain or an
    /// NVRAM mirror, depending on the configured backend).
    fn has_checkpoint(&self, t: u32) -> bool {
        if self.cfg.nvram.is_some() {
            self.nvram_origin.contains_key(&t)
        } else {
            self.plane.has_image(handle_u64(t))
        }
    }

    /// True if restore placement is cost-aware over the DFS, and so draws
    /// a random probe start from the run's RNG on every call.
    fn restore_draws_rng(&self) -> bool {
        self.cfg.nvram.is_none()
            && self.cfg.restore_placement != RestorePlacement::LocalOnly
            && self.plane.has_dfs()
    }

    /// Node holding `t`'s newest checkpoint (NVRAM mirror or image tip).
    fn checkpoint_origin(&self, t: u32) -> Option<u32> {
        if self.cfg.nvram.is_some() {
            self.nvram_origin.get(&t).copied()
        } else {
            self.plane.tip_origin(handle_u64(t))
        }
    }

    /// Algorithm 2: pick the restore node with the lowest total overhead.
    fn choose_restore_node(&mut self, t: u32, now: SimTime) -> Option<usize> {
        let task = &self.tasks[t as usize];
        let origin = match task.status {
            TaskStatus::Checkpointed { origin } => origin as usize,
            _ => unreachable!("choose_restore_node on non-checkpointed task"),
        };
        let demand = task.spec.resources;
        let origin_fits = self.can_place(origin, t, &demand);

        // NVRAM mirrors live in the origin node's memory: restore is
        // inherently local. Same for local-FS CRIU and the LocalOnly
        // ablation.
        if !self.restore_draws_rng() {
            return origin_fits.then_some(origin);
        }

        // Cost-aware: evaluate the origin plus a bounded sample of feasible
        // remote nodes (evaluating every node's DFS read plan would be
        // quadratic in cluster size for no modelling benefit).
        let mut candidates: Vec<usize> = Vec::new();
        if origin_fits {
            candidates.push(origin);
        }
        let n = self.nodes.len();
        let start = self.rng.index(n);
        for k in 0..n {
            if candidates.len() >= 5 {
                break;
            }
            let i = (start + k) % n;
            if i != origin && self.can_place(i, t, &demand) {
                candidates.push(i);
            }
        }
        candidates
            .into_iter()
            .map(|i| {
                let cost = self.restore_cost(t, i, now);
                (cost, i)
            })
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, i)| i)
    }

    /// Stall-window degradation multiplier for node `i` at `now` (1.0
    /// whenever fault injection is off or the node is healthy). While a
    /// rack partition isolates `i`'s rack, checkpoint I/O touching the
    /// node pays the partition penalty on top: the DFS write pipeline and
    /// remote reads cross the partition boundary. Cost estimators share
    /// this helper, so placement and victim ranking see the same penalty
    /// the actual transfers pay.
    fn device_factor(&self, i: usize, now: SimTime) -> f64 {
        self.plane.stall_factor(i, now) * self.plane.partition_factor(i)
    }

    /// Breaker gate for a checkpoint decision: when the checkpoint path
    /// on `node` is considered down, the victim is killed instead
    /// (graceful degradation) and `true` is returned.
    fn breaker_denies(&mut self, v: u32, node: usize, now: SimTime, policy: &'static str) -> bool {
        if self.plane.breaker_allows(node, now) {
            return false;
        }
        self.trace_preempt_decision(now, v, node, PreemptAction::Kill, policy, "breaker-open");
        self.plane
            .breaker_kill(&mut *self.tracer, now, handle_u64(v), node);
        self.kill_task(v, node, now);
        true
    }

    /// Algorithm 2's overhead estimate for restoring `t` on node `i`.
    /// Degradation-aware: a stalled device makes its own restores look
    /// expensive, steering cost-aware placement elsewhere.
    fn restore_cost(&self, t: u32, i: usize, now: SimTime) -> SimDuration {
        let queue = self.plane.device(i).queue_wait(now);
        let cost = queue + self.restore_service(t, i);
        let factor = self.device_factor(i, now);
        if factor > 1.0 {
            cost.mul_f64(factor)
        } else {
            cost
        }
    }

    /// The service (transfer) time of restoring `t` on node `i`.
    fn restore_service(&self, t: u32, i: usize) -> SimDuration {
        if let Some(spec) = &self.cfg.nvram {
            // Lazy NVRAM resume: only the hot fraction is copied up front.
            let footprint = self.tasks[t as usize].spec.resources.mem();
            return spec
                .restore_bw
                .transfer_time(footprint.mul_f64(spec.lazy_restore_fraction));
        }
        self.plane.restore_service(handle_u64(t), i)
    }

    // ---- lifecycle transitions -----------------------------------------

    fn place_task(&mut self, t: u32, node: usize, now: SimTime, q: &mut EventQueue<Event>) {
        let cid = ContainerId(self.next_container);
        self.next_container += 1;
        let demand = self.tasks[t as usize].spec.resources;
        self.nodes[node]
            .node
            .allocate(Container::new(cid, demand, t as u64))
            .expect("placement checked can_fit before allocating");
        self.sync_avail(node);
        self.work.placements += 1;
        self.update_meter(node, now);
        self.cancel_reservation(t);

        let has_image = self.has_checkpoint(t);
        if self.trace_on {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::TaskSchedule {
                    task: t as u64,
                    node: node as u32,
                    restore: has_image,
                },
            );
        }
        if has_image {
            // Resume from checkpoint: read the image chain (or NVRAM
            // mirror) first.
            let origin = match self.tasks[t as usize].status {
                TaskStatus::Checkpointed { origin } => origin,
                _ => unreachable!("image implies checkpointed status"),
            };
            let (start, end) = if self.cfg.nvram.is_some() {
                // NVRAM resume is a memory copy; it does not queue on the
                // storage device. Record it on the engine for stats.
                let service = self.restore_service(t, node);
                if let Some(engine) = self.nodes[node].nvram.as_mut() {
                    let _ = engine.resume(handle_u64(t), true);
                }
                if self.trace_on {
                    self.tracer.record(
                        now.as_micros(),
                        &TraceRecord::RestoreStart {
                            task: t as u64,
                            node: node as u32,
                            origin,
                            device: "nvram",
                            bytes: self.tasks[t as usize].spec.resources.mem().as_u64(),
                            remote: origin != node as u32,
                        },
                    );
                }
                (now, now + service)
            } else {
                // A stall window on the reading device slows the restore.
                let factor = self.device_factor(node, now);
                let op = self.plane.start_restore(
                    &mut *self.tracer,
                    now,
                    handle_u64(t),
                    (node, origin),
                    factor,
                );
                (op.start, op.end)
            };
            let task = &mut self.tasks[t as usize];
            task.status = TaskStatus::Restoring {
                node: node as u32,
                container: cid,
            };
            let epoch = task.epoch;
            let remote = origin != node as u32;
            if remote {
                // Count it now; duration is charged at completion.
                self.metrics.remote_restores += 1;
            }
            // `started` is the service start: queue wait burns no CPU.
            q.push(
                end,
                Event::RestoreDone {
                    task: t,
                    epoch,
                    started: start,
                },
            );
        } else {
            let task = &mut self.tasks[t as usize];
            task.status = TaskStatus::Running {
                node: node as u32,
                container: cid,
            };
            task.run_started = now;
            task.mem_synced = now;
            let epoch = task.epoch;
            let finish = now + task.remaining();
            q.push(finish, Event::TaskFinish { task: t, epoch });
        }
    }

    fn release_container(&mut self, t: u32, now: SimTime) {
        let (node, cid) = match self.tasks[t as usize].status {
            TaskStatus::Running { node, container }
            | TaskStatus::Dumping { node, container }
            | TaskStatus::Restoring { node, container } => (node as usize, container),
            _ => return,
        };
        self.nodes[node]
            .node
            .release(cid)
            .expect("container must be on its node");
        self.sync_avail(node);
        self.update_meter(node, now);
    }

    /// Kills `t` (a Running victim): progress since the last checkpoint is
    /// lost; the task re-queues (from its image if it has one).
    fn kill_task(&mut self, t: u32, node: usize, now: SimTime) {
        self.tasks[t as usize].sync_progress(now);
        let lost = self.tasks[t as usize].progress_at_risk();
        let cores = self.tasks[t as usize].spec.resources.cores_f64();
        self.metrics.charge_kill(lost, cores);
        if self.trace_on {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::TaskEvict {
                    task: t as u64,
                    node: node as u32,
                    reason: "kill",
                },
            );
        }
        self.release_container(t, now);

        let has_image = self.has_checkpoint(t);
        let origin = self.checkpoint_origin(t);
        let task = &mut self.tasks[t as usize];
        task.epoch += 1;
        task.preemptions += 1;
        task.progress = task.checkpointed_progress;
        if let Some(mem) = task.memory.as_mut() {
            if has_image {
                // In-memory writes since the last dump are lost; the image
                // is the ground truth, so nothing is dirty relative to it.
                mem.clear_dirty();
            } else {
                mem.mark_all_dirty();
            }
        }
        task.status = match origin {
            Some(origin) if has_image => TaskStatus::Checkpointed { origin },
            _ => TaskStatus::Pending,
        };
        self.enqueue_pending_preserving_status(t);
    }

    /// `enqueue_pending` resets status to Pending; checkpointed tasks keep
    /// their status while queued.
    fn enqueue_pending_preserving_status(&mut self, t: u32) {
        let status = self.tasks[t as usize].status;
        self.enqueue_pending(t);
        if let TaskStatus::Checkpointed { .. } = status {
            self.tasks[t as usize].status = status;
        }
    }

    /// Suspends `t` into the node's NVRAM (the §3.2.3 backend): a shadowed
    /// DRAM→NVM copy with no file system, no serialization and no device
    /// queueing. Returns `false` (a drain is in flight) on success.
    fn dump_task_nvram(
        &mut self,
        t: u32,
        node: usize,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) -> bool {
        let task = &mut self.tasks[t as usize];
        let mem = task.memory.as_mut().expect("sync_memory created the image");
        let engine = self.nodes[node]
            .nvram
            .as_mut()
            .expect("nvram backend configured");
        match engine.suspend(handle_u64(t), mem) {
            Ok(suspend) => {
                let cores = self.tasks[t as usize].spec.resources.cores_f64();
                let mut unused = 0;
                let incremental = suspend.copied < self.tasks[t as usize].spec.resources.mem();
                self.metrics
                    .charge_dump(suspend.duration, cores, &mut unused, incremental);
                self.nvram_origin.insert(t, node as u32);
                if self.trace_on {
                    self.tracer.record(
                        now.as_micros(),
                        &TraceRecord::DumpStart {
                            task: t as u64,
                            node: node as u32,
                            device: "nvram",
                            bytes: suspend.copied.as_u64(),
                            incremental,
                        },
                    );
                    self.tracer.record(
                        now.as_micros(),
                        &TraceRecord::TaskEvict {
                            task: t as u64,
                            node: node as u32,
                            reason: "dump",
                        },
                    );
                }
                let task = &mut self.tasks[t as usize];
                let container = match task.status {
                    TaskStatus::Running { container, .. } => container,
                    _ => unreachable!("dump victim must be running"),
                };
                task.status = TaskStatus::Dumping {
                    node: node as u32,
                    container,
                };
                task.epoch += 1;
                task.preemptions += 1;
                let epoch = task.epoch;
                q.push(
                    now + suspend.duration,
                    Event::DumpDone {
                        task: t,
                        epoch,
                        started: now,
                    },
                );
                false
            }
            Err(_) => {
                // The node's NVRAM is full; mirrors are node-local so there
                // is nowhere to spill.
                self.metrics.capacity_fallbacks += 1;
                self.plane
                    .observe_health(&mut *self.tracer, now, node, false);
                if self.trace_on {
                    self.tracer.record(
                        now.as_micros(),
                        &TraceRecord::DumpFallback {
                            task: t as u64,
                            node: node as u32,
                            reason: "nvram-full",
                        },
                    );
                }
                self.kill_task(t, node, now);
                true
            }
        }
    }

    /// Suspends `t` with a checkpoint dump; resources stay held until
    /// `DumpDone`.
    fn dump_task(&mut self, t: u32, node: usize, now: SimTime, q: &mut EventQueue<Event>) -> bool {
        self.tasks[t as usize].sync_progress(now);
        self.tasks[t as usize].sync_memory(now);
        if self.cfg.nvram.is_some() {
            return !self.dump_task_nvram(t, node, now, q);
        }
        let key = handle_u64(t);
        let size = self.plane.next_dump_size(
            key,
            self.tasks[t as usize]
                .memory
                .as_ref()
                .expect("sync_memory created the image"),
        );
        // No device can hold the image even after the lifecycle ladder
        // (or, with lifecycle disabled, the bare search): fall back to
        // killing.
        let mut view = View {
            tasks: &mut self.tasks,
            nodes: &self.nodes,
        };
        let Some(origin) =
            self.plane
                .admit_dump(&mut *self.tracer, now, key, node, size, &mut view)
        else {
            self.metrics.capacity_fallbacks += 1;
            self.kill_task(t, node, now);
            return false;
        };
        // A stall window (or partition) on the origin device degrades the
        // dump's service time.
        let slowdown = (origin, self.device_factor(origin, now));
        let epoch = self.tasks[t as usize].epoch;
        let mem = self.tasks[t as usize]
            .memory
            .as_mut()
            .expect("sync_memory created the image");
        let Some(dump) = self.plane.write_dump(
            &mut *self.tracer,
            now,
            key,
            node,
            origin,
            size,
            slowdown,
            move |n| format!("/ckpt/{t}/{epoch}/{n}"),
            mem,
        ) else {
            // Checkpoint storage is full: fall back to killing.
            self.metrics.capacity_fallbacks += 1;
            self.kill_task(t, node, now);
            return false;
        };
        let cores = self.tasks[t as usize].spec.resources.cores_f64();
        let mut unused = 0;
        // Wastage is *CPU time*: the dump burns CPU while copying (service
        // time); while queued the victim is stopped and burns none.
        // Queueing still delays resource release and response times
        // through the DumpDone event time.
        self.metrics.charge_dump(
            dump.op.end.since(dump.op.start),
            cores,
            &mut unused,
            dump.incremental,
        );
        if self.trace_on {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::TaskEvict {
                    task: key,
                    node: node as u32,
                    reason: "dump",
                },
            );
        }
        let task = &mut self.tasks[t as usize];
        let container = match task.status {
            TaskStatus::Running { container, .. } => container,
            _ => unreachable!("dump victim must be running"),
        };
        task.status = TaskStatus::Dumping {
            node: node as u32,
            container,
        };
        task.epoch += 1;
        task.preemptions += 1;
        let epoch = task.epoch;
        q.push(
            dump.op.end,
            Event::DumpDone {
                task: t,
                epoch,
                // Device service start (not submission time): the trace's
                // dump span then measures service time, and `start_us -
                // evict time` exposes the checkpoint queue wait to blame
                // analysis.
                started: dump.op.start,
            },
        );
        true
    }

    /// Preempts one victim according to the active policy. Returns `true` if
    /// its resources were freed synchronously (kill), `false` if a dump is
    /// in flight.
    fn preempt_victim(
        &mut self,
        v: u32,
        node: usize,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) -> bool {
        let _prof = cbp_prof::scope("preempt_victim");
        match self.cfg.policy {
            PreemptionPolicy::Wait => unreachable!("Wait never preempts"),
            PreemptionPolicy::Kill => {
                self.trace_preempt_decision(now, v, node, PreemptAction::Kill, "kill", "policy");
                self.kill_task(v, node, now);
                true
            }
            PreemptionPolicy::Checkpoint => {
                if self.breaker_denies(v, node, now, "checkpoint") {
                    return true;
                }
                self.trace_preempt_decision(
                    now,
                    v,
                    node,
                    PreemptAction::Checkpoint,
                    "checkpoint",
                    "policy",
                );
                !self.dump_task(v, node, now, q)
            }
            PreemptionPolicy::Adaptive => {
                // Algorithm 1: checkpoint only if the progress at risk
                // exceeds the estimated dump + restore + queue overhead.
                self.tasks[v as usize].sync_progress(now);
                self.tasks[v as usize].sync_memory(now);
                let est_total = {
                    let task = &self.tasks[v as usize];
                    let mem = task.memory.as_ref().expect("sync_memory created the image");
                    match &self.nodes[node].nvram {
                        Some(engine) => engine.estimate_total(handle_u64(v), mem),
                        None => self.plane.estimate(handle_u64(v), mem, node, now).total(),
                    }
                };
                if self.tasks[v as usize].progress_at_risk() > est_total {
                    if self.breaker_denies(v, node, now, "adaptive") {
                        return true;
                    }
                    self.trace_preempt_decision(
                        now,
                        v,
                        node,
                        PreemptAction::Checkpoint,
                        "adaptive",
                        "progress-at-risk",
                    );
                    !self.dump_task(v, node, now, q)
                } else {
                    self.trace_preempt_decision(
                        now,
                        v,
                        node,
                        PreemptAction::Kill,
                        "adaptive",
                        "overhead-exceeds-risk",
                    );
                    self.kill_task(v, node, now);
                    true
                }
            }
        }
    }

    /// Records a [`TraceRecord::PreemptDecision`] if tracing is enabled.
    fn trace_preempt_decision(
        &mut self,
        now: SimTime,
        victim: u32,
        node: usize,
        action: PreemptAction,
        policy: &'static str,
        reason: &'static str,
    ) {
        if self.trace_on {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::PreemptDecision {
                    victim: victim as u64,
                    node: node as u32,
                    action,
                    policy,
                    reason,
                },
            );
        }
    }

    /// Cheap (arithmetic-only) estimate of a victim's next dump size, used
    /// for cost-aware victim ranking without touching page bitmaps.
    fn victim_cost_secs(&self, v: u32, node: usize, now: SimTime) -> f64 {
        let task = &self.tasks[v as usize];
        let mem = task.spec.resources.mem();
        let size = if self.cfg.incremental && self.has_checkpoint(v) {
            let since_sync = now.saturating_since(task.mem_synced).as_secs_f64();
            let already_dirty = task
                .memory
                .as_ref()
                .map(|m| m.dirty_fraction())
                .unwrap_or(0.0);
            let frac = (already_dirty + task.spec.dirty_rate_per_sec * since_sync).min(1.0);
            mem.mul_f64(frac)
        } else {
            mem
        };
        let device = self.plane.device(node);
        let dump = device.spec().write_time(size) + device.spec().read_time(size);
        let queue = device.queue_wait(now);
        let factor = self.device_factor(node, now);
        let mut cost = (dump + queue).as_secs_f64();
        if factor > 1.0 {
            cost *= factor;
        }
        // Fault-aware: expected dump rewrites inflate the victim's cost.
        // With chunked resume a retry rewrites only the suffix past the
        // durable frontier — on average half the image — so resumable
        // victims rank cheaper than they would under full rewrites.
        if let Some(plan) = self.plane.plan() {
            let p = plan.spec().dump_fail_prob;
            if p > 0.0 {
                let expected_retries =
                    (p / (1.0 - p).max(1e-9)).min(plan.max_dump_retries() as f64);
                let rewrite_frac = if plan.resume_enabled() { 0.5 } else { 1.0 };
                cost *= 1.0 + expected_retries * rewrite_frac;
            }
        }
        cost
    }

    /// The only node a victim search for `t` may use: a checkpointed task
    /// that must restore locally is pinned to its origin.
    fn preempt_restrict(&self, t: u32) -> Option<usize> {
        match self.tasks[t as usize].status {
            TaskStatus::Checkpointed { origin }
                if self.cfg.restore_placement == RestorePlacement::LocalOnly
                    || !self.plane.has_dfs() =>
            {
                Some(origin as usize)
            }
            _ => None,
        }
    }

    /// True while the linear test oracle drives the passes: it runs every
    /// probe and search in full, without the indexed pass's shortcuts.
    fn linear(&self) -> bool {
        #[cfg(test)]
        return self.linear;
        #[cfg(not(test))]
        false
    }

    /// Tries to free enough space for pending task `t` by preempting
    /// lower-priority victims on the best node.
    fn try_preempt_for(&mut self, t: u32, now: SimTime, q: &mut EventQueue<Event>) -> Preempted {
        if self.reservations.contains_key(&t) {
            return Preempted::Nothing; // a drain is already in flight for this task
        }
        let demand = self.tasks[t as usize].spec.resources;
        let priority = self.tasks[t as usize].priority;
        let restrict = self.preempt_restrict(t);

        let mut best: Option<(f64, usize, Vec<u32>)> = None;
        for i in 0..self.nodes.len() {
            if !self.nodes[i].up {
                continue;
            }
            if let Some(r) = restrict {
                if i != r {
                    continue;
                }
            }
            let avail = self.free_for(i, t);
            let needed = demand.saturating_sub(&avail);
            if needed.is_zero() {
                continue; // plain placement handles this
            }
            // Collect preemptible lower-priority victims, deterministically
            // ordered.
            let mut victims: Vec<u32> = self.nodes[i]
                .node
                .containers()
                .map(|c| c.task() as u32)
                .filter(|&v| {
                    let task = &self.tasks[v as usize];
                    task.is_preemptible() && task.priority < priority
                })
                .collect();
            // The greedy fill below fails exactly when all eligible victims
            // together cannot cover `needed`: skip ranking them.
            if !self.linear() {
                let eligible: Resources = victims
                    .iter()
                    .map(|&v| self.tasks[v as usize].spec.resources)
                    .sum();
                if !needed.fits_in(&eligible) {
                    continue;
                }
            }
            victims.sort_unstable();
            match self.cfg.victim_selection {
                VictimSelection::CostAware => {
                    // §5.2.2: lowest checkpoint cost first.
                    let mut keyed: Vec<(f64, u32)> = victims
                        .into_iter()
                        .map(|v| (self.victim_cost_secs(v, i, now), v))
                        .collect();
                    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    victims = keyed.into_iter().map(|(_, v)| v).collect();
                }
                VictimSelection::Naive => {
                    // Lowest priority, most recently started first.
                    victims.sort_by_key(|&v| {
                        let task = &self.tasks[v as usize];
                        (task.priority, Reverse(task.run_started))
                    });
                }
            }
            let mut freed = Resources::ZERO;
            let mut chosen = Vec::new();
            let mut cost = 0.0;
            for v in victims {
                if needed.fits_in(&freed) {
                    break;
                }
                cost += self.victim_cost_secs(v, i, now);
                freed += self.tasks[v as usize].spec.resources;
                chosen.push(v);
            }
            if needed.fits_in(&freed) {
                let better = match &best {
                    Some((c, n, _)) => (cost, i) < (*c, *n),
                    None => true,
                };
                if better {
                    best = Some((cost, i, chosen));
                }
            }
        }

        let Some((_, node, victims)) = best else {
            return Preempted::Nothing;
        };
        let mut drains = 0u32;
        for v in victims {
            let sync = self.preempt_victim(v, node, now, q);
            if !sync {
                drains += 1;
                self.drain_owner.insert(v, t);
            }
        }
        if drains > 0 {
            // Earmark the whole demand on this node so backfill cannot
            // steal the capacity the drains are freeing.
            self.reservations.insert(
                t,
                Reservation {
                    node,
                    amount: demand,
                    drains_left: drains,
                },
            );
            self.node_reserved[node] += demand;
            self.fit.invalidate();
            let pos = self.tasks[t as usize].queue_pos.expect("owners are queued");
            self.pending.set_owner(pos, true, &self.tasks);
            Preempted::Draining
        } else {
            Preempted::Freed
        }
    }

    // ---- fault handling (checkpoint failure recovery policies) ---------

    /// Handles a dump attempt that failed (detected when its device
    /// operation completes): while retry budget remains the plane rewrites
    /// the tip after a backoff; once it is exhausted the victim falls back
    /// to a hard kill — the safety net a real NM applies when `criu dump`
    /// keeps erroring.
    fn on_dump_failed(
        &mut self,
        t: u32,
        node: usize,
        epoch: u32,
        attempt: u32,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) {
        let factor = self.device_factor(node, now);
        let resources = self.tasks[t as usize].spec.resources;
        let retry = self.plane.on_dump_failed(
            &mut *self.tracer,
            now,
            (handle_u64(t), node, epoch, attempt),
            factor,
            resources.cores_f64(),
            resources.mem(),
            &mut self.metrics.retry_cpu_secs,
        );
        match retry {
            Some((start, end)) => q.push(
                end,
                Event::DumpDone {
                    task: t,
                    epoch,
                    started: start,
                },
            ),
            None => {
                self.kill_dump_victim(t, node, now);
                self.schedule_pass(now, q);
            }
        }
    }

    /// Kills a `Dumping` victim whose dump could not be completed: the
    /// progress since its last *valid* checkpoint is lost and the task
    /// re-queues (from an older image if one survives in its chain).
    fn kill_dump_victim(&mut self, t: u32, node: usize, now: SimTime) {
        // The victim stopped at eviction; its progress was synced when the
        // dump started, and the failed dump never advanced
        // `checkpointed_progress`.
        let lost = self.tasks[t as usize].progress_at_risk();
        let cores = self.tasks[t as usize].spec.resources.cores_f64();
        self.metrics.charge_kill(lost, cores);
        if self.trace_on {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::TaskEvict {
                    task: t as u64,
                    node: node as u32,
                    reason: "dump-fail",
                },
            );
        }
        self.release_container(t, now);
        // Credit the drain to the blocked task it was serving: the kill
        // freed the resources the reservation was waiting for.
        self.credit_drain(t);
        let has_image = self.has_checkpoint(t);
        let origin = self.plane.tip_origin(handle_u64(t));
        let task = &mut self.tasks[t as usize];
        task.epoch += 1;
        task.progress = task.checkpointed_progress;
        if let Some(mem) = task.memory.as_mut() {
            if has_image {
                mem.clear_dirty();
            } else {
                mem.mark_all_dirty();
            }
        }
        task.status = match origin {
            Some(origin) if has_image => TaskStatus::Checkpointed { origin },
            _ => TaskStatus::Pending,
        };
        self.enqueue_pending_preserving_status(t);
    }

    /// Credits a finished (or abandoned) drain of victim `v` to the
    /// blocked task it was serving.
    fn credit_drain(&mut self, v: u32) {
        if let Some(owner) = self.drain_owner.remove(&v) {
            if let Some(r) = self.reservations.get_mut(&owner) {
                r.drains_left = r.drains_left.saturating_sub(1);
            }
        }
    }

    /// Abandons task `t`'s image for good: the checkpointed progress is
    /// re-execution waste, the chain is discarded, and the task re-queues
    /// as a fresh start.
    fn restart_from_scratch(&mut self, t: u32, now: SimTime) {
        self.metrics.scratch_restarts += 1;
        let cores = self.tasks[t as usize].spec.resources.cores_f64();
        let lost = self.tasks[t as usize].checkpointed_progress;
        self.metrics.kill_lost_cpu_secs += lost.as_secs_f64() * cores;
        self.release_container(t, now);
        self.plane.discard_chain(handle_u64(t));
        let task = &mut self.tasks[t as usize];
        task.epoch += 1;
        task.progress = SimDuration::ZERO;
        task.checkpointed_progress = SimDuration::ZERO;
        if let Some(mem) = task.memory.as_mut() {
            mem.mark_all_dirty();
        }
        task.status = TaskStatus::Pending;
        self.enqueue_pending(t);
    }

    /// Handles the loss of task `t`'s image chain to an HDFS block loss
    /// (replication could not save every block): the chain is unreadable,
    /// so the checkpointed progress is re-execution waste and the task
    /// falls back to a fresh start wherever the image would have been
    /// used next.
    fn drop_lost_chain(&mut self, t: u32, now: SimTime) {
        self.metrics.images_lost_to_failures += 1;
        let key = handle_u64(t);
        match self.tasks[t as usize].status {
            TaskStatus::Restoring { node, .. } => {
                // The in-flight read can no longer complete: abandon it
                // and restart from scratch (the epoch bump staled the
                // queued RestoreDone).
                if self.trace_on {
                    self.tracer.record(
                        now.as_micros(),
                        &TraceRecord::RestoreFail {
                            task: key,
                            node,
                            attempt: self.plane.restore_attempt(key),
                            reason: "blocks-lost",
                            will_retry: false,
                        },
                    );
                }
                self.restart_from_scratch(t, now);
            }
            TaskStatus::Dumping { node, .. } => {
                // The tip being written sat below lost ancestor blocks:
                // the whole chain is useless. Abort the write and fall
                // back to the hard kill (the epoch bump stales DumpDone).
                self.plane.abort_dump(
                    &mut *self.tracer,
                    now,
                    key,
                    node as usize,
                    "node-fail",
                    true,
                );
                self.plane.discard_chain(key);
                self.tasks[t as usize].checkpointed_progress = SimDuration::ZERO;
                self.kill_dump_victim(t, node as usize, now);
            }
            _ => {
                // Running, or queued (fresh or from the now-lost image):
                // silently lose the chain; the next dump must be full and
                // a queued restore degrades to a fresh start.
                self.plane.discard_chain(key);
                drop_checkpoint(&mut self.tasks[t as usize]);
            }
        }
    }

    /// Evicts `t` because its node failed (organically, or through a
    /// chaos-plan crash). Unlike a kill, the eviction is not the
    /// scheduler's choice; unlike a checkpoint, nothing is saved.
    fn fail_task(&mut self, t: u32, node: usize, now: SimTime, chaos: bool) {
        let reason = if chaos { "node-crash" } else { "node-fail" };
        self.tasks[t as usize].sync_progress(now);
        let lost = self.tasks[t as usize].progress_at_risk();
        let cores = self.tasks[t as usize].spec.resources.cores_f64();
        if chaos {
            self.metrics.crash_evictions += 1;
        } else {
            self.metrics.failure_evictions += 1;
        }
        self.metrics.kill_lost_cpu_secs += lost.as_secs_f64() * cores;
        if self.trace_on {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::TaskEvict {
                    task: t as u64,
                    node: node as u32,
                    reason,
                },
            );
        }
        self.release_container(t, now);
        let key = handle_u64(t);
        // An in-flight dump died with the node: abort its half-written tip
        // and close the dangling DumpStart span (the epoch bump below
        // makes the queued DumpDone stale). The aborted write's DFS entry
        // is deleted, not just forgotten: the next dump of this task
        // would collide with a dangling path.
        if matches!(self.tasks[t as usize].status, TaskStatus::Dumping { .. }) {
            self.plane
                .abort_dump(&mut *self.tracer, now, key, node, reason, true);
            self.credit_drain(t);
        }

        // Local-FS images stored on the failed node are gone; HDFS
        // replication keeps DFS-backed chains readable.
        if self.plane.lose_local_images(key, node) {
            self.metrics.images_lost_to_failures += 1;
            self.tasks[t as usize].checkpointed_progress = SimDuration::ZERO;
        }
        if self.nvram_origin.get(&t) == Some(&(node as u32)) {
            self.nvram_origin.remove(&t);
            if let Some(engine) = self.nodes[node].nvram.as_mut() {
                engine.discard(handle_u64(t));
            }
            self.metrics.images_lost_to_failures += 1;
            self.tasks[t as usize].checkpointed_progress = SimDuration::ZERO;
        }
        // The node failure ends any in-flight dump/restore episode.
        self.plane.end_episodes(key);

        let has_image = self.has_checkpoint(t);
        let origin = self.checkpoint_origin(t);
        let task = &mut self.tasks[t as usize];
        task.epoch += 1;
        task.progress = task.checkpointed_progress;
        if let Some(mem) = task.memory.as_mut() {
            if has_image {
                mem.clear_dirty();
            } else {
                mem.mark_all_dirty();
            }
        }
        task.status = match origin {
            Some(origin) if has_image => TaskStatus::Checkpointed { origin },
            _ => TaskStatus::Pending,
        };
        self.enqueue_pending_preserving_status(t);
    }

    /// Takes a node down, evicting everything on it. `chaos` marks a
    /// chaos-plan crash: the trace event is `NodeDown` (vs `NodeFail`),
    /// evictions count as crash evictions, and recovery is the caller's
    /// `ChaosRecover` (the MTBF chain stays untouched).
    fn fail_node(&mut self, node: usize, now: SimTime, q: &mut EventQueue<Event>, chaos: bool) {
        if !self.nodes[node].up {
            return; // already down (stale event)
        }
        self.set_up(node, false);
        if self.trace_on {
            let rec = if chaos {
                TraceRecord::NodeDown { node: node as u32 }
            } else {
                TraceRecord::NodeFail { node: node as u32 }
            };
            self.tracer.record(now.as_micros(), &rec);
        }
        let victims: Vec<u32> = self.nodes[node]
            .node
            .containers()
            .map(|c| c.task() as u32)
            .collect();
        let mut victims = victims;
        victims.sort_unstable();
        for v in victims {
            self.fail_task(v, node, now, chaos);
        }
        // The node's datanode died with it: the NameNode re-replicates
        // every block that lost a replica onto the surviving datanodes
        // (blocks whose only replica lived here are lost for good).
        for key in self.plane.fail_datanode(&mut *self.tracer, now, node) {
            self.drop_lost_chain(key as u32, now);
        }
        // Any reservation earmarked on the failed node is void.
        let voided: Vec<u32> = self
            .reservations
            .iter()
            .filter(|(_, r)| r.node == node)
            .map(|(t, _)| *t)
            .collect();
        for t in voided {
            self.cancel_reservation(t);
        }
        self.update_meter(node, now);
        if !chaos {
            q.push(
                now + self.cfg.failure_downtime,
                Event::NodeRecover(node as u32),
            );
        }
    }

    /// One scheduling pass: serve the pending queue in priority order.
    ///
    /// Makes exactly the decisions of a linear walk over every queued
    /// entry (the `linear` test oracle; DESIGN.md §3.1 has the argument).
    /// While victim-search budget remains every entry is visited. After
    /// that the pass jumps to the next entry that can act; the entries it
    /// jumps over still count against `max_schedule_scan`.
    fn schedule_pass(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        #[cfg(test)]
        if self.linear {
            return self.schedule_pass_linear(now, q);
        }
        let _prof = cbp_prof::scope("schedule_pass");
        self.work.passes += 1;
        let preempts = self.cfg.policy != PreemptionPolicy::Wait;
        let mut preempt_budget = self.cfg.preempt_budget_per_pass;
        let mut max_avail = self.max_available();
        // Victim searches that failed since the last state change: a failed
        // search changes nothing, so an equal key fails again.
        let mut failed: Vec<SearchKey> = Vec::new();
        let mut lo = 0usize;
        let mut scanned = 0usize;
        loop {
            let next = if preempts && preempt_budget > 0 {
                self.pending.first_at_or_after(lo)
            } else {
                self.refresh_fit();
                let fit = &self.fit;
                let next =
                    self.pending
                        .first_candidate(lo, &max_avail, |d| fit.fits_any(d), &self.tasks);
                if let Some((pos, _)) = next {
                    scanned += self.pending.count_range(lo, pos);
                }
                next
            };
            let Some((pos, t)) = next else { break };
            scanned += 1;
            if scanned > self.cfg.max_schedule_scan {
                break;
            }
            lo = pos + 1;
            self.work.pending_visited += 1;
            let pos = pos as u32;
            let demand = self.tasks[t as usize].spec.resources;
            let node = if demand.fits_in(&max_avail) {
                self.choose_node(t, pos, &demand, now)
            } else {
                None
            };
            if let Some(n) = node {
                self.dequeue(t);
                self.place_task(t, n, now, q);
                max_avail = self.max_available();
                failed.clear();
                continue;
            }
            // A reservation whose drains all completed but that still
            // cannot be satisfied has failed its purpose; release the
            // earmark so the task can try elsewhere.
            if self.pending.is_owner(pos)
                && self
                    .reservations
                    .get(&t)
                    .is_some_and(|r| r.drains_left == 0)
            {
                self.cancel_reservation(t);
                failed.clear();
            }
            if !preempts || preempt_budget == 0 {
                continue;
            }
            preempt_budget -= 1;
            self.work.victim_searches += 1;
            let owner = self.pending.is_owner(pos);
            let key = (
                self.tasks[t as usize].priority,
                demand,
                self.preempt_restrict(t),
            );
            if !owner && failed.contains(&key) {
                self.work.victim_searches_memoized += 1;
                continue;
            }
            match self.try_preempt_for(t, now, q) {
                Preempted::Nothing => {
                    if !owner {
                        failed.push(key);
                    }
                }
                Preempted::Draining => failed.clear(),
                Preempted::Freed => {
                    // Kills freed space synchronously: place now.
                    failed.clear();
                    if let Some(n) = self.choose_node(t, pos, &demand, now) {
                        self.dequeue(t);
                        self.place_task(t, n, now, q);
                    }
                    max_avail = self.max_available();
                }
            }
        }
    }

    /// Node choice for queued task `t` at queue position `pos`: the same
    /// answer and side effects as the probe of the linear pass, but a
    /// demand that fits no node costs no probe. For a checkpointed task
    /// only the RNG draw its cost-aware placement would make is replayed.
    fn choose_node(&mut self, t: u32, pos: u32, demand: &Resources, now: SimTime) -> Option<usize> {
        self.refresh_fit();
        // A reservation owner sees its own earmark as free: probe in full.
        let owner = self.pending.is_owner(pos);
        let fits = owner || self.fit.fits_any(demand);
        // Queued tasks are checkpointed exactly when they hold a checkpoint.
        let checkpointed = matches!(
            self.tasks[t as usize].status,
            TaskStatus::Checkpointed { .. }
        );
        debug_assert_eq!(checkpointed, self.has_checkpoint(t));
        if checkpointed {
            if fits {
                return self.choose_restore_node(t, now);
            }
            if self.restore_draws_rng() {
                let _ = self.rng.index(self.nodes.len());
            }
            return None;
        }
        if self.pending.is_ckpt(pos) {
            self.pending.clear_ckpt(pos, &self.tasks);
        }
        let node = if fits {
            self.choose_fresh_node(t, demand)
        } else {
            None
        };
        debug_assert!(
            owner || node.is_some() == fits,
            "fit index disagrees with the probe"
        );
        node
    }

    /// Brings the fit index's frontier up to date.
    fn refresh_fit(&mut self) {
        let nodes = &self.nodes;
        self.fit.refresh(|i| nodes[i].up, &self.node_reserved);
    }

    /// Debug audit of the scheduler indexes, run after every event: the
    /// pending index holds exactly the queued tasks, with exact
    /// reservation flags and a checkpoint flag wherever a restore will
    /// draw from the RNG, and every cached per-node free capacity equals
    /// `Node::available()`.
    #[cfg(debug_assertions)]
    fn assert_index_consistent(&self) {
        let nodes = &self.nodes;
        self.fit.assert_consistent(
            |i| nodes[i].node.available(),
            |i| nodes[i].up,
            &self.node_reserved,
        );
        self.pending.assert_consistent(&self.tasks);
        let mut queued = 0usize;
        for (t, task) in self.tasks.iter().enumerate() {
            // Tasks of jobs not yet submitted have no position.
            let Some(pos) = task.queue_pos else { continue };
            let flags = self.pending.flags(pos);
            let waiting = matches!(
                task.status,
                TaskStatus::Pending | TaskStatus::Checkpointed { .. }
            );
            assert_eq!(flags.is_some(), waiting, "task {t} ({:?})", task.status);
            let Some((owner, ckpt)) = flags else { continue };
            queued += 1;
            let t = t as u32;
            assert_eq!(
                owner,
                self.reservations.contains_key(&t),
                "task {t} owner flag"
            );
            assert!(
                ckpt || !(self.restore_draws_rng() && self.has_checkpoint(t)),
                "task {t} restores through an RNG draw but is not flagged"
            );
        }
        assert_eq!(queued, self.pending.len(), "pending count");
        for owner in self.reservations.keys() {
            let pos = self.tasks[*owner as usize].queue_pos;
            assert!(
                pos.and_then(|p| self.pending.flags(p)).is_some(),
                "reservation owner {owner} is not queued"
            );
        }
    }
}

impl Simulation for ClusterSim {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        // The probe fires before the event so samples reflect pre-event
        // state at exact interval boundaries.
        if self.sampler.is_some() {
            self.sample_up_to(now);
        }
        self.dispatch(now, event, q);
        #[cfg(debug_assertions)]
        {
            self.plane.assert_image_conservation(now);
            self.assert_index_consistent();
        }
        let depth = self.pending.len();
        if self.trace_on && depth != self.last_queue_depth {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::QueueDepth {
                    pending: depth as u64,
                },
            );
        }
        self.last_queue_depth = depth;
    }

    fn event_kind(&self, event: &Event) -> &'static str {
        match event {
            Event::JobSubmit(_) => "job_submit",
            Event::TaskFinish { .. } => "task_finish",
            Event::DumpDone { .. } => "dump_done",
            Event::RestoreDone { .. } => "restore_done",
            Event::NodeFail(_) => "node_fail",
            Event::NodeRecover(_) => "node_recover",
            Event::ChaosCrashTick => "chaos_crash_tick",
            Event::ChaosPartitionTick => "chaos_partition_tick",
            Event::ChaosRecover(_) => "chaos_recover",
            Event::PressureTick => "pressure_tick",
        }
    }
}

impl ClusterSim {
    /// Processes one event (the body of [`Simulation::handle`], separated
    /// so the telemetry probes wrap every arm uniformly).
    fn dispatch(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        match event {
            Event::JobSubmit(job_idx) => {
                let (start, end) = (
                    self.job_start[job_idx as usize],
                    self.job_start[job_idx as usize + 1],
                );
                for t in start as usize..end as usize {
                    if self.trace_on {
                        let priority = self.tasks[t].priority.0;
                        self.tracer.record(
                            now.as_micros(),
                            &TraceRecord::TaskSubmit {
                                task: t as u64,
                                job: job_idx as u64,
                                priority,
                            },
                        );
                    }
                    self.enqueue_pending(t as u32);
                }
                self.schedule_pass(now, q);
            }
            Event::TaskFinish { task, epoch } => {
                if self.tasks[task as usize].epoch != epoch
                    || !matches!(self.tasks[task as usize].status, TaskStatus::Running { .. })
                {
                    return; // stale: the task was preempted meanwhile
                }
                self.tasks[task as usize].sync_progress(now);
                debug_assert!(self.tasks[task as usize].remaining().is_zero());
                debug_assert!(now >= self.tasks[task as usize].submit);
                if self.trace_on {
                    if let TaskStatus::Running { node, .. } = self.tasks[task as usize].status {
                        self.tracer.record(
                            now.as_micros(),
                            &TraceRecord::TaskFinish {
                                task: task as u64,
                                node,
                            },
                        );
                    }
                }
                self.release_container(task, now);
                let cores = self.tasks[task as usize].spec.resources.cores_f64();
                let work = self.tasks[task as usize].spec.duration.as_secs_f64();
                self.metrics.useful_cpu_secs += cores * work;
                self.metrics.tasks_finished += 1;
                self.tasks[task as usize].status = TaskStatus::Finished;
                self.tasks[task as usize].finished_at = Some(now);

                // Drop checkpoint images / NVRAM mirrors.
                self.plane.discard_chain(handle_u64(task));
                if let Some(origin) = self.nvram_origin.remove(&task) {
                    if let Some(engine) = self.nodes[origin as usize].nvram.as_mut() {
                        engine.discard(handle_u64(task));
                    }
                }

                // Job completion.
                let job_idx = self.tasks[task as usize].job_idx as usize;
                self.job_remaining[job_idx] -= 1;
                if self.job_remaining[job_idx] == 0 {
                    let job = &self.workload.jobs()[job_idx];
                    self.metrics
                        .record_response(job.priority.band(), job.latency, job.submit, now);
                }
                self.schedule_pass(now, q);
            }
            Event::DumpDone {
                task,
                epoch,
                started,
            } => {
                if self.tasks[task as usize].epoch != epoch {
                    return;
                }
                let TaskStatus::Dumping { node, .. } = self.tasks[task as usize].status else {
                    return;
                };
                let key = handle_u64(task);
                self.plane.on_advance(node as usize, now);
                // Deterministic fault check: did this dump attempt fail?
                // (NVRAM suspends are memory copies; they do not take the
                // storage fault path.)
                if self.cfg.nvram.is_none() {
                    if let Some(attempt) = self.plane.dump_attempt_failed(key, epoch) {
                        self.on_dump_failed(task, node as usize, epoch, attempt, now, q);
                        return;
                    }
                }
                self.release_container(task, now);
                // Overhead was charged at dump submission; `started` only
                // feeds the trace record. The tip is stamped with the
                // progress it certifies, so a later chain truncation rolls
                // the task back to exactly that.
                let progress = self.tasks[task as usize].progress;
                self.plane.dump_done(
                    &mut *self.tracer,
                    now,
                    key,
                    node as usize,
                    epoch,
                    started,
                    progress.as_micros(),
                );
                if self.cfg.nvram.is_none() {
                    self.plane.draw_image_corruption(key, epoch);
                }
                let task_state = &mut self.tasks[task as usize];
                task_state.checkpointed_progress = progress;
                task_state.status = TaskStatus::Checkpointed { origin: node };
                self.credit_drain(task);
                self.enqueue_pending_preserving_status(task);
                self.schedule_pass(now, q);
            }
            Event::NodeFail(node) => {
                self.fail_node(node as usize, now, q, false);
                self.schedule_pass(now, q);
            }
            Event::ChaosCrashTick => {
                let Some((window, downtime, crashed)) =
                    self.plane.crash_draw(now, |i| self.nodes[i].up)
                else {
                    return;
                };
                for node in crashed {
                    self.fail_node(node, now, q, true);
                    // Parse-time validation guarantees downtime < window,
                    // so the node is back before its next crash draw.
                    q.push(now + downtime, Event::ChaosRecover(node as u32));
                }
                // Stop ticking once the workload drained, else the tick
                // chain keeps the run alive forever.
                if !self.job_remaining.iter().all(|&r| r == 0) {
                    q.push(now + window, Event::ChaosCrashTick);
                }
                self.schedule_pass(now, q);
            }
            Event::ChaosPartitionTick => {
                let drained = self.job_remaining.iter().all(|&r| r == 0);
                if let Some(window) = self.plane.partition_tick(&mut *self.tracer, now, drained) {
                    q.push(now + window, Event::ChaosPartitionTick);
                }
            }
            Event::PressureTick => {
                // Orphaned dump directories reserve device bytes no image
                // owns (simulating an NM that forgets to clean up).
                let nodes = &self.nodes;
                let Some(window) = self.plane.inject_leaks(now, |i| nodes[i].up) else {
                    return;
                };
                // Stop ticking once the workload drained, else the tick
                // chain keeps the run alive forever.
                if !self.job_remaining.iter().all(|&r| r == 0) {
                    q.push(now + window, Event::PressureTick);
                }
            }
            Event::ChaosRecover(node) => {
                if self.nodes[node as usize].up {
                    return; // stale (never expected, but harmless)
                }
                self.set_up(node as usize, true);
                // Re-registration: the datanode rejoins empty (its blocks
                // were re-replicated or lost at crash time).
                self.plane.recover_datanode(node as usize);
                if self.trace_on {
                    self.tracer
                        .record(now.as_micros(), &TraceRecord::NodeUp { node });
                }
                self.schedule_pass(now, q);
            }
            Event::NodeRecover(node) => {
                self.set_up(node as usize, true);
                // The datanode rejoins empty (its blocks were already
                // re-replicated or lost at failure time).
                self.plane.recover_datanode(node as usize);
                if self.trace_on {
                    self.tracer
                        .record(now.as_micros(), &TraceRecord::NodeRecover { node });
                }
                self.schedule_next_failure(node as usize, now, q);
                self.schedule_pass(now, q);
            }
            Event::RestoreDone {
                task,
                epoch,
                started,
            } => {
                if self.tasks[task as usize].epoch != epoch {
                    return;
                }
                let TaskStatus::Restoring { node, container } = self.tasks[task as usize].status
                else {
                    return;
                };
                let (key, at) = (handle_u64(task), node as usize);
                self.plane.on_advance(at, now);
                let cores = self.tasks[task as usize].spec.resources.cores_f64();
                let factor = self.device_factor(at, now);
                // Chunk-level integrity validation first (resume mode):
                // corrupt chunks re-fetch from replicas, unrepairable
                // images truncate the chain to its longest valid prefix
                // (rolling progress back to the surviving tip), and an
                // empty prefix scratch-restarts.
                match self.plane.validate_restored_chain(
                    &mut *self.tracer,
                    now,
                    (key, at, epoch),
                    started,
                    cores,
                    factor,
                    &mut self.metrics.retry_cpu_secs,
                ) {
                    Validation::Intact => {}
                    Validation::Truncated { progress_us, op } => {
                        let task_state = &mut self.tasks[task as usize];
                        task_state.checkpointed_progress = SimDuration::from_micros(progress_us);
                        task_state.progress = task_state.checkpointed_progress;
                        q.push(
                            op.end,
                            Event::RestoreDone {
                                task,
                                epoch,
                                started: op.start,
                            },
                        );
                        return;
                    }
                    Validation::Dead => {
                        self.restart_from_scratch(task, now);
                        self.schedule_pass(now, q);
                        return;
                    }
                }
                // Deterministic fault check: did this restore attempt fail
                // (transiently, or because the image is corrupt)? Transient
                // failures retry from a surviving replica on the same
                // placement; corrupt images and exhausted budgets restart
                // from scratch.
                let failed = match self.cfg.nvram {
                    Some(_) => None,
                    None => self.plane.restore_attempt_failed(key, epoch),
                };
                if let Some((attempt, corrupt)) = failed {
                    let retry = self.plane.on_restore_failed(
                        &mut *self.tracer,
                        now,
                        (key, at, attempt, corrupt),
                        started,
                        cores,
                        factor,
                        &mut self.metrics.retry_cpu_secs,
                    );
                    match retry {
                        Some(op) => q.push(
                            op.end,
                            Event::RestoreDone {
                                task,
                                epoch,
                                started: op.start,
                            },
                        ),
                        None => {
                            self.restart_from_scratch(task, now);
                            self.schedule_pass(now, q);
                        }
                    }
                    return;
                }
                self.plane
                    .restore_done(&mut *self.tracer, now, key, at, started);
                // The remote flag was already recorded at placement time.
                self.metrics
                    .charge_restore(now.since(started), cores, false);
                let task_state = &mut self.tasks[task as usize];
                task_state.status = TaskStatus::Running { node, container };
                task_state.run_started = now;
                task_state.mem_synced = now;
                if let Some(mem) = task_state.memory.as_mut() {
                    mem.clear_dirty();
                }
                let finish = now + task_state.remaining();
                let epoch = task_state.epoch;
                q.push(finish, Event::TaskFinish { task, epoch });
            }
        }
    }
}

/// Task `t`'s queue group under `cfg`'s discipline.
fn queue_group(cfg: &SimConfig, t: &TaskState) -> QueueGroup {
    let slot = match cfg.queue_discipline {
        QueueDiscipline::Fifo => 0,
        QueueDiscipline::Fair => t.spec.id.index as usize,
    };
    (t.priority.0, slot)
}

fn clamp_to_node(mut spec: TaskSpec, node: Resources) -> TaskSpec {
    let cpu = spec.resources.cpu_milli().min(node.cpu_milli());
    let mem = spec.resources.mem().min(node.mem());
    spec.resources = Resources::new(cpu, mem);
    spec
}

fn handle_u64(t: u32) -> u64 {
    t as u64
}

/// Extension trait used to derive DFS seeds from the run seed.
trait NextSeed {
    fn next_seed(self) -> u64;
}
impl NextSeed for SimRng {
    fn next_seed(mut self) -> u64 {
        use rand::RngCore;
        self.next_u64()
    }
}
