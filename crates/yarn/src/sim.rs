//! The YARN protocol simulation.

use cbp_checkpoint::{CheckpointPlane, Criu, TaskView, Validation};
use cbp_cluster::{Container, ContainerId, EnergyMeter, Node, NodeId};
use cbp_core::{PreemptionPolicy, RunTotals, TelemetryReport};
use cbp_dfs::DfsCluster;
use cbp_faults::FaultPlan;
use cbp_simkit::stats::Samples;
use cbp_simkit::{
    run_until_observed, EventQueue, RunStats, SimDuration, SimRng, SimTime, Simulation,
};
use cbp_telemetry::{MetricsRegistry, NullTracer, PreemptAction, TraceRecord, Tracer};
use cbp_workload::{PriorityBand, Workload};

use std::collections::HashMap;

use cbp_workload::JobId;

use crate::components::{
    preemption_decision, AmTask, AmTaskStatus, AppMaster, PreemptDecision, QueueKind,
    ResourceManager,
};
use crate::config::YarnConfig;
use crate::report::YarnReport;

/// Protocol events (public as [`YarnSim`]'s associated event type).
#[derive(Debug, Clone, Copy)]
pub enum YarnEvent {
    /// A client submits a job; its AM registers with the RM.
    JobSubmit(u32),
    /// The RM runs a scheduling (and, if needed, preemption) pass.
    RmSchedule,
    /// An AM's Preemption Manager handles a `ContainerPreemptEvent`.
    PreemptDecision {
        /// Application.
        app: u32,
        /// Task index within the application.
        task: u32,
        /// Staleness guard.
        epoch: u32,
    },
    /// A checkpoint dump completed; the AM releases the container.
    DumpDone {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard.
        epoch: u32,
        /// When the dump was initiated (for overhead accounting).
        started: SimTime,
    },
    /// A restore completed; the task resumes.
    RestoreDone {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard.
        epoch: u32,
        /// When the restore was initiated.
        started: SimTime,
    },
    /// A container's task completed.
    TaskFinish {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard.
        epoch: u32,
    },
    /// The NodeManager's grace period for a preempted container expired:
    /// if its dump is still in flight, abort it and force-kill.
    ForceKill {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard (the epoch assigned when the dump started).
        epoch: u32,
    },
    /// The RM's escalation deadline for an unresponsive AM expired: the
    /// preemption request was ignored, so the RM force-kills the
    /// container itself (liveness backstop, fault injection only).
    AmEscalate {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard (the epoch when the request was ignored).
        epoch: u32,
    },
    /// Chaos-plan window boundary: evaluate the stateless crash oracle
    /// for every node (and rack) in the window starting now.
    ChaosCrashTick,
    /// Chaos-plan window boundary: evaluate which rack (if any) the
    /// partition oracle isolates for the window starting now.
    ChaosPartitionTick,
    /// A chaos-crashed node comes back and its datanode re-registers.
    ChaosRecover(u32),
    /// Pressure-plan window boundary: inject leaked checkpoint-store
    /// reservations (orphaned dump directories the NM forgot to clean)
    /// on the nodes the leak oracle selects for the window starting now.
    PressureTick,
}

struct NodeManager {
    node: Node,
    meter: EnergyMeter,
    /// False while a chaos-plan crash holds the node (and its NM) down.
    up: bool,
}

/// The YARN cluster simulation (see the [crate docs](crate) for the
/// component roles).
pub struct YarnSim {
    cfg: YarnConfig,
    workload: Workload,
    nms: Vec<NodeManager>,
    rm: ResourceManager,
    apps: Vec<AppMaster>,
    /// NM checkpoint stores, HDFS, recovery ladders and fault plan.
    plane: CheckpointPlane,
    /// MapReduce phase barriers per job (empty for single-phase workloads).
    barriers: HashMap<JobId, u32>,
    next_container: u64,
    total_slots: u32,
    // metrics
    kills: u64,
    checkpoints: u64,
    restores: u64,
    remote_restores: u64,
    capacity_fallbacks: u64,
    force_kills: u64,
    am_escalations: u64,
    crash_evictions: u64,
    kill_lost_cpu_secs: f64,
    dump_overhead_cpu_secs: f64,
    restore_overhead_cpu_secs: f64,
    useful_cpu_secs: f64,
    tasks_finished: u64,
    low_responses: Samples,
    high_responses: Samples,
    /// Structured-event sink ([`NullTracer`] by default).
    tracer: Box<dyn Tracer>,
    /// Cached `tracer.enabled()` so the disabled path costs one branch.
    trace_on: bool,
    /// Total container count of the workload — the chaos tick chains
    /// stop once `tasks_finished` reaches it so they cannot keep an
    /// otherwise-drained run alive.
    total_tasks: u64,
}

fn task_key(app: u32, task: u32) -> u64 {
    ((app as u64) << 32) | task as u64
}

/// The plane's view of the YARN cluster's tasks and NodeManagers.
struct View<'a> {
    apps: &'a mut [AppMaster],
    nms: &'a [NodeManager],
}

impl View<'_> {
    fn task(&self, key: u64) -> &AmTask {
        &self.apps[(key >> 32) as usize].tasks[key as u32 as usize]
    }
}

impl TaskView for View<'_> {
    fn node_up(&self, node: usize) -> bool {
        self.nms[node].up
    }

    fn in_episode(&self, key: u64) -> bool {
        matches!(
            self.task(key).status,
            AmTaskStatus::Dumping { .. } | AmTaskStatus::Restoring { .. }
        )
    }

    fn chain_value(&self, key: u64) -> f64 {
        let t = self.task(key);
        t.checkpointed_progress.as_secs_f64() * t.spec.resources.cores_f64()
    }

    fn chain_dropped(&mut self, key: u64) {
        drop_checkpoint(&mut self.apps[(key >> 32) as usize].tasks[key as u32 as usize]);
    }
}

/// Degrades a task whose chain is gone: the next dump must be full, and a
/// task queued on the image restarts from scratch in place (it already
/// sits in the launch queue).
fn drop_checkpoint(t: &mut AmTask) {
    t.checkpointed_progress = SimDuration::ZERO;
    if let Some(mem) = t.memory.as_mut() {
        mem.mark_all_dirty();
    }
    if matches!(
        t.status,
        AmTaskStatus::Waiting | AmTaskStatus::Suspended { .. }
    ) {
        t.progress = SimDuration::ZERO;
        t.status = AmTaskStatus::Waiting;
    }
}

impl YarnSim {
    /// Builds a YARN cluster for `workload`.
    pub fn new(cfg: YarnConfig, workload: Workload) -> Self {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let faults = cfg
            .faults
            .clone()
            .filter(|spec| !spec.is_inert())
            .map(FaultPlan::new);
        let nms = (0..cfg.nodes)
            .map(|i| NodeManager {
                node: Node::new(NodeId(i as u32), cfg.node_resources),
                meter: EnergyMeter::new(cfg.energy),
                up: true,
            })
            .collect();
        let dfs = DfsCluster::homogeneous(cfg.dfs, cfg.media, cfg.nodes, {
            use rand::RngCore;
            rng.next_u64()
        });
        // Slots are CPU-bound in the paper's setup (24 one-core containers).
        let per_node = workload
            .jobs()
            .first()
            .and_then(|j| j.tasks.first())
            .map(|t| {
                let by_cpu = cfg.node_resources.cpu_milli() / t.resources.cpu_milli().max(1);
                let by_mem = cfg.node_resources.mem().as_u64() / t.resources.mem().as_u64().max(1);
                by_cpu.min(by_mem) as u32
            })
            .unwrap_or(1);
        let total_slots = per_node * cfg.nodes as u32;
        let total_tasks = workload.jobs().iter().map(|j| j.tasks.len() as u64).sum();
        // The pressure plan shrinks every NM's checkpoint store. HDFS
        // datanodes keep the medium's natural capacity: pressure models
        // NM-local store exhaustion, and shrinking the DFS as well would
        // perturb block placement in every non-pressure scenario too.
        let plane = CheckpointPlane::new(
            Criu::new(cfg.incremental),
            cfg.media,
            cfg.nodes,
            faults,
            Some(dfs),
            cfg.lifecycle,
        );

        YarnSim {
            total_tasks,
            rm: ResourceManager::new(),
            apps: Vec::with_capacity(workload.job_count()),
            plane,
            barriers: HashMap::new(),
            nms,
            cfg,
            workload,
            next_container: 1,
            total_slots,
            kills: 0,
            checkpoints: 0,
            restores: 0,
            remote_restores: 0,
            capacity_fallbacks: 0,
            force_kills: 0,
            am_escalations: 0,
            crash_evictions: 0,
            kill_lost_cpu_secs: 0.0,
            dump_overhead_cpu_secs: 0.0,
            restore_overhead_cpu_secs: 0.0,
            useful_cpu_secs: 0.0,
            tasks_finished: 0,
            low_responses: Samples::new(),
            high_responses: Samples::new(),
            tracer: Box::new(NullTracer),
            trace_on: false,
        }
    }

    /// Replaces the structured-event tracer. The default is a
    /// [`NullTracer`]; pass a `JsonlTracer` / `ChromeTraceTracer` /
    /// `MultiTracer` to capture the run. The tracer's `finish()` is called
    /// at the end of the run.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.trace_on = tracer.enabled();
        self.tracer = tracer;
    }

    /// Attaches MapReduce phase barriers (reduces start only after all of a
    /// job's maps finish). Keys are [`JobId`]s of the workload's jobs.
    pub fn with_barriers(mut self, barriers: HashMap<JobId, u32>) -> Self {
        self.barriers = barriers;
        self
    }

    /// Runs the workload to completion.
    pub fn run(self) -> YarnReport {
        self.run_with_telemetry().0
    }

    /// Runs the workload to completion, additionally returning the
    /// [`TelemetryReport`] (the `subsystem.metric` registry plus engine
    /// throughput stats). [`YarnReport`] itself is unchanged, so existing
    /// consumers are unaffected.
    pub fn run_with_telemetry(mut self) -> (YarnReport, TelemetryReport) {
        let mut queue = EventQueue::new();
        for (i, job) in self.workload.jobs().iter().enumerate() {
            queue.push(job.submit, YarnEvent::JobSubmit(i as u32));
        }
        if let Some(plan) = self.plane.plan() {
            if plan.crash().is_some() {
                queue.push(SimTime::ZERO, YarnEvent::ChaosCrashTick);
            }
            if plan.partition().is_some() {
                queue.push(SimTime::ZERO, YarnEvent::ChaosPartitionTick);
            }
            if plan.pressure().is_some_and(|p| p.leak_prob > 0.0) {
                queue.push(SimTime::ZERO, YarnEvent::PressureTick);
            }
        }
        let stats = run_until_observed(&mut self, &mut queue, SimTime::MAX, &mut |_| {});
        let makespan = stats.now;
        self.tracer.finish();

        let energy_kwh = self.nms.iter().map(|n| n.meter.kwh(makespan)).sum();
        let registry = self.build_registry(makespan, energy_kwh, &stats);
        let p = *self.plane.stats();
        let telemetry = TelemetryReport {
            registry,
            timeseries: None,
            engine_events: stats.events,
            engine_wall_secs: stats.wall.as_secs_f64(),
            // The scheduler work counters cover the trace simulator.
            ..TelemetryReport::default()
        };
        let report = YarnReport {
            label: format!("{}-{}", self.cfg.policy, self.cfg.media.kind()),
            makespan_secs: makespan.as_secs_f64(),
            jobs_finished: self.apps.iter().filter(|a| a.finished_at.is_some()).count() as u64,
            tasks_finished: self.tasks_finished,
            kills: self.kills,
            checkpoints: self.checkpoints,
            incremental_checkpoints: self.plane.incremental_dumps(),
            restores: self.restores,
            remote_restores: self.remote_restores,
            capacity_fallbacks: self.capacity_fallbacks,
            gc_reclaimed_bytes: p.gc_reclaimed_bytes,
            evicted_chains: p.evicted_chains,
            spill_dumps: p.spill_dumps,
            no_space_kills: p.no_space_kills,
            force_kills: self.force_kills,
            dump_fail_kills: p.dump_fail_kills,
            am_escalations: self.am_escalations,
            crash_evictions: self.crash_evictions,
            breaker_open_kills: p.breaker_open_kills,
            breaker_open_secs: self.plane.breaker_open_secs(makespan),
            resumed_dumps: p.resumed_dumps,
            resumed_bytes: p.resumed_bytes,
            chunk_refetches: p.chunk_refetches,
            chain_truncations: p.chain_truncations,
            integrity_scratch_restarts: p.integrity_scratch_restarts,
            kill_lost_cpu_hours: self.kill_lost_cpu_secs / 3600.0,
            dump_overhead_cpu_hours: self.dump_overhead_cpu_secs / 3600.0,
            restore_overhead_cpu_hours: self.restore_overhead_cpu_secs / 3600.0,
            useful_cpu_hours: self.useful_cpu_secs / 3600.0,
            energy_kwh,
            io_overhead_fraction: self.plane.io_busy_fraction(makespan.since(SimTime::ZERO)),
            storage_peak_fraction: self.plane.peak_used_fraction(),
            low_responses: self.low_responses,
            high_responses: self.high_responses,
        };
        (report, telemetry)
    }

    /// Snapshots the run's `subsystem.metric` values. Everything here is a
    /// pure function of simulation state, so the registry JSON is
    /// byte-stable per seed.
    fn build_registry(
        &self,
        makespan: SimTime,
        energy_kwh: f64,
        stats: &RunStats,
    ) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.plane.register(&mut reg, makespan);
        reg.set_counter("engine.events", "events", stats.events);
        reg.set_counter("scheduler.kills", "ops", self.kills);
        reg.set_counter("scheduler.checkpoints", "ops", self.checkpoints);
        reg.set_counter("scheduler.restores", "ops", self.restores);
        reg.set_counter("scheduler.remote_restores", "ops", self.remote_restores);
        reg.set_counter(
            "scheduler.capacity_fallbacks",
            "ops",
            self.capacity_fallbacks,
        );
        reg.set_counter("scheduler.force_kills", "ops", self.force_kills);
        reg.set_counter("faults.am_escalations", "ops", self.am_escalations);
        reg.set_counter("faults.crash_evictions", "ops", self.crash_evictions);
        reg.set_counter("scheduler.tasks_finished", "ops", self.tasks_finished);
        reg.set_counter(
            "scheduler.jobs_finished",
            "ops",
            self.apps.iter().filter(|a| a.finished_at.is_some()).count() as u64,
        );
        RunTotals {
            makespan,
            energy_kwh,
            useful_cpu_secs: self.useful_cpu_secs,
            kill_lost_cpu_secs: self.kill_lost_cpu_secs,
            dump_overhead_cpu_secs: self.dump_overhead_cpu_secs,
            restore_overhead_cpu_secs: self.restore_overhead_cpu_secs,
        }
        .register(
            &mut reg,
            self.low_responses
                .values()
                .iter()
                .chain(self.high_responses.values())
                .copied(),
        );
        reg
    }

    fn update_meter(&mut self, node: usize, now: SimTime) {
        let util = self.nms[node].node.cpu_utilization();
        self.nms[node].meter.set_utilization(now, util);
    }

    fn release_container(&mut self, app: u32, task: u32, now: SimTime) {
        let (node, cid) = match self.apps[app as usize].tasks[task as usize].status {
            AmTaskStatus::Running { node, container }
            | AmTaskStatus::Dumping { node, container }
            | AmTaskStatus::Restoring { node, container } => (node as usize, container),
            _ => return,
        };
        self.nms[node].node.release(cid).expect("container on node");
        self.update_meter(node, now);
    }

    /// The RM's scheduling pass: grant free slots production-first, then
    /// preempt the default queue if production is still starved.
    fn rm_schedule(&mut self, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        let _prof = cbp_prof::scope("rm_schedule_pass");
        // Allocation loop: serve head-of-line asks against the *actual*
        // demand of the task the AM will launch next (map and reduce
        // containers differ in size).
        while let Some(app) = self.rm.peek_grant() {
            let Some(&task) = self.apps[app as usize].launch_queue.front() else {
                // Ask-count drift (e.g. a task finished another way):
                // consume the stale ask and continue.
                let _ = self.rm.next_grant();
                continue;
            };
            let demand = self.apps[app as usize].tasks[task as usize].spec.resources;
            let Some(node) =
                (0..self.nms.len()).find(|&i| self.nms[i].up && self.nms[i].node.can_fit(&demand))
            else {
                break; // head-of-line blocking: preemption may clear it
            };
            let granted = self.rm.next_grant();
            debug_assert_eq!(granted, Some(app));
            self.launch_on(app, node, now, q);
        }

        // Preemption: production asks still pending?
        if self.cfg.policy == PreemptionPolicy::Wait {
            return;
        }
        let pending_prod = self.rm.pending(QueueKind::Production);
        if pending_prod == 0 {
            return;
        }
        let prod_running = self.count_running(QueueKind::Production);
        let allowed = (self.cfg.prod_queue_guarantee * self.total_slots as f64).floor() as u32;
        let claimable = allowed.saturating_sub(prod_running);
        let needed = pending_prod.min(claimable);
        if needed == 0 {
            return;
        }

        // Candidates: running default-queue containers without an
        // outstanding preempt request; cost-aware ranking (§5.2.2).
        let mut candidates: Vec<(f64, u64)> = Vec::new();
        for (ai, am) in self.apps.iter().enumerate() {
            if am.queue != QueueKind::Default {
                continue;
            }
            for (ti, t) in am.tasks.iter().enumerate() {
                if t.preempt_requested {
                    continue;
                }
                if let AmTaskStatus::Running { node, .. } = t.status {
                    let key = task_key(ai as u32, ti as u32);
                    candidates.push((self.checkpoint_cost_secs(key, t, node as usize, now), key));
                }
            }
        }
        let victims = ResourceManager::select_victims(candidates, needed as usize);
        for key in victims {
            let (app, task) = ((key >> 32) as u32, key as u32);
            let am_task = &mut self.apps[app as usize].tasks[task as usize];
            am_task.preempt_requested = true;
            let epoch = am_task.epoch;
            // ContainerPreemptEvent travels RM -> AM.
            q.push(
                now + self.cfg.rpc_delay,
                YarnEvent::PreemptDecision { app, task, epoch },
            );
        }
    }

    /// Cheap (arithmetic) checkpoint-cost estimate used for victim ranking.
    fn checkpoint_cost_secs(&self, key: u64, t: &AmTask, node: usize, now: SimTime) -> f64 {
        let mem = t.spec.resources.mem();
        let size = if self.cfg.incremental && self.plane.has_dfs_paths(key) {
            let since = now.saturating_since(t.mem_synced).as_secs_f64();
            let dirty = t.memory.as_ref().map(|m| m.dirty_fraction()).unwrap_or(0.0);
            mem.mul_f64((dirty + t.spec.dirty_rate_per_sec * since).min(1.0))
        } else {
            mem
        };
        let device = self.plane.device(node);
        let spec = device.spec();
        let cost =
            (spec.write_time(size) + spec.read_time(size) + device.queue_wait(now)).as_secs_f64();
        // Victim ranking sees the same partition penalty the actual
        // dump/restore transfers would pay (the DFS write pipeline and
        // remote restore reads cross the partition boundary), steering
        // preemption away from the isolated rack.
        cost * self.plane.partition_factor(node).max(1.0)
    }

    fn count_running(&self, queue: QueueKind) -> u32 {
        self.apps
            .iter()
            .filter(|a| a.queue == queue)
            .flat_map(|a| a.tasks.iter())
            .filter(|t| {
                matches!(
                    t.status,
                    AmTaskStatus::Running { .. }
                        | AmTaskStatus::Dumping { .. }
                        | AmTaskStatus::Restoring { .. }
                )
            })
            .count() as u32
    }

    /// Launches `app`'s next queued task on `node` (fresh start or restore).
    fn launch_on(&mut self, app: u32, node: usize, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        let Some(task) = self.apps[app as usize].next_launch() else {
            return; // stale grant (ask count drifted); nothing to run
        };
        let cid = ContainerId(self.next_container);
        self.next_container += 1;
        let demand = self.apps[app as usize].tasks[task as usize].spec.resources;
        self.nms[node]
            .node
            .allocate(Container::new(cid, demand, task_key(app, task)))
            .expect("grant checked can_fit");
        self.update_meter(node, now);

        let key = task_key(app, task);
        let has_image = self.plane.has_image(key);
        if self.trace_on {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::TaskSchedule {
                    task: key,
                    node: node as u32,
                    restore: has_image,
                },
            );
        }
        if has_image {
            let origin = match self.apps[app as usize].tasks[task as usize].status {
                AmTaskStatus::Suspended { origin } => origin,
                _ => unreachable!("image implies suspended"),
            };
            if origin != node as u32 {
                self.remote_restores += 1;
            }
            // Restore: read every image in the chain from HDFS. Blocks
            // hosted outside an isolated rack pay the partition penalty.
            let factor = self.plane.partition_factor(node);
            let op = self
                .plane
                .start_restore(&mut *self.tracer, now, key, (node, origin), factor);
            let am_task = &mut self.apps[app as usize].tasks[task as usize];
            am_task.status = AmTaskStatus::Restoring {
                node: node as u32,
                container: cid,
            };
            let epoch = am_task.epoch;
            // `started` is the service start: queue wait burns no CPU.
            q.push(
                op.end,
                YarnEvent::RestoreDone {
                    app,
                    task,
                    epoch,
                    started: op.start,
                },
            );
        } else {
            // The container pays its startup (localization + JVM spawn)
            // before useful execution begins.
            let started = now + self.cfg.container_startup;
            let am_task = &mut self.apps[app as usize].tasks[task as usize];
            am_task.status = AmTaskStatus::Running {
                node: node as u32,
                container: cid,
            };
            am_task.run_started = started;
            am_task.mem_synced = started;
            let epoch = am_task.epoch;
            q.push(
                started + am_task.remaining(),
                YarnEvent::TaskFinish { app, task, epoch },
            );
        }
    }

    /// Kills a running container: at-risk progress is lost; the AM re-asks.
    fn kill(&mut self, app: u32, task: u32, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        self.kill_with_reason(app, task, now, q, "kill");
    }

    /// [`Self::kill`] with an explicit trace eviction reason, so
    /// AM-escalation kills stay distinguishable from scheduler-initiated
    /// kills in the trace (`"am-escalate"` vs `"kill"`).
    fn kill_with_reason(
        &mut self,
        app: u32,
        task: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
        reason: &'static str,
    ) {
        self.kills += 1;
        self.evict_container(app, task, now, q, reason);
    }

    /// Tears a container down and re-queues its task: progress since the
    /// last valid checkpoint is lost, the AM re-asks and the RM
    /// reschedules. Shared by scheduler kills and chaos crashes — the
    /// caller accounts the eviction (`kills` vs `crash_evictions`)
    /// before calling so node crashes don't inflate the scheduler's
    /// kill counter.
    fn evict_container(
        &mut self,
        app: u32,
        task: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
        reason: &'static str,
    ) {
        let am_task = &mut self.apps[app as usize].tasks[task as usize];
        am_task.sync_progress(now);
        let lost = am_task.progress_at_risk();
        let cores = am_task.spec.resources.cores_f64();
        self.kill_lost_cpu_secs += lost.as_secs_f64() * cores;
        if self.trace_on {
            let node = match self.apps[app as usize].tasks[task as usize].status {
                AmTaskStatus::Running { node, .. }
                | AmTaskStatus::Dumping { node, .. }
                | AmTaskStatus::Restoring { node, .. } => node,
                _ => u32::MAX,
            };
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::TaskEvict {
                    task: task_key(app, task),
                    node,
                    reason,
                },
            );
        }
        self.release_container(app, task, now);

        let key = task_key(app, task);
        let has_image = self.plane.has_image(key);
        let am_task = &mut self.apps[app as usize].tasks[task as usize];
        am_task.epoch += 1;
        am_task.preemptions += 1;
        am_task.preempt_requested = false;
        am_task.progress = am_task.checkpointed_progress;
        if let Some(mem) = am_task.memory.as_mut() {
            if has_image {
                mem.clear_dirty();
            } else {
                mem.mark_all_dirty();
            }
        }
        am_task.status = if has_image {
            let origin = self.plane.tip_origin(key).expect("image has a tip");
            AmTaskStatus::Suspended { origin }
        } else {
            AmTaskStatus::Waiting
        };
        self.apps[app as usize].requeue(task);
        self.rm.add_asks(app, 1);
        q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
    }

    /// Suspends a running container with a CRIU dump to HDFS.
    fn dump(&mut self, app: u32, task: u32, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        let (node, cid) = match self.apps[app as usize].tasks[task as usize].status {
            AmTaskStatus::Running { node, container } => (node as usize, container),
            _ => unreachable!("dump target must be running"),
        };
        let key = task_key(app, task);
        let am_task = &mut self.apps[app as usize].tasks[task as usize];
        am_task.sync_progress(now);
        am_task.sync_memory(now);
        let size = self
            .plane
            .next_dump_size(key, am_task.memory.as_ref().expect("synced"));
        let epoch = am_task.epoch;
        let mut view = View {
            apps: &mut self.apps,
            nms: &self.nms,
        };
        let Some(origin) =
            self.plane
                .admit_dump(&mut *self.tracer, now, key, node, size, &mut view)
        else {
            self.capacity_fallbacks += 1;
            self.kill(app, task, now, q);
            return;
        };
        // A rack partition degrades the DFS write pipeline out of the
        // isolated rack.
        let slowdown = (node, self.plane.partition_factor(node));
        let mem = self.apps[app as usize].tasks[task as usize]
            .memory
            .as_mut()
            .expect("synced");
        let Some(dump) = self.plane.write_dump(
            &mut *self.tracer,
            now,
            key,
            node,
            origin,
            size,
            slowdown,
            move |n| format!("/ckpt/{app}/{task}/{epoch}/{n}"),
            mem,
        ) else {
            self.capacity_fallbacks += 1;
            self.kill(app, task, now, q);
            return;
        };
        self.checkpoints += 1;
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
        let am_task = &mut self.apps[app as usize].tasks[task as usize];
        // CPU wastage counts the dump's service time only: a queued victim
        // is stopped and burns no CPU (queueing still delays resource
        // release through the DumpDone event time).
        self.dump_overhead_cpu_secs +=
            dump.op.end.since(dump.op.start).as_secs_f64() * am_task.spec.resources.cores_f64();
        am_task.status = AmTaskStatus::Dumping {
            node: node as u32,
            container: cid,
        };
        am_task.epoch += 1;
        am_task.preemptions += 1;
        let epoch = am_task.epoch;
        q.push(
            dump.op.end,
            YarnEvent::DumpDone {
                app,
                task,
                epoch,
                // Device service start, so the trace's dump span is
                // service time and `start_us - evict time` is the
                // checkpoint queue wait (mirrors RestoreDone).
                started: dump.op.start,
            },
        );
        if let Some(grace) = self.cfg.graceful_timeout {
            q.push(now + grace, YarnEvent::ForceKill { app, task, epoch });
        }
    }

    /// Handles a failed dump attempt: while retry budget remains the NM
    /// rewrites the tip after a backoff (resuming past the durable chunk
    /// frontier with chunked resume). Once exhausted, the Preemption
    /// Manager's fallback is the stock-YARN one: the half-written image is
    /// aborted and the container transitions through the kill path the NM
    /// uses for a grace-period expiry.
    #[allow(clippy::too_many_arguments)]
    fn on_dump_failed(
        &mut self,
        app: u32,
        task: u32,
        node: u32,
        epoch: u32,
        attempt: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
    ) {
        let resources = self.apps[app as usize].tasks[task as usize].spec.resources;
        let retry = self.plane.on_dump_failed(
            &mut *self.tracer,
            now,
            (task_key(app, task), node as usize, epoch, attempt),
            self.plane.partition_factor(node as usize),
            resources.cores_f64(),
            resources.mem(),
            &mut self.dump_overhead_cpu_secs,
        );
        match retry {
            Some((start, end)) => q.push(
                end,
                YarnEvent::DumpDone {
                    app,
                    task,
                    epoch,
                    started: start,
                },
            ),
            None => self.kill_held_container(app, task, now, q),
        }
    }

    /// Kills a container whose dump was abandoned: it still holds its
    /// resources, so it transitions through a kill.
    fn kill_held_container(
        &mut self,
        app: u32,
        task: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
    ) {
        let am_task = &mut self.apps[app as usize].tasks[task as usize];
        let AmTaskStatus::Dumping { node, container } = am_task.status else {
            unreachable!("an abandoned dump leaves its container in Dumping")
        };
        am_task.status = AmTaskStatus::Running { node, container };
        self.kill(app, task, now, q);
    }

    /// A chaos-plan crash takes `node` (NM + datanode) down: every
    /// container on it is lost, in-flight dumps are aborted, and the
    /// NameNode re-replicates the blocks that lost a replica. Recovery
    /// is scheduled by the caller ([`YarnEvent::ChaosRecover`]).
    fn crash_node(&mut self, node: usize, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        if !self.nms[node].up {
            return; // already down (stale event)
        }
        self.nms[node].up = false;
        if self.trace_on {
            self.tracer.record(
                now.as_micros(),
                &TraceRecord::NodeDown { node: node as u32 },
            );
        }
        let mut victims: Vec<u64> = self.nms[node].node.containers().map(|c| c.task()).collect();
        victims.sort_unstable();
        for key in victims {
            let (app, task) = ((key >> 32) as u32, key as u32);
            self.crash_victim(app, task, now, q);
        }
        // The node's datanode died with it: re-replicate every block that
        // lost a replica onto the survivors; blocks whose only replica
        // lived here are gone, breaking the image chains stacked on them.
        for key in self.plane.fail_datanode(&mut *self.tracer, now, node) {
            self.drop_lost_chain((key >> 32) as u32, key as u32, now, q);
        }
        self.update_meter(node, now);
        q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
    }

    /// Evicts one container lost to a node crash. Unlike a kill the
    /// eviction is not the scheduler's choice, so it counts as a
    /// `crash_eviction`; an in-flight dump dies with the node.
    fn crash_victim(&mut self, app: u32, task: u32, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        self.abort_crashed_dump(app, task, now);
        self.crash_evictions += 1;
        self.evict_container(app, task, now, q, "node-crash");
    }

    /// If `task` is dumping, aborts the half-written tip and closes the
    /// dangling dump span (the eviction's epoch bump stales the queued
    /// DumpDone), leaving the held container to be evicted as a running
    /// one.
    fn abort_crashed_dump(&mut self, app: u32, task: u32, now: SimTime) {
        let am_task = &self.apps[app as usize].tasks[task as usize];
        if let AmTaskStatus::Dumping { node, container } = am_task.status {
            self.plane.abort_dump(
                &mut *self.tracer,
                now,
                task_key(app, task),
                node as usize,
                "node-crash",
                true,
            );
            self.apps[app as usize].tasks[task as usize].status =
                AmTaskStatus::Running { node, container };
        }
    }

    /// A replication repair could not save `task`'s image chain: discard
    /// it for good. The checkpointed progress becomes re-execution waste
    /// and the task degrades to a fresh start; an in-flight dump or
    /// restore stacked on the lost ancestors is aborted and its container
    /// evicted (a live task keeps its in-memory progress; only the safety
    /// net is gone).
    fn drop_lost_chain(
        &mut self,
        app: u32,
        task: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
    ) {
        let in_flight = matches!(
            self.apps[app as usize].tasks[task as usize].status,
            AmTaskStatus::Dumping { .. } | AmTaskStatus::Restoring { .. }
        );
        self.abort_crashed_dump(app, task, now);
        self.drop_chain(app, task);
        if in_flight {
            self.crash_evictions += 1;
            self.evict_container(app, task, now, q, "node-crash");
        }
    }

    /// Forgets `task`'s checkpoint chain: storage is released, the DFS
    /// files are deleted and the task degrades (see [`drop_checkpoint`]).
    fn drop_chain(&mut self, app: u32, task: u32) {
        self.plane.discard_chain(task_key(app, task));
        drop_checkpoint(&mut self.apps[app as usize].tasks[task as usize]);
    }
}

/// Short stable policy name for trace records.
fn policy_name(policy: PreemptionPolicy) -> &'static str {
    match policy {
        PreemptionPolicy::Wait => "wait",
        PreemptionPolicy::Kill => "kill",
        PreemptionPolicy::Checkpoint => "checkpoint",
        PreemptionPolicy::Adaptive => "adaptive",
    }
}

impl YarnSim {
    /// The event dispatcher proper. [`Simulation::handle`] wraps it so
    /// the image-ledger conservation invariant runs after every event —
    /// the early `return`s inside the match cannot skip it.
    fn dispatch(&mut self, now: SimTime, event: YarnEvent, q: &mut EventQueue<YarnEvent>) {
        match event {
            YarnEvent::JobSubmit(app) => {
                let job = &self.workload.jobs()[app as usize];
                let queue = if job.priority.band() == PriorityBand::Production {
                    QueueKind::Production
                } else {
                    QueueKind::Default
                };
                let am = match self.barriers.get(&job.id) {
                    Some(&barrier) => {
                        AppMaster::new_with_barrier(app, queue, job.submit, &job.tasks, barrier)
                    }
                    None => AppMaster::new(app, queue, job.submit, &job.tasks),
                };
                if self.trace_on {
                    let priority = job.priority.0;
                    for ti in 0..job.tasks.len() {
                        self.tracer.record(
                            now.as_micros(),
                            &TraceRecord::TaskSubmit {
                                task: task_key(app, ti as u32),
                                job: app as u64,
                                priority,
                            },
                        );
                    }
                }
                let asks = am.launch_queue.len() as u32;
                self.apps.push(am);
                self.rm.register_app(app, queue);
                self.rm.add_asks(app, asks);
                q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
            }
            YarnEvent::RmSchedule => {
                self.rm_schedule(now, q);
            }
            YarnEvent::PreemptDecision { app, task, epoch } => {
                let am_task = &self.apps[app as usize].tasks[task as usize];
                if am_task.epoch != epoch || !matches!(am_task.status, AmTaskStatus::Running { .. })
                {
                    return; // finished or already transitioned
                }
                let node = match am_task.status {
                    AmTaskStatus::Running { node, .. } => node as usize,
                    _ => unreachable!(),
                };
                // Fault injection: an unresponsive AM drops the
                // ContainerPreemptEvent on the floor. The RM notices the
                // missed deadline (`graceful_timeout`, or the plan's
                // escalation backstop when none is configured) and
                // escalates to a forced kill so the production ask is
                // never starved forever.
                if let Some(plan) = self.plane.plan() {
                    if plan.am_unresponsive(task_key(app, task), epoch) {
                        let wait = self
                            .cfg
                            .graceful_timeout
                            .unwrap_or_else(|| plan.escalation_timeout());
                        q.push(now + wait, YarnEvent::AmEscalate { app, task, epoch });
                        return;
                    }
                }
                // Algorithm 1 needs the current dirty estimate.
                self.apps[app as usize].tasks[task as usize].sync_progress(now);
                self.apps[app as usize].tasks[task as usize].sync_memory(now);
                let mut decision = {
                    let am_task = &self.apps[app as usize].tasks[task as usize];
                    let est = self.plane.estimate(
                        task_key(app, task),
                        am_task.memory.as_ref().expect("synced"),
                        node,
                        now,
                    );
                    preemption_decision(self.cfg.policy, am_task.progress_at_risk(), &est)
                };
                // Circuit breaker: while the checkpoint path on `node` is
                // considered down, the Preemption Manager degrades to the
                // stock-YARN kill instead of risking another dump.
                let breaker_kill = decision == PreemptDecision::Checkpoint
                    && !self.plane.breaker_allows(node, now);
                if breaker_kill {
                    decision = PreemptDecision::Kill;
                }
                if self.trace_on {
                    let (action, reason) = if breaker_kill {
                        (PreemptAction::Kill, "breaker-open")
                    } else {
                        match (self.cfg.policy, decision) {
                            (PreemptionPolicy::Adaptive, PreemptDecision::Checkpoint) => {
                                (PreemptAction::Checkpoint, "progress-at-risk")
                            }
                            (PreemptionPolicy::Adaptive, PreemptDecision::Kill) => {
                                (PreemptAction::Kill, "overhead-exceeds-risk")
                            }
                            (_, PreemptDecision::Checkpoint) => {
                                (PreemptAction::Checkpoint, "policy")
                            }
                            (_, PreemptDecision::Kill) => (PreemptAction::Kill, "policy"),
                        }
                    };
                    self.tracer.record(
                        now.as_micros(),
                        &TraceRecord::PreemptDecision {
                            victim: task_key(app, task),
                            node: node as u32,
                            action,
                            policy: policy_name(self.cfg.policy),
                            reason,
                        },
                    );
                }
                if breaker_kill {
                    self.plane
                        .breaker_kill(&mut *self.tracer, now, task_key(app, task), node);
                }
                match decision {
                    PreemptDecision::Kill => self.kill(app, task, now, q),
                    PreemptDecision::Checkpoint => self.dump(app, task, now, q),
                }
            }
            YarnEvent::ForceKill { app, task, epoch } => {
                let am_task = &self.apps[app as usize].tasks[task as usize];
                if am_task.epoch != epoch {
                    return; // the dump completed in time
                }
                let AmTaskStatus::Dumping { node, .. } = am_task.status else {
                    return;
                };
                // Abort the half-written dump and kill the container. The
                // NM's forced kill leaves the partial DFS file behind.
                self.force_kills += 1;
                self.plane.abort_dump(
                    &mut *self.tracer,
                    now,
                    task_key(app, task),
                    node as usize,
                    "grace-expired",
                    false,
                );
                self.kill_held_container(app, task, now, q);
            }
            YarnEvent::AmEscalate { app, task, epoch } => {
                let am_task = &self.apps[app as usize].tasks[task as usize];
                if am_task.epoch != epoch {
                    return; // the task moved on (finished or was dumped)
                }
                let AmTaskStatus::Running { node, .. } = am_task.status else {
                    return;
                };
                self.am_escalations += 1;
                if self.trace_on {
                    let plan = self.plane.plan().expect("escalation requires a plan");
                    let waited = self
                        .cfg
                        .graceful_timeout
                        .unwrap_or_else(|| plan.escalation_timeout());
                    self.tracer.record(
                        now.as_micros(),
                        &TraceRecord::AmEscalate {
                            task: task_key(app, task),
                            node,
                            waited_us: waited.as_micros(),
                        },
                    );
                }
                self.kill_with_reason(app, task, now, q, "am-escalate");
            }
            YarnEvent::DumpDone {
                app,
                task,
                epoch,
                started,
            } => {
                let am_task = &self.apps[app as usize].tasks[task as usize];
                if am_task.epoch != epoch {
                    return;
                }
                let AmTaskStatus::Dumping { node, .. } = am_task.status else {
                    return;
                };
                let key = task_key(app, task);
                self.plane.on_advance(node as usize, now);
                // Fault injection: the NM's `criu dump` errored.
                if let Some(attempt) = self.plane.dump_attempt_failed(key, epoch) {
                    self.on_dump_failed(app, task, node, epoch, attempt, now, q);
                    return;
                }
                self.release_container(app, task, now);
                // The tip is stamped with the progress it certifies, so a
                // later chain truncation rolls the task back to exactly
                // that; with chunked resume, corruption lands per chunk in
                // its manifest, repairable by a replica re-fetch.
                let progress = self.apps[app as usize].tasks[task as usize].progress;
                self.plane.dump_done(
                    &mut *self.tracer,
                    now,
                    key,
                    node as usize,
                    epoch,
                    started,
                    progress.as_micros(),
                );
                let am_task = &mut self.apps[app as usize].tasks[task as usize];
                am_task.checkpointed_progress = progress;
                am_task.preempt_requested = false;
                am_task.status = AmTaskStatus::Suspended { origin: node };
                self.apps[app as usize].requeue(task);
                self.rm.add_asks(app, 1);
                q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
            }
            YarnEvent::RestoreDone {
                app,
                task,
                epoch,
                started,
            } => {
                let am_task = &self.apps[app as usize].tasks[task as usize];
                if am_task.epoch != epoch {
                    return;
                }
                let AmTaskStatus::Restoring { node, container } = am_task.status else {
                    return;
                };
                let (key, at) = (task_key(app, task), node as usize);
                self.plane.on_advance(at, now);
                let cores = self.apps[app as usize].tasks[task as usize]
                    .spec
                    .resources
                    .cores_f64();
                // Chunked-resume integrity: validate the chain before the
                // restored state is trusted. A truncation re-reads the
                // shorter chain in place (same node, same episode); a dead
                // chain restarts the task from scratch on its container.
                match self.plane.validate_restored_chain(
                    &mut *self.tracer,
                    now,
                    (key, at, epoch),
                    started,
                    cores,
                    self.plane.partition_factor(at),
                    &mut self.restore_overhead_cpu_secs,
                ) {
                    Validation::Intact => {}
                    Validation::Truncated { progress_us, op } => {
                        let am_task = &mut self.apps[app as usize].tasks[task as usize];
                        am_task.checkpointed_progress = SimDuration::from_micros(progress_us);
                        am_task.progress = am_task.checkpointed_progress;
                        q.push(
                            op.end,
                            YarnEvent::RestoreDone {
                                app,
                                task,
                                epoch,
                                started: op.start,
                            },
                        );
                        return;
                    }
                    Validation::Dead => {
                        // The checkpointed progress is re-execution waste.
                        let lost =
                            self.apps[app as usize].tasks[task as usize].checkpointed_progress;
                        self.kill_lost_cpu_secs += lost.as_secs_f64() * cores;
                        self.drop_chain(app, task);
                        // The task restarts from scratch on the container
                        // it holds: a fresh (non-restore) schedule, so the
                        // trace shows a new run beginning after the failed
                        // restore instead of a finish out of nowhere.
                        if self.trace_on {
                            self.tracer.record(
                                now.as_micros(),
                                &TraceRecord::TaskSchedule {
                                    task: key,
                                    node,
                                    restore: false,
                                },
                            );
                        }
                        let startup = self.cfg.container_startup;
                        let am_task = &mut self.apps[app as usize].tasks[task as usize];
                        am_task.progress = SimDuration::ZERO;
                        am_task.status = AmTaskStatus::Running { node, container };
                        am_task.run_started = now + startup;
                        am_task.mem_synced = am_task.run_started;
                        let epoch = am_task.epoch;
                        q.push(
                            am_task.run_started + am_task.remaining(),
                            YarnEvent::TaskFinish { app, task, epoch },
                        );
                        return;
                    }
                }
                self.restores += 1;
                self.plane
                    .restore_done(&mut *self.tracer, now, key, at, started);
                let am_task = &mut self.apps[app as usize].tasks[task as usize];
                self.restore_overhead_cpu_secs += now.since(started).as_secs_f64() * cores;
                am_task.status = AmTaskStatus::Running { node, container };
                am_task.run_started = now;
                am_task.mem_synced = now;
                if let Some(mem) = am_task.memory.as_mut() {
                    mem.clear_dirty();
                }
                let epoch = am_task.epoch;
                q.push(
                    now + am_task.remaining(),
                    YarnEvent::TaskFinish { app, task, epoch },
                );
            }
            YarnEvent::TaskFinish { app, task, epoch } => {
                let am_task = &self.apps[app as usize].tasks[task as usize];
                if am_task.epoch != epoch || !matches!(am_task.status, AmTaskStatus::Running { .. })
                {
                    return;
                }
                self.apps[app as usize].tasks[task as usize].sync_progress(now);
                if self.trace_on {
                    if let AmTaskStatus::Running { node, .. } =
                        self.apps[app as usize].tasks[task as usize].status
                    {
                        self.tracer.record(
                            now.as_micros(),
                            &TraceRecord::TaskFinish {
                                task: task_key(app, task),
                                node,
                            },
                        );
                    }
                }
                self.release_container(app, task, now);
                let am_task = &mut self.apps[app as usize].tasks[task as usize];
                am_task.status = AmTaskStatus::Done;
                let cores = am_task.spec.resources.cores_f64();
                let work = am_task.spec.duration.as_secs_f64();
                self.useful_cpu_secs += cores * work;
                self.tasks_finished += 1;

                self.plane.discard_chain(task_key(app, task));

                let am = &mut self.apps[app as usize];
                let released_reduces = am.on_task_done(task);
                if released_reduces > 0 {
                    self.rm.add_asks(app, released_reduces);
                }
                let am = &mut self.apps[app as usize];
                if am.unfinished == 0 {
                    am.finished_at = Some(now);
                    let response = now.since(am.submit).as_secs_f64();
                    match am.queue {
                        QueueKind::Default => self.low_responses.push(response),
                        QueueKind::Production => self.high_responses.push(response),
                    }
                }
                q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
            }
            YarnEvent::ChaosCrashTick => {
                let Some((window, downtime, crashed)) =
                    self.plane.crash_draw(now, |i| self.nms[i].up)
                else {
                    return;
                };
                for node in crashed {
                    self.crash_node(node, now, q);
                    // Parse-time validation guarantees downtime < window,
                    // so the node is back before its next crash draw.
                    q.push(now + downtime, YarnEvent::ChaosRecover(node as u32));
                }
                // Stop ticking once the workload drained, else the tick
                // chain keeps the run alive forever.
                if self.tasks_finished < self.total_tasks {
                    q.push(now + window, YarnEvent::ChaosCrashTick);
                }
            }
            YarnEvent::ChaosPartitionTick => {
                let drained = self.tasks_finished >= self.total_tasks;
                if let Some(window) = self.plane.partition_tick(&mut *self.tracer, now, drained) {
                    q.push(now + window, YarnEvent::ChaosPartitionTick);
                }
            }
            YarnEvent::ChaosRecover(node) => {
                if self.nms[node as usize].up {
                    return; // stale (never expected, but harmless)
                }
                self.nms[node as usize].up = true;
                // Re-registration: the datanode rejoins empty (its blocks
                // were re-replicated or lost at crash time).
                self.plane.recover_datanode(node as usize);
                if self.trace_on {
                    self.tracer
                        .record(now.as_micros(), &TraceRecord::NodeUp { node });
                }
                q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
            }
            YarnEvent::PressureTick => {
                let nms = &self.nms;
                let Some(window) = self.plane.inject_leaks(now, |i| nms[i].up) else {
                    return;
                };
                // Stop ticking once the workload drained, else the tick
                // chain keeps the run alive forever.
                if self.tasks_finished < self.total_tasks {
                    q.push(now + window, YarnEvent::PressureTick);
                }
            }
        }
    }
}

impl Simulation for YarnSim {
    type Event = YarnEvent;

    fn handle(&mut self, now: SimTime, event: YarnEvent, q: &mut EventQueue<YarnEvent>) {
        self.dispatch(now, event, q);
        #[cfg(debug_assertions)]
        self.plane.assert_image_conservation(now);
    }

    fn event_kind(&self, event: &YarnEvent) -> &'static str {
        match event {
            YarnEvent::JobSubmit(_) => "job_submit",
            YarnEvent::RmSchedule => "rm_schedule",
            YarnEvent::PreemptDecision { .. } => "preempt_decision",
            YarnEvent::DumpDone { .. } => "dump_done",
            YarnEvent::RestoreDone { .. } => "restore_done",
            YarnEvent::TaskFinish { .. } => "task_finish",
            YarnEvent::ForceKill { .. } => "force_kill",
            YarnEvent::AmEscalate { .. } => "am_escalate",
            YarnEvent::ChaosCrashTick => "chaos_crash_tick",
            YarnEvent::ChaosPartitionTick => "chaos_partition_tick",
            YarnEvent::ChaosRecover(_) => "chaos_recover",
            YarnEvent::PressureTick => "pressure_tick",
        }
    }
}
