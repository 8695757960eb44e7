//! Trace analysis reproducing the paper's §2 methodology.
//!
//! The paper detects preemption in the Google trace with the criterion of
//! Cavdar et al.: *"if a higher priority task is scheduled on the same
//! machine within five seconds after the lower priority job was evicted,
//! then we count that the lower priority job was preempted due to preemptive
//! scheduling."* [`PreemptionCollector`] applies exactly that rule to the
//! scheduler's task-lifecycle records (`task_submit`, `task_schedule`,
//! `task_evict`, `task_finish` in the [`TraceRecord`] stream) as they
//! arrive, and [`PreemptionCollector::analysis`] aggregates:
//!
//! * preemption rate per priority band over time (Fig. 1a),
//! * share of all preemptions per priority 0–11 (Fig. 1b),
//! * per-task preemption-count distribution (Fig. 1c),
//! * scheduled/preempted counts per band (Table 1) and latency class
//!   (Table 2),
//! * wasted CPU-hours between schedule and eviction (the "up to 35% of
//!   total usage" estimate).
//!
//! The collector is a [`Tracer`]: install it on a `ClusterSim` (through a
//! shared `Rc<RefCell<_>>` handle, so the result can be read after the
//! run) and it derives the analysis from the same record stream the JSONL
//! trace is written from. Latency class and CPU demand are not in the
//! stream; the collector takes them from the [`Workload`], whose tasks
//! ClusterSim numbers densely in job order.
//!
//! ```
//! use std::{cell::RefCell, rc::Rc};
//! use cbp_telemetry::{TraceRecord, Tracer};
//! use cbp_workload::analysis::PreemptionCollector;
//! use cbp_workload::google::GoogleTraceConfig;
//!
//! let workload = GoogleTraceConfig::small(10.0).generate(1);
//! let collector = Rc::new(RefCell::new(PreemptionCollector::new(&workload)));
//! let mut tracer: Box<dyn Tracer> = Box::new(Rc::clone(&collector));
//! tracer.record(0, &TraceRecord::TaskSchedule { task: 0, node: 3, restore: false });
//! tracer.record(10_000_000, &TraceRecord::TaskFinish { task: 0, node: 3 });
//! let analysis = collector.borrow().analysis();
//! assert_eq!(analysis.overall.scheduled_tasks, 1);
//! assert_eq!(analysis.overall.preemptions, 0);
//! ```

use cbp_simkit::{SimDuration, SimTime};
use cbp_telemetry::{TraceRecord, Tracer};
use serde::{Deserialize, Serialize};

use crate::spec::{LatencyClass, Priority, PriorityBand, Workload};

/// Per-category scheduled/preempted counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupCounts {
    /// Distinct tasks that were scheduled at least once.
    pub scheduled_tasks: u64,
    /// Distinct tasks preempted at least once.
    pub preempted_tasks: u64,
    /// Total preemption events.
    pub preemptions: u64,
}

impl GroupCounts {
    /// Fraction of scheduled tasks that were preempted at least once
    /// (Table 1 / Table 2's "Percent Preempted").
    pub fn preempted_fraction(&self) -> f64 {
        if self.scheduled_tasks == 0 {
            0.0
        } else {
            self.preempted_tasks as f64 / self.scheduled_tasks as f64
        }
    }
}

/// The output of the §2 analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreemptionAnalysis {
    /// The detection window (the paper uses 5 s).
    pub window: SimDuration,
    /// Counters per priority level 0–11.
    pub per_priority: [GroupCounts; 12],
    /// Counters per priority band.
    pub per_band: [(PriorityBand, GroupCounts); 3],
    /// Counters per latency class 0–3.
    pub per_latency: [GroupCounts; 4],
    /// Overall counters.
    pub overall: GroupCounts,
    /// For Fig. 1c: `histogram[k]` = tasks preempted exactly `k+1` times,
    /// for k in 0..9; `histogram[9]` = tasks preempted ≥ 10 times.
    pub preemption_count_histogram: [u64; 10],
    /// For Fig. 1a: per time bucket, per band, (scheduled, preempted-task)
    /// counts.
    pub timeline: Vec<TimelineBucket>,
    /// CPU-hours lost between schedule and eviction (waste under kill-based
    /// preemption).
    pub wasted_cpu_hours: f64,
    /// CPU-hours successfully used (schedule → finish).
    pub useful_cpu_hours: f64,
}

/// One bucket of the Fig. 1a timeline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TimelineBucket {
    /// Bucket start time.
    pub start: SimTime,
    /// Per band: (tasks scheduled in this bucket, of which preempted later
    /// events in this bucket).
    pub per_band: [(u64, u64); 3],
}

fn band_index(p: Priority) -> usize {
    match p.band() {
        PriorityBand::Free => 0,
        PriorityBand::Middle => 1,
        PriorityBand::Production => 2,
    }
}

/// One task's static attributes and analysis state.
#[derive(Debug)]
struct TaskAcc {
    priority: Priority,
    latency: LatencyClass,
    cores: f64,
    scheduled: bool,
    preemptions: u64,
    /// Start of the current placement, if the task is on a machine.
    running_since: Option<SimTime>,
}

/// An eviction whose detection window is still open.
#[derive(Debug)]
struct Eviction {
    time: SimTime,
    task: usize,
}

/// The counters the analysis reports.
#[derive(Debug)]
struct Tally {
    per_priority: [GroupCounts; 12],
    per_band: [GroupCounts; 3],
    per_latency: [GroupCounts; 4],
    overall: GroupCounts,
    /// Per timeline bucket, per band: (scheduled, preempted).
    timeline: Vec<[(u64, u64); 3]>,
    wasted_secs: f64,
    useful_secs: f64,
}

impl Tally {
    /// The four groups `task` counts toward.
    fn groups(&mut self, task: &TaskAcc) -> [&mut GroupCounts; 4] {
        [
            &mut self.per_priority[task.priority.0 as usize],
            &mut self.per_band[band_index(task.priority)],
            &mut self.per_latency[task.latency.0 as usize],
            &mut self.overall,
        ]
    }
}

/// Streaming §2 analysis over the task-lifecycle records of a trace-sim
/// run.
///
/// State is O(tasks) plus the evictions whose window is still open: each
/// eviction waits in its machine's buffer until a strictly-higher-priority
/// task is scheduled there strictly after it and within the window
/// (counted as a preemption) or a later schedule on that machine falls
/// outside the window (dropped).
///
/// CPU demand is the workload's declared per-task demand; ClusterSim
/// clamps a demand larger than one node to the node's size, so waste for
/// such tasks is counted at the declared size.
///
/// # Panics
///
/// [`Tracer::record`] panics on a lifecycle record whose task handle is
/// not a task of the workload.
#[derive(Debug)]
pub struct PreemptionCollector {
    window: SimDuration,
    bucket_us: u64,
    tasks: Vec<TaskAcc>,
    /// Open evictions per machine, in time order.
    evictions: Vec<Vec<Eviction>>,
    tally: Tally,
}

impl PreemptionCollector {
    /// A collector with the paper's 5-second window and 1-day timeline
    /// buckets.
    pub fn new(workload: &Workload) -> Self {
        Self::with_window(
            workload,
            SimDuration::from_secs(5),
            SimDuration::from_secs(86_400),
        )
    }

    /// A collector with explicit detection window and timeline bucket
    /// size.
    pub fn with_window(workload: &Workload, window: SimDuration, bucket: SimDuration) -> Self {
        let tasks = workload
            .jobs()
            .iter()
            .flat_map(|job| {
                job.tasks.iter().map(|spec| TaskAcc {
                    priority: job.priority,
                    latency: job.latency,
                    cores: spec.resources.cores_f64(),
                    scheduled: false,
                    preemptions: 0,
                    running_since: None,
                })
            })
            .collect();
        PreemptionCollector {
            window,
            bucket_us: bucket.as_micros().max(1),
            tasks,
            evictions: Vec::new(),
            tally: Tally {
                per_priority: [GroupCounts::default(); 12],
                per_band: [GroupCounts::default(); 3],
                per_latency: [GroupCounts::default(); 4],
                overall: GroupCounts::default(),
                timeline: vec![[(0, 0); 3]],
                wasted_secs: 0.0,
                useful_secs: 0.0,
            },
        }
    }

    /// The analysis of every record seen so far.
    pub fn analysis(&self) -> PreemptionAnalysis {
        let mut histogram = [0u64; 10];
        for task in self.tasks.iter().filter(|t| t.preemptions > 0) {
            histogram[(task.preemptions as usize - 1).min(9)] += 1;
        }
        let t = &self.tally;
        PreemptionAnalysis {
            window: self.window,
            per_priority: t.per_priority,
            per_band: [
                (PriorityBand::Free, t.per_band[0]),
                (PriorityBand::Middle, t.per_band[1]),
                (PriorityBand::Production, t.per_band[2]),
            ],
            per_latency: t.per_latency,
            overall: t.overall,
            preemption_count_histogram: histogram,
            timeline: t
                .timeline
                .iter()
                .enumerate()
                .map(|(i, per_band)| TimelineBucket {
                    start: SimTime::from_micros(i as u64 * self.bucket_us),
                    per_band: *per_band,
                })
                .collect(),
            wasted_cpu_hours: t.wasted_secs / 3600.0,
            useful_cpu_hours: t.useful_secs / 3600.0,
        }
    }

    /// The timeline bucket of `now`, extending the timeline to it: the
    /// horizon is the last task-lifecycle record.
    fn bucket(&mut self, now: SimTime) -> usize {
        let idx = (now.as_micros() / self.bucket_us) as usize;
        if idx >= self.tally.timeline.len() {
            self.tally.timeline.resize(idx + 1, [(0, 0); 3]);
        }
        idx
    }

    fn on_schedule(&mut self, now: SimTime, task: usize, machine: usize) {
        // Settle the machine's open evictions: a strictly-higher-priority
        // task scheduled in (t, t + window] preempted the evicted one.
        let priority = self.tasks[task].priority;
        if let Some(open) = self.evictions.get_mut(machine) {
            let (window, bucket_us) = (self.window, self.bucket_us);
            let (tasks, tally) = (&mut self.tasks, &mut self.tally);
            open.retain(|e| {
                if now > e.time + window {
                    return false;
                }
                let victim = &mut tasks[e.task];
                if now <= e.time || priority <= victim.priority {
                    return true;
                }
                victim.preemptions += 1;
                let first = victim.preemptions == 1;
                for g in tally.groups(victim) {
                    g.preempted_tasks += first as u64;
                    g.preemptions += 1;
                }
                let idx = (e.time.as_micros() / bucket_us) as usize;
                tally.timeline[idx][band_index(victim.priority)].1 += 1;
                false
            });
        }

        let bucket = self.bucket(now);
        let acc = &mut self.tasks[task];
        if !acc.scheduled {
            acc.scheduled = true;
            for g in self.tally.groups(acc) {
                g.scheduled_tasks += 1;
            }
        }
        self.tally.timeline[bucket][band_index(acc.priority)].0 += 1;
        acc.running_since = Some(now);
    }

    fn on_evict(&mut self, now: SimTime, task: usize, machine: usize) {
        self.bucket(now);
        if machine >= self.evictions.len() {
            self.evictions.resize_with(machine + 1, Vec::new);
        }
        self.evictions[machine].push(Eviction { time: now, task });
        let acc = &mut self.tasks[task];
        if let Some(t0) = acc.running_since.take() {
            self.tally.wasted_secs += now.since(t0).as_secs_f64() * acc.cores;
        }
    }

    fn on_finish(&mut self, now: SimTime, task: usize) {
        self.bucket(now);
        let acc = &mut self.tasks[task];
        if let Some(t0) = acc.running_since.take() {
            self.tally.useful_secs += now.since(t0).as_secs_f64() * acc.cores;
        }
    }
}

impl Tracer for PreemptionCollector {
    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        let now = SimTime::from_micros(t_us);
        match *rec {
            TraceRecord::TaskSubmit { .. } => {
                self.bucket(now);
            }
            TraceRecord::TaskSchedule { task, node, .. } => {
                self.on_schedule(now, task as usize, node as usize)
            }
            TraceRecord::TaskEvict { task, node, .. } => {
                self.on_evict(now, task as usize, node as usize)
            }
            TraceRecord::TaskFinish { task, .. } => self.on_finish(now, task as usize),
            _ => {}
        }
    }
}

impl PreemptionAnalysis {
    /// Fig. 1b: each priority level's share of all preemption events.
    pub fn preemption_share_per_priority(&self) -> [f64; 12] {
        let total = self.overall.preemptions.max(1) as f64;
        let mut shares = [0.0; 12];
        for (i, c) in self.per_priority.iter().enumerate() {
            shares[i] = c.preemptions as f64 / total;
        }
        shares
    }

    /// Fraction of preempted tasks that were preempted more than once
    /// (the paper reports 43.5%).
    pub fn repeat_preemption_fraction(&self) -> f64 {
        let total: u64 = self.preemption_count_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let repeats: u64 = self.preemption_count_histogram[1..].iter().sum();
        repeats as f64 / total as f64
    }

    /// Wasted CPU-hours as a fraction of all consumed CPU-hours
    /// (useful + wasted); the paper reports "up to 35%".
    pub fn waste_fraction(&self) -> f64 {
        let total = self.wasted_cpu_hours + self.useful_cpu_hours;
        if total == 0.0 {
            0.0
        } else {
            self.wasted_cpu_hours / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobId, JobSpec, TaskId, TaskSpec};
    use cbp_cluster::Resources;
    use cbp_simkit::units::ByteSize;

    /// One single-task, one-core, latency-class-0 job per priority; task
    /// handle `i` is job `i`.
    fn workload(priorities: &[u8]) -> Workload {
        let jobs = priorities
            .iter()
            .enumerate()
            .map(|(i, &p)| JobSpec {
                id: JobId(i as u64),
                submit: SimTime::ZERO,
                priority: Priority::new(p),
                latency: LatencyClass::new(0),
                tasks: vec![TaskSpec {
                    id: TaskId {
                        job: JobId(i as u64),
                        index: 0,
                    },
                    resources: Resources::new_cores(1, ByteSize::from_gb(1)),
                    duration: SimDuration::from_secs(1),
                    dirty_rate_per_sec: 0.0,
                }],
            })
            .collect();
        Workload::new(jobs)
    }

    enum Ev {
        Schedule(u32),
        Evict(u32),
        Finish,
    }

    /// Feeds `(secs, task, event)` records to a collector with the
    /// paper's window.
    fn analyze(priorities: &[u8], events: &[(u64, u64, Ev)]) -> PreemptionAnalysis {
        let mut c = PreemptionCollector::new(&workload(priorities));
        for (secs, task, ev) in events {
            let task = *task;
            let rec = match *ev {
                Ev::Schedule(node) => TraceRecord::TaskSchedule {
                    task,
                    node,
                    restore: false,
                },
                Ev::Evict(node) => TraceRecord::TaskEvict {
                    task,
                    node,
                    reason: "kill",
                },
                Ev::Finish => TraceRecord::TaskFinish { task, node: 0 },
            };
            c.record(secs * 1_000_000, &rec);
        }
        c.analysis()
    }

    use Ev::*;

    #[test]
    fn detects_preemption_within_window() {
        // Higher-priority task scheduled 3 s later on the same machine.
        let a = analyze(
            &[0, 9],
            &[
                (0, 0, Schedule(0)),
                (100, 0, Evict(0)),
                (103, 1, Schedule(0)),
            ],
        );
        assert_eq!(a.overall.preemptions, 1);
        assert_eq!(a.overall.preempted_tasks, 1);
        assert_eq!(a.per_band[0].1.preemptions, 1);
    }

    #[test]
    fn ignores_eviction_outside_window() {
        let a = analyze(
            &[0, 9],
            &[
                (0, 0, Schedule(0)),
                (100, 0, Evict(0)),
                (106, 1, Schedule(0)),
            ],
        );
        assert_eq!(a.overall.preemptions, 0);
    }

    #[test]
    fn window_end_is_inclusive_and_same_tick_is_excluded() {
        let a = analyze(
            &[0, 9, 0, 9],
            &[
                (0, 0, Schedule(0)),
                (0, 2, Schedule(1)),
                (100, 0, Evict(0)),
                // Same tick as the eviction: not a successor.
                (100, 1, Schedule(0)),
                (100, 2, Evict(1)),
                // Exactly at t + window: counts.
                (105, 3, Schedule(1)),
            ],
        );
        assert_eq!(a.overall.preemptions, 1);
        assert_eq!(a.per_priority[0].preempted_tasks, 1);
    }

    #[test]
    fn ignores_equal_or_lower_priority_successor() {
        let a = analyze(
            &[5, 5, 2],
            &[
                (0, 0, Schedule(0)),
                (100, 0, Evict(0)),
                (101, 1, Schedule(0)),
                (102, 2, Schedule(0)),
            ],
        );
        assert_eq!(a.overall.preemptions, 0);
    }

    #[test]
    fn ignores_other_machines() {
        let a = analyze(
            &[0, 9],
            &[
                (0, 0, Schedule(0)),
                (100, 0, Evict(0)),
                (101, 1, Schedule(1)),
            ],
        );
        assert_eq!(a.overall.preemptions, 0);
    }

    #[test]
    fn repeated_preemption_histogram() {
        let mut events = Vec::new();
        let mut t = 0;
        // Task 0 preempted 3 times; task 1 once; task 2 twelve times.
        for (task, times) in [(0u64, 3u32), (1, 1), (2, 12)] {
            for _ in 0..times {
                events.push((t, task, Schedule(0)));
                events.push((t + 10, task, Evict(0)));
                events.push((t + 11, 3, Schedule(0)));
                t += 100;
            }
        }
        let a = analyze(&[0, 0, 0, 9], &events);
        assert_eq!(a.preemption_count_histogram[0], 1); // task 1: once
        assert_eq!(a.preemption_count_histogram[2], 1); // task 0: 3 times
        assert_eq!(a.preemption_count_histogram[9], 1); // task 2: >= 10
        assert!((a.repeat_preemption_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn waste_accounting() {
        let a = analyze(
            &[0, 9],
            &[
                // Task 0 runs 100 s then is evicted (preempted) -> 100
                // cpu-s wasted.
                (0, 0, Schedule(0)),
                (100, 0, Evict(0)),
                (101, 1, Schedule(0)),
                // Task 1 runs 300 s to completion -> useful.
                (401, 1, Finish),
                // An eviction with no open placement wastes nothing.
                (402, 1, Evict(0)),
            ],
        );
        assert!((a.wasted_cpu_hours - 100.0 / 3600.0).abs() < 1e-9);
        assert!((a.useful_cpu_hours - 300.0 / 3600.0).abs() < 1e-9);
        assert!((a.waste_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn scheduled_tasks_counted_once() {
        let a = analyze(
            &[0, 9],
            &[
                (0, 0, Schedule(0)),
                (10, 0, Evict(0)),
                (11, 1, Schedule(0)),
                (20, 0, Schedule(1)),
                (500, 0, Finish),
            ],
        );
        // Task 0 scheduled twice but counted once.
        assert_eq!(a.per_priority[0].scheduled_tasks, 1);
        assert_eq!(a.overall.scheduled_tasks, 2);
        assert!((a.per_band[0].1.preempted_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_buckets() {
        let a = analyze(&[0, 0], &[(0, 0, Schedule(0)), (90_000, 1, Schedule(0))]);
        assert_eq!(a.timeline.len(), 2);
        assert_eq!(a.timeline[0].per_band[0].0, 1);
        assert_eq!(a.timeline[1].per_band[0].0, 1);
    }

    #[test]
    fn horizon_is_the_last_lifecycle_record() {
        let mut c = PreemptionCollector::new(&workload(&[0]));
        c.record(
            0,
            &TraceRecord::TaskSchedule {
                task: 0,
                node: 0,
                restore: false,
            },
        );
        // Non-lifecycle records do not extend the timeline.
        c.record(200_000_000_000, &TraceRecord::NodeUp { node: 0 });
        assert_eq!(c.analysis().timeline.len(), 1);
        c.record(
            90_000_000_000,
            &TraceRecord::TaskSubmit {
                task: 0,
                job: 0,
                priority: 0,
            },
        );
        assert_eq!(c.analysis().timeline.len(), 2);
    }

    #[test]
    fn empty_log() {
        let a = analyze(&[], &[]);
        assert_eq!(a.overall.scheduled_tasks, 0);
        assert_eq!(a.timeline.len(), 1);
        assert_eq!(a.waste_fraction(), 0.0);
        assert_eq!(a.repeat_preemption_fraction(), 0.0);
        assert_eq!(a.preemption_share_per_priority(), [0.0; 12]);
    }
}
