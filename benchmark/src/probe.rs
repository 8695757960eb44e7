//! Per-layer instrumentation for the traced pass.
//!
//! Everything here sits outside the simulators: `Tracer` wrappers that
//! count and time the records a run emits, and a fold of the `cbp-prof`
//! scope tree (the engine's per-event-kind scopes plus the hot-path scopes
//! the crates already open) into per-crate self times.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cbp_prof::{ProfNode, ProfReport};
use cbp_telemetry::{TraceRecord, Tracer};

/// Every per-layer metric the traced pass reports, with its unit, in
/// output order. Names are `<crate>.<quantity>`; a metric a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ms", "ms"),
    ("workload.tasks", "count"),
    ("simkit.events", "count"),
    ("core.new_ms", "ms"),
    ("core.schedule_pass.calls", "count"),
    ("core.schedule_pass.self_ms", "ms"),
    ("core.schedule_pass.share", "fraction"),
    ("core.preempt_victim.calls", "count"),
    ("core.preempt_victim.self_ms", "ms"),
    ("core.preempt_victim.share", "fraction"),
    ("core.handlers.calls", "count"),
    ("core.handlers.self_ms", "ms"),
    ("core.handlers.share", "fraction"),
    ("yarn.new_ms", "ms"),
    ("yarn.rm_schedule_pass.calls", "count"),
    ("yarn.rm_schedule_pass.self_ms", "ms"),
    ("yarn.rm_schedule_pass.share", "fraction"),
    ("yarn.preempt_decision.calls", "count"),
    ("yarn.preempt_decision.self_ms", "ms"),
    ("yarn.preempt_decision.share", "fraction"),
    ("yarn.handlers.calls", "count"),
    ("yarn.handlers.self_ms", "ms"),
    ("yarn.handlers.share", "fraction"),
    ("checkpoint.criu_dump.calls", "count"),
    ("checkpoint.criu_dump.self_ms", "ms"),
    ("checkpoint.criu_dump.share", "fraction"),
    ("checkpoint.criu_restore.calls", "count"),
    ("checkpoint.criu_restore.self_ms", "ms"),
    ("checkpoint.criu_restore.share", "fraction"),
    ("checkpoint.dumps", "count"),
    ("checkpoint.incremental_dumps", "count"),
    ("checkpoint.restores", "count"),
    ("checkpoint.dump_success_ratio", "ratio"),
    ("checkpoint.resumed_dumps", "count"),
    ("checkpoint.chunk_refetches", "count"),
    ("checkpoint.chain_truncations", "count"),
    ("checkpoint.scratch_restarts", "count"),
    ("checkpoint.lifecycle.gc_bytes", "bytes"),
    ("checkpoint.lifecycle.evicted_chains", "count"),
    ("checkpoint.lifecycle.spill_dumps", "count"),
    ("checkpoint.lifecycle.no_space_kills", "count"),
    ("storage.device_submit.calls", "count"),
    ("storage.device_submit.self_ms", "ms"),
    ("storage.device_submit.share", "fraction"),
    ("storage.io_busy_frac", "fraction"),
    ("dfs.remote_restores", "count"),
    ("dfs.blocks_repaired", "count"),
    ("dfs.repair_bytes", "bytes"),
    ("faults.dump_fail_retries", "count"),
    ("faults.restore_fail_retries", "count"),
    ("faults.crash_evictions", "count"),
    ("faults.breaker_open_kills", "count"),
    ("telemetry.records", "count"),
    ("telemetry.bytes", "bytes"),
    ("telemetry.bytes_per_record", "bytes"),
    ("telemetry.jsonl_ms", "ms"),
    ("telemetry.read_ms", "ms"),
    ("obs.observe_ms", "ms"),
    ("obs.replay_ms", "ms"),
    ("obs.report_ms", "ms"),
    ("obs.tasks", "count"),
    ("obs.malformed", "count"),
    ("analyze_s", "s"),
    ("fig8_err_pp", "pp"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// Prof scopes folded into per-layer `<prefix>.calls`, `.self_ms` and
/// `.share` metrics: (metric prefix, simulator, scope name). A `None`
/// simulator matches either; a `None` scope stands for the engine's
/// per-event-kind root scopes not listed by name, whose self time is
/// handler code outside every named hot-path scope. The self times
/// partition the profiled time.
const SCOPES: &[(&str, Option<Sim>, Option<&str>)] = &[
    (
        "core.schedule_pass",
        Some(Sim::Cluster),
        Some("schedule_pass"),
    ),
    (
        "core.preempt_victim",
        Some(Sim::Cluster),
        Some("preempt_victim"),
    ),
    ("core.handlers", Some(Sim::Cluster), None),
    (
        "yarn.rm_schedule_pass",
        Some(Sim::Yarn),
        Some("rm_schedule_pass"),
    ),
    (
        "yarn.preempt_decision",
        Some(Sim::Yarn),
        Some("preempt_decision"),
    ),
    ("yarn.handlers", Some(Sim::Yarn), None),
    ("checkpoint.criu_dump", None, Some("criu_dump")),
    ("checkpoint.criu_restore", None, Some("criu_restore")),
    ("storage.device_submit", None, Some("device_submit")),
];

/// Which simulator a profile came from (both share event-kind names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    /// The Google-trace `ClusterSim` (cbp-core).
    Cluster,
    /// The YARN protocol `YarnSim` (cbp-yarn).
    Yarn,
}

/// Per-layer values of the traced passes, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    /// Simulations absorbed, for averaging `storage.io_busy_frac`.
    sims: u32,
    /// Dump attempts that completed, and all dump attempts.
    dumps_done: u64,
    dump_attempts: u64,
}

impl Layers {
    /// Adds `v` to metric `name`, which must be listed in [`PER_LAYER`].
    pub fn add(&mut self, name: &str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        *self.values.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Adds each `(name, count)`.
    pub fn add_counts(&mut self, counts: &[(&str, u64)]) {
        for (name, count) in counts {
            self.add(name, *count as f64);
        }
    }

    /// Adds a duration to a `_ms` metric.
    pub fn add_ms(&mut self, name: &str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e3);
    }

    /// The value of `name` (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `name`, replacing any earlier value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.remove(name);
        self.add(name, v);
    }

    /// Counts one simulation's storage busy fraction toward the mean.
    pub fn add_io_busy(&mut self, frac: f64) {
        self.sims += 1;
        self.add("storage.io_busy_frac", frac);
    }

    /// Counts dump attempts toward `checkpoint.dump_success_ratio`.
    pub fn add_dumps(&mut self, done: u64, attempts: u64) {
        self.dumps_done += done;
        self.dump_attempts += attempts;
    }

    /// Folds one simulation's scope tree into the per-layer self times.
    pub fn absorb_profile(&mut self, sim: Sim, prof: &ProfReport) {
        let scopes: Vec<_> = SCOPES
            .iter()
            .filter(|(_, only, _)| only.is_none_or(|s| s == sim))
            .collect();
        let mut stack: Vec<(&ProfNode, bool)> = prof.roots.iter().map(|r| (r, true)).collect();
        while let Some((node, root)) = stack.pop() {
            // A node counts once: under its own scope if it has one, else
            // (roots only) under the handlers.
            let named = scopes
                .iter()
                .find(|(_, _, s)| *s == Some(node.name.as_str()));
            let handlers = scopes.iter().find(|(_, _, s)| s.is_none());
            if let Some((prefix, _, _)) = named.or(handlers.filter(|_| root)) {
                self.add(&format!("{prefix}.calls"), node.calls as f64);
                self.add(&format!("{prefix}.self_ms"), node.self_ns as f64 / 1e6);
            }
            stack.extend(node.children.iter().map(|c| (c, false)));
        }
    }

    /// Derives the ratio metrics once every simulation was absorbed:
    /// shares of the traced wall time, the mean busy fraction, the dump
    /// success ratio, bytes per record and the tracing overhead against the
    /// same passes' untraced wall time.
    pub fn finish(&mut self, traced_wall: Duration, untraced_wall_s: f64) {
        let wall_ms = traced_wall.as_secs_f64() * 1e3;
        for (prefix, _, _) in SCOPES {
            let share = self.get(&format!("{prefix}.self_ms")) / wall_ms;
            self.set(&format!("{prefix}.share"), share);
        }
        if self.sims > 0 {
            let mean = self.get("storage.io_busy_frac") / self.sims as f64;
            self.set("storage.io_busy_frac", mean);
        }
        if self.dump_attempts > 0 {
            let ratio = self.dumps_done as f64 / self.dump_attempts as f64;
            self.set("checkpoint.dump_success_ratio", ratio);
        }
        let records = self.get("telemetry.records");
        if records > 0.0 {
            let per = self.get("telemetry.bytes") / records;
            self.set("telemetry.bytes_per_record", per);
        }
        self.set("trace.wall_s", traced_wall.as_secs_f64());
        self.set(
            "trace.overhead_frac",
            traced_wall.as_secs_f64() / untraced_wall_s - 1.0,
        );
    }

    /// The per-layer table: every scope with its self time, calls and share
    /// of traced wall time, then every other metric.
    pub fn render(&self) -> String {
        let mut out = format!(
            "per-layer (traced repeat)\n  {:<28} {:>12} {:>12} {:>8}\n",
            "scope", "self ms", "calls", "share"
        );
        for (prefix, _, _) in SCOPES {
            out.push_str(&format!(
                "  {:<28} {:>12.3} {:>12.0} {:>7.1}%\n",
                prefix,
                self.get(&format!("{prefix}.self_ms")),
                self.get(&format!("{prefix}.calls")),
                self.get(&format!("{prefix}.share")) * 100.0
            ));
        }
        for (name, unit) in PER_LAYER {
            let scoped = SCOPES.iter().any(|(p, _, _)| {
                name.strip_prefix(p)
                    .is_some_and(|rest| rest.starts_with('.'))
            });
            if !scoped {
                out.push_str(&format!("  {name:<40} {:>16.4} {unit}\n", self.get(name)));
            }
        }
        out
    }
}

/// Trace-stream counts of one traced simulation.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceCounts {
    /// Records emitted.
    pub records: u64,
    /// Dump attempts that completed (`dump_done`).
    pub dump_done: u64,
    /// Dump attempts that failed, retried or not (`dump_fail`).
    pub dump_fail: u64,
    /// Failed dumps that were retried.
    pub dump_fail_retries: u64,
    /// Failed restores that were retried.
    pub restore_fail_retries: u64,
    /// Blocks re-replicated by DFS repair.
    pub blocks_repaired: u64,
    /// Bytes copied by DFS repair.
    pub repair_bytes: u64,
}

/// Counts every record a simulation emits and forwards it to the real
/// sinks. Installed only in the traced pass; on the `NullTracer`
/// workloads it turns record construction on, which is part of the
/// tracing overhead the pass reports.
pub struct Counting {
    inner: Option<Box<dyn Tracer>>,
    counts: Rc<Cell<TraceCounts>>,
}

impl Counting {
    /// Wraps `inner` (or nothing); the counts are readable through the
    /// returned handle after the run.
    pub fn new(inner: Option<Box<dyn Tracer>>) -> (Counting, Rc<Cell<TraceCounts>>) {
        let counts = Rc::new(Cell::new(TraceCounts::default()));
        (
            Counting {
                inner,
                counts: counts.clone(),
            },
            counts,
        )
    }
}

impl Tracer for Counting {
    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        let mut c = self.counts.get();
        c.records += 1;
        match *rec {
            TraceRecord::DumpDone { .. } => c.dump_done += 1,
            TraceRecord::DumpFail { will_retry, .. } => {
                c.dump_fail += 1;
                c.dump_fail_retries += will_retry as u64;
            }
            TraceRecord::RestoreFail { will_retry, .. } => {
                c.restore_fail_retries += will_retry as u64;
            }
            TraceRecord::ReplicationRepair { blocks, bytes, .. } => {
                c.blocks_repaired += blocks;
                c.repair_bytes += bytes;
            }
            _ => {}
        }
        self.counts.set(c);
        if let Some(inner) = &mut self.inner {
            inner.record(t_us, rec);
        }
    }

    fn finish(&mut self) {
        if let Some(inner) = &mut self.inner {
            inner.finish();
        }
    }
}

/// Times the host work one sink does per record.
pub struct Timed<T> {
    inner: T,
    spent: Rc<Cell<Duration>>,
}

impl<T: Tracer> Timed<T> {
    /// Wraps `inner`; the accumulated time is readable through the
    /// returned handle after the run.
    pub fn new(inner: T) -> (Timed<T>, Rc<Cell<Duration>>) {
        let spent = Rc::new(Cell::new(Duration::ZERO));
        (
            Timed {
                inner,
                spent: spent.clone(),
            },
            spent,
        )
    }
}

impl<T: Tracer> Tracer for Timed<T> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        let t0 = Instant::now();
        self.inner.record(t_us, rec);
        self.spent.set(self.spent.get() + t0.elapsed());
    }

    fn finish(&mut self) {
        let t0 = Instant::now();
        self.inner.finish();
        self.spent.set(self.spent.get() + t0.elapsed());
    }
}
