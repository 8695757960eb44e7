//! The three workloads, each a closed sequence of simulations run back to
//! back on one thread. A pass is one input; its inputs are generated from
//! the benchmark seed and the pass number, so a pass repeats exactly.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cbp_bench::experiments::google_setup;
use cbp_bench::{Scale, ANALYZE_TOP_K};
use cbp_core::{ClusterSim, PreemptionPolicy, RunReport};
use cbp_faults::FaultSpec;
use cbp_obs::{collect_jsonl_with, extract_job_paths, ObsReport, SharedCollector};
use cbp_simkit::{SimRng, SimTime};
use cbp_storage::MediaKind;
use cbp_telemetry::{JsonlReader, JsonlTracer, MultiTracer, Tracer};
use cbp_workload::facebook::FacebookConfig;
use cbp_workload::{PriorityBand, Workload};
use cbp_yarn::{YarnConfig, YarnReport, YarnSim};

use crate::probe::{Counting, Layers, Sim, Timed, TraceCounts};

/// Google-trace scale of both `ClusterSim` workloads: 4 nodes, ~300 jobs,
/// ~11.5k tasks. Scan cost grows faster than linearly with scale: at trace
/// seed 42, 0.02 runs in ~0.7 s, 0.03 in 2.3–3.0 s and 0.05 in ~20 s on a
/// 2-core x86-64 container.
const TRACE_SCALE: f64 = 0.02;
/// Trace seed of the reference day the `ClusterSim` workloads replay. At
/// this scale the cost of one run swings 0.2–6 s across trace seeds (a
/// single giant job or burst decides how long the pending queue stays
/// long), so the job population is fixed and the benchmark seed moves the
/// arrivals instead (see [`jitter_arrivals`]).
const REFERENCE_TRACE_SEED: u64 = 42;
/// Each inter-arrival gap of the reference day is scaled by a factor drawn
/// uniformly from `1 ± ARRIVAL_JITTER`.
const ARRIVAL_JITTER: f64 = 0.5;
/// Fig. 8 grids (4 simulations each) in one `yarn_fig8_sweep` pass, over
/// consecutive seeds. One grid costs 14–88 ms depending on the seed.
const SWEEP_GRIDS: u64 = 4;
/// YARN runs following the `ClusterSim` run of one `chaos_traced` pass.
/// Their low-priority response varies with the seed by a CV of ~0.44 and
/// each takes ~10 ms, so a pass runs many.
const CHAOS_YARN_RUNS: u64 = 16;
/// The fault plan of `chaos_traced`: crashes, partitions and breakers,
/// 30% chunk corruption and a storage squeeze that drives the lifecycle
/// ladder (GC, evict, spill).
const CHAOS_PLAN: &str = "chaos,corrupt=0.3,cap=0.01,leak=0.6,leak-window=300";
/// The paper's Fig. 8a waste reductions of Chk-{HDD,SSD,NVM} vs Kill, %.
const PAPER_FIG8_REDUCTION_PCT: [f64; 3] = [50.0, 65.0, 67.0];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One contended Google-trace `ClusterSim` run: the scheduler scan.
    TraceContended,
    /// The Fig. 8 grid over consecutive seeds: YARN RM/AM protocol, CRIU
    /// on every medium, device queues, many short simulations.
    YarnFig8Sweep,
    /// Both simulators under a fault plan with user-facing telemetry on,
    /// then offline replay and report.
    ChaosTraced,
}

impl Kind {
    /// Passes every run makes (a run adds more until its time is up). The
    /// simulated outputs come from these alone, so they are exact per seed.
    pub fn min_passes(self) -> u64 {
        match self {
            Kind::TraceContended => 32,
            Kind::YarnFig8Sweep => 48,
            Kind::ChaosTraced => 12,
        }
    }

    /// Leading passes run a second time (traced with `--trace 1`) to check
    /// that they reproduce exactly.
    pub fn repeated_passes(self) -> u64 {
        match self {
            Kind::TraceContended | Kind::ChaosTraced => 2,
            Kind::YarnFig8Sweep => 8,
        }
    }

    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::TraceContended, Kind::YarnFig8Sweep, Kind::ChaosTraced];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TraceContended => "trace_contended",
            Kind::YarnFig8Sweep => "yarn_fig8_sweep",
            Kind::ChaosTraced => "chaos_traced",
        }
    }
}

/// What one pass measured and produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Workload generation plus simulator construction.
    pub setup: Duration,
    /// Simulation runs (`run` / `run_with_telemetry`).
    pub wall: Duration,
    /// Offline trace replay plus report (`chaos_traced` only).
    pub analyze: Duration,
    /// Engine events over all simulations.
    pub events: u64,
    /// FNV-1a digest of every report, registry snapshot and trace.
    pub digest: u64,
    /// Allocator high-water mark over the pass, bytes.
    pub peak_heap: u64,
    /// Operations attempted: simulations plus offline analyses.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// What the failed checks said.
    pub failures: Vec<String>,
    /// Simulated CPU-hours wasted (killed work plus dump/restore/retry
    /// overhead), summed over simulations, per simulator (`Sim as usize`).
    pub wasted_cpu_h: [f64; 2],
    /// Simulated CPU-hours consumed (useful plus wasted), per simulator.
    pub consumed_cpu_h: [f64; 2],
    /// Mean low-priority job response of each simulation, seconds, per
    /// simulator.
    pub lowprio_resp_s: [Vec<f64>; 2],
    /// Per seed and medium, |simulated − paper| Fig. 8a reduction, pp.
    pub fig8_gaps_pp: Vec<f64>,
}

/// Wasted over consumed simulated CPU across `passes`: the ratio of each
/// simulator that ran, averaged so both simulators weigh the same.
pub fn waste_frac(passes: &[Pass]) -> f64 {
    let per_sim: Vec<f64> = [Sim::Cluster, Sim::Yarn]
        .into_iter()
        .map(|sim| {
            let wasted: f64 = passes.iter().map(|p| p.wasted_cpu_h[sim as usize]).sum();
            let consumed: f64 = passes.iter().map(|p| p.consumed_cpu_h[sim as usize]).sum();
            (wasted, consumed)
        })
        .filter(|(_, consumed)| *consumed > 0.0)
        .map(|(wasted, consumed)| wasted / consumed)
        .collect();
    mean(&per_sim)
}

/// Mean low-priority job response over the simulations in `passes`, s:
/// the mean of each simulator that ran, averaged so both weigh the same.
pub fn lowprio_resp_s(passes: &[Pass]) -> f64 {
    let per_sim: Vec<f64> = [Sim::Cluster, Sim::Yarn]
        .into_iter()
        .map(|sim| {
            let all: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.lowprio_resp_s[sim as usize].iter().copied())
                .collect();
            all
        })
        .filter(|all| !all.is_empty())
        .map(|all| mean(&all))
        .collect();
    mean(&per_sim)
}

/// Mean Fig. 8a gap to the paper over every grid in `passes`, pp.
pub fn fig8_err_pp(passes: &[Pass]) -> f64 {
    let all: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.fig8_gaps_pp.iter().copied())
        .collect();
    mean(&all)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs pass number `pass` of `kind`: one jittered day (`trace_contended`),
/// four Fig. 8 grids (`yarn_fig8_sweep`) or one jittered day plus
/// [`CHAOS_YARN_RUNS`] YARN runs under the chaos plan (`chaos_traced`). Its inputs are a pure
/// function of `(seed, pass)`, and successive passes cover fresh inputs.
/// With `layers`, the pass is traced: scopes are profiled, sinks are
/// counted and timed, and the per-layer metrics are accumulated into it.
pub fn run_pass(kind: Kind, seed: u64, pass: u64, layers: Option<&mut Layers>) -> Pass {
    cbp_prof::alloc::reset_peak();
    let mut r = Runner {
        pass: Pass {
            digest: FNV_OFFSET,
            ..Pass::default()
        },
        layers,
        op_failed: false,
        trace_records: 0,
    };
    let mut arrivals = SimRng::seed_from_u64(seed ^ (pass + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match kind {
        Kind::TraceContended => {
            r.cluster(&mut arrivals, None, None);
        }
        Kind::YarnFig8Sweep => {
            let first = seed + pass * SWEEP_GRIDS;
            for s in first..first + SWEEP_GRIDS {
                r.fig8_grid(s);
            }
        }
        Kind::ChaosTraced => {
            let mut plan = FaultSpec::parse(CHAOS_PLAN).expect("the chaos plan parses");
            plan.seed = seed + pass;
            let trace = Telemetry::fresh();
            r.cluster(&mut arrivals, Some(plan.clone()), Some(&trace));
            r.analyze(&trace);
            // The YARN runs go without telemetry: under this plan YarnSim
            // emits `task_finish` for a task whose restore failed for good
            // (in-place scratch restart without a `task_schedule`), which
            // the strict online collector rejects as a malformed trace.
            let first = seed + pass * CHAOS_YARN_RUNS;
            for s in first..first + CHAOS_YARN_RUNS {
                let workload = r.facebook_workload(s);
                let cfg = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd)
                    .with_faults(plan.clone());
                r.yarn(&workload, cfg, None);
            }
        }
    }
    r.pass.peak_heap = cbp_prof::alloc::peak_bytes();
    r.pass
}

/// The user-facing telemetry of one `chaos_traced` simulation: a JSONL
/// trace written to memory plus an online span collector with segment
/// timelines (what `repro --trace-out --critical-path` installs).
struct Telemetry {
    jsonl: SharedBuf,
    collector: SharedCollector,
}

impl Telemetry {
    fn fresh() -> Telemetry {
        Telemetry {
            jsonl: SharedBuf::default(),
            collector: SharedCollector::with_segments(),
        }
    }
}

/// An in-memory JSONL sink the benchmark can read after the simulation
/// consumed its tracer.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Handles the traced pass reads back after a run.
struct Probes {
    counts: Rc<Cell<TraceCounts>>,
    jsonl_time: Option<Rc<Cell<Duration>>>,
    observe_time: Option<Rc<Cell<Duration>>>,
}

struct Runner<'a> {
    pass: Pass,
    layers: Option<&'a mut Layers>,
    /// Whether a check of the current operation failed.
    op_failed: bool,
    /// Records the last traced simulation emitted.
    trace_records: u64,
}

impl Runner<'_> {
    /// Records a check; a failure marks the current operation failed.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.op_failed = true;
            self.pass.failures.push(what());
        }
    }

    fn begin_op(&mut self) {
        self.pass.attempted += 1;
        self.op_failed = false;
    }

    fn end_op(&mut self) {
        self.pass.failed += self.op_failed as u64;
    }

    fn digest(&mut self, bytes: &[u8]) {
        self.pass.digest = fnv1a(self.pass.digest, bytes);
    }

    /// Builds the simulation's tracer: the telemetry sinks if the workload
    /// has them, wrapped in counting and timing probes in the traced pass.
    fn tracer(&self, telemetry: Option<&Telemetry>) -> (Option<Box<dyn Tracer>>, Option<Probes>) {
        let traced = self.layers.is_some();
        let (mut jsonl_time, mut observe_time) = (None, None);
        let sinks: Option<Box<dyn Tracer>> = telemetry.map(|t| {
            let jsonl = JsonlTracer::new(t.jsonl.clone());
            let mut multi = MultiTracer::new();
            if traced {
                let (jsonl, spent) = Timed::new(jsonl);
                let (collector, observed) = Timed::new(t.collector.clone());
                multi.push(Box::new(jsonl));
                multi.push(Box::new(collector));
                jsonl_time = Some(spent);
                observe_time = Some(observed);
            } else {
                multi.push(Box::new(jsonl));
                multi.push(Box::new(t.collector.clone()));
            }
            Box::new(multi) as Box<dyn Tracer>
        });
        if !traced {
            return (sinks, None);
        }
        let (counting, counts) = Counting::new(sinks);
        let probes = Probes {
            counts,
            jsonl_time,
            observe_time,
        };
        (Some(Box::new(counting)), Some(probes))
    }

    /// Times `run`, profiling it in the traced pass.
    fn timed_run<R>(&mut self, sim: Sim, run: impl FnOnce() -> R) -> R {
        let traced = self.layers.is_some();
        let t0 = Instant::now();
        if traced {
            cbp_prof::start(cbp_prof::ProfOptions::default());
        }
        let out = run();
        let prof = traced.then(|| cbp_prof::stop().expect("profiler started above"));
        self.pass.wall += t0.elapsed();
        if let (Some(layers), Some(prof)) = (self.layers.as_deref_mut(), prof) {
            layers.absorb_profile(sim, &prof);
        }
        out
    }

    /// Reads the counting and timing probes back after a traced run.
    fn absorb_probes(&mut self, probes: Option<Probes>) {
        let (Some(layers), Some(p)) = (self.layers.as_deref_mut(), probes) else {
            return;
        };
        let c = p.counts.get();
        layers.add_dumps(c.dump_done, c.dump_done + c.dump_fail);
        layers.add("faults.dump_fail_retries", c.dump_fail_retries as f64);
        layers.add("faults.restore_fail_retries", c.restore_fail_retries as f64);
        layers.add("dfs.blocks_repaired", c.blocks_repaired as f64);
        layers.add("dfs.repair_bytes", c.repair_bytes as f64);
        if let Some(t) = p.jsonl_time {
            layers.add_ms("telemetry.jsonl_ms", t.get());
        }
        if let Some(t) = p.observe_time {
            layers.add_ms("obs.observe_ms", t.get());
        }
        self.trace_records = c.records;
    }

    /// One `ClusterSim` run over the reference day with jittered arrivals
    /// (Adaptive policy, HDD, load factor 1.35, 4 nodes).
    fn cluster(
        &mut self,
        arrivals: &mut SimRng,
        faults: Option<FaultSpec>,
        telemetry: Option<&Telemetry>,
    ) -> RunReport {
        self.begin_op();
        let t0 = Instant::now();
        let (day, cfg) = google_setup(
            Scale {
                factor: TRACE_SCALE,
            },
            REFERENCE_TRACE_SEED,
        );
        let workload = jitter_arrivals(&day, arrivals);
        let generated = Instant::now();
        let jobs = workload.job_count() as u64;
        let tasks = workload.task_count();
        let mut cfg = cfg.with_policy(PreemptionPolicy::Adaptive);
        if let Some(plan) = faults {
            cfg = cfg.with_faults(plan);
        }
        let mut sim = ClusterSim::new(cfg, workload);
        let built = Instant::now();
        let (tracer, probes) = self.tracer(telemetry);
        if let Some(tracer) = tracer {
            sim.set_tracer(tracer);
        }
        self.pass.setup += t0.elapsed();
        let report = self.timed_run(Sim::Cluster, || sim.run());
        self.absorb_probes(probes);

        let m = &report.metrics;
        self.pass.events += report.telemetry.engine_events;
        let c = Sim::Cluster as usize;
        self.pass.wasted_cpu_h[c] += m.wasted_cpu_hours();
        self.pass.consumed_cpu_h[c] += m.useful_cpu_hours + m.wasted_cpu_hours();
        self.pass.lowprio_resp_s[c].push(m.mean_response(PriorityBand::Free));
        self.check(m.jobs_finished == jobs, || {
            format!("ClusterSim: {} of {jobs} jobs finished", m.jobs_finished)
        });
        let registry = report.telemetry.registry.to_json();
        let metrics = format!("{m:?}");
        self.digest(registry.as_bytes());
        self.digest(metrics.as_bytes());

        if let Some(layers) = self.layers.as_deref_mut() {
            layers.add_ms("workload.gen_ms", generated - t0);
            layers.add("workload.tasks", tasks as f64);
            layers.add_ms("core.new_ms", built - generated);
            layers.add("simkit.events", report.telemetry.engine_events as f64);
            layers.add_io_busy(m.io_overhead_fraction);
            layers.add_counts(&[
                ("checkpoint.dumps", m.checkpoints),
                ("checkpoint.incremental_dumps", m.incremental_checkpoints),
                ("checkpoint.restores", m.restores),
                ("checkpoint.resumed_dumps", m.resumed_dumps),
                ("checkpoint.chunk_refetches", m.chunk_refetches),
                ("checkpoint.chain_truncations", m.chain_truncations),
                ("checkpoint.scratch_restarts", m.scratch_restarts),
                ("checkpoint.lifecycle.gc_bytes", m.gc_reclaimed_bytes),
                ("checkpoint.lifecycle.evicted_chains", m.evicted_chains),
                ("checkpoint.lifecycle.spill_dumps", m.spill_dumps),
                ("checkpoint.lifecycle.no_space_kills", m.no_space_kills),
                ("dfs.remote_restores", m.remote_restores),
                ("faults.crash_evictions", m.crash_evictions),
                ("faults.breaker_open_kills", m.breaker_open_kills),
            ]);
        }
        self.end_op();
        report
    }

    /// The Fig. 8 Facebook workload at paper scale (8 nodes × 24 slots):
    /// 40 jobs, 7,000 tasks, one giant production job. Timed as set-up.
    fn facebook_workload(&mut self, seed: u64) -> Workload {
        let t0 = Instant::now();
        let slots = 8 * 24;
        let workload = FacebookConfig {
            jobs: 40,
            total_tasks: 7_000,
            giant_job_tasks: (slots as f64 * 1.3) as usize,
            ..Default::default()
        }
        .generate(seed);
        let spent = t0.elapsed();
        self.pass.setup += spent;
        if let Some(layers) = self.layers.as_deref_mut() {
            layers.add_ms("workload.gen_ms", spent);
            layers.add("workload.tasks", workload.task_count() as f64);
        }
        workload
    }

    /// One Fig. 8 grid at `seed`: Kill (SSD) and Checkpoint on HDD, SSD and
    /// NVM over one generated workload.
    fn fig8_grid(&mut self, seed: u64) {
        let workload = self.facebook_workload(seed);
        let base = YarnConfig::paper_cluster(PreemptionPolicy::Kill, MediaKind::Hdd);
        let kill = self.yarn(
            &workload,
            base.clone().with_media_kind(MediaKind::Ssd),
            None,
        );
        for (media, paper_pct) in MediaKind::ALL.into_iter().zip(PAPER_FIG8_REDUCTION_PCT) {
            let cfg = base
                .clone()
                .with_policy(PreemptionPolicy::Checkpoint)
                .with_media_kind(media);
            let chk = self.yarn(&workload, cfg, None);
            let reduction = 1.0 - chk.wasted_cpu_hours() / kill.wasted_cpu_hours().max(1e-9);
            self.pass
                .fig8_gaps_pp
                .push((reduction * 100.0 - paper_pct).abs());
        }
    }

    /// One `YarnSim` run over a copy of `workload`.
    fn yarn(
        &mut self,
        workload: &Workload,
        cfg: YarnConfig,
        telemetry: Option<&Telemetry>,
    ) -> YarnReport {
        self.begin_op();
        let jobs = workload.job_count() as u64;
        let t0 = Instant::now();
        let mut sim = YarnSim::new(cfg, workload.clone());
        let built = Instant::now();
        let (tracer, probes) = self.tracer(telemetry);
        if let Some(tracer) = tracer {
            sim.set_tracer(tracer);
        }
        self.pass.setup += t0.elapsed();
        let (report, telemetry) = self.timed_run(Sim::Yarn, || sim.run_with_telemetry());
        self.absorb_probes(probes);

        self.pass.events += telemetry.engine_events;
        let y = Sim::Yarn as usize;
        self.pass.wasted_cpu_h[y] += report.wasted_cpu_hours();
        self.pass.consumed_cpu_h[y] += report.useful_cpu_hours + report.wasted_cpu_hours();
        self.pass.lowprio_resp_s[y].push(report.mean_low_response());
        self.check(report.jobs_finished == jobs, || {
            format!(
                "YarnSim {}: {} of {jobs} jobs finished",
                report.label, report.jobs_finished
            )
        });
        let registry = telemetry.registry.to_json();
        let debug = format!("{report:?}");
        self.digest(registry.as_bytes());
        self.digest(debug.as_bytes());

        if let Some(layers) = self.layers.as_deref_mut() {
            let r = &report;
            layers.add_ms("yarn.new_ms", built - t0);
            layers.add("simkit.events", telemetry.engine_events as f64);
            layers.add_io_busy(r.io_overhead_fraction);
            layers.add_counts(&[
                ("checkpoint.dumps", r.checkpoints),
                ("checkpoint.incremental_dumps", r.incremental_checkpoints),
                ("checkpoint.restores", r.restores),
                ("checkpoint.resumed_dumps", r.resumed_dumps),
                ("checkpoint.chunk_refetches", r.chunk_refetches),
                ("checkpoint.chain_truncations", r.chain_truncations),
                ("checkpoint.scratch_restarts", r.integrity_scratch_restarts),
                ("checkpoint.lifecycle.gc_bytes", r.gc_reclaimed_bytes),
                ("checkpoint.lifecycle.evicted_chains", r.evicted_chains),
                ("checkpoint.lifecycle.spill_dumps", r.spill_dumps),
                ("checkpoint.lifecycle.no_space_kills", r.no_space_kills),
                ("dfs.remote_restores", r.remote_restores),
                ("faults.crash_evictions", r.crash_evictions),
                ("faults.breaker_open_kills", r.breaker_open_kills),
            ]);
        }
        self.end_op();
        report
    }

    /// Replays one simulation's JSONL trace offline, as `repro analyze
    /// --critical-path` does, and checks it against the online collector:
    /// byte-identical reports, exact critical-path tiling, no malformed
    /// records.
    fn analyze(&mut self, telemetry: &Telemetry) {
        self.begin_op();
        let jsonl = telemetry.jsonl.0.borrow();
        let t0 = Instant::now();
        let offline = collect_jsonl_with(&jsonl[..], true);
        let replayed = Instant::now();
        let report = offline
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|c| ObsReport::build(c, ANALYZE_TOP_K).with_crit(c));
        let reported = Instant::now();
        self.pass.analyze += reported - t0;

        let online = telemetry.collector.take();
        let online_report = ObsReport::build(&online, ANALYZE_TOP_K).with_crit(&online);
        match (&offline, &report, &online_report) {
            (Ok(offline), Ok(report), Ok(online_report)) => {
                let json = report.to_json();
                self.check(json == online_report.to_json(), || {
                    "online and offline ObsReport JSON differ".to_string()
                });
                self.check(offline.malformed() == 0 && online.malformed() == 0, || {
                    format!(
                        "malformed trace records: {} offline, {} online",
                        offline.malformed(),
                        online.malformed()
                    )
                });
                let tiling = extract_job_paths(offline)
                    .and_then(|paths| paths.paths.iter().try_for_each(|p| p.check_tiling()));
                self.check(tiling.is_ok(), || {
                    format!("critical-path tiling: {tiling:?}")
                });
                self.digest(json.as_bytes());
            }
            _ => self.check(false, || {
                format!(
                    "analysis failed: offline {:?}, report {:?}, online {:?}",
                    offline.as_ref().err(),
                    report.as_ref().err(),
                    online_report.as_ref().err()
                )
            }),
        }
        self.digest(&jsonl);

        let emitted = self.trace_records;
        if let Some(layers) = self.layers.as_deref_mut() {
            layers.add_ms("obs.replay_ms", replayed - t0);
            layers.add_ms("obs.report_ms", reported - replayed);
            if let Ok(c) = &offline {
                layers.add("obs.tasks", c.tasks().len() as f64);
                layers.add("obs.malformed", c.malformed() as f64);
            }
            let t0 = Instant::now();
            let read = JsonlReader::new(&jsonl[..])
                .map(|reader| reader.filter(|r| r.is_ok()).count() as u64);
            layers.add_ms("telemetry.read_ms", t0.elapsed());
            layers.add("telemetry.bytes", jsonl.len() as f64);
            let read = read.unwrap_or(0);
            layers.add("telemetry.records", read as f64);
            self.check(read == emitted, || {
                format!("JSONL holds {read} records, the simulation emitted {emitted}")
            });
        }
        self.end_op();
    }
}

/// Scales every inter-arrival gap of `day` by a factor drawn uniformly from
/// `1 ± ARRIVAL_JITTER`. Submission order, and with it every job index, is
/// kept; bursts move, so each draw is a different schedule of the same
/// jobs.
fn jitter_arrivals(day: &Workload, rng: &mut SimRng) -> Workload {
    let mut jobs = day.jobs().to_vec();
    let (mut prev, mut at) = (0.0, 0.0);
    for job in &mut jobs {
        let t = job.submit.as_secs_f64();
        at += (t - prev) * (1.0 - ARRIVAL_JITTER + 2.0 * ARRIVAL_JITTER * rng.uniform());
        prev = t;
        job.submit = SimTime::from_secs_f64(at);
    }
    Workload::new(jobs)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, continued from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0100_0000_01b3);
    }
    state
}
