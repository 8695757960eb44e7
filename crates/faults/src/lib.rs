//! Deterministic fault plans for the `cbp` simulators.
//!
//! The paper's argument — checkpoint-based preemption beats kill —
//! hinges on the dump/restore path being dependable. Real CRIU dumps
//! fail, images corrupt, storage devices stall, and ApplicationMasters
//! go unresponsive. This crate models those regimes as a **seeded,
//! stateless fault plan**: every injection decision is a pure hash of
//! `(plan seed, operation tag, identity, attempt)`, so
//!
//! * the same `(simulation seed, fault plan)` pair always produces the
//!   same faults — byte-identical traces, replayable chaos runs; and
//! * fault decisions never draw from a simulator's RNG stream, so
//!   *enabling* a plan with all-zero probabilities is observationally
//!   identical to running without one.
//!
//! [`FaultSpec`] is the declarative knob set (probabilities, retry
//! budgets, stall windows); [`FaultPlan`] is the cheap decision oracle
//! built from it. The simulators (`cbp-core`'s `ClusterSim`,
//! `cbp-yarn`'s `YarnSim`) consult the plan at each dump completion,
//! restore completion, preemption RPC and device operation, and apply
//! the *handling policies* — bounded retries with exponential backoff,
//! kill fallback, restart-from-scratch, RM-side escalation — that keep
//! every submitted task live.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;

pub use health::{Breaker, BreakerState, BreakerTransition, HealthEvent, HealthMonitor};

use std::fmt;

use cbp_simkit::units::ByteSize;
use cbp_simkit::{SimDuration, SimTime};

/// Storage-device degradation: during a stalled window the device's
/// effective bandwidth drops by `slowdown`.
///
/// Simulated time is cut into fixed windows of `window` length; each
/// `(node, window index)` pair is independently stalled with
/// probability `prob`. Cost estimators consult the same oracle, so
/// degradation-aware scheduling sees the slowdown it will pay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallSpec {
    /// Probability that a given `(node, window)` is degraded.
    pub prob: f64,
    /// Service-time multiplier while degraded (≥ 1).
    pub slowdown: f64,
    /// Window length.
    pub window: SimDuration,
}

impl Default for StallSpec {
    fn default() -> Self {
        StallSpec {
            prob: 0.0,
            slowdown: 4.0,
            window: SimDuration::from_secs(600),
        }
    }
}

/// Failure-domain chaos: seeded, stateless crash/recover schedules for
/// nodes and whole racks.
///
/// Simulated time is cut into fixed windows of `window` length. Each
/// `(node, window index)` pair independently crashes with probability
/// `node_prob`, and each `(rack, window index)` pair crashes *every*
/// node of the rack with probability `rack_prob` (correlated failure).
/// A crashed node goes down at the window start and recovers after
/// `downtime` (strictly less than `window`, so every node is up for
/// part of every window — the liveness validity limit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSpec {
    /// Probability that a given `(node, window)` starts with a crash.
    pub node_prob: f64,
    /// Probability that a given `(rack, window)` crashes the whole rack.
    pub rack_prob: f64,
    /// How long a crashed node stays down (must be < `window`).
    pub downtime: SimDuration,
    /// Window length.
    pub window: SimDuration,
}

impl Default for CrashSpec {
    fn default() -> Self {
        CrashSpec {
            node_prob: 0.0,
            rack_prob: 0.0,
            downtime: SimDuration::from_secs(300),
            window: SimDuration::from_secs(3_600),
        }
    }
}

/// Network partitions: during a partitioned window one rack is isolated
/// from the rest of the cluster, and DFS traffic from nodes inside the
/// isolated rack pays a `penalty` service-time multiplier (remote
/// replicas sit across the partition).
///
/// Like stalls and crashes, partitions are window-indexed and stateless:
/// each window is independently partitioned with probability `prob`,
/// and the isolated rack is a pure hash of `(plan seed, window index)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSpec {
    /// Probability that a given window is partitioned.
    pub prob: f64,
    /// Service-time multiplier for cross-partition DFS traffic (≥ 1).
    pub penalty: f64,
    /// Window length.
    pub window: SimDuration,
}

impl Default for PartitionSpec {
    fn default() -> Self {
        PartitionSpec {
            prob: 0.0,
            penalty: 8.0,
            window: SimDuration::from_secs(1_800),
        }
    }
}

/// Checkpoint-path circuit-breaker thresholds (see [`health`]).
///
/// Off by default ([`FaultSpec::breaker`] is `None`); when configured,
/// a [`HealthMonitor`] watches dump/restore outcomes per node (plus a
/// global aggregate) and degrades preemption to kill while a breaker is
/// open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerSpec {
    /// Open when the decayed failure rate reaches this threshold.
    pub threshold: f64,
    /// ... and the decayed sample mass reaches this minimum (avoids
    /// tripping on the first failure of an empty window).
    pub min_samples: f64,
    /// Open → half-open (probe) after this cooldown.
    pub cooldown: SimDuration,
    /// Decay multiplier applied to the window per observation, in
    /// (0, 1]; 1 = never forget, smaller = shorter memory.
    pub decay: f64,
}

impl Default for BreakerSpec {
    fn default() -> Self {
        BreakerSpec {
            threshold: 0.5,
            min_samples: 4.0,
            cooldown: SimDuration::from_secs(600),
            decay: 0.9,
        }
    }
}

/// Checkpoint-storage pressure: shrunken device capacity plus leaked
/// reservations, so the image-lifecycle degradation ladder (GC pass →
/// chain eviction → spill-to-remote → no-space kill) is exercised
/// deterministically instead of waiting for an organically full device.
///
/// `capacity_frac` scales every checkpoint device's capacity at
/// simulator construction. Leaks are window-indexed and stateless like
/// every other schedule: each `(node, window index)` pair independently
/// leaks `leak_bytes` of dead reservation with probability `leak_prob`;
/// leaked bytes are reclaimable only by a lifecycle GC pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureSpec {
    /// Device capacity multiplier in `(0, 1]` (1 = unshrunk).
    pub capacity_frac: f64,
    /// Probability that a given `(node, window)` leaks a reservation.
    pub leak_prob: f64,
    /// Size of one leaked reservation (clamped to the device's free
    /// capacity at injection time).
    pub leak_bytes: ByteSize,
    /// Leak window length.
    pub window: SimDuration,
}

impl Default for PressureSpec {
    fn default() -> Self {
        PressureSpec {
            capacity_frac: 1.0,
            leak_prob: 0.0,
            leak_bytes: ByteSize::from_gb(2),
            window: SimDuration::from_secs(900),
        }
    }
}

/// Declarative fault plan: per-operation fault probabilities plus the
/// retry/fallback budgets the recovery policies use.
///
/// All probabilities default to zero; a default spec injects nothing
/// and (by construction of [`FaultPlan`]) perturbs nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault plan's decision hash (independent of the
    /// simulation seed: the same workload can be replayed under many
    /// plans, or many workloads under one plan).
    pub seed: u64,
    /// Probability that one checkpoint dump attempt fails.
    pub dump_fail_prob: f64,
    /// Probability that one restore attempt fails transiently (a retry
    /// — e.g. from a surviving HDFS replica — may succeed).
    pub restore_fail_prob: f64,
    /// Probability that a checkpoint image is corrupted at dump time:
    /// every restore of it fails, forcing a restart from scratch.
    pub corrupt_image_prob: f64,
    /// Probability that an ApplicationMaster ignores a preemption
    /// request (YARN protocol simulator only).
    pub am_unresponsive_prob: f64,
    /// Storage degradation & stall windows (none by default).
    pub stall: Option<StallSpec>,
    /// Failure-domain chaos: node/rack crash schedules (none by default).
    pub crash: Option<CrashSpec>,
    /// Network partitions (none by default).
    pub partition: Option<PartitionSpec>,
    /// Checkpoint-storage pressure: capacity shrink and leaked
    /// reservations (none by default).
    pub pressure: Option<PressureSpec>,
    /// Nodes per rack — the failure domain crash/partition schedules
    /// correlate over (rack = node / rack_size).
    pub rack_size: u32,
    /// Checkpoint-path circuit-breaker thresholds (off by default).
    pub breaker: Option<BreakerSpec>,
    /// Dump retries after the first failed attempt before falling back
    /// to a kill (`"dump-fail"`).
    pub max_dump_retries: u32,
    /// Base backoff before a dump retry; doubles per attempt.
    pub dump_retry_backoff: SimDuration,
    /// Restore retries after the first failed attempt before
    /// restarting the task from scratch.
    pub max_restore_retries: u32,
    /// RM-side escalation deadline for an unresponsive AM when no
    /// `graceful_timeout` is configured (liveness backstop).
    pub escalation_timeout: SimDuration,
    /// Checkpoint transfer chunk size: dumps/restores are split into
    /// chunks of this size, each independently checksummed (and, under
    /// `corrupt_image_prob`, independently corruptible). Resumed dumps
    /// restart from the last durable chunk boundary.
    pub chunk_bytes: ByteSize,
    /// Whether interrupted dumps resume from the last durable chunk and
    /// corrupt restores attempt chunk re-fetch / longest-valid-prefix
    /// recovery. On by default; the `resume=false` ablation restores the
    /// legacy behaviour — every retry re-dumps from byte zero and any
    /// corruption scratch-restarts the task.
    pub resume: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            dump_fail_prob: 0.0,
            restore_fail_prob: 0.0,
            corrupt_image_prob: 0.0,
            am_unresponsive_prob: 0.0,
            stall: None,
            crash: None,
            partition: None,
            pressure: None,
            rack_size: 4,
            breaker: None,
            max_dump_retries: 2,
            dump_retry_backoff: SimDuration::from_secs(5),
            max_restore_retries: 2,
            escalation_timeout: SimDuration::from_secs(60),
            chunk_bytes: ByteSize::from_mb(64),
            resume: true,
        }
    }
}

impl FaultSpec {
    /// The `light` chaos profile: occasional faults, quick recovery.
    pub fn light() -> Self {
        FaultSpec {
            dump_fail_prob: 0.05,
            restore_fail_prob: 0.05,
            corrupt_image_prob: 0.01,
            am_unresponsive_prob: 0.02,
            stall: Some(StallSpec {
                prob: 0.05,
                ..StallSpec::default()
            }),
            ..FaultSpec::default()
        }
    }

    /// The `heavy` chaos profile: the hostile regime where checkpoint
    /// value can invert.
    pub fn heavy() -> Self {
        FaultSpec {
            dump_fail_prob: 0.25,
            restore_fail_prob: 0.25,
            corrupt_image_prob: 0.10,
            am_unresponsive_prob: 0.15,
            stall: Some(StallSpec {
                prob: 0.25,
                slowdown: 8.0,
                window: SimDuration::from_secs(300),
            }),
            ..FaultSpec::default()
        }
    }

    /// The `chaos` profile: heavy per-operation faults plus correlated
    /// failure domains (node/rack crashes, rack partitions) and the
    /// circuit breakers engaged — the regime the cbp-health machinery
    /// exists for.
    pub fn chaos() -> Self {
        FaultSpec {
            crash: Some(CrashSpec {
                node_prob: 0.15,
                rack_prob: 0.10,
                ..CrashSpec::default()
            }),
            partition: Some(PartitionSpec {
                prob: 0.20,
                ..PartitionSpec::default()
            }),
            breaker: Some(BreakerSpec::default()),
            ..FaultSpec::heavy()
        }
    }

    /// The `pressure` profile: healthy dump/restore paths but scarce
    /// checkpoint storage — capacity cut to 5% and regular reservation
    /// leaks — so the image-lifecycle ladder (GC → evict → spill →
    /// no-space kill) carries the run instead of the retry machinery.
    pub fn pressure() -> Self {
        FaultSpec {
            pressure: Some(PressureSpec {
                capacity_frac: 0.05,
                leak_prob: 0.25,
                ..PressureSpec::default()
            }),
            ..FaultSpec::default()
        }
    }

    /// Parses a CLI fault spec.
    ///
    /// Accepts a named profile (`off`, `light`, `heavy`, `chaos`,
    /// `pressure`) or a comma-separated `key=value` list, optionally
    /// starting from a profile (`heavy,seed=7`). Keys:
    ///
    /// | key | meaning |
    /// |---|---|
    /// | `seed` | fault-plan seed (u64) |
    /// | `dump` | dump failure probability |
    /// | `restore` | restore failure probability |
    /// | `corrupt` | corrupted-image probability |
    /// | `am` | AM-unresponsive probability |
    /// | `stall` | device stall-window probability |
    /// | `slowdown` | stalled-window service multiplier |
    /// | `window` | stall window length, seconds |
    /// | `dump-retries` | dump retry budget |
    /// | `restore-retries` | restore retry budget |
    /// | `backoff` | base dump retry backoff, seconds |
    /// | `escalation` | AM escalation deadline, seconds |
    /// | `crash` | per-(node, window) crash probability |
    /// | `rack` | per-(rack, window) whole-rack crash probability |
    /// | `downtime` | crash downtime, seconds (< crash window) |
    /// | `crash-window` | crash window length, seconds |
    /// | `partition` | per-window rack-partition probability |
    /// | `penalty` | cross-partition service multiplier (>= 1) |
    /// | `partition-window` | partition window length, seconds |
    /// | `rack-size` | nodes per rack (failure-domain granularity) |
    /// | `breaker` | breaker failure-rate threshold (enables breakers) |
    /// | `breaker-min` | breaker minimum sample mass |
    /// | `breaker-cooldown` | breaker open -> half-open cooldown, seconds |
    /// | `breaker-decay` | breaker window decay, in (0, 1] |
    /// | `cap` | checkpoint-capacity multiplier, in (0, 1] |
    /// | `leak` | per-(node, window) leaked-reservation probability |
    /// | `leak-gb` | leaked reservation size, GB |
    /// | `leak-window` | leak window length, seconds |
    /// | `chunk-mb` | checkpoint transfer chunk size, MB (> 0) |
    /// | `resume` | resumable transfers + targeted repair (`true`/`false`) |
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for (i, part) in text.split(',').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part {
                "off" => {
                    spec = FaultSpec::default();
                    continue;
                }
                "light" => {
                    spec = FaultSpec::light();
                    continue;
                }
                "heavy" => {
                    spec = FaultSpec::heavy();
                    continue;
                }
                "chaos" => {
                    spec = FaultSpec::chaos();
                    continue;
                }
                "pressure" => {
                    spec = FaultSpec::pressure();
                    continue;
                }
                _ => {}
            }
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!(
                    "fault spec item {i} ({part:?}): expected profile \
                     (off/light/heavy) or key=value"
                ));
            };
            let prob = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("fault spec {key}={v}: expected probability in [0,1]"))
            };
            let secs = |v: &str| -> Result<SimDuration, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 0.0)
                    .map(SimDuration::from_secs_f64)
                    .ok_or_else(|| format!("fault spec {key}={v}: expected seconds >= 0"))
            };
            match key {
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("fault spec seed={value}: expected u64"))?;
                }
                "dump" => spec.dump_fail_prob = prob(value)?,
                "restore" => spec.restore_fail_prob = prob(value)?,
                "corrupt" => spec.corrupt_image_prob = prob(value)?,
                "am" => spec.am_unresponsive_prob = prob(value)?,
                "stall" => {
                    spec.stall.get_or_insert_with(StallSpec::default).prob = prob(value)?;
                }
                "slowdown" => {
                    let s = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 1.0)
                        .ok_or_else(|| {
                            format!("fault spec slowdown={value}: expected factor >= 1")
                        })?;
                    spec.stall.get_or_insert_with(StallSpec::default).slowdown = s;
                }
                "window" => {
                    let w = secs(value)?;
                    if w.is_zero() {
                        return Err("fault spec window=0: window must be positive".into());
                    }
                    spec.stall.get_or_insert_with(StallSpec::default).window = w;
                }
                "dump-retries" => {
                    spec.max_dump_retries = value
                        .parse()
                        .map_err(|_| format!("fault spec dump-retries={value}: expected u32"))?;
                }
                "restore-retries" => {
                    spec.max_restore_retries = value
                        .parse()
                        .map_err(|_| format!("fault spec restore-retries={value}: expected u32"))?;
                }
                "backoff" => spec.dump_retry_backoff = secs(value)?,
                "escalation" => spec.escalation_timeout = secs(value)?,
                "crash" => {
                    spec.crash.get_or_insert_with(CrashSpec::default).node_prob = prob(value)?;
                }
                "rack" => {
                    spec.crash.get_or_insert_with(CrashSpec::default).rack_prob = prob(value)?;
                }
                "downtime" => {
                    spec.crash.get_or_insert_with(CrashSpec::default).downtime = secs(value)?;
                }
                "crash-window" => {
                    let w = secs(value)?;
                    if w.is_zero() {
                        return Err("fault spec crash-window=0: window must be positive".into());
                    }
                    spec.crash.get_or_insert_with(CrashSpec::default).window = w;
                }
                "partition" => {
                    spec.partition
                        .get_or_insert_with(PartitionSpec::default)
                        .prob = prob(value)?;
                }
                "penalty" => {
                    let p = value
                        .parse::<f64>()
                        .ok()
                        .filter(|p| *p >= 1.0)
                        .ok_or_else(|| {
                            format!("fault spec penalty={value}: expected factor >= 1")
                        })?;
                    spec.partition
                        .get_or_insert_with(PartitionSpec::default)
                        .penalty = p;
                }
                "partition-window" => {
                    let w = secs(value)?;
                    if w.is_zero() {
                        return Err("fault spec partition-window=0: window must be positive".into());
                    }
                    spec.partition
                        .get_or_insert_with(PartitionSpec::default)
                        .window = w;
                }
                "rack-size" => {
                    spec.rack_size =
                        value
                            .parse::<u32>()
                            .ok()
                            .filter(|r| *r >= 1)
                            .ok_or_else(|| {
                                format!("fault spec rack-size={value}: expected integer >= 1")
                            })?;
                }
                "breaker" => {
                    spec.breaker
                        .get_or_insert_with(BreakerSpec::default)
                        .threshold = prob(value)?;
                }
                "breaker-min" => {
                    let m = value
                        .parse::<f64>()
                        .ok()
                        .filter(|m| *m >= 1.0)
                        .ok_or_else(|| {
                            format!("fault spec breaker-min={value}: expected samples >= 1")
                        })?;
                    spec.breaker
                        .get_or_insert_with(BreakerSpec::default)
                        .min_samples = m;
                }
                "breaker-cooldown" => {
                    spec.breaker
                        .get_or_insert_with(BreakerSpec::default)
                        .cooldown = secs(value)?;
                }
                "breaker-decay" => {
                    let d = value
                        .parse::<f64>()
                        .ok()
                        .filter(|d| *d > 0.0 && *d <= 1.0)
                        .ok_or_else(|| {
                            format!("fault spec breaker-decay={value}: expected factor in (0,1]")
                        })?;
                    spec.breaker.get_or_insert_with(BreakerSpec::default).decay = d;
                }
                "cap" => {
                    let c = value
                        .parse::<f64>()
                        .ok()
                        .filter(|c| *c > 0.0 && *c <= 1.0)
                        .ok_or_else(|| {
                            format!("fault spec cap={value}: expected fraction in (0,1]")
                        })?;
                    spec.pressure
                        .get_or_insert_with(PressureSpec::default)
                        .capacity_frac = c;
                }
                "leak" => {
                    spec.pressure
                        .get_or_insert_with(PressureSpec::default)
                        .leak_prob = prob(value)?;
                }
                "leak-gb" => {
                    let g = value
                        .parse::<f64>()
                        .ok()
                        .filter(|g| *g > 0.0)
                        .ok_or_else(|| format!("fault spec leak-gb={value}: expected GB > 0"))?;
                    spec.pressure
                        .get_or_insert_with(PressureSpec::default)
                        .leak_bytes = ByteSize::from_gb_f64(g);
                }
                "leak-window" => {
                    let w = secs(value)?;
                    if w.is_zero() {
                        return Err("fault spec leak-window=0: window must be positive".into());
                    }
                    spec.pressure
                        .get_or_insert_with(PressureSpec::default)
                        .window = w;
                }
                "chunk-mb" => {
                    let mb = value
                        .parse::<f64>()
                        .ok()
                        .filter(|m| *m > 0.0)
                        .ok_or_else(|| format!("fault spec chunk-mb={value}: expected MB > 0"))?;
                    spec.chunk_bytes = ByteSize::from_bytes((mb * 1e6) as u64);
                }
                "resume" => {
                    spec.resume = value.parse::<bool>().map_err(|_| {
                        format!("fault spec resume={value}: expected true or false")
                    })?;
                }
                other => return Err(format!("fault spec: unknown key {other:?}")),
            }
        }
        if let Some(c) = spec.crash {
            // Liveness validity limit: a node must be up for part of
            // every window, or a p=1 schedule never lets work finish.
            if c.downtime >= c.window {
                return Err(format!(
                    "fault spec: crash downtime ({}s) must be below the crash \
                     window ({}s)",
                    c.downtime.as_secs_f64(),
                    c.window.as_secs_f64()
                ));
            }
        }
        Ok(spec)
    }

    /// True if every fault probability is zero (the plan injects
    /// nothing; stall/crash/partition windows with zero probability
    /// also count as inert). A configured breaker keeps the plan
    /// non-inert even with all probabilities zero: breakers also react
    /// to organic failures (capacity fallbacks), so their thresholds
    /// can change behaviour without any injection.
    pub fn is_inert(&self) -> bool {
        self.dump_fail_prob == 0.0
            && self.restore_fail_prob == 0.0
            && self.corrupt_image_prob == 0.0
            && self.am_unresponsive_prob == 0.0
            && self.stall.is_none_or(|s| s.prob == 0.0)
            && self
                .crash
                .is_none_or(|c| c.node_prob == 0.0 && c.rack_prob == 0.0)
            && self.partition.is_none_or(|p| p.prob == 0.0)
            && self
                .pressure
                .is_none_or(|p| p.capacity_frac >= 1.0 && p.leak_prob == 0.0)
            && self.breaker.is_none()
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} dump={} restore={} corrupt={} am={}",
            self.seed,
            self.dump_fail_prob,
            self.restore_fail_prob,
            self.corrupt_image_prob,
            self.am_unresponsive_prob,
        )?;
        if let Some(s) = self.stall {
            write!(
                f,
                " stall={} slowdown={} window={}s",
                s.prob,
                s.slowdown,
                s.window.as_secs_f64()
            )?;
        }
        if let Some(c) = self.crash {
            write!(
                f,
                " crash={} rack={} downtime={}s crash-window={}s rack-size={}",
                c.node_prob,
                c.rack_prob,
                c.downtime.as_secs_f64(),
                c.window.as_secs_f64(),
                self.rack_size
            )?;
        }
        if let Some(p) = self.partition {
            write!(
                f,
                " partition={} penalty={} partition-window={}s",
                p.prob,
                p.penalty,
                p.window.as_secs_f64()
            )?;
        }
        if let Some(p) = self.pressure {
            write!(
                f,
                " cap={} leak={} leak-gb={} leak-window={}s",
                p.capacity_frac,
                p.leak_prob,
                p.leak_bytes.as_gb_f64(),
                p.window.as_secs_f64()
            )?;
        }
        if let Some(b) = self.breaker {
            write!(
                f,
                " breaker={} min={} cooldown={}s decay={}",
                b.threshold,
                b.min_samples,
                b.cooldown.as_secs_f64(),
                b.decay
            )?;
        }
        if self.chunk_bytes != ByteSize::from_mb(64) {
            write!(f, " chunk-mb={}", self.chunk_bytes.as_u64() as f64 / 1e6)?;
        }
        if !self.resume {
            write!(f, " resume=false")?;
        }
        Ok(())
    }
}

// Domain-separation tags: one per decision family, so e.g. dump and
// restore faults for the same (task, epoch, attempt) are independent.
const TAG_DUMP: u64 = 0x009D_5F01;
const TAG_RESTORE: u64 = 0x009D_5F02;
const TAG_CORRUPT: u64 = 0x009D_5F03;
const TAG_AM: u64 = 0x009D_5F04;
const TAG_STALL: u64 = 0x009D_5F05;
const TAG_CRASH: u64 = 0x009D_5F06;
const TAG_RACK: u64 = 0x009D_5F07;
const TAG_PARTITION: u64 = 0x009D_5F08;
const TAG_LEAK: u64 = 0x009D_5F09;
const TAG_RESUME: u64 = 0x009D_5F0A;
const TAG_REFETCH: u64 = 0x009D_5F0B;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform f64 in `[0, 1)` (53 mantissa bits).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The decision oracle built from a [`FaultSpec`].
///
/// Every method is a pure function of `(spec, arguments)` — no internal
/// state, no RNG stream — so decisions are order-independent and the
/// plan can be consulted from any point in the event loop without
/// perturbing determinism.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Builds the oracle.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan { spec }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    fn decide(&self, tag: u64, a: u64, b: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let h = mix(mix(mix(mix(self.spec.seed) ^ tag) ^ a) ^ b);
        unit(h) < p
    }

    /// Does dump attempt `attempt` of `(task, epoch)` fail?
    pub fn dump_fails(&self, task: u64, epoch: u32, attempt: u32) -> bool {
        self.decide(
            TAG_DUMP,
            task,
            ((epoch as u64) << 32) | attempt as u64,
            self.spec.dump_fail_prob,
        )
    }

    /// Does restore attempt `attempt` of `(task, epoch)` fail
    /// transiently?
    pub fn restore_fails(&self, task: u64, epoch: u32, attempt: u32) -> bool {
        self.decide(
            TAG_RESTORE,
            task,
            ((epoch as u64) << 32) | attempt as u64,
            self.spec.restore_fail_prob,
        )
    }

    /// Is the image dumped at `(task, epoch)` corrupted? Corruption is
    /// decided per image, not per attempt: retries never help.
    ///
    /// Legacy whole-image draw, kept for the `resume=false` ablation;
    /// the chunked path uses [`FaultPlan::chunk_corrupt`], which spends
    /// the same per-image corruption mass at chunk granularity.
    pub fn image_corrupt(&self, task: u64, epoch: u32) -> bool {
        self.decide(
            TAG_CORRUPT,
            task,
            epoch as u64,
            self.spec.corrupt_image_prob,
        )
    }

    /// Is chunk `chunk` (of `chunks` total) of the image dumped at
    /// `(task, epoch)` corrupted?
    ///
    /// The per-chunk reinterpretation of `corrupt_image_prob`: each chunk
    /// draws independently from the same `TAG_CORRUPT` stream at
    /// probability `corrupt_image_prob / chunks`, so the *per-image*
    /// corruption mass stays ≈ `corrupt_image_prob` no matter how many
    /// chunks an image splits into — profiles keep their meaning, and
    /// replaying the same `(seed, plan)` is byte-identical because the
    /// draw is a pure hash like every other decision.
    pub fn chunk_corrupt(&self, task: u64, epoch: u32, chunk: u64, chunks: u64) -> bool {
        let p = self.spec.corrupt_image_prob / chunks.max(1) as f64;
        self.decide(TAG_CORRUPT, task, ((epoch as u64) << 32) | chunk, p)
    }

    /// Fraction of a failed dump's chunks that were durably written
    /// before the interruption, uniform in `[0, 1)`. The resumed retry
    /// re-writes only the suffix past the last durable chunk boundary.
    pub fn dump_durable_frac(&self, task: u64, epoch: u32, attempt: u32) -> f64 {
        let b = ((epoch as u64) << 32) | attempt as u64;
        unit(mix(mix(mix(mix(self.spec.seed) ^ TAG_RESUME) ^ task) ^ b))
    }

    /// Does the targeted re-fetch of corrupt chunk `chunk` of `(task,
    /// epoch)` from a DFS replica fail? Drawn at the restore failure
    /// probability — a replica re-read shares the restore path's odds.
    pub fn chunk_refetch_fails(&self, task: u64, epoch: u32, chunk: u64) -> bool {
        self.decide(
            TAG_REFETCH,
            task,
            ((epoch as u64) << 32) | chunk,
            self.spec.restore_fail_prob,
        )
    }

    /// Whether resumable transfers and targeted repair are enabled
    /// (the `resume=false` ablation turns them off).
    pub fn resume_enabled(&self) -> bool {
        self.spec.resume
    }

    /// Checkpoint transfer chunk size in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.spec.chunk_bytes.as_u64().max(1)
    }

    /// Does the AM ignore the preemption request issued at `(task,
    /// epoch)`?
    pub fn am_unresponsive(&self, task: u64, epoch: u32) -> bool {
        self.decide(TAG_AM, task, epoch as u64, self.spec.am_unresponsive_prob)
    }

    /// Service-time multiplier for storage operations on `node` at
    /// `now` (1.0 when healthy, `slowdown` inside a stalled window).
    pub fn device_factor(&self, node: u32, now: SimTime) -> f64 {
        let Some(stall) = self.spec.stall else {
            return 1.0;
        };
        if stall.prob <= 0.0 {
            return 1.0;
        }
        let widx = now.as_micros() / stall.window.as_micros().max(1);
        if self.decide(TAG_STALL, node as u64, widx, stall.prob) {
            stall.slowdown.max(1.0)
        } else {
            1.0
        }
    }

    /// The crash schedule, if one is configured with a non-zero
    /// probability.
    pub fn crash(&self) -> Option<&CrashSpec> {
        self.spec
            .crash
            .as_ref()
            .filter(|c| c.node_prob > 0.0 || c.rack_prob > 0.0)
    }

    /// The partition schedule, if one is configured with a non-zero
    /// probability.
    pub fn partition(&self) -> Option<&PartitionSpec> {
        self.spec.partition.as_ref().filter(|p| p.prob > 0.0)
    }

    /// The breaker thresholds, if circuit breakers are enabled.
    pub fn breaker(&self) -> Option<&BreakerSpec> {
        self.spec.breaker.as_ref()
    }

    /// The storage-pressure schedule, if one is configured that actually
    /// perturbs anything (shrunk capacity or a non-zero leak rate).
    pub fn pressure(&self) -> Option<&PressureSpec> {
        self.spec
            .pressure
            .as_ref()
            .filter(|p| p.capacity_frac < 1.0 || p.leak_prob > 0.0)
    }

    /// Checkpoint-capacity multiplier applied at simulator construction
    /// (1.0 when no pressure is configured).
    pub fn capacity_frac(&self) -> f64 {
        self.pressure()
            .map_or(1.0, |p| p.capacity_frac.clamp(f64::MIN_POSITIVE, 1.0))
    }

    /// Does `node` leak a reservation at the start of leak window
    /// `widx`? Pure function of the plan, like every other schedule.
    pub fn leaks(&self, node: u32, widx: u64) -> bool {
        let Some(p) = self.pressure() else {
            return false;
        };
        self.decide(TAG_LEAK, node as u64, widx, p.leak_prob)
    }

    /// The failure-domain (rack) a node belongs to.
    pub fn rack_of(&self, node: u32) -> u32 {
        node / self.spec.rack_size.max(1)
    }

    /// Does `node` crash at the start of crash window `widx` — either
    /// on its own or because its whole rack goes down? Pure function of
    /// the plan, so crash schedules replay exactly and never perturb
    /// the simulator's RNG stream.
    pub fn node_crashes(&self, node: u32, widx: u64) -> bool {
        let Some(c) = self.crash() else {
            return false;
        };
        self.decide(TAG_CRASH, node as u64, widx, c.node_prob)
            || self.decide(TAG_RACK, self.rack_of(node) as u64, widx, c.rack_prob)
    }

    /// The rack isolated by a network partition during partition window
    /// `widx`, if that window is partitioned. `racks` is the cluster's
    /// rack count (ceil(nodes / rack_size)).
    pub fn partition_isolates(&self, widx: u64, racks: u32) -> Option<u32> {
        let p = self.partition()?;
        if racks == 0 || !self.decide(TAG_PARTITION, widx, 0, p.prob) {
            return None;
        }
        // The victim rack is an independent hash of the window (b=1
        // domain-separates it from the yes/no draw above).
        let h = mix(mix(mix(mix(self.spec.seed) ^ TAG_PARTITION) ^ widx) ^ 1);
        Some((h % racks as u64) as u32)
    }

    /// Backoff before dump retry `attempt` (1-based): exponential,
    /// doubling per attempt, capped at 16× the base.
    pub fn dump_retry_backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(4);
        SimDuration::from_micros(
            self.spec
                .dump_retry_backoff
                .as_micros()
                .saturating_mul(1u64 << shift),
        )
    }

    /// Dump retry budget (attempts allowed after the first failure).
    pub fn max_dump_retries(&self) -> u32 {
        self.spec.max_dump_retries
    }

    /// Restore retry budget.
    pub fn max_restore_retries(&self) -> u32 {
        self.spec.max_restore_retries
    }

    /// RM-side escalation deadline for an unresponsive AM.
    pub fn escalation_timeout(&self) -> SimDuration {
        self.spec.escalation_timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let plan = FaultPlan::new(FaultSpec {
            dump_fail_prob: 0.5,
            restore_fail_prob: 0.5,
            ..FaultSpec::default()
        });
        let a: Vec<bool> = (0..100).map(|i| plan.dump_fails(i, 0, 0)).collect();
        // Consulting other decision families in between changes nothing.
        let _ = plan.restore_fails(3, 1, 2);
        let b: Vec<bool> = (0..100).map(|i| plan.dump_fails(i, 0, 0)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.5 over 100 draws fires");
        assert!(!a.iter().all(|&x| x), "p=0.5 over 100 draws also misses");
    }

    #[test]
    fn zero_probability_never_fires() {
        let plan = FaultPlan::new(FaultSpec::default());
        assert!(plan.spec().is_inert());
        for t in 0..1000u64 {
            assert!(!plan.dump_fails(t, 0, 0));
            assert!(!plan.restore_fails(t, 0, 0));
            assert!(!plan.image_corrupt(t, 0));
            assert!(!plan.am_unresponsive(t, 0));
            assert_eq!(plan.device_factor(t as u32, SimTime::from_secs(t)), 1.0);
        }
    }

    #[test]
    fn unit_probability_always_fires() {
        let plan = FaultPlan::new(FaultSpec {
            dump_fail_prob: 1.0,
            ..FaultSpec::default()
        });
        for t in 0..100u64 {
            assert!(plan.dump_fails(t, 3, 1));
        }
    }

    #[test]
    fn seeds_decouple_plans() {
        let a = FaultPlan::new(FaultSpec {
            seed: 1,
            dump_fail_prob: 0.5,
            ..FaultSpec::default()
        });
        let b = FaultPlan::new(FaultSpec {
            seed: 2,
            dump_fail_prob: 0.5,
            ..FaultSpec::default()
        });
        let same = (0..256u64)
            .filter(|&t| a.dump_fails(t, 0, 0) == b.dump_fails(t, 0, 0))
            .count();
        assert!(same < 256, "different seeds must disagree somewhere");
    }

    #[test]
    fn families_are_domain_separated() {
        let plan = FaultPlan::new(FaultSpec {
            dump_fail_prob: 0.5,
            restore_fail_prob: 0.5,
            ..FaultSpec::default()
        });
        let agree = (0..256u64)
            .filter(|&t| plan.dump_fails(t, 0, 0) == plan.restore_fails(t, 0, 0))
            .count();
        assert!(agree < 256, "dump and restore draws must be independent");
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 9,
            dump_fail_prob: 0.2,
            ..FaultSpec::default()
        });
        let n = 20_000u64;
        let hits = (0..n).filter(|&t| plan.dump_fails(t, 0, 0)).count() as f64;
        let rate = hits / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate} far from 0.2");
    }

    #[test]
    fn stall_windows_are_stable_within_a_window() {
        let plan = FaultPlan::new(FaultSpec {
            stall: Some(StallSpec {
                prob: 0.5,
                slowdown: 3.0,
                window: SimDuration::from_secs(100),
            }),
            ..FaultSpec::default()
        });
        let mut stalled = 0;
        for w in 0..200u64 {
            let t0 = SimTime::from_secs(w * 100);
            let t1 = SimTime::from_secs(w * 100 + 99);
            let f0 = plan.device_factor(0, t0);
            let f1 = plan.device_factor(0, t1);
            assert_eq!(f0, f1, "factor is constant inside window {w}");
            assert!(f0 == 1.0 || f0 == 3.0);
            if f0 > 1.0 {
                stalled += 1;
            }
        }
        assert!(stalled > 50 && stalled < 150, "stalled {stalled}/200");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let plan = FaultPlan::new(FaultSpec {
            dump_retry_backoff: SimDuration::from_secs(5),
            ..FaultSpec::default()
        });
        assert_eq!(plan.dump_retry_backoff(1), SimDuration::from_secs(5));
        assert_eq!(plan.dump_retry_backoff(2), SimDuration::from_secs(10));
        assert_eq!(plan.dump_retry_backoff(3), SimDuration::from_secs(20));
        assert_eq!(plan.dump_retry_backoff(100), SimDuration::from_secs(80));
    }

    #[test]
    fn parse_profiles_and_overrides() {
        assert_eq!(FaultSpec::parse("off").unwrap(), FaultSpec::default());
        assert_eq!(FaultSpec::parse("light").unwrap(), FaultSpec::light());
        assert_eq!(FaultSpec::parse("heavy").unwrap(), FaultSpec::heavy());
        let s = FaultSpec::parse("dump=0.2,restore=0.1,corrupt=0.05,am=0.3,seed=7").unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.dump_fail_prob, 0.2);
        assert_eq!(s.restore_fail_prob, 0.1);
        assert_eq!(s.corrupt_image_prob, 0.05);
        assert_eq!(s.am_unresponsive_prob, 0.3);
        let s = FaultSpec::parse("heavy,seed=3,dump=0.5").unwrap();
        assert_eq!(s.seed, 3);
        assert_eq!(s.dump_fail_prob, 0.5);
        assert_eq!(s.restore_fail_prob, FaultSpec::heavy().restore_fail_prob);
        let s = FaultSpec::parse("stall=0.4,slowdown=6,window=120").unwrap();
        let st = s.stall.unwrap();
        assert_eq!(st.prob, 0.4);
        assert_eq!(st.slowdown, 6.0);
        assert_eq!(st.window, SimDuration::from_secs(120));
        let s =
            FaultSpec::parse("dump-retries=5,restore-retries=1,backoff=2,escalation=30").unwrap();
        assert_eq!(s.max_dump_retries, 5);
        assert_eq!(s.max_restore_retries, 1);
        assert_eq!(s.dump_retry_backoff, SimDuration::from_secs(2));
        assert_eq!(s.escalation_timeout, SimDuration::from_secs(30));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultSpec::parse("dump=1.5").is_err());
        assert!(FaultSpec::parse("dump=-0.1").is_err());
        assert!(FaultSpec::parse("slowdown=0.5").is_err());
        assert!(FaultSpec::parse("window=0").is_err());
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("noequals").is_err());
        assert!(FaultSpec::parse("seed=abc").is_err());
    }

    #[test]
    fn display_is_compact() {
        let s = FaultSpec::parse("light").unwrap();
        let text = format!("{s}");
        assert!(text.contains("dump=0.05"));
        assert!(text.contains("stall=0.05"));
        let s = FaultSpec::parse("chaos").unwrap();
        let text = format!("{s}");
        assert!(text.contains("crash=0.15"));
        assert!(text.contains("partition=0.2"));
        assert!(text.contains("breaker=0.5"));
    }

    #[test]
    fn parse_chaos_keys() {
        let s = FaultSpec::parse(
            "crash=0.2,rack=0.1,downtime=120,crash-window=900,rack-size=8,\
             partition=0.3,penalty=4,partition-window=600,\
             breaker=0.4,breaker-min=6,breaker-cooldown=300,breaker-decay=0.8",
        )
        .unwrap();
        let c = s.crash.unwrap();
        assert_eq!(c.node_prob, 0.2);
        assert_eq!(c.rack_prob, 0.1);
        assert_eq!(c.downtime, SimDuration::from_secs(120));
        assert_eq!(c.window, SimDuration::from_secs(900));
        assert_eq!(s.rack_size, 8);
        let p = s.partition.unwrap();
        assert_eq!(p.prob, 0.3);
        assert_eq!(p.penalty, 4.0);
        assert_eq!(p.window, SimDuration::from_secs(600));
        let b = s.breaker.unwrap();
        assert_eq!(b.threshold, 0.4);
        assert_eq!(b.min_samples, 6.0);
        assert_eq!(b.cooldown, SimDuration::from_secs(300));
        assert_eq!(b.decay, 0.8);
        assert_eq!(FaultSpec::parse("chaos").unwrap(), FaultSpec::chaos());
    }

    #[test]
    fn parse_rejects_bad_chaos_input() {
        assert!(FaultSpec::parse("crash=2").is_err());
        assert!(FaultSpec::parse("penalty=0.5").is_err());
        assert!(FaultSpec::parse("rack-size=0").is_err());
        assert!(FaultSpec::parse("breaker-decay=0").is_err());
        assert!(FaultSpec::parse("breaker-decay=1.5").is_err());
        assert!(FaultSpec::parse("breaker-min=0").is_err());
        assert!(FaultSpec::parse("partition-window=0").is_err());
        assert!(FaultSpec::parse("crash-window=0").is_err());
        // Liveness validity limit: downtime must stay below the window.
        assert!(FaultSpec::parse("crash=0.1,downtime=900,crash-window=900").is_err());
        assert!(FaultSpec::parse("crash=0.1,downtime=899,crash-window=900").is_ok());
    }

    #[test]
    fn chaos_inertness() {
        // Zero-probability chaos windows stay inert...
        let s = FaultSpec {
            crash: Some(CrashSpec::default()),
            partition: Some(PartitionSpec::default()),
            ..FaultSpec::default()
        };
        assert!(s.is_inert());
        let plan = FaultPlan::new(s);
        assert!(plan.crash().is_none());
        assert!(plan.partition().is_none());
        for n in 0..100 {
            assert!(!plan.node_crashes(n, 3));
        }
        assert_eq!(plan.partition_isolates(3, 8), None);
        // ...but a configured breaker does not (it reacts to organic
        // failures too).
        let s = FaultSpec {
            breaker: Some(BreakerSpec::default()),
            ..FaultSpec::default()
        };
        assert!(!s.is_inert());
    }

    #[test]
    fn rack_crashes_are_correlated() {
        let plan = FaultPlan::new(FaultSpec {
            crash: Some(CrashSpec {
                rack_prob: 0.5,
                ..CrashSpec::default()
            }),
            rack_size: 4,
            ..FaultSpec::default()
        });
        let mut crashed_windows = 0;
        for w in 0..200u64 {
            // All four nodes of rack 0 agree within a window.
            let first = plan.node_crashes(0, w);
            for n in 1..4 {
                assert_eq!(
                    plan.node_crashes(n, w),
                    first,
                    "rack crash is all-or-nothing"
                );
            }
            if first {
                crashed_windows += 1;
            }
        }
        assert!(
            crashed_windows > 50 && crashed_windows < 150,
            "rack crash rate tracks probability: {crashed_windows}/200"
        );
    }

    #[test]
    fn node_and_rack_draws_are_independent() {
        let plan = FaultPlan::new(FaultSpec {
            crash: Some(CrashSpec {
                node_prob: 0.5,
                ..CrashSpec::default()
            }),
            rack_size: 4,
            ..FaultSpec::default()
        });
        // With rack_prob = 0, nodes of the same rack crash independently.
        let disagree = (0..200u64)
            .filter(|&w| plan.node_crashes(0, w) != plan.node_crashes(1, w))
            .count();
        assert!(disagree > 0, "independent node draws must diverge");
    }

    #[test]
    fn partition_pick_is_deterministic_and_in_range() {
        let plan = FaultPlan::new(FaultSpec {
            partition: Some(PartitionSpec {
                prob: 0.5,
                ..PartitionSpec::default()
            }),
            ..FaultSpec::default()
        });
        let mut hit = 0;
        for w in 0..200u64 {
            let a = plan.partition_isolates(w, 8);
            let b = plan.partition_isolates(w, 8);
            assert_eq!(a, b, "same window, same verdict");
            if let Some(rack) = a {
                assert!(rack < 8);
                hit += 1;
            }
        }
        assert!(hit > 50 && hit < 150, "partition rate tracks probability");
        assert_eq!(plan.partition_isolates(0, 0), None, "no racks, no victim");
    }

    #[test]
    fn parse_pressure_profile_and_keys() {
        assert_eq!(FaultSpec::parse("pressure").unwrap(), FaultSpec::pressure());
        let s = FaultSpec::parse("cap=0.1,leak=0.3,leak-gb=1.5,leak-window=600").unwrap();
        let p = s.pressure.unwrap();
        assert_eq!(p.capacity_frac, 0.1);
        assert_eq!(p.leak_prob, 0.3);
        assert_eq!(p.leak_bytes, ByteSize::from_gb_f64(1.5));
        assert_eq!(p.window, SimDuration::from_secs(600));
        // Overrides on top of the profile.
        let s = FaultSpec::parse("pressure,seed=7,cap=0.02").unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.pressure.unwrap().capacity_frac, 0.02);
        assert_eq!(
            s.pressure.unwrap().leak_prob,
            FaultSpec::pressure().pressure.unwrap().leak_prob
        );
    }

    #[test]
    fn parse_rejects_bad_pressure_input() {
        assert!(FaultSpec::parse("cap=0").is_err());
        assert!(FaultSpec::parse("cap=1.5").is_err());
        assert!(FaultSpec::parse("leak=2").is_err());
        assert!(FaultSpec::parse("leak-gb=0").is_err());
        assert!(FaultSpec::parse("leak-window=0").is_err());
    }

    #[test]
    fn pressure_inertness() {
        // An unshrunk, leak-free pressure block is inert...
        let s = FaultSpec {
            pressure: Some(PressureSpec::default()),
            ..FaultSpec::default()
        };
        assert!(s.is_inert());
        let plan = FaultPlan::new(s);
        assert!(plan.pressure().is_none());
        assert_eq!(plan.capacity_frac(), 1.0);
        for n in 0..100 {
            assert!(!plan.leaks(n, 3));
        }
        // ...but either knob makes it live.
        assert!(!FaultSpec::parse("cap=0.5").unwrap().is_inert());
        assert!(!FaultSpec::parse("leak=0.1").unwrap().is_inert());
        assert!(!FaultSpec::pressure().is_inert());
    }

    #[test]
    fn leak_schedule_is_deterministic_and_tracks_probability() {
        let plan = FaultPlan::new(FaultSpec {
            pressure: Some(PressureSpec {
                leak_prob: 0.5,
                ..PressureSpec::default()
            }),
            ..FaultSpec::default()
        });
        let a: Vec<bool> = (0..200u64).map(|w| plan.leaks(3, w)).collect();
        let b: Vec<bool> = (0..200u64).map(|w| plan.leaks(3, w)).collect();
        assert_eq!(a, b);
        let hits = a.iter().filter(|&&x| x).count();
        assert!(
            hits > 50 && hits < 150,
            "leak rate tracks p=0.5: {hits}/200"
        );
        // Leaks are independent of the crash family under the same seed.
        let disagree = (0..200u64)
            .filter(|&w| plan.leaks(0, w) != plan.leaks(1, w))
            .count();
        assert!(disagree > 0, "per-node leak draws must diverge");
    }

    #[test]
    fn pressure_display_is_compact() {
        let s = FaultSpec::parse("pressure").unwrap();
        let text = format!("{s}");
        assert!(text.contains("cap=0.05"), "{text}");
        assert!(text.contains("leak=0.25"), "{text}");
    }

    #[test]
    fn parse_integrity_keys() {
        let s = FaultSpec::parse("chunk-mb=16,resume=false").unwrap();
        assert_eq!(s.chunk_bytes, ByteSize::from_mb(16));
        assert!(!s.resume);
        let s = FaultSpec::parse("heavy,resume=true").unwrap();
        assert!(s.resume);
        assert_eq!(s.chunk_bytes, ByteSize::from_mb(64), "default chunk size");
        // Fractional chunk sizes are allowed (half-MB chunks).
        let s = FaultSpec::parse("chunk-mb=0.5").unwrap();
        assert_eq!(s.chunk_bytes.as_u64(), 500_000);
    }

    #[test]
    fn parse_rejects_bad_integrity_input() {
        assert!(FaultSpec::parse("chunk-mb=0").is_err());
        assert!(FaultSpec::parse("chunk-mb=-4").is_err());
        assert!(FaultSpec::parse("resume=maybe").is_err());
        assert!(FaultSpec::parse("resume=1").is_err(), "strict bool only");
    }

    #[test]
    fn integrity_keys_do_not_affect_inertness() {
        assert!(FaultSpec::parse("chunk-mb=8,resume=false")
            .unwrap()
            .is_inert());
    }

    #[test]
    fn integrity_display_only_when_non_default() {
        let text = format!("{}", FaultSpec::parse("heavy").unwrap());
        assert!(!text.contains("chunk-mb"), "{text}");
        assert!(!text.contains("resume"), "{text}");
        let text = format!(
            "{}",
            FaultSpec::parse("heavy,chunk-mb=16,resume=false").unwrap()
        );
        assert!(text.contains("chunk-mb=16"), "{text}");
        assert!(text.contains("resume=false"), "{text}");
    }

    #[test]
    fn chunk_corruption_preserves_per_image_mass() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 5,
            corrupt_image_prob: 0.2,
            ..FaultSpec::default()
        });
        // Per-chunk draws are derated by the chunk count, so the fraction
        // of images with at least one corrupt chunk tracks the knob no
        // matter how finely images are chunked.
        for chunks in [1u64, 8, 64] {
            let n = 4_000u64;
            let hit = (0..n)
                .filter(|&t| (0..chunks).any(|c| plan.chunk_corrupt(t, 0, c, chunks)))
                .count() as f64;
            let rate = hit / n as f64;
            // 1-(1-p/n)^n is slightly below p for n > 1; allow that bias
            // plus sampling noise.
            assert!(
                (rate - 0.2).abs() < 0.035,
                "chunks={chunks}: per-image corruption rate {rate} far from 0.2"
            );
        }
    }

    #[test]
    fn chunk_corruption_is_deterministic_and_chunk_separated() {
        let plan = FaultPlan::new(FaultSpec {
            corrupt_image_prob: 0.9,
            ..FaultSpec::default()
        });
        let pattern = |epoch: u32| -> Vec<bool> {
            (0..500u64)
                .flat_map(|t| (0..64).map(move |c| (t, c)))
                .map(|(t, c)| plan.chunk_corrupt(t, epoch, c, 64))
                .collect()
        };
        let a = pattern(2);
        assert_eq!(a, pattern(2), "pure hash: replays identically");
        assert!(a.iter().any(|&x| x), "p=0.9 per image fires somewhere");
        // Different epochs give independent chunk patterns.
        assert_ne!(a, pattern(3), "epochs must decorrelate chunk corruption");
    }

    #[test]
    fn durable_frac_is_uniform_and_deterministic() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 11,
            ..FaultSpec::default()
        });
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|t| plan.dump_durable_frac(t, 1, 0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 0.5).abs() < 0.02,
            "uniform mean {mean} far from 0.5"
        );
        for t in 0..100u64 {
            let f = plan.dump_durable_frac(t, 1, 0);
            assert!((0.0..1.0).contains(&f));
            assert_eq!(f, plan.dump_durable_frac(t, 1, 0), "deterministic");
        }
        assert_ne!(
            plan.dump_durable_frac(3, 1, 0),
            plan.dump_durable_frac(3, 1, 1),
            "attempts must decorrelate"
        );
    }

    #[test]
    fn refetch_draw_tracks_restore_probability() {
        let plan = FaultPlan::new(FaultSpec {
            seed: 3,
            restore_fail_prob: 0.25,
            ..FaultSpec::default()
        });
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&t| plan.chunk_refetch_fails(t, 0, 0))
            .count() as f64;
        let rate = hits / n as f64;
        assert!(
            (rate - 0.25).abs() < 0.02,
            "refetch rate {rate} far from 0.25"
        );
        // Independent of the restore-attempt stream under the same seed.
        let agree = (0..256u64)
            .filter(|&t| plan.chunk_refetch_fails(t, 0, 0) == plan.restore_fails(t, 0, 0))
            .count();
        assert!(agree < 256, "refetch and restore draws must be independent");
        // Zero restore probability -> refetch always succeeds.
        let clean = FaultPlan::new(FaultSpec::default());
        assert!(!clean.chunk_refetch_fails(1, 0, 0));
    }

    #[test]
    fn rack_of_uses_rack_size() {
        let plan = FaultPlan::new(FaultSpec {
            rack_size: 4,
            ..FaultSpec::default()
        });
        assert_eq!(plan.rack_of(0), 0);
        assert_eq!(plan.rack_of(3), 0);
        assert_eq!(plan.rack_of(4), 1);
        assert_eq!(plan.rack_of(11), 2);
    }
}
