//! Golden digests: behaviour-preservation gate for refactors of the
//! simulators and the checkpoint plane.
//!
//! Every scenario below runs one simulator with a JSONL tracer and hashes
//! (64-bit FNV-1a) three artifacts: the trace bytes, the metrics-registry
//! JSON and the report JSON. A refactor that claims to be behaviour
//! preserving must leave every digest unchanged. A deliberate behaviour
//! change re-records only the digests it changes; on mismatch the test
//! prints the complete recomputed table so it can be pasted back in.

use std::cell::RefCell;
use std::rc::Rc;

use cbp_bench::experiments::google_setup;
use cbp_bench::Scale;
use cbp_core::{ClusterSim, PreemptionPolicy};
use cbp_faults::FaultSpec;
use cbp_simkit::SimDuration;
use cbp_storage::MediaKind;
use cbp_telemetry::JsonlTracer;
use cbp_workload::analysis::PreemptionCollector;
use cbp_workload::facebook::FacebookConfig;
use cbp_yarn::{YarnConfig, YarnSim};

/// A `Write` sink whose buffer outlives the boxed tracer.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(trace, registry, report)` digests of one run.
type Digests = (u64, u64, u64);

/// The fault plans every smoke scenario runs under (`None` = no plan),
/// with the lifecycle ladder on or off.
const PLANS: [(&str, Option<&str>, bool); 6] = [
    ("off", None, true),
    ("heavy", Some("heavy,seed=7,corrupt=0.3"), true),
    ("chaos", Some("chaos,seed=7,corrupt=0.3"), true),
    (
        "pressure",
        Some("pressure,seed=7,cap=0.01,leak=0.6,leak-window=300"),
        true,
    ),
    (
        "pressure-nolife",
        Some("pressure,seed=7,cap=0.01,leak=0.6,leak-window=300"),
        false,
    ),
    (
        "noresume",
        Some("heavy,seed=7,corrupt=0.3,resume=false"),
        true,
    ),
];

fn spec(plan: Option<&str>) -> Option<FaultSpec> {
    plan.map(|p| FaultSpec::parse(p).expect("valid plan"))
}

/// The trace simulator as `repro fig3 --scale smoke --seed 42` runs it.
fn cluster(plan: Option<&str>, lifecycle: bool) -> Digests {
    let (workload, base) = google_setup(Scale::SMOKE, 42);
    let mut cfg = base
        .with_policy(PreemptionPolicy::Adaptive)
        .with_lifecycle(lifecycle);
    if let Some(spec) = spec(plan) {
        cfg = cfg.with_faults(spec);
    }
    let buf = SharedBuf::default();
    let mut sim = ClusterSim::new(cfg, workload);
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let report = sim.run();
    let trace = buf.0.borrow().clone();
    (
        fnv1a(&trace),
        fnv1a(report.telemetry.registry.to_json().as_bytes()),
        fnv1a(
            serde_json::to_string(&report.metrics)
                .expect("metrics serialize")
                .as_bytes(),
        ),
    )
}

/// The YARN simulator as `repro fig8 --scale <scale> --seed <seed>` runs it.
fn yarn(scale: Scale, seed: u64, plan: Option<&str>, lifecycle: bool) -> Digests {
    let nodes = scale.apply(8, 2);
    let workload = FacebookConfig {
        jobs: scale.apply(40, 10),
        total_tasks: scale.apply(7_000, 260),
        giant_job_tasks: ((nodes * 24) as f64 * 1.3) as usize,
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd)
        .with_lifecycle(lifecycle);
    cfg.nodes = nodes;
    if let Some(spec) = spec(plan) {
        cfg = cfg.with_faults(spec);
    }
    let buf = SharedBuf::default();
    let mut sim = YarnSim::new(cfg, workload);
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let (report, telemetry) = sim.run_with_telemetry();
    let trace = buf.0.borrow().clone();
    (
        fnv1a(&trace),
        fnv1a(telemetry.registry.to_json().as_bytes()),
        fnv1a(
            serde_json::to_string(&report)
                .expect("report serializes")
                .as_bytes(),
        ),
    )
}

/// Recorded digests, `(scenario, trace, registry, report)`.
#[rustfmt::skip]
const EXPECTED: &[(&str, u64, u64, u64)] = &[
    ("fig3-smoke/off", 0x884751cc55007854, 0x0ccfea7825a19fe6, 0x305fc0d335f6f5f9),
    ("fig8-smoke/off", 0xb576becf532308e1, 0x0f1b5bd46ea02495, 0x71850d679aa1e6dd),
    ("fig3-smoke/heavy", 0x317b2ccf3a57bb80, 0xb515909d9eeec2af, 0x60836ab1cde4457d),
    ("fig8-smoke/heavy", 0xb7f76df50530ed8c, 0x8da9ac1a2d1e1ab5, 0x7abaa6992e21b5e4),
    ("fig3-smoke/chaos", 0xd24879aa7fcc3885, 0xdcb900b565bcd038, 0x5691463497bf864e),
    ("fig8-smoke/chaos", 0xc1aa240c9dd1bd75, 0xb1c7064601794431, 0xb6f282bef86ff2a6),
    ("fig3-smoke/pressure", 0xbb01fd0a7de4cc3b, 0xd12898548450091f, 0xa475ab1923af562b),
    ("fig8-smoke/pressure", 0xa912aab162b0c705, 0x7e7df28a3f882a53, 0xfd395bc61f432ae8),
    ("fig3-smoke/pressure-nolife", 0xd4ea6986f3bd8a9b, 0x76ee43103255f36f, 0x1cd0b77534d1a6d4),
    ("fig8-smoke/pressure-nolife", 0x0bc25af40138a03d, 0x0f0ea8da12ddd446, 0x59bb1f619dd7cb00),
    ("fig3-smoke/noresume", 0x52f7eaf93d838a64, 0xe7418029fe0623ad, 0xd336de2da5963409),
    ("fig8-smoke/noresume", 0x6491dc7f915608b1, 0x03d22a4023a24b00, 0xc5e131a18bc9a44f),
    ("fig8-full/off", 0xed5adeee5abdf44a, 0x4e2de794ca280adc, 0x1212e9905cc0b2e2),
    ("fig8-full/chaos", 0x7fbe0a6b58caadb5, 0xf64f96583bc3b183, 0x1e3e9a99a59cef23),
];

#[test]
fn simulators_match_golden_digests() {
    let mut actual: Vec<(String, Digests)> = Vec::new();
    for (name, plan, lifecycle) in PLANS {
        actual.push((format!("fig3-smoke/{name}"), cluster(plan, lifecycle)));
        actual.push((
            format!("fig8-smoke/{name}"),
            yarn(Scale::SMOKE, 42, plan, lifecycle),
        ));
    }
    actual.push(("fig8-full/off".into(), yarn(Scale::FULL, 42, None, true)));
    actual.push((
        "fig8-full/chaos".into(),
        yarn(Scale::FULL, 42, Some("chaos,seed=42"), true),
    ));

    let table: String = actual
        .iter()
        .map(|(name, (t, g, r))| format!("    (\"{name}\", {t:#018x}, {g:#018x}, {r:#018x}),\n"))
        .collect();
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|((name, d), &(en, et, eg, er))| name == en && *d == (et, eg, er));
    assert!(
        matches,
        "golden digests changed; recomputed table:\n{table}"
    );
}

/// Digest of the §2 preemption analysis of the kill-policy trace sim as
/// `repro fig1 --scale smoke --seed 42` sets it up, optionally under a
/// fault plan, with the 5 s detection window and `bucket_secs` timeline
/// buckets.
fn preemption_analysis(plan: Option<&str>, bucket_secs: u64) -> u64 {
    let (workload, mut cfg) = google_setup(Scale::SMOKE, 42);
    if let Some(spec) = spec(plan) {
        cfg = cfg.with_faults(spec);
    }
    let collector = Rc::new(RefCell::new(PreemptionCollector::with_window(
        &workload,
        SimDuration::from_secs(5),
        SimDuration::from_secs(bucket_secs),
    )));
    let mut sim = ClusterSim::new(cfg, workload);
    sim.set_tracer(Box::new(Rc::clone(&collector)));
    sim.run();
    let analysis = collector.borrow().analysis();
    fnv1a(
        serde_json::to_string(&analysis)
            .expect("analysis serializes")
            .as_bytes(),
    )
}

/// Recorded §2-analysis digests, `(scenario, analysis)`.
#[rustfmt::skip]
const EXPECTED_ANALYSIS: &[(&str, u64)] = &[
    ("fig1-smoke/off/day", 0xe87c0461fff2d635),
    ("fig1-smoke/chaos/day", 0xeda35054c51c2926),
    ("fig1-smoke/off/hour", 0xed79ceddbf980e6d),
];

#[test]
fn preemption_analysis_matches_golden_digests() {
    let actual = [
        ("fig1-smoke/off/day", preemption_analysis(None, 86_400)),
        (
            "fig1-smoke/chaos/day",
            preemption_analysis(Some("chaos,seed=7,corrupt=0.3"), 86_400),
        ),
        ("fig1-smoke/off/hour", preemption_analysis(None, 3_600)),
    ];
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert!(
        actual.as_slice() == EXPECTED_ANALYSIS,
        "analysis digests changed; recomputed table:\n{table}"
    );
}
