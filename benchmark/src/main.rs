//! The cbp benchmark: one workload per invocation, timed end to end with
//! tracing off, then (with `--trace 1`) a separate traced repeat for the
//! per-layer numbers.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload trace_contended --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! Any failed check makes the exit code non-zero. See `README.md` for the
//! workloads, the speed normalisation and the metric → layer → workload map.

mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::{Layers, PER_LAYER};
use workloads::{fig8_err_pp, lowprio_resp_s, run_pass, waste_frac, Kind, Pass};

#[global_allocator]
static ALLOC: cbp_prof::alloc::CountingAllocator = cbp_prof::alloc::CountingAllocator;

/// Host times are reported at the machine speed at which
/// [`reference_kernel`] takes this many seconds.
const REFERENCE_KERNEL_S: f64 = 0.005;

const USAGE: &str =
    "usage: cbp-benchmark --workload <trace_contended|yarn_fig8_sweep|chaos_traced> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let kind = Kind::ALL.into_iter().find(|k| k.name() == value);
                    workload = Some(kind.ok_or_else(|| format!("unknown workload {value}"))?);
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        // Passes derive their seeds by adding small offsets to it.
        if seed > u64::MAX / 2 {
            return Err(format!("--seed {seed} is too large"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Operations attempted and failed, with what the failed checks said.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.failures.extend(pass.failures.iter().cloned());
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {}",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    // Each pass covers fresh inputs, so the medians below pool input
    // variation as well as timing noise. The reference kernel runs between
    // passes; a pass's speed factor comes from the kernel times on either
    // side of it.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    let mut kernel = vec![reference_kernel()];
    while passes.len() < kind.min_passes() as usize || Instant::now() < deadline {
        passes.push(run_pass(kind, args.seed, passes.len() as u64, None));
        kernel.push(reference_kernel());
    }
    let speed: Vec<f64> = kernel
        .windows(2)
        .map(|k| 2.0 * REFERENCE_KERNEL_S / (k[0] + k[1]).as_secs_f64())
        .collect();
    let mut tally = Tally::default();
    passes.iter().for_each(|p| tally.add(p));

    // The leading passes again: traced for the per-layer numbers with
    // `--trace 1`, plain otherwise. Either way each must reproduce exactly.
    let mut layers = args.trace.then(Layers::default);
    let (mut traced_wall, mut untraced_wall) = (Duration::ZERO, Duration::ZERO);
    for (i, first) in passes
        .iter()
        .take(kind.repeated_passes() as usize)
        .enumerate()
    {
        let repeat = run_pass(kind, args.seed, i as u64, layers.as_mut());
        traced_wall += repeat.wall;
        untraced_wall += first.wall;
        tally.add(&repeat);
        if (repeat.events, repeat.digest) != (first.events, first.digest) {
            tally.failed += 1;
            tally.failures.push(format!(
                "pass {i} did not repeat: {} events, digest {:016x} \
                 (first: {} events, digest {:016x})",
                repeat.events, repeat.digest, first.events, first.digest
            ));
        }
    }

    // Medians over passes: `raw` as measured, `at_ref` scaled to reference
    // speed (a rate is divided by the factor, a time multiplied).
    let raw = |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let at_ref = |f: &dyn Fn(&Pass) -> f64| {
        median(passes.iter().zip(&speed).map(|(p, s)| f(p) * s).collect())
    };
    let wall = |p: &Pass| p.wall.as_secs_f64();
    let setup = |p: &Pass| p.setup.as_secs_f64();
    let analyze = |p: &Pass| p.analyze.as_secs_f64();
    let events_per_s = median(
        passes
            .iter()
            .zip(&speed)
            .map(|(p, s)| p.events as f64 / (wall(p) * s))
            .collect(),
    );
    let model = &passes[..kind.min_passes() as usize];
    let end_to_end = [
        ("setup_s", at_ref(&setup), "s"),
        ("wall_s", at_ref(&wall), "s"),
        ("events_per_s", events_per_s, "1/s"),
        (
            "peak_heap_mib",
            raw(&|p| p.peak_heap as f64 / (1u64 << 20) as f64),
            "MiB",
        ),
        ("model_waste_frac", waste_frac(model), "fraction"),
        ("model_lowprio_resp_s", lowprio_resp_s(model), "s"),
    ];
    if let Some(layers) = layers.as_mut() {
        layers.finish(traced_wall, untraced_wall.as_secs_f64());
        layers.set("analyze_s", at_ref(&analyze));
        layers.set("fig8_err_pp", fig8_err_pp(model));
    }

    println!(
        "{} timed passes ({} for the model outputs); pass 0: {} events, digest {:016x}",
        passes.len(),
        model.len(),
        passes[0].events,
        passes[0].digest
    );
    println!(
        "machine speed {:.3} to {:.3} of reference (median {:.3})",
        speed.iter().copied().fold(f64::INFINITY, f64::min),
        speed.iter().copied().fold(0.0, f64::max),
        median(speed.clone())
    );
    println!("end-to-end (untraced, median over passes; host times at reference speed)");
    for (name, value, unit) in &end_to_end {
        println!("  {name:<24} {value:>18.6} {unit}");
    }
    println!(
        "  {:<24} {:>18.6} s (as measured)",
        "wall_s raw",
        raw(&wall)
    );
    println!(
        "  {:<24} {:>18.6} fraction ({} of {} operations)",
        "failed_frac",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    match kind {
        Kind::ChaosTraced => println!("  {:<24} {:>18.6} s", "analyze_s", at_ref(&analyze)),
        Kind::YarnFig8Sweep => println!(
            "  {:<24} {:>18.6} pp (model otherwise unvalidated)",
            "fig8_err_pp",
            fig8_err_pp(model)
        ),
        Kind::TraceContended => {}
    }
    if let Some(layers) = &layers {
        print!("{}", layers.render());
    }
    for f in &tally.failures {
        println!("FAILED: {f}");
    }

    let metrics: Vec<(&str, f64, &str)> = match &layers {
        None => end_to_end.to_vec(),
        Some(layers) => PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, layers.get(name), *unit))
            .collect(),
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    let correct = tally.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A fixed CPU workload that shares no code with the simulators
/// (ordered-map churn, a sort, hashing; ~5 ms on a 2-core x86-64
/// container). On a shared host the CPU speed a process gets can shift by
/// ±30% in phases that last minutes; timing this kernel next to every pass
/// measures the speed the pass ran at.
fn reference_kernel() -> Duration {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut map = BTreeMap::new();
    for i in 0..40_000u64 {
        map.insert(next() % 1_000_000, i);
        if map.len() > 4096 {
            map.pop_first();
        }
    }
    let mut v: Vec<u64> = (0..100_000).map(|_| next()).collect();
    v.sort_unstable();
    let sum = map
        .values()
        .chain(v.iter())
        .fold(0u64, |a, b| a.rotate_left(5) ^ b);
    std::hint::black_box(sum);
    t0.elapsed()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}
