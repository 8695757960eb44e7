//! Criterion micro-benchmarks of the checkpoint substrate (the code behind
//! Fig. 2 and Table 3): dirty-page tracking, dump sizing, and full
//! dump/restore cycles on each medium.

use cbp_checkpoint::{Criu, TaskMemory};
use cbp_simkit::units::ByteSize;
use cbp_simkit::SimTime;
use cbp_storage::{Device, MediaSpec};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_dirty_tracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("dirty_tracking");
    for gb in [1u64, 5] {
        group.bench_function(format!("touch_10pct_{gb}GB"), |b| {
            b.iter_batched(
                || {
                    let mut mem = TaskMemory::new(ByteSize::from_gb(gb));
                    mem.clear_dirty();
                    mem
                },
                |mut mem| {
                    mem.touch_fraction(0.10);
                    black_box(mem.dirty_bytes())
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("dirty_bytes_scan_{gb}GB"), |b| {
            let mem = TaskMemory::new(ByteSize::from_gb(gb));
            b.iter(|| black_box(mem.dirty_bytes()))
        });
    }
    group.finish();
}

fn bench_dump_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("criu_dump_model");
    group.sample_size(20);
    for spec in [MediaSpec::hdd(), MediaSpec::ssd(), MediaSpec::nvm()] {
        group.bench_function(format!("full_plus_incremental_{}", spec.kind()), |b| {
            b.iter_batched(
                || {
                    (
                        Criu::new(true),
                        Device::new(spec),
                        TaskMemory::new(ByteSize::from_gb(5)),
                    )
                },
                |(mut criu, mut dev, mut mem)| {
                    let d1 = criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
                    mem.touch_fraction(0.10);
                    let d2 = criu.dump(1, &mut mem, 0, &mut dev, d1.op.end).unwrap();
                    let service = dev.spec().read_time(criu.image_size(1));
                    let r = criu.restore(1, &mut dev, d2.op.end, service).unwrap();
                    black_box((d1.size, d2.size, r.size))
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_nvram(c: &mut Criterion) {
    use cbp_checkpoint::{NvramCheckpointer, NvramSpec};
    let mut group = c.benchmark_group("nvram_model");
    group.bench_function("suspend_resume_cycle_5GB", |b| {
        b.iter_batched(
            || {
                (
                    NvramCheckpointer::new(NvramSpec::default()),
                    TaskMemory::new(ByteSize::from_gb(5)),
                )
            },
            |(mut nvram, mut mem)| {
                let s1 = nvram.suspend(1, &mut mem).unwrap();
                mem.touch_fraction(0.10);
                let s2 = nvram.suspend(1, &mut mem).unwrap();
                let r = nvram.resume(1, true);
                black_box((s1.copied, s2.copied, r.copied_upfront))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let criu = Criu::new(true);
    let dev = Device::new(MediaSpec::ssd());
    let mem = TaskMemory::new(ByteSize::from_gb(2));
    c.bench_function("algorithm1_estimate", |b| {
        b.iter(|| black_box(criu.estimate(1, &mem, &dev, SimTime::ZERO).total()))
    });
}

criterion_group!(
    benches,
    bench_dirty_tracking,
    bench_dump_cycle,
    bench_nvram,
    bench_estimate
);
criterion_main!(benches);
