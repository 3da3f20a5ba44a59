//! Profiler throughput: edit-script recovery and statistics accumulation
//! per (reference, read) pair — the cost of learning a channel model.

use std::time::Duration;

use dnasim_testkit::bench::Criterion;
use dnasim_testkit::{criterion_group, criterion_main};
use std::hint::black_box;

use dnasim_channel::{ErrorModel, NaiveModel};
use dnasim_core::rng::seeded;
use dnasim_core::Strand;
use dnasim_profile::{edit_script, ErrorStats, TieBreak};

fn bench_edit_script(c: &mut Criterion) {
    let mut rng = seeded(1);
    let reference = Strand::random(110, &mut rng);
    let read = NaiveModel::with_total_rate(0.059).corrupt(&reference, &mut rng);
    // The archive strand shape: 152 nt at a low error rate, the narrow
    // band reconstruction refines against.
    let archive_ref = Strand::random(152, &mut rng);
    let archive_read = NaiveModel::with_total_rate(0.03).corrupt(&archive_ref, &mut rng);
    // Worst case: unrelated strands, where the band is widest (about half
    // the matrix).
    let unrelated_ref = Strand::random(110, &mut rng);
    let unrelated_read = Strand::random(110, &mut rng);
    let cases = [
        ("edit-script/110bp", &reference, &read),
        ("edit-script/152bp-3pct", &archive_ref, &archive_read),
        (
            "edit-script/110bp-unrelated",
            &unrelated_ref,
            &unrelated_read,
        ),
    ];
    for (name, reference, read) in cases {
        c.bench_function(name, |b| {
            let mut rng = seeded(2);
            b.iter(|| {
                edit_script(
                    black_box(reference),
                    black_box(read),
                    TieBreak::Random,
                    &mut rng,
                )
            })
        });
    }
}

fn bench_stats_recording(c: &mut Criterion) {
    let mut rng = seeded(3);
    let model = NaiveModel::with_total_rate(0.059);
    let pairs: Vec<(Strand, Strand)> = (0..64)
        .map(|_| {
            let r = Strand::random(110, &mut rng);
            let read = model.corrupt(&r, &mut rng);
            (r, read)
        })
        .collect();
    c.bench_function("error-stats/64-pairs", |b| {
        b.iter(|| {
            let mut stats = ErrorStats::new();
            let mut rng = seeded(4);
            for (reference, read) in &pairs {
                stats.record_pair(reference, read, TieBreak::Random, &mut rng);
            }
            black_box(stats.total_errors())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(40)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_edit_script, bench_stats_recording
}
criterion_main!(benches);
