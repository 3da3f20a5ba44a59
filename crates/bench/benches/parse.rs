//! Cross-format parse throughput (DESIGN.md §14): the same 512-cluster
//! Nanopore twin decoded from the text format, from the binary format,
//! and from the binary format behind the double-buffered prefetch pump
//! (decode on a dedicated I/O worker, hand-off per batch). Record ids are
//! `parse/<codec>/512`; BENCH_007's acceptance gate requires
//! `parse/binary-prefetch/512` to beat `parse/text/512` by ≥2×.

use std::time::Duration;

use dnasim_testkit::bench::Criterion;
use dnasim_testkit::{criterion_group, criterion_main};
use std::hint::black_box;

use dnasim_core::{pump, NullSink, PrefetchSource};
use dnasim_dataset::{
    write_dataset, write_dataset_format, AnyDatasetReader, BinaryDatasetReader, DatasetReader,
    Format, NanoporeTwinConfig,
};

/// Clusters per benchmarked parse — matches the streaming suite so the
/// text numbers are comparable across reports.
const CLUSTERS: usize = 512;
/// Hand-off granularity; large enough that per-batch overhead amortises,
/// small enough that the prefetch worker genuinely overlaps the consumer.
const BATCH: usize = 64;

/// Renders the benchmark corpus once in both encodings.
fn corpus() -> (Vec<u8>, Vec<u8>) {
    let mut config = NanoporeTwinConfig::small();
    config.cluster_count = CLUSTERS;
    let twin = config.generate();
    let mut text = Vec::new();
    write_dataset(&twin, &mut text).expect("render text corpus");
    let mut binary = Vec::new();
    write_dataset_format(&twin, &mut binary, Format::Binary).expect("render binary corpus");
    (text, binary)
}

fn bench_parse(c: &mut Criterion) {
    let (text, binary) = corpus();
    c.bench_function(format!("parse/text/{CLUSTERS}"), |b| {
        b.iter(|| {
            let mut source = DatasetReader::new(black_box(&text[..]));
            let mut sink = NullSink::default();
            let window =
                pump(&mut source, &mut sink, BATCH, None, "parse", Ok).expect("parse text");
            assert_eq!(window.clusters, CLUSTERS);
            window.clusters
        })
    });
    c.bench_function(format!("parse/binary/{CLUSTERS}"), |b| {
        b.iter(|| {
            let mut source = BinaryDatasetReader::new(black_box(&binary[..]));
            let mut sink = NullSink::default();
            let window =
                pump(&mut source, &mut sink, BATCH, None, "parse", Ok).expect("parse binary");
            assert_eq!(window.clusters, CLUSTERS);
            window.clusters
        })
    });
    c.bench_function(format!("parse/binary-prefetch/{CLUSTERS}"), |b| {
        b.iter(|| {
            // The clone prices in handing the buffer to the worker thread;
            // it is charged against the contender, so the ≥2× gate is
            // conservative.
            let source = AnyDatasetReader::detect(std::io::Cursor::new(black_box(binary.clone())))
                .expect("detect binary");
            let mut sink = NullSink::default();
            let mut prefetch = PrefetchSource::spawn(source, BATCH).expect("spawn prefetch");
            let window = pump(&mut prefetch, &mut sink, BATCH, None, "parse", Ok)
                .expect("parse binary prefetch");
            assert_eq!(window.clusters, CLUSTERS);
            window.clusters
        })
    });
}

criterion_group! {
    name = benches;
    // Whole-corpus parses are single-digit milliseconds: a modest sample
    // budget keeps the suite CI-sized without starving the gate of data.
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_parse
}
criterion_main!(benches);
