//! `paper-eval`: the Table 2.1 / 3.1 protocol plus the §3.1 fidelity
//! distances on a reduced Nanopore twin.
//!
//! Set-up generates the twin and learns the model from it. One protocol
//! pass then resimulates the twin with the naive, DNASimulator and full
//! layered (second-order) simulators, reconstructs the real and every
//! simulated set with BMA and Iterative, scores accuracy, and computes
//! `simulator_fidelity` per simulator. The traced replica rebuilds
//! `evaluate_reconstruction_on` and `simulator_fidelity` from the layer
//! calls they make and must return the same reports.

use std::collections::HashMap;
use std::time::Instant;

use dnasim_channel::{
    CoverageModel, DnaSimulatorModel, ErrorModel, KeoliyaModel, Simulator, SimulatorLayer,
};
use dnasim_core::rng::{SeedSequence, SimRng};
use dnasim_core::{Dataset, EditOp, Strand};
use dnasim_dataset::NanoporeTwinConfig;
use dnasim_metrics::{chi_square_distance, gestalt_score, normalize_histogram, AccuracyReport};
use dnasim_par::ThreadPool;
use dnasim_pipeline::{evaluate_reconstruction_on, simulator_fidelity, FidelityReport};
use dnasim_profile::{ErrorStats, LearnedModel, TieBreak};
use dnasim_reconstruct::{BmaLookahead, Iterative, TraceReconstructor};

use crate::trace;
use crate::{sys, Metrics, Outcome};

/// Twin clusters: a reduced twin, so a pass takes a few seconds.
const CLUSTERS: usize = 200;
/// Real set plus three simulated sets.
const DATASETS: usize = 4;
/// Accuracy reports (datasets × {BMA, Iterative}) plus fidelity reports
/// (one per simulator) that one pass produces.
const OUTPUTS: usize = DATASETS * 2 + (DATASETS - 1);

struct Setup {
    twin: Dataset,
    learned: LearnedModel,
    seeds: SeedSequence,
}

/// Set-up: the twin, its profile and the learned model. The twin is the
/// workload's stand-in for the paper's one real dataset, so it keeps the
/// reduced twin's fixed seed; `seed` drives the profiler and every
/// simulator.
fn setup(seed: u64, pool: &ThreadPool) -> Setup {
    let seeds = SeedSequence::new(seed).derive_seq("paper-eval");
    let config = NanoporeTwinConfig {
        cluster_count: CLUSTERS,
        ..NanoporeTwinConfig::small()
    };
    let twin = trace::span("dataset.generate", || {
        config
            .generate_on(pool)
            .expect("twin generation worker panicked")
    });
    let stats = trace::span("profile.learn", || {
        ErrorStats::from_dataset(&twin, TieBreak::Random, &mut seeds.derive_rng("profiler"))
    });
    trace::count("profile.reads", twin.total_reads() as f64);
    let learned = trace::span("profile.model", || LearnedModel::from_stats(&stats, 10));
    Setup {
        twin,
        learned,
        seeds,
    }
}

/// Everything one pass reports; compared across worker counts and
/// against the traced replica.
#[derive(Debug, PartialEq)]
struct PassOutput {
    /// `[dataset][algorithm]`, datasets in the order real, naive,
    /// DNASimulator, layered; algorithms BMA then Iterative.
    accuracy: Vec<AccuracyReport>,
    /// One per simulator, in the same order.
    fidelity: Vec<FidelityReport>,
}

fn resimulate<M: ErrorModel + Sync>(
    s: &Setup,
    model: M,
    seq: &SeedSequence,
    pool: &ThreadPool,
) -> Dataset {
    let sim = trace::span("channel.resimulate", || {
        Simulator::new(model, CoverageModel::Fixed(0))
            .resimulate_matching_on(&s.twin, seq, pool)
            .expect("resimulation worker panicked")
    });
    trace::count(
        "channel.bases",
        sim.iter()
            .flat_map(|c| c.reads())
            .map(Strand::len)
            .sum::<usize>() as f64,
    );
    sim
}

fn simulated_sets(s: &Setup, k: usize, pool: &ThreadPool) -> Vec<Dataset> {
    let seq = s.seeds.derive_seq("pass").fork(k as u64);
    vec![
        resimulate(
            s,
            KeoliyaModel::new(s.learned.clone(), SimulatorLayer::Naive),
            &seq.derive_seq("naive"),
            pool,
        ),
        resimulate(
            s,
            DnaSimulatorModel::nanopore_default(),
            &seq.derive_seq("dnasimulator"),
            pool,
        ),
        resimulate(
            s,
            KeoliyaModel::new(s.learned.clone(), SimulatorLayer::SecondOrder),
            &seq.derive_seq("layered"),
            pool,
        ),
    ]
}

fn fidelity_rng(s: &Setup, k: usize) -> SimRng {
    s.seeds
        .derive_seq("pass")
        .fork(k as u64)
        .derive_rng("fidelity")
}

/// Pass `k` through the shipped pipeline calls.
fn pass(s: &Setup, k: usize, pool: &ThreadPool) -> PassOutput {
    let sims = simulated_sets(s, k, pool);
    let mut accuracy = Vec::with_capacity(DATASETS * 2);
    for dataset in std::iter::once(&s.twin).chain(&sims) {
        for algorithm in algorithms() {
            accuracy.push(
                evaluate_reconstruction_on(dataset, algorithm.as_ref(), pool)
                    .expect("reconstruction worker panicked"),
            );
        }
    }
    let mut rng = fidelity_rng(s, k);
    let fidelity = sims
        .iter()
        .map(|sim| simulator_fidelity(&s.twin, sim, &mut rng))
        .collect();
    PassOutput { accuracy, fidelity }
}

fn algorithms() -> [Box<dyn TraceReconstructor + Sync>; 2] {
    [
        Box::new(BmaLookahead::default()),
        Box::new(Iterative::default()),
    ]
}

/// Pass `k` rebuilt from layer calls, one worker, spans around each.
fn replica_pass(s: &Setup, k: usize) -> PassOutput {
    let serial = ThreadPool::serial();
    let sims = simulated_sets(s, k, &serial);
    let mut accuracy = Vec::with_capacity(DATASETS * 2);
    for dataset in std::iter::once(&s.twin).chain(&sims) {
        for (name, algorithm) in ["reconstruct.bma", "reconstruct.iterative"]
            .into_iter()
            .zip(algorithms())
        {
            let mut report = AccuracyReport::new();
            for cluster in dataset.iter() {
                if cluster.is_erasure() {
                    trace::span("metrics.accuracy", || {
                        report.record_erasure(cluster.reference())
                    });
                    continue;
                }
                let estimate = trace::span(name, || {
                    algorithm.reconstruct(cluster.reads(), cluster.reference().len())
                });
                trace::span("metrics.accuracy", || {
                    report.record(cluster.reference(), &estimate)
                });
            }
            accuracy.push(report);
        }
    }
    let mut rng = fidelity_rng(s, k);
    let fidelity = sims
        .iter()
        .map(|sim| replica_fidelity(&s.twin, sim, &mut rng))
        .collect();
    PassOutput { accuracy, fidelity }
}

/// `simulator_fidelity` rebuilt from `ErrorStats` and the gestalt / χ²
/// scoring.
fn replica_fidelity(real: &Dataset, simulated: &Dataset, rng: &mut SimRng) -> FidelityReport {
    let profile = |ds: &Dataset, rng: &mut SimRng| {
        trace::count("profile.reads", ds.total_reads() as f64);
        trace::span("profile.fidelity", || {
            ErrorStats::from_dataset(ds, TieBreak::PreferSubstitution, rng)
        })
    };
    let real_stats = profile(real, rng);
    let sim_stats = profile(simulated, rng);
    let mean_gestalt = |ds: &Dataset| {
        trace::span("metrics.gestalt", || {
            let (mut total, mut count) = (0.0, 0usize);
            for cluster in ds.iter() {
                for read in cluster.reads() {
                    total += gestalt_score(cluster.reference().as_bases(), read.as_bases());
                    count += 1;
                }
            }
            if count == 0 {
                1.0
            } else {
                total / count as f64
            }
        })
    };
    let (real_gestalt, sim_gestalt) = (mean_gestalt(real), mean_gestalt(simulated));
    trace::span("metrics.chi2", || {
        let mut ops: Vec<EditOp> = real_stats
            .second_order_errors()
            .into_iter()
            .chain(sim_stats.second_order_errors())
            .map(|(op, _)| op)
            .collect();
        ops.sort();
        ops.dedup();
        let histogram = |stats: &ErrorStats| {
            let by_op: HashMap<EditOp, usize> = stats
                .second_order_errors()
                .into_iter()
                .map(|(op, stat)| (op, stat.count))
                .collect();
            let counts: Vec<usize> = ops
                .iter()
                .map(|op| by_op.get(op).copied().unwrap_or(0))
                .collect();
            normalize_histogram(&counts)
        };
        FidelityReport {
            error_type_distance: chi_square_distance(
                &histogram(&real_stats),
                &histogram(&sim_stats),
            ),
            positional_distance: chi_square_distance(
                &normalize_histogram(real_stats.positional_errors()),
                &normalize_histogram(sim_stats.positional_errors()),
            ),
            gestalt_gap: (real_gestalt - sim_gestalt).abs(),
            aggregate_rate_gap: (real_stats.aggregate_error_rate()
                - sim_stats.aggregate_error_rate())
            .abs(),
        }
    })
}

/// Failed paper checks in one pass: BMA per-strand accuracy on each
/// position-blind simulator (naive, DNASimulator) must be at or above
/// the real set's.
fn paper_check_failures(out: &PassOutput) -> usize {
    let bma = |dataset: usize| out.accuracy[dataset * 2].per_strand();
    [1, 2]
        .into_iter()
        .filter(|&d| {
            let below = bma(d) < bma(0);
            if below {
                eprintln!(
                    "paper-eval: BMA on simulator {d} ({}) below real ({})",
                    bma(d),
                    bma(0)
                );
            }
            below
        })
        .count()
}

/// Outputs that differ between two passes.
fn differing(a: &PassOutput, b: &PassOutput) -> usize {
    let acc = a
        .accuracy
        .iter()
        .zip(&b.accuracy)
        .filter(|(x, y)| x != y)
        .count();
    let fid = a
        .fidelity
        .iter()
        .zip(&b.fidelity)
        .filter(|(x, y)| x != y)
        .count();
    acc + fid
        + a.accuracy.len().abs_diff(b.accuracy.len())
        + a.fidelity.len().abs_diff(b.fidelity.len())
}

/// The untraced run: median of five set-ups, protocol passes for
/// `seconds`, then pass 0 again at one worker, which must agree.
///
/// `work_per_s` is twin reads × datasets carried through a pass, over the
/// median pass time: reads, not clusters, because a pass's cost follows
/// the reads and the twin's read count varies from seed to seed.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let workers = sys::nproc();
    let pool = ThreadPool::new(workers);
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..5 {
        let start = Instant::now();
        s = Some(setup(seed, &pool));
        setups.push(start.elapsed().as_secs_f64());
    }
    let s = s.expect("set-up ran");

    let mut failed = 0usize;
    let mut latencies = Vec::new();
    let mut first = None;
    let mut passes = 0usize;
    let mut peak_rss_mib = 0.0;
    let timed = Instant::now();
    while passes == 0 || timed.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        let out = pass(&s, passes, &pool);
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        failed += paper_check_failures(&out);
        if first.is_none() {
            peak_rss_mib = sys::peak_rss_mib();
            first = Some(out);
        }
        passes += 1;
    }

    let serial = pass(&s, 0, &ThreadPool::serial());
    let mismatched = differing(first.as_ref().expect("one pass ran"), &serial);
    if mismatched > 0 {
        eprintln!("paper-eval: {mismatched} output(s) differ between 1 and {workers} workers");
    }

    let mut metrics = Metrics::default();
    let reads = (s.twin.total_reads() * DATASETS) as f64;
    let p50 = sys::median(&latencies);
    metrics.end_to_end(
        sys::median(&setups),
        reads / (p50 * 1e-3),
        p50,
        sys::tail(&latencies),
        peak_rss_mib,
    );
    Outcome {
        attempted: (passes + 1) * OUTPUTS,
        failed: failed + mismatched,
        correct: failed == 0 && mismatched == 0,
        metrics,
    }
}

/// The traced run: after a warm-up, set-up plus pass 0 at nproc workers
/// and at one worker, then both again as the traced replica at one
/// worker.
pub fn run_traced(seed: u64) -> Outcome {
    let workers = sys::nproc();
    let timed = |pool: &ThreadPool| {
        let start = Instant::now();
        let s = setup(seed, pool);
        let out = pass(&s, 0, pool);
        (out, start.elapsed().as_secs_f64())
    };
    // Warm-up, as in the archive workload's traced run.
    timed(&ThreadPool::new(workers));
    let cpu_before = sys::cpu_seconds();
    let (parallel, wall_n) = timed(&ThreadPool::new(workers));
    let cpu = sys::cpu_seconds() - cpu_before;
    let (serial, wall_1) = timed(&ThreadPool::serial());
    let failed = paper_check_failures(&parallel);
    let mut mismatched = differing(&parallel, &serial);

    trace::start();
    let replica = trace::span("bench", || {
        let s = setup(seed, &ThreadPool::serial());
        replica_pass(&s, 0)
    });
    let t = trace::finish();
    let replica_mismatches = differing(&replica, &serial);
    if replica_mismatches > 0 {
        eprintln!(
            "paper-eval: {replica_mismatches} replica output(s) differ from the pipeline calls"
        );
    }
    mismatched += replica_mismatches;

    let mut metrics = Metrics::default();
    metrics.common_layers(&t, cpu, wall_n, wall_1, workers);
    Outcome {
        attempted: 2 * OUTPUTS,
        failed: failed + mismatched,
        correct: failed == 0 && mismatched == 0,
        metrics,
    }
}
