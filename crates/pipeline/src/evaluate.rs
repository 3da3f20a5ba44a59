//! Dataset-level evaluation: run a reconstructor over every cluster and
//! collect accuracy and positional error profiles.

use dnasim_core::{fold, Cluster, ClusterSource, Dataset, DnasimError, Strand, WindowStats};
use dnasim_metrics::{AccuracyReport, PositionalProfile, ProfileKind};
use dnasim_par::{Run, ThreadPool};
use dnasim_reconstruct::TraceReconstructor;

/// Accuracy of `algorithm` over every cluster of `dataset`.
///
/// Erasures (clusters with zero reads) are counted as total losses, as the
/// decoder would experience them.
///
/// # Examples
///
/// ```
/// use dnasim_core::{Cluster, Dataset, Strand};
/// use dnasim_pipeline::evaluate_reconstruction;
/// use dnasim_reconstruct::MajorityVote;
///
/// let reference: Strand = "ACGT".parse()?;
/// let ds = Dataset::from_clusters(vec![Cluster::new(
///     reference.clone(),
///     vec![reference.clone(), reference.clone()],
/// )]);
/// let report = evaluate_reconstruction(&ds, &MajorityVote);
/// assert_eq!(report.per_strand_percent(), 100.0);
/// # Ok::<(), dnasim_core::ParseStrandError>(())
/// ```
pub fn evaluate_reconstruction<A: TraceReconstructor + ?Sized>(
    dataset: &Dataset,
    algorithm: &A,
) -> AccuracyReport {
    let mut report = AccuracyReport::new();
    for cluster in dataset.iter() {
        record_estimate(&mut report, cluster, estimate(cluster, algorithm).as_ref());
    }
    report
}

/// [`evaluate_reconstruction`] with clusters reconstructed on `pool`
/// (reconstruction is pure, so the estimates are byte-identical to the
/// serial path); the report is assembled serially in cluster order, so
/// the result does not depend on the thread count.
///
/// # Errors
///
/// Returns [`DnasimError::Degraded`] if a worker panicked.
pub fn evaluate_reconstruction_on<A>(
    dataset: &Dataset,
    algorithm: &A,
    pool: &ThreadPool,
) -> Result<AccuracyReport, DnasimError>
where
    A: TraceReconstructor + Sync + ?Sized,
{
    let mut report = AccuracyReport::new();
    evaluate_window(&mut report, dataset.clusters(), algorithm, pool)?;
    Ok(report)
}

/// Pulls clusters from `source` in windows of `run.batch_size`,
/// reconstructs each window on `run.pool`, and folds the accuracy report
/// in cluster order — at no point are more than `run.batch_size` clusters
/// (plus their estimates) in flight. With `run.budget`, each
/// reconstructed cluster costs one work unit and exhaustion cuts the
/// stream at the same global cluster at any batch size or thread count.
///
/// Reconstruction is pure, so the report is byte-identical to the
/// in-memory path for every batch size and thread count.
///
/// # Errors
///
/// [`DnasimError::Config`] for `batch_size == 0`,
/// [`DnasimError::DeadlineExceeded`] on budget exhaustion or
/// cancellation, [`DnasimError::Degraded`] if a worker panicked, or
/// whatever the source reports.
pub fn evaluate_reconstruction_stream<S, A>(
    source: &mut S,
    algorithm: &A,
    run: &Run,
) -> Result<(AccuracyReport, WindowStats), DnasimError>
where
    S: ClusterSource + ?Sized,
    A: TraceReconstructor + Sync + ?Sized,
{
    let mut report = AccuracyReport::new();
    let mut window = WindowStats::default();
    fold(source, run.batch_size, run.budget, "reconstruct", &mut window, |batch| {
        evaluate_window(&mut report, batch.clusters(), algorithm, &run.pool)
    })?;
    Ok((report, window))
}

/// The reconstruction of one cluster; `None` for an erasure.
fn estimate<A: TraceReconstructor + ?Sized>(cluster: &Cluster, algorithm: &A) -> Option<Strand> {
    (!cluster.is_erasure())
        .then(|| algorithm.reconstruct(cluster.reads(), cluster.reference().len()))
}

/// Scores one cluster's estimate; erasures count as total losses.
fn record_estimate(report: &mut AccuracyReport, cluster: &Cluster, estimate: Option<&Strand>) {
    match estimate {
        Some(estimate) => report.record(cluster.reference(), estimate),
        None => report.record_erasure(cluster.reference()),
    }
}

/// Reconstructs one window of clusters on `pool` and scores it in order.
fn evaluate_window<A>(
    report: &mut AccuracyReport,
    clusters: &[Cluster],
    algorithm: &A,
    pool: &ThreadPool,
) -> Result<(), DnasimError>
where
    A: TraceReconstructor + Sync + ?Sized,
{
    let estimates = pool.par_map_indexed(clusters, |_, cluster| estimate(cluster, algorithm))?;
    for (cluster, estimate) in clusters.iter().zip(&estimates) {
        record_estimate(report, cluster, estimate.as_ref());
    }
    Ok(())
}

/// Post-reconstruction positional profiles: reconstruct every cluster and
/// compare the estimate against the reference under both attribution rules.
///
/// Returns `(hamming_profile, gestalt_profile)` — the two panels of every
/// post-reconstruction figure.
pub fn post_reconstruction_profiles<A: TraceReconstructor + ?Sized>(
    dataset: &Dataset,
    algorithm: &A,
) -> (PositionalProfile, PositionalProfile) {
    let len = dataset.strand_len().unwrap_or(0);
    let mut hamming = PositionalProfile::new(ProfileKind::Hamming, len);
    let mut gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, len);
    for cluster in dataset.iter() {
        if let Some(estimate) = estimate(cluster, algorithm) {
            hamming.record(cluster.reference(), &estimate);
            gestalt.record(cluster.reference(), &estimate);
        }
    }
    (hamming, gestalt)
}

/// Pre-reconstruction profiles: compare every raw read against its
/// reference (Fig. 3.2's panels).
pub fn pre_reconstruction_profiles(dataset: &Dataset) -> (PositionalProfile, PositionalProfile) {
    let len = dataset.strand_len().unwrap_or(0);
    let mut hamming = PositionalProfile::new(ProfileKind::Hamming, len);
    let mut gestalt = PositionalProfile::new(ProfileKind::GestaltAligned, len);
    for cluster in dataset.iter() {
        for read in cluster.reads() {
            hamming.record(cluster.reference(), read);
            gestalt.record(cluster.reference(), read);
        }
    }
    (hamming, gestalt)
}

/// The §3.2 fixed-coverage protocol: keep only clusters with coverage ≥
/// `min_coverage`, then truncate every cluster to its first
/// `target_coverage` reads — so coverage `i` and `i + 1` differ only in the
/// marginal read.
pub fn fixed_coverage_protocol(
    dataset: &Dataset,
    min_coverage: usize,
    target_coverage: usize,
) -> Dataset {
    dataset
        .filter_min_coverage(min_coverage)
        .with_coverage(target_coverage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::rng::seeded;
    use dnasim_core::{Cluster, Strand};
    use dnasim_reconstruct::{BmaLookahead, MajorityVote};

    fn clean_dataset(clusters: usize, coverage: usize, len: usize) -> Dataset {
        let mut rng = seeded(1);
        (0..clusters)
            .map(|_| {
                let r = Strand::random(len, &mut rng);
                Cluster::new(r.clone(), vec![r; coverage])
            })
            .collect()
    }

    #[test]
    fn clean_data_scores_perfectly() {
        let ds = clean_dataset(5, 3, 30);
        let report = evaluate_reconstruction(&ds, &BmaLookahead::default());
        assert_eq!(report.per_strand_percent(), 100.0);
        assert_eq!(report.per_char_percent(), 100.0);
    }

    #[test]
    fn erasures_count_as_losses() {
        let mut ds = clean_dataset(1, 2, 20);
        ds.push(Cluster::erasure(Strand::random(20, &mut seeded(2))));
        let report = evaluate_reconstruction(&ds, &MajorityVote);
        assert_eq!(report.per_strand_percent(), 50.0);
    }

    #[test]
    fn parallel_evaluation_matches_serial() {
        let mut ds = clean_dataset(6, 3, 20);
        ds.push(Cluster::erasure(Strand::random(20, &mut seeded(9))));
        let serial = evaluate_reconstruction(&ds, &MajorityVote);
        for threads in [1, 2, 4] {
            let par = evaluate_reconstruction_on(&ds, &MajorityVote, &ThreadPool::new(threads))
                .unwrap();
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn streaming_evaluation_matches_in_memory() {
        let mut ds = clean_dataset(7, 3, 20);
        ds.push(Cluster::erasure(Strand::random(20, &mut seeded(9))));
        let whole = evaluate_reconstruction(&ds, &MajorityVote);
        for batch_size in [1, 3, 5, usize::MAX] {
            for threads in [1, 4] {
                let run = Run { pool: ThreadPool::new(threads), batch_size, budget: None };
                let (report, window) =
                    evaluate_reconstruction_stream(&mut ds.stream(), &MajorityVote, &run).unwrap();
                assert_eq!(report, whole, "batch_size={batch_size} threads={threads}");
                assert_eq!(window.clusters, ds.len());
                assert!(window.high_watermark <= batch_size);
            }
        }
    }

    #[test]
    fn streaming_evaluation_rejects_zero_batch() {
        let ds = clean_dataset(2, 2, 10);
        let run = Run { batch_size: 0, ..Run::serial() };
        assert!(evaluate_reconstruction_stream(&mut ds.stream(), &MajorityVote, &run).is_err());
    }

    #[test]
    fn post_profiles_are_empty_on_clean_data() {
        let ds = clean_dataset(3, 3, 25);
        let (h, g) = post_reconstruction_profiles(&ds, &MajorityVote);
        assert_eq!(h.total_errors(), 0);
        assert_eq!(g.total_errors(), 0);
        assert_eq!(h.comparisons(), 3);
    }

    #[test]
    fn pre_profiles_count_each_read() {
        let ds = clean_dataset(2, 4, 25);
        let (h, _) = pre_reconstruction_profiles(&ds);
        assert_eq!(h.comparisons(), 8);
    }

    #[test]
    fn fixed_coverage_protocol_filters_and_truncates() {
        let mut rng = seeded(3);
        let mut ds = Dataset::new();
        for coverage in [2usize, 5, 12] {
            let r = Strand::random(20, &mut rng);
            ds.push(Cluster::new(r.clone(), vec![r; coverage]));
        }
        let out = fixed_coverage_protocol(&ds, 5, 4);
        assert_eq!(out.len(), 2); // coverage-2 cluster dropped
        assert!(out.iter().all(|c| c.coverage() == 4));
    }

    #[test]
    fn coverage_prefix_property_holds() {
        // First i reads at coverage i are a prefix of coverage i+1.
        let mut rng = seeded(4);
        let r = Strand::random(20, &mut rng);
        let reads: Vec<Strand> = (0..10).map(|_| Strand::random(18, &mut rng)).collect();
        let ds = Dataset::from_clusters(vec![Cluster::new(r, reads)]);
        let c5 = fixed_coverage_protocol(&ds, 10, 5);
        let c6 = fixed_coverage_protocol(&ds, 10, 6);
        assert_eq!(
            c5.clusters()[0].reads(),
            &c6.clusters()[0].reads()[..5]
        );
    }
}
