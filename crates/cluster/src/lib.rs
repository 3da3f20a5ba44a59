//! Read clustering for DNA-storage pipelines.
//!
//! Sequencing returns an unordered pool of noisy reads; before trace
//! reconstruction, reads must be grouped into clusters of copies of the
//! same reference. Evaluation can either use *perfect* (pseudo-)clustering
//! — treating the simulator's ordered output as already grouped, isolating
//! reconstruction behaviour from clustering artifacts — or run a real
//! clusterer over the shuffled pool.
//!
//! * [`GreedyClusterer`] — single-pass greedy clustering with a
//!   [`QGramSignature`] MinHash prefilter, a q-gram error-ball lower
//!   bound that discharges hopeless candidates before any kernel runs,
//!   and banded edit-distance confirmation batched through the
//!   multi-pattern SIMD kernel tier;
//! * [`StreamingClusterer`] — the same decision core driven *online*:
//!   push reads window by window, keep only per-bucket representatives
//!   resident (`O(clusters)`, never `O(reads)`), get memberships
//!   byte-identical to [`GreedyClusterer`] at any batch size, with
//!   optional founding-time reference matching for the imperfect
//!   archive path;
//! * [`ClusterStats`] — per-run counters (candidates proposed, pruned by
//!   the error ball, kernel calls, lanes filled), also accumulated
//!   process-wide for the CLI's diagnostic line.
//!
//! # Cost of a hopeless candidate
//!
//! On archive strands the shared primers make the MinHash bands propose
//! almost every group, and the error ball prunes nearly all of them. The
//! signatures are left as they are (changing them would change
//! memberships); instead both steps are cheap and exact. The candidate
//! union is a bitset over group ids read out in ascending order — the
//! same ascending, deduped list a sort and dedup gives. Each candidate is
//! then tested with [`QGramScratch::exceeds`](dnasim_metrics::QGramScratch::exceeds),
//! which first compares 1024-bit gram-presence bitmaps and scans the
//! q-gram histogram only when that weaker bound is within the threshold.
//! The weaker bound never exceeds the exact one, so the survivors, every
//! counter and every membership are those of the exact bound alone.
//!
//! # Examples
//!
//! ```
//! use dnasim_cluster::GreedyClusterer;
//! use dnasim_core::Strand;
//!
//! let a: Strand = "ACGTACGTACGTACGTACGT".parse()?;
//! let pool = vec![a.clone(), a.clone(), a];
//! let clusters = GreedyClusterer::default().cluster(&pool);
//! assert_eq!(clusters.len(), 1);
//! # Ok::<(), dnasim_core::ParseStrandError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod greedy;
mod signature;
mod stats;
mod streaming;

pub use greedy::GreedyClusterer;
pub use signature::QGramSignature;
pub use stats::{process_cluster_stats, reset_process_cluster_stats, ClusterStats};
pub use streaming::{StreamAssignment, StreamingClusterer};
