//! End-to-end orchestration and the paper's experiment protocols.
//!
//! This crate ties the workspace together:
//!
//! * [`evaluate_reconstruction`] / [`post_reconstruction_profiles`] /
//!   [`pre_reconstruction_profiles`] — dataset-level evaluation;
//! * [`fixed_coverage_protocol`] — the §3.2 first-N-reads protocol;
//! * [`Experiments`] — one method per table and figure of the paper
//!   (Tables 2.1–3.2, Figs. 3.2–3.10, the sensitivity grid, and the
//!   two-way-Iterative extension);
//! * [`archive_round_trip`] — the full write→store→read pipeline
//!   composing codec, multi-stage channel, clustering and reconstruction.
//!
//! Each streaming stage has one entry point that takes a
//! [`dnasim_par::Run`] ([`evaluate_reconstruction_stream`],
//! [`archive_round_trip_stream`]): it runs source→window→pool→sink with
//! at most `run.batch_size` clusters in flight, metered by the optional
//! `run.budget`, with byte-identical output at every batch size and
//! thread count (DESIGN.md §11). The in-memory forms are the same
//! per-window code applied to the whole dataset.
//!
//! # Examples
//!
//! ```
//! use dnasim_dataset::NanoporeTwinConfig;
//! use dnasim_pipeline::Experiments;
//!
//! let mut config = NanoporeTwinConfig::small();
//! config.cluster_count = 40;
//! let experiments = Experiments::new(&config);
//! let table = experiments.table_2_2();
//! assert_eq!(table.rows.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod archive;
mod evaluate;
mod fidelity;
mod random_access;
mod experiments;
mod table;

pub use archive::{
    archive_round_trip, archive_round_trip_on, archive_round_trip_stream, ArchiveConfig,
    ArchiveError, ArchiveMode, ArchiveReport, ErasureScheme,
};
pub use fidelity::{simulator_fidelity, FidelityReport};
pub use random_access::{FilePool, PoolConfig, PoolError};
pub use evaluate::{
    evaluate_reconstruction, evaluate_reconstruction_on, evaluate_reconstruction_stream,
    fixed_coverage_protocol, post_reconstruction_profiles, pre_reconstruction_profiles,
};
pub use experiments::{cross_dataset_robustness, references_of, Experiments, SensitivityPoint};
pub use table::{AccuracyCell, Table, TableRow};
