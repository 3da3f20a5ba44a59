//! `archive-imperfect`: strict 4 KiB round trips through
//! `archive_round_trip_on` with the real clusterer in the loop.
//!
//! The traced replica rebuilds the round trip from public layer calls —
//! codec layout and parity, the four channel stage groups, the streaming
//! clusterer, the reconstructor ensemble and `decode_strand` — and must
//! produce the very `ArchiveReport` the pipeline function returns.

use std::time::Instant;

use dnasim_channel::stages::{DecayStage, PcrStage, SequencingStage, SynthesisStage};
use dnasim_channel::NaiveModel;
use dnasim_cluster::{ClusterStats, GreedyClusterer, StreamingClusterer};
use dnasim_codec::{LayoutError, StrandLayout, XorParity};
use dnasim_core::rng::{RngExt, SeedSequence, SimRng};
use dnasim_core::{Cluster, Strand};
use dnasim_dataset::GroundTruthChannel;
use dnasim_par::ThreadPool;
use dnasim_pipeline::{
    archive_round_trip_on, ArchiveConfig, ArchiveError, ArchiveMode, ArchiveReport, ErasureScheme,
};
use dnasim_reconstruct::{
    BmaLookahead, Iterative, MajorityVote, TraceReconstructor, TwoWayIterative,
};

use crate::trace::{self, ratio};
use crate::{sys, Metrics, Outcome};

/// Payload bytes per round trip.
const PAYLOAD: usize = 4096;
/// XOR parity group size of the default archive configuration.
const XOR_GROUP: usize = 4;
/// Set-ups timed before each round trip (≈7 µs each).
const SETUP_SAMPLES: usize = 100;
/// Wall time of one round trip at two workers on a 2-vCPU Xeon VM. A
/// run makes `seconds / NOMINAL_ROUND_TRIP_S` round trips (at least one),
/// so it takes about `seconds` there.
const NOMINAL_ROUND_TRIP_S: f64 = 3.2;

/// Timed round trips in a run of `seconds`. A fixed count, not a
/// deadline: which round trips run, and so how many of them fail, then
/// depends on the seed and `seconds` alone, not on the machine's speed.
fn timed_round_trips(seconds: f64) -> usize {
    ((seconds / NOMINAL_ROUND_TRIP_S).round() as usize).max(1)
}

fn config() -> ArchiveConfig {
    ArchiveConfig {
        erasure: ErasureScheme::Xor { group: XOR_GROUP },
        imperfect_clustering: true,
        mode: ArchiveMode::Strict,
        ..ArchiveConfig::default()
    }
}

/// The `i`-th round trip's payload and channel RNG, derived from the
/// workload seed alone.
fn round_trip_input(seed: u64, i: usize) -> (Vec<u8>, SimRng) {
    let seq = SeedSequence::new(seed)
        .derive_seq("archive-imperfect")
        .fork(i as u64);
    let mut payload_rng = seq.derive_rng("payload");
    let data = (0..PAYLOAD).map(|_| payload_rng.random::<u8>()).collect();
    (data, seq.derive_rng("channel"))
}

/// One round trip's result: the report, or the pipeline's error text.
struct RoundTrip {
    result: Result<ArchiveReport, String>,
    seconds: f64,
    /// Whether the payload came back, byte for byte.
    exact: bool,
}

impl RoundTrip {
    /// An `Ok` report whose payload differs from the input: silent
    /// corruption, which strict mode must never return.
    fn corrupt(&self) -> bool {
        self.result.is_ok() && !self.exact
    }
}

fn round_trip(seed: u64, i: usize, pool: &ThreadPool) -> RoundTrip {
    let (data, mut rng) = round_trip_input(seed, i);
    let start = Instant::now();
    let result = archive_round_trip_on(&data, &config(), &mut rng, pool);
    let seconds = start.elapsed().as_secs_f64();
    if let Err(e) = &result {
        eprintln!("archive round trip {i} of seed {seed} failed: {e}");
    }
    RoundTrip {
        exact: result.as_ref().is_ok_and(|r| r.data == data),
        result: result.map_err(|e| e.to_string()),
        seconds,
    }
}

/// The untraced run: [`timed_round_trips`] timed round trips, then the
/// first round trip again at one worker, which must agree.
///
/// A round trip that returns an error or the wrong bytes counts as
/// failed; one that returns wrong bytes from `Ok`, or that differs
/// between worker counts, makes the run incorrect. `work_per_s` is
/// payload KiB over round-trip time, failed round trips included, so that
/// the failure rate (reported as `failed`) does not also swing the
/// throughput. It is a mean, not a median: round trips differ in cost
/// with their payload and channel draw, and the mean of a run's few round
/// trips varies less from seed to seed.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let workers = sys::nproc();
    // Set-up is the work done before the first round trip: sizing the
    // pool and deriving the first payload, sampled before every round
    // trip. It is ≈0 by design; the metric exists so that work moved out
    // of the round trip shows.
    let set_up = || (ThreadPool::new(workers), round_trip_input(seed, 0));
    let mut setups = Vec::new();
    let pool = ThreadPool::new(workers);

    let mut trips = Vec::new();
    let mut peak_rss_mib = 0.0;
    for i in 0..timed_round_trips(seconds) {
        setups.extend(sys::setup_times(SETUP_SAMPLES, set_up));
        trips.push(round_trip(seed, i, &pool));
        if i == 0 {
            peak_rss_mib = sys::peak_rss_mib();
        }
    }

    // Worker-count invariance: the same report (`reads_sequenced`,
    // `clusters_quarantined` and the payload included), or the same error.
    let serial = round_trip(seed, 0, &ThreadPool::serial());
    let mut correct = trips[0].result == serial.result;
    if !correct {
        eprintln!("archive: round trip 0 differs between 1 and {workers} workers");
    }
    trips.push(serial);
    correct &= !trips.iter().any(RoundTrip::corrupt);

    let latencies: Vec<f64> = trips.iter().map(|t| t.seconds * 1e3).collect();
    let timed_trips = trips.len() - 1;
    let mut metrics = Metrics::default();
    let timed_ms = &latencies[..timed_trips];
    metrics.end_to_end(
        sys::median(&setups),
        (timed_trips * PAYLOAD) as f64 / 1024.0 / (timed_ms.iter().sum::<f64>() * 1e-3),
        sys::median(timed_ms),
        sys::tail(timed_ms),
        peak_rss_mib,
    );
    Outcome {
        attempted: trips.len(),
        failed: trips.iter().filter(|t| !t.exact).count() + usize::from(!correct),
        correct,
        metrics,
    }
}

/// The traced run: after a warm-up round trip, the pipeline call at
/// nproc and at one worker (utilisation, speed-up), then the traced
/// replica at one worker, which must return the same report, or the same
/// error (the same missing strand index) where the pipeline fails.
pub fn run_traced(seed: u64) -> Outcome {
    let workers = sys::nproc();
    // Warm-up: the first unit of a process runs slower (page faults,
    // allocator growth), which would bias the untraced-vs-traced pair.
    round_trip(seed, 0, &ThreadPool::new(workers));
    let cpu_before = sys::cpu_seconds();
    let parallel = round_trip(seed, 0, &ThreadPool::new(workers));
    let cpu = sys::cpu_seconds() - cpu_before;
    let serial = round_trip(seed, 0, &ThreadPool::serial());

    let (data, mut rng) = round_trip_input(seed, 0);
    trace::start();
    let mut stats = ClusterStats::default();
    let replica = trace::span("bench", || replica(&data, &config(), &mut rng, &mut stats));
    let t = trace::finish();
    let replica_agrees = replica == serial.result;
    if !replica_agrees {
        eprintln!("archive: traced replica differs from archive_round_trip_on");
    }
    let correct = replica_agrees
        && parallel.result == serial.result
        && !parallel.corrupt()
        && !serial.corrupt();

    let wall = t.wall_s();
    let mut metrics = Metrics::default();
    metrics.common_layers(&t, cpu, parallel.seconds, serial.seconds, workers);
    let reads = t.counter("cluster.reads");
    metrics.set("cluster.s", t.self_s("cluster"));
    metrics.set(
        "cluster.us_per_read",
        ratio(t.self_s("cluster") * 1e6, reads),
    );
    metrics.set(
        "cluster.candidates_per_read",
        ratio(stats.candidates as f64, reads),
    );
    metrics.set("cluster.pruned_share", stats.pruned_share());
    metrics.set("cluster.kernel_lanes_per_call", stats.lanes_per_call());
    metrics.set("cluster.share", ratio(t.self_s("cluster"), wall));
    metrics.set("codec.encode_s", t.self_s("codec.encode"));
    metrics.set(
        "codec.decode_s",
        t.self_s("codec.decode") + t.self_s("codec.recover"),
    );
    metrics.set(
        "codec.decode_ok_share",
        ratio(t.counter("codec.decode_ok"), t.calls("codec.decode") as f64),
    );
    metrics.set(
        "codec.parity_recovered",
        t.counter("codec.parity_recovered"),
    );
    metrics.set(
        "reconstruct.attempts_per_decode",
        ratio(
            t.calls("reconstruct") as f64,
            t.counter("reconstruct.decoded"),
        ),
    );
    Outcome {
        attempted: 2,
        failed: [&parallel, &serial].iter().filter(|t| !t.exact).count() + usize::from(!correct),
        correct,
        metrics,
    }
}

/// `archive_round_trip_on` rebuilt from public layer calls, for the
/// configuration [`config`] sets (XOR parity, imperfect clustering,
/// strict mode, unlimited budget), with a span around every layer call.
/// Where the pipeline fails, returns the text of the error it returns.
fn replica(
    data: &[u8],
    config: &ArchiveConfig,
    rng: &mut SimRng,
    cluster_stats: &mut ClusterStats,
) -> Result<ArchiveReport, String> {
    let (layout, payload_chunks, protected_len, references) = trace::span("codec.encode", || {
        let layout = StrandLayout::new(config.rs_codeword_len, config.rs_data_len, rng)
            .map_err(|e| ArchiveError::Layout(e).to_string())?;
        let chunk = layout.payload_bytes();
        let mut chunks: Vec<Vec<u8>> = data.chunks(chunk).map(<[u8]>::to_vec).collect();
        if chunks.is_empty() {
            chunks.push(vec![0; chunk]);
        }
        if let Some(last) = chunks.last_mut() {
            last.resize(chunk, 0);
        }
        let protected = XorParity::new(XOR_GROUP).protect(&chunks);
        let flat: Vec<u8> = protected.iter().flatten().copied().collect();
        let references = layout.encode_file(&flat);
        Ok::<_, String>((layout, chunks.len(), protected.len(), references))
    })?;

    // The stage parameters `archive_round_trip_on` uses.
    let synthesis = SynthesisStage {
        error_model: NaiveModel::new(0.0002, 0.0004, 0.0004),
        variants_per_reference: 12,
        dropout_probability: 0.002,
        mean_abundance: 20.0,
    };
    let decay = DecayStage {
        years: config.storage_years,
        half_life_years: 500.0,
        loss_threshold: 1e-6,
    };
    let pcr = PcrStage {
        cycles: 12,
        efficiency: 0.85,
        bias_sigma: 0.05,
        substitution_rate: 0.0002,
    };
    let sequencing = SequencingStage {
        error_model: GroundTruthChannel::new(0.03, layout.strand_len()),
        total_reads: references.len() * config.sequencing_reads_per_strand,
    };
    let seeds = SeedSequence::new(rng.random::<u64>());
    let channel_seeds = SeedSequence::new(seeds.derive("channel"));
    let sample_seeds = SeedSequence::new(seeds.derive("sample"));
    let group_pool = |g: usize| {
        trace::span("channel.pool", || {
            let mut grng = channel_seeds.fork_rng(g as u64);
            let pool = synthesis.run_group(g, &references[g], &mut grng);
            let pool = decay.run(&pool);
            pcr.run(&pool, &mut grng)
        })
    };
    let refs_len = references.len();
    let weights: Vec<f64> = (0..refs_len)
        .map(|g| {
            let pool = group_pool(g);
            trace::span("channel.weight", || pool.total_abundance())
        })
        .collect();
    let read_counts = trace::span("channel.allocate", || {
        sequencing.allocate_reads(&weights, &mut seeds.derive_rng("allocate"))
    });
    let sample_reads = |g: usize| -> Vec<Strand> {
        let pool = group_pool(g);
        let reads = trace::span("channel.sample", || {
            sequencing.sample_group(&pool, read_counts[g], &mut sample_seeds.fork_rng(g as u64))
        });
        trace::count(
            "channel.bases",
            reads.iter().map(Strand::len).sum::<usize>() as f64,
        );
        reads
    };

    // Pass A: every read through the online clusterer, group-major.
    let mut clusterer = trace::span("cluster.new", || {
        StreamingClusterer::with_references(GreedyClusterer::default(), &references)
    });
    let mut assignments: Vec<Option<usize>> = Vec::new();
    let mut expected = vec![0usize; refs_len];
    for g in 0..refs_len {
        for read in sample_reads(g) {
            let matched = trace::span("cluster.push", || clusterer.push(&read).reference);
            trace::count("cluster.reads", 1.0);
            assignments.push(matched);
            if let Some(r) = matched {
                expected[r] += 1;
            }
        }
    }
    *cluster_stats = trace::span("cluster.finish", || clusterer.finish());
    let reads_sequenced: usize = expected.iter().sum();

    // Pass B: regenerate the reads, route them to their references, and
    // decode in completion order (references that got no read first).
    let mut pending: Vec<Vec<Strand>> = vec![Vec::new(); refs_len];
    let mut ready: Vec<usize> = (0..refs_len).filter(|&r| expected[r] == 0).collect();
    let mut cursor = 0usize;
    for g in 0..refs_len {
        for read in sample_reads(g) {
            if let Some(r) = assignments[cursor] {
                pending[r].push(read);
                if pending[r].len() == expected[r] {
                    ready.push(r);
                }
            }
            cursor += 1;
        }
    }
    let ensemble: [(&'static str, Box<dyn TraceReconstructor>); 4] = [
        ("reconstruct.twoway", Box::new(TwoWayIterative::default())),
        ("reconstruct.iterative", Box::new(Iterative::default())),
        ("reconstruct.bma", Box::new(BmaLookahead::default())),
        ("reconstruct.majority", Box::new(MajorityVote)),
    ];
    let decode = |strand: &Strand| {
        let hit = trace::span("codec.decode", || layout.decode_strand(strand).ok());
        if hit.is_some() {
            trace::count("codec.decode_ok", 1.0);
        }
        hit
    };
    let mut received: Vec<Option<Vec<u8>>> = vec![None; protected_len];
    for r in ready {
        let cluster = Cluster::new(references[r].clone(), std::mem::take(&mut pending[r]));
        if cluster.is_erasure() {
            continue;
        }
        let hit = ensemble
            .iter()
            .find_map(|(name, algorithm)| {
                let estimate = trace::span(name, || {
                    algorithm.reconstruct(cluster.reads(), layout.strand_len())
                });
                decode(&estimate)
            })
            .or_else(|| cluster.reads().iter().find_map(decode));
        if let Some((index, bytes)) = hit {
            trace::count("reconstruct.decoded", 1.0);
            let slot = index as usize;
            if slot < received.len() && received[slot].is_none() {
                received[slot] = Some(bytes);
            }
        }
    }

    let clusters_quarantined = received.iter().filter(|slot| slot.is_none()).count();
    let outcome = trace::span("codec.recover", || {
        XorParity::new(XOR_GROUP).recover_lenient(&mut received)
    });
    trace::count("codec.parity_recovered", outcome.recovered as f64);
    // Strict mode's abort: the first slot still missing after recovery.
    let missing = |index: usize| {
        ArchiveError::Unrecoverable(LayoutError::MissingStrand {
            index: index as u32,
        })
        .to_string()
    };
    if !outcome.failed_groups.is_empty() {
        return Err(missing(
            received.iter().position(Option::is_none).unwrap_or(0),
        ));
    }
    let mut out = Vec::with_capacity(payload_chunks * layout.payload_bytes());
    for (i, slot) in received.iter().take(payload_chunks).enumerate() {
        out.extend_from_slice(slot.as_ref().ok_or_else(|| missing(i))?);
    }
    out.truncate(data.len().max(1));
    Ok(ArchiveReport {
        data: out,
        strands_written: refs_len,
        reads_sequenced,
        strands_recovered_by_parity: outcome.recovered,
        clusters_quarantined,
        loss_budget_per_group: 1,
        groups_exceeding_budget: 0,
        strands_unrecovered: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_count_follows_seconds_alone() {
        assert_eq!(timed_round_trips(25.0), 8);
        assert_eq!(timed_round_trips(60.0), 19);
        assert_eq!(timed_round_trips(0.5), 1);
    }
}
