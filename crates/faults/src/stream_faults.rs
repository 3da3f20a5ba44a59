//! Mid-stream fault injectors: sources that stall and sinks whose writes
//! fail.
//!
//! The text and byte-stream injectors in [`inject`](crate::inject) attack
//! data *at rest*; these attack the streaming pipeline *in motion*. A
//! [`StallingSource`] models an upstream that stops making progress
//! without closing (a wedged pipe, a hung network fetch): it keeps
//! returning empty batches instead of `None`. A [`FailingSink`] models a
//! downstream that dies mid-write (full disk, closed pipe). Both are
//! deterministic, so a chaos failure against them is a one-line
//! reproduction.

use dnasim_core::{Batch, Cluster, ClusterSink, ClusterSource, DnasimError};

/// A [`ClusterSource`] that emits a fixed prefix of clusters and then
/// stalls: every later `next_batch` call returns an *empty* batch rather
/// than `None`, forever.
///
/// An unmetered pump over a stalled source would spin; a budgeted pump
/// charges one work unit per empty batch, so the stall deterministically
/// trips the deadline instead.
#[derive(Debug, Clone)]
pub struct StallingSource {
    clusters: Vec<Cluster>,
    emitted: usize,
}

impl StallingSource {
    /// A source that yields `clusters` in order, then stalls.
    pub fn new(clusters: Vec<Cluster>) -> StallingSource {
        StallingSource {
            clusters,
            emitted: 0,
        }
    }
}

impl ClusterSource for StallingSource {
    fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
        if max == 0 {
            return Err(DnasimError::config(
                "batch_size",
                "batch size must be at least 1",
            ));
        }
        if self.emitted >= self.clusters.len() {
            // The stall: progress stops but the stream never closes.
            return Ok(Some(Batch::new(self.emitted, Vec::new())));
        }
        let end = (self.emitted + max).min(self.clusters.len());
        let batch = Batch::new(self.emitted, self.clusters[self.emitted..end].to_vec());
        self.emitted = end;
        Ok(Some(batch))
    }
}

/// A [`ClusterSink`] that accepts at most `capacity` clusters and then
/// fails every subsequent write with a typed I/O error — a full disk or a
/// consumer that hung up mid-stream.
#[derive(Debug, Clone)]
pub struct FailingSink {
    capacity: usize,
    accepted: usize,
}

impl FailingSink {
    /// A sink whose writes fail once `capacity` clusters have been
    /// accepted.
    pub fn new(capacity: usize) -> FailingSink {
        FailingSink {
            capacity,
            accepted: 0,
        }
    }

    /// Clusters successfully accepted before any failure.
    pub fn accepted(&self) -> usize {
        self.accepted
    }
}

impl ClusterSink for FailingSink {
    fn accept(&mut self, batch: Batch) -> Result<(), DnasimError> {
        if self.accepted + batch.len() > self.capacity {
            return Err(DnasimError::Io(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "sink write failure: device out of space",
            )));
        }
        self.accepted += batch.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnasim_core::{pump, Budget, NullSink, Strand};

    fn clusters(n: usize) -> Vec<Cluster> {
        (0..n)
            .map(|i| {
                let reference: Strand = "ACGT".repeat(i + 1).parse().expect("valid strand");
                Cluster::new(reference, Vec::new())
            })
            .collect()
    }

    #[test]
    fn stalling_source_trips_a_budget_instead_of_spinning() {
        let mut source = StallingSource::new(clusters(6));
        let mut sink = NullSink::new();
        let budget = Budget::limited(10);
        let err = pump(&mut source, &mut sink, 4, Some(&budget), "pump", Ok).unwrap_err();
        assert!(
            matches!(err, DnasimError::DeadlineExceeded { .. }),
            "{err}"
        );
        // All six real clusters made it through before the stall.
        assert_eq!(sink.clusters(), 6);
    }

    #[test]
    fn failing_sink_surfaces_a_typed_io_error() {
        let mut source = StallingSource::new(clusters(8));
        let mut sink = FailingSink::new(5);
        let budget = Budget::limited(64);
        let err = pump(&mut source, &mut sink, 2, Some(&budget), "pump", Ok).unwrap_err();
        assert!(matches!(err, DnasimError::Io(_)), "{err}");
        assert!(sink.accepted() <= 5);
    }

    #[test]
    fn a_sink_with_room_never_fails() {
        let mut all = StallingSource::new(clusters(4));
        let mut sink = FailingSink::new(4);
        let budget = Budget::limited(8);
        // The source stalls after its 4 clusters, so the run still ends in
        // a deadline — but not in a sink failure.
        let err = pump(&mut all, &mut sink, 2, Some(&budget), "pump", Ok).unwrap_err();
        assert!(matches!(err, DnasimError::DeadlineExceeded { .. }));
        assert_eq!(sink.accepted(), 4);
    }

    #[test]
    fn unmetered_pump_over_a_closing_source_is_unaffected() {
        // A plain Vec-backed source (capacity never exceeded, no stall):
        // pump's behaviour is the baseline these injectors perturb.
        struct Closing(StallingSource, usize);
        impl ClusterSource for Closing {
            fn next_batch(&mut self, max: usize) -> Result<Option<Batch>, DnasimError> {
                let batch = self.0.next_batch(max)?;
                match batch {
                    Some(b) if b.is_empty() => Ok(None),
                    other => {
                        self.1 += other.as_ref().map_or(0, Batch::len);
                        Ok(other)
                    }
                }
            }
        }
        let mut source = Closing(StallingSource::new(clusters(5)), 0);
        let mut sink = NullSink::new();
        let stats = pump(&mut source, &mut sink, 2, None, "pump", Ok).expect("clean pump");
        assert_eq!(stats.clusters, 5);
    }
}
