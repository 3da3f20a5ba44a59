//! `serve-mixed`: one `serve` session of mixed JSONL traffic from four
//! tenants, closed loop with a single client whose whole batch is
//! readable at start.
//!
//! Latency runs from the moment `serve` consumes a request's line (the
//! [`StampedInput`] wrapper stamps it) to the moment the response's line
//! ends (the [`StampedOutput`] wrapper stamps it). The traced replica
//! sends every line through `Request::parse` + `execute_with` and must
//! reproduce each response line of the session.

use std::io::{self, BufRead, Read, Write};
use std::time::Instant;

use dnasim_core::rng::{RngExt, SeedSequence, SliceRandom};
use dnasim_dataset::{write_dataset, NanoporeTwinConfig};
use dnasim_par::ThreadPool;
use dnasim_serve::{execute_with, json, serve, Request, ServeConfig, ServeReport};

use crate::trace::{self, ratio};
use crate::{sys, Metrics, Outcome};

/// Requests in the session (the sum of [`MIX`]).
const REQUESTS: usize = 1200;
const TENANTS: [&str; 4] = ["acme", "betalab", "cryogen", "deepsea"];
/// Inline datasets the `simulate` / `evaluate` requests draw from.
const INLINE_DATASETS: usize = 4;
/// Set-ups timed before each session (≈1.5 ms each).
const SETUP_SAMPLES: usize = 8;

fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        seed,
        window: 16,
        batch_size: 64,
        ..ServeConfig::default()
    }
}

/// How many requests of each op the session carries: the op weights of
/// the serve soak traffic (`tests/serve_soak.rs`: 2/8 `generate`, 2/8
/// `corrupt`, 2/8 `simulate`, 1/8 `evaluate`, 1/8 `archive`) scaled to
/// [`REQUESTS`]. The seed only orders the requests and draws their sizes,
/// so every seed asks for the same amount of work. `simulate` and
/// `evaluate` carry small inline datasets; lenient `archive` round trips
/// are the heavy tail, so the tail latency and the per-window idle share
/// follow the archive weight.
const MIX: [(Kind, usize); 5] = [
    (Kind::Generate, 300),
    (Kind::Corrupt, 300),
    (Kind::Simulate, 300),
    (Kind::Evaluate, 150),
    (Kind::Archive, 150),
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Corrupt,
    Generate,
    Simulate,
    Evaluate,
    Archive,
}

/// The session's JSONL batch, one `\n`-terminated line per request, a
/// pure function of the workload seed. The lines stay separate
/// allocations: joined, the batch is one buffer of ≈1.4 MiB, whose cost
/// to build swings with the allocator's page-mapping state rather than
/// with the work.
fn traffic(seed: u64) -> Vec<String> {
    let seq = SeedSequence::new(seed).derive_seq("serve-mixed");
    let datasets: Vec<String> = (0..INLINE_DATASETS)
        .map(|i| {
            let twin = NanoporeTwinConfig {
                cluster_count: 6,
                strand_len: 40,
                max_coverage: 12,
                erasure_count: 0,
                seed: seq.fork(i as u64).derive("dataset"),
                ..NanoporeTwinConfig::small()
            }
            .generate();
            let mut text = Vec::new();
            write_dataset(&twin, &mut text).expect("writing to a Vec cannot fail");
            json::escape(&String::from_utf8(text).expect("cluster files are ASCII"))
        })
        .collect();
    let mut rng = seq.derive_rng("traffic");
    let mut kinds: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    kinds.shuffle(&mut rng);
    let mut input = Vec::with_capacity(REQUESTS);
    for (i, kind) in kinds.into_iter().enumerate() {
        let tenant = TENANTS[rng.random_range(0..TENANTS.len())];
        let head = format!("{{\"tenant\":\"{tenant}\",\"request_id\":\"r{i}\"");
        let dataset = &datasets[rng.random_range(0..INLINE_DATASETS)];
        let mut line = match kind {
            Kind::Corrupt => format!(
                "{head},\"op\":\"corrupt\",\"count\":{},\"len\":32,\"reads\":3}}",
                rng.random_range(2..7usize)
            ),
            Kind::Generate => format!(
                "{head},\"op\":\"generate\",\"clusters\":{},\"len\":32}}",
                rng.random_range(2..9usize)
            ),
            Kind::Simulate => format!(
                "{head},\"op\":\"simulate\",\"model\":\"{}\",\"dataset\":\"{dataset}\"}}",
                ["naive", "dnasimulator", "keoliya"][rng.random_range(0..3usize)]
            ),
            Kind::Evaluate => format!(
                "{head},\"op\":\"evaluate\",\"algorithm\":\"{}\",\"dataset\":\"{dataset}\"}}",
                ["bma", "iterative", "majority"][rng.random_range(0..3usize)]
            ),
            Kind::Archive => {
                format!("{head},\"op\":\"archive\",\"bytes\":48,\"reads\":4,\"lenient\":true}}")
            }
        };
        line.push('\n');
        input.push(line);
    }
    input
}

/// The request batch as `serve` reads it, stamping the instant each line
/// is consumed. It hands out one line at a time.
struct StampedInput<'a> {
    lines: &'a [String],
    line: usize,
    pos: usize,
    stamps: Vec<Instant>,
}

impl StampedInput<'_> {
    /// The unread rest of the current line (empty at the end).
    fn rest(&mut self) -> &[u8] {
        while self.line < self.lines.len() && self.pos == self.lines[self.line].len() {
            self.line += 1;
            self.pos = 0;
        }
        self.lines
            .get(self.line)
            .map_or(&[], |l| &l.as_bytes()[self.pos..])
    }
}

impl Read for StampedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let rest = self.rest();
        let n = buf.len().min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for StampedInput<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        Ok(self.rest())
    }

    fn consume(&mut self, amount: usize) {
        let now = Instant::now();
        let rest = self.rest();
        let lines = rest[..amount].iter().filter(|&&b| b == b'\n').count();
        self.stamps.extend(std::iter::repeat_n(now, lines));
        self.pos += amount;
    }
}

/// The response stream, stamping the instant each line ends.
#[derive(Default)]
struct StampedOutput {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for StampedOutput {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.stamps.extend(std::iter::repeat_n(now, lines));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Session {
    report: Option<ServeReport>,
    output: Vec<u8>,
    latencies_ms: Vec<f64>,
    seconds: f64,
}

impl Session {
    /// Requests that did not get an `ok` or `degraded` response,
    /// counting missing responses.
    fn failures(&self) -> usize {
        match &self.report {
            Some(r) => {
                let answered = self.output.iter().filter(|&&b| b == b'\n').count();
                r.errors + r.rejected + r.deadlines + r.shed + REQUESTS.saturating_sub(answered)
            }
            None => REQUESTS,
        }
    }
}

fn session(input: &[String], seed: u64, pool: &ThreadPool) -> Session {
    let mut reader = StampedInput {
        lines: input,
        line: 0,
        pos: 0,
        stamps: Vec::with_capacity(REQUESTS),
    };
    let mut writer = StampedOutput::default();
    let start = Instant::now();
    let result = serve(&mut reader, &mut writer, &config(seed), pool);
    let seconds = start.elapsed().as_secs_f64();
    let report = match result {
        Ok(report) => Some(report),
        Err(e) => {
            eprintln!("serve session failed: {e}");
            None
        }
    };
    let latencies_ms = reader
        .stamps
        .iter()
        .zip(&writer.stamps)
        .map(|(read, written)| written.duration_since(*read).as_secs_f64() * 1e3)
        .collect();
    Session {
        report,
        output: writer.bytes,
        latencies_ms,
        seconds,
    }
}

/// Response lines that differ between two sessions, counting lines
/// present in only one of them.
fn differing_lines(a: &[u8], b: &[u8]) -> usize {
    let (a, b): (Vec<&[u8]>, Vec<&[u8]>) = (
        a.split(|&c| c == b'\n').collect(),
        b.split(|&c| c == b'\n').collect(),
    );
    let common = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    common + a.len().abs_diff(b.len())
}

/// The untraced run: repeated sessions for `seconds`, each checked against
/// the first, then one session at one worker, which must match byte for
/// byte. `work_per_s` is the session's requests over the median session
/// time; `latency_tail_ms` is the median over sessions of each session's
/// p99 (1200 requests leave twelve beyond it), so one session slowed by
/// a noisy neighbour does not set the tail of the whole run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let workers = sys::nproc();
    // Set-up: composing the request batch, inline datasets included,
    // sampled before every session.
    let compose = || traffic(seed);
    let mut setups = sys::setup_times(SETUP_SAMPLES, compose);
    let input = traffic(seed);
    let pool = ThreadPool::new(workers);

    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut latencies = Vec::new();
    let mut session_s = Vec::new();
    let mut session_tails = Vec::new();
    let mut mismatched = 0usize;
    let mut first: Option<Vec<u8>> = None;
    let mut peak_rss_mib = 0.0;
    let timed = Instant::now();
    while attempted == 0 || timed.elapsed().as_secs_f64() < seconds {
        if attempted > 0 {
            setups.extend(sys::setup_times(SETUP_SAMPLES, compose));
        }
        let s = session(&input, seed, &pool);
        attempted += REQUESTS;
        failed += s.failures();
        latencies.extend_from_slice(&s.latencies_ms);
        session_s.push(s.seconds);
        session_tails.push(sys::tail(&s.latencies_ms));
        match &first {
            None => {
                peak_rss_mib = sys::peak_rss_mib();
                first = Some(s.output);
            }
            Some(reference) => mismatched += differing_lines(reference, &s.output),
        }
    }

    let serial = session(&input, seed, &ThreadPool::serial());
    attempted += REQUESTS;
    failed += serial.failures();
    mismatched += differing_lines(first.as_deref().unwrap_or_default(), &serial.output);
    if mismatched > 0 {
        eprintln!("serve: {mismatched} response line(s) differ between sessions");
    }

    let mut metrics = Metrics::default();
    metrics.end_to_end(
        sys::median(&setups),
        REQUESTS as f64 / sys::median(&session_s),
        sys::median(&latencies),
        sys::median(&session_tails),
        peak_rss_mib,
    );
    Outcome {
        attempted,
        failed: failed + mismatched,
        correct: mismatched == 0,
        metrics,
    }
}

/// The traced run: after a warm-up session, one session at nproc workers
/// and one at one worker, then every request replayed through
/// `Request::parse` + `execute_with` under spans, each response checked
/// against the session's line.
pub fn run_traced(seed: u64) -> Outcome {
    let workers = sys::nproc();
    let input = traffic(seed);
    let config = config(seed);
    // Warm-up, as in the archive workload's traced run.
    session(&input, seed, &ThreadPool::new(workers));
    let cpu_before = sys::cpu_seconds();
    let parallel = session(&input, seed, &ThreadPool::new(workers));
    let cpu = sys::cpu_seconds() - cpu_before;
    let serial = session(&input, seed, &ThreadPool::serial());
    let failed = parallel.failures() + serial.failures();
    let mut mismatched = differing_lines(&parallel.output, &serial.output);

    let root = SeedSequence::new(config.seed);
    let policy = config.policy();
    trace::start();
    let replayed: Vec<String> = trace::span("bench", || {
        input
            .iter()
            .map(|line| line.trim_end_matches('\n'))
            .enumerate()
            .map(|(i, line)| {
                let request = trace::span("serve.parse", || {
                    Request::parse(line, i + 1, config.max_batch)
                });
                match request {
                    Ok(request) => {
                        let name = match request.op_name() {
                            "generate" => "serve.execute.generate",
                            "corrupt" => "serve.execute.corrupt",
                            "simulate" => "serve.execute.simulate",
                            "evaluate" => "serve.execute.evaluate",
                            _ => "serve.execute.archive",
                        };
                        trace::span(name, || {
                            execute_with(&request, &root, config.batch_size, &policy, None).line
                        })
                    }
                    Err(e) => format!("unparsable request: {e}"),
                }
            })
            .collect()
    });
    let t = trace::finish();
    let session_lines: Vec<&str> = std::str::from_utf8(&serial.output)
        .unwrap_or_default()
        .lines()
        .collect();
    let replica_mismatches = replayed
        .iter()
        .zip(&session_lines)
        .filter(|(a, b)| a != b)
        .count()
        + replayed.len().abs_diff(session_lines.len());
    if replica_mismatches > 0 {
        eprintln!("serve: {replica_mismatches} replayed response(s) differ from the session");
    }
    mismatched += replica_mismatches;

    let mut metrics = Metrics::default();
    metrics.common_layers(&t, cpu, parallel.seconds, serial.seconds, workers);
    let p50 = |name| sys::median(&t.durations_s(name)) * 1e3;
    metrics.set(
        "serve.execute_ms_p50.generate",
        p50("serve.execute.generate"),
    );
    metrics.set("serve.execute_ms_p50.corrupt", p50("serve.execute.corrupt"));
    metrics.set(
        "serve.execute_ms_p50.simulate",
        p50("serve.execute.simulate"),
    );
    metrics.set(
        "serve.execute_ms_p50.evaluate",
        p50("serve.execute.evaluate"),
    );
    metrics.set("serve.execute_ms_p50.archive", p50("serve.execute.archive"));
    metrics.set(
        "serve.execute_ms_p99.archive",
        sys::quantile(&t.durations_s("serve.execute.archive"), 0.99) * 1e3,
    );
    if let Some(report) = &parallel.report {
        metrics.set("serve.windows", report.windows as f64);
        metrics.set("serve.degraded", report.degraded as f64);
    }
    let executing = t.self_s("serve.execute");
    metrics.set(
        "serve.idle_share",
        1.0 - ratio(executing, workers as f64 * parallel.seconds),
    );
    Outcome {
        attempted: 2 * REQUESTS,
        failed: failed + mismatched,
        correct: mismatched == 0,
        metrics,
    }
}
