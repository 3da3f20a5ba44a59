//! Process resource readings, order statistics and the environment record.

use std::process::Command;

use dnasim_serve::json::escape;

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage() -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // 64-bit layout, and `getrusage` writes at most that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// User + system CPU seconds this process has used so far (all threads).
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    (u.utime_sec + u.stime_sec) as f64 + (u.utime_usec + u.stime_usec) as f64 * 1e-6
}

/// Peak resident set size of this process image so far, in MiB: `VmHWM`
/// from `/proc/self/status`. Not `ru_maxrss`, which after `exec` also
/// counts the memory of the process that launched this one (`cargo run`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker count the benchmark runs at: every core this process may use.
/// Deliberately not `ThreadPool::from_env`, which honours `DNASIM_THREADS`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Times (seconds) of `reps` calls of `setup`, each timed on its own:
/// the clock costs tens of nanoseconds, well below the set-ups timed here.
/// Workloads whose set-up is short take these samples before every timed
/// unit and report their median: on a shared machine a core's speed
/// drifts over tens of milliseconds, so samples taken in one burst would
/// all read the same passing state.
pub fn setup_times<T>(reps: usize, mut setup: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(setup());
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail latency: the nearest-rank p99 when at least ten samples lie
/// beyond it, else p90 on the same condition, else the median.
pub fn tail(values: &[f64]) -> f64 {
    let q = [0.99, 0.9]
        .into_iter()
        .find(|&q| {
            let cut = quantile(values, q);
            values.iter().filter(|&&v| v > cut).count() >= 10
        })
        .unwrap_or(0.5);
    quantile(values, q)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        // Stop git at the current directory: the benchmark reads nothing
        // outside the checkout it runs in.
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir()
                .ok()
                .and_then(|d| d.parent().map(|p| p.display().to_string()))
                .unwrap_or_default(),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The environment record printed with every run, as one JSON object.
/// `threads_env` / `simd_env` say whether `DNASIM_THREADS` / `DNASIM_SIMD`
/// were set when the benchmark started.
pub fn environment_json(threads_env: bool, simd_env: bool) -> String {
    format!(
        "{{\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"simd_tier\":\"{}\",\
         \"DNASIM_THREADS_set\":{},\"DNASIM_SIMD_set\":{}}}",
        nproc(),
        escape(&cpu_model()),
        escape(&command_line("rustc", &["--version"])),
        escape(&command_line("git", &["rev-parse", "HEAD"])),
        dnasim_metrics::simd_tier_name(),
        threads_env,
        simd_env,
    )
}
