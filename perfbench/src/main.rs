//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_4m --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Runs one workload (`offline_4m`, `serve_mixed_closed`, `sim_accel`;
//! see `perfbench/README.md`), checks
//! every output the program under test produced, and prints as its last
//! stdout line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1` is
//! the separate traced run that reports the per-layer metrics and writes
//! its span log to `perfbench/out/`. Exits 1 on any incorrect output and
//! 2 on bad arguments.

mod layers;
mod offline;
mod open_loop;
mod serve;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::SpanLog;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("reads_per_s", "reads/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer the workload never calls
/// reports 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("index.build_s", "s"),
    ("index.heap_mb", "MB"),
    ("index.smem_ns_per_read", "ns"),
    ("index.smems_per_read", "count"),
    ("index.locate_ns_per_hit", "ns"),
    ("index.hits_per_read", "count"),
    ("index.occ_cache_hit_ratio", "ratio"),
    ("align.chain_ns_per_read", "ns"),
    ("align.read_ns.p50", "ns"),
    ("align.read_ns.p99", "ns"),
    ("align.extend_ns_per_read", "ns"),
    ("align.dp_cells_per_read", "count"),
    ("align.hit_tasks_per_read", "count"),
    ("align.mapped_frac", "ratio"),
    ("align.par_efficiency", "ratio"),
    ("align.long_ns_per_read", "ns"),
    ("align.classify_ns_per_read", "ns"),
    ("protocol.decode_ns_per_req.short", "ns"),
    ("protocol.decode_ns_per_req.long", "ns"),
    ("protocol.encode_ns_per_resp.short", "ns"),
    ("protocol.encode_ns_per_resp.long", "ns"),
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.p99", "us"),
    ("serve.fill_us.p50", "us"),
    ("serve.fill_us.p99", "us"),
    ("serve.align_us.p50", "us"),
    ("serve.align_us.p99", "us"),
    ("serve.write_us.p50", "us"),
    ("serve.write_us.p99", "us"),
    ("serve.outside_us.p50", "us"),
    ("serve.outside_us.p99", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.timeout_flush_frac", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed", "count"),
    ("gen.late_p99_ms", "ms"),
    ("client.slo_rps", "req/s"),
    ("client.p50_ms.2k", "ms"),
    ("client.p99_ms.2k", "ms"),
    ("client.p50_ms.8k", "ms"),
    ("client.p99_ms.8k", "ms"),
    ("client.p99_ms.short", "ms"),
    ("client.p99_ms.long", "ms"),
    ("client.p99_ms.classify", "ms"),
    ("client.bases_per_s", "bp/s"),
    ("core.workload_build_s", "s"),
    ("core.simulate_s", "s"),
    ("sim.total_cycles", "cycles"),
    ("sim.hbm_requests", "count"),
    ("sim.kreads_per_s", "Kreads/s"),
    ("su.utilization", "ratio"),
    ("eu.utilization", "ratio"),
    ("sim.host_ns_per_hbm_request", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups per run: at least `SETUP_MIN_REPEATS`, and more while they
/// have taken less than `SETUP_MIN_SECONDS` (up to `SETUP_MAX_REPEATS`), so
/// a sub-second set-up is timed often enough for a steady median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every output that disagreed with its offline oracle; any entry
    /// makes the run incorrect.
    pub mismatches: Vec<String>,
    /// The traced run's spans, written to `perfbench/out/` at exit.
    pub spans: Option<SpanLog>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A human-readable line for stderr (sample counts, tails).
    pub fn note(&self, line: String) {
        eprintln!("perfbench: {line}");
    }

    /// Records a mismatch, keeping the first few verbatim.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("perfbench: MISMATCH {what}");
        }
        self.mismatches.push(what);
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["offline_4m", "serve_mixed_closed", "sim_accel"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Times repeated set-ups, keeps the last, and records `setup_s` as their
/// median.
pub fn repeated_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", stats::median(&times));
    report.note(format!(
        "setup_s: median of {} set-ups {:?}",
        times.len(),
        stats::sorted(&times)
    ));
    last.expect("at least one set-up")
}

/// Peak resident set (VmHWM) of this process in MB (2^20 bytes).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The source revision: the git commit when run inside a clone, else a
/// hash of the sources the benchmark builds from (an exported checkout
/// has no `.git`).
fn revision() -> String {
    if let Some(rev) = nvwa_telemetry::snapshot::git_revision() {
        return rev;
    }
    use std::hash::{Hash, Hasher};
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in &files {
        f.hash(&mut h);
        std::fs::read(f).unwrap_or_default().hash(&mut h);
    }
    format!("tree-{:016x}", h.finish())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    nvwa_telemetry::JsonValue::Str(s.to_string()).to_string_compact()
}

fn provenance_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"revision\": {}, \"rustc\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&revision()),
        json_str(&rustc_version()),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 (workloads: offline_4m serve_mixed_closed sim_accel)"
            );
            return ExitCode::from(2);
        }
    };
    let provenance = provenance_line(&args);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = match args.workload.as_str() {
        "offline_4m" => offline::run(&args, budget),
        "serve_mixed_closed" => serve::run_mixed(&args, budget),
        "sim_accel" => sim::run(&args),
        _ => unreachable!("workload validated in parse_args"),
    };
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.mismatch("VmHWM unavailable in /proc/self/status".to_string()),
    }

    if let Some(log) = &report.spans {
        let path = PathBuf::from(format!(
            "perfbench/out/{}-seed{}.spans.tsv",
            args.workload, args.seed
        ));
        match log.write_tsv(&path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                log.spans().len(),
                path.display()
            ),
            Err(e) => report.mismatch(format!("cannot write {}: {e}", path.display())),
        }
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            // A layer this workload never calls did no work there.
            None if args.trace => 0.0,
            None => {
                report.mismatch(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            report.mismatch(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            if value.is_finite() { value } else { 0.0 },
            json_str(unit)
        ));
    }
    let correct = report.mismatches.is_empty();
    if !correct {
        eprintln!(
            "perfbench: {} incorrect output(s); the run fails",
            report.mismatches.len()
        );
    }
    println!("{provenance}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = nvwa_telemetry::JsonValue::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(nvwa_telemetry::JsonValue::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn arguments_are_validated() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("--workload sim_accel --seed 3 --seconds 5 --trace 1")).is_ok());
        assert!(parse_args(&a("--workload nope --seed 3 --seconds 5 --trace 1")).is_err());
        assert!(parse_args(&a("--workload sim_accel --seed x --seconds 5 --trace 1")).is_err());
        assert!(parse_args(&a("--workload sim_accel --seed 3 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&a("--workload sim_accel --seed 3 --seconds 5 --trace 2")).is_err());
    }
}
