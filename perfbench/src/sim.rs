//! `sim_accel`: the cycle-accurate NvWa model,
//! `simulate_instrumented(&NvwaConfig::paper(), ..)`, over a prefix of
//! `SyntheticWorkloadParams::generate(seed)` -- the `nvwa sim` path.
//!
//! The workload is sized past the simulator's host-time cliff: once an HBM
//! channel holds more than 2^17 booked slots, `Hbm::prune` runs `retain`
//! over the whole slot set on every request, and its 10^7-cycle cutoff
//! frees nothing in runs of ~10^6 cycles. Measured with `nvwa sim --seed
//! 42` on a 2-CPU host: 20k reads simulate in 1.2 s, 22k in 10.5 s.

use std::path::Path;
use std::time::Instant;

use nvwa_core::config::NvwaConfig;
use nvwa_core::system::simulator::{simulate_instrumented, SimOptions};
use nvwa_core::units::workload::SyntheticWorkloadParams;

use crate::spans::{SpanLog, ROOT};
use crate::stats::median;
use crate::{repeated_setup, Args, Report};

/// Reads generated per run; the run simulates a prefix of them.
const MAX_READS: usize = 24_000;
/// Seeding accesses outside the SU's SRAM-resident hot set a run
/// simulates: the shortest prefix of the generated reads that reaches this
/// many. Each such access is an HBM request, and the host time past the
/// cliff grows with how far the request count exceeds it, so fixing the
/// count (about 22.6k reads' worth) rather than the read count keeps one
/// seed from landing much deeper past the cliff than another.
const COLD_ACCESSES: u64 = 1_070_000;
/// Simulated statistics of earlier runs in this checkout, keyed by
/// revision, seed and size: a rerun must reproduce them bit for bit.
const LEDGER: &str = "perfbench/out/sim_ledger.tsv";

/// One simulation (~30 s) is the unit of work, whatever `--seconds` says.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut log = SpanLog::new(Instant::now());
    let params = SyntheticWorkloadParams {
        reads: MAX_READS,
        ..SyntheticWorkloadParams::default()
    };
    let mut build_s = Vec::new();
    let works = repeated_setup(&mut report, || {
        let span = log.open("core.workload_build", ROOT, u64::MAX);
        let mut works = params.generate(args.seed);
        let mut cold = 0u64;
        let n = works
            .iter()
            .position(|w| {
                cold += w
                    .seeding_accesses
                    .iter()
                    .filter(|&&a| a >= params.hot_blocks)
                    .count() as u64;
                cold >= COLD_ACCESSES
            })
            .map_or(works.len(), |i| i + 1);
        works.truncate(n);
        log.close(span);
        build_s.push(log.spans()[span as usize].dur_ns() as f64 / 1e9);
        works
    });
    let reads = works.len();

    let span = log.open("core.simulate", ROOT, u64::MAX);
    let run = simulate_instrumented(&NvwaConfig::paper(), &works, &SimOptions::default());
    log.close(span);
    let simulate_s = log.spans()[span as usize].dur_ns() as f64 / 1e9;
    let r = &run.report;
    report.attempted = reads as u64;
    if r.reads != reads as u64 {
        report.mismatch(format!("simulated {} reads of {reads}", r.reads));
    }
    let Some(kreads) = r.kreads_per_sec() else {
        report.mismatch("the model reports no throughput".to_string());
        return report;
    };
    check_ledger(args.seed, r.total_cycles, kreads, &mut report);

    report.set("reads_per_s", reads as f64 / simulate_s);
    // The user of `nvwa sim` waits for one whole simulation.
    report.set("p50_ms", simulate_s * 1e3);
    report.set("p99_ms", simulate_s * 1e3);
    report.note(format!(
        "simulated {reads} reads in {simulate_s:.3} s host time (one sample): {} cycles, \
         {} HBM requests, {kreads:.3} K reads/s at 1 GHz",
        r.total_cycles, r.hbm_requests
    ));
    if args.trace {
        report.set("core.workload_build_s", median(&build_s));
        report.set("core.simulate_s", simulate_s);
        report.set("sim.total_cycles", r.total_cycles as f64);
        report.set("sim.hbm_requests", r.hbm_requests as f64);
        report.set("sim.kreads_per_s", kreads);
        report.set("su.utilization", r.su_utilization);
        report.set("eu.utilization", r.eu_utilization);
        report.set(
            "sim.host_ns_per_hbm_request",
            simulate_s * 1e9 / r.hbm_requests.max(1) as f64,
        );
        report.spans = Some(log);
    }
    report
}

/// Compares this run's simulated statistics with any earlier run of the
/// same revision, seed and size, and records them when there is none.
fn check_ledger(seed: u64, cycles: u64, kreads: f64, report: &mut Report) {
    let key = format!("{}\t{seed}\t{COLD_ACCESSES}", crate::revision());
    let row = format!("{key}\t{cycles}\t{:016x}", kreads.to_bits());
    let ledger = std::fs::read_to_string(LEDGER).unwrap_or_default();
    let earlier = ledger
        .lines()
        .find(|l| l.rsplitn(3, '\t').nth(2) == Some(key.as_str()));
    match earlier {
        Some(prev) if prev != row => report.mismatch(format!(
            "simulated statistics changed between runs of seed {seed}: {prev:?} then {row:?}"
        )),
        Some(_) => report.note(format!("seed {seed}: simulated statistics repeat exactly")),
        None => {
            let write = || -> std::io::Result<()> {
                std::fs::create_dir_all(Path::new(LEDGER).parent().expect("ledger has a dir"))?;
                let mut text = ledger.clone();
                text.push_str(&row);
                text.push('\n');
                std::fs::write(LEDGER, text)
            };
            if let Err(e) = write() {
                report.mismatch(format!("cannot record {LEDGER}: {e}"));
            }
        }
    }
}
