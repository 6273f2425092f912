//! `offline_4m`: 101 bp reads through `SoftwareAligner::align_codes_fast`
//! under `par::par_map_with` at 2 threads, against a 4 Mb reference whose
//! index (~42 MiB) is ~10x a 4 MiB L2, so seeding is miss-bound.

use std::time::{Duration, Instant};

use nvwa_align::pipeline::{
    AlignScratch, AlignerConfig, Alignment, ReferenceIndex, SoftwareAligner,
};
use nvwa_genome::reads::{Read, ReadSimParams, ReadSimulator, Strand};
use nvwa_genome::reference::{ReferenceGenome, ReferenceParams};
use nvwa_sim::par;

use crate::spans::{Span, SpanLog, ROOT};
use crate::stats::{median, Summary};
use crate::{layers, repeated_setup, Args, Report};

const REF_LEN: usize = 4_000_000;
/// Reads per pass; a pass at 2 threads takes about a second.
const POOL: usize = 20_000;
/// Reads the traced run times at 1 vs 2 threads.
const TRACED_READS: usize = 4_000;
const THREADS: usize = 2;
const SA_RATE: u32 = 32;
/// Share of reads that must align at their simulated origin.
const MIN_AT_ORIGIN: f64 = 0.9;

pub fn run(args: &Args, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut log = SpanLog::new(Instant::now());
    let mut build_s = Vec::new();
    let (index, reads) = repeated_setup(&mut report, || {
        let genome = ReferenceGenome::synthesize(
            &ReferenceParams {
                total_len: REF_LEN,
                chromosomes: 4,
                ..ReferenceParams::default()
            },
            args.seed,
        );
        let span = log.open("index.build", ROOT, u64::MAX);
        let index = ReferenceIndex::build(&genome, SA_RATE);
        log.close(span);
        build_s.push(log.spans()[span as usize].dur_ns() as f64 / 1e9);
        let reads = ReadSimulator::new(&genome, ReadSimParams::illumina_101(), args.seed ^ 0x0ff1)
            .simulate_reads(POOL);
        (index, reads)
    });
    let aligner = SoftwareAligner::new(&index, AlignerConfig::default());

    // Warm-up pass: fills caches and records each read's reference
    // alignment, which every later pass must reproduce exactly.
    let expected = align_pass(&aligner, &reads, THREADS);
    check_origins(&reads, &expected, &mut report);

    if args.trace {
        traced(budget, &index, &aligner, &reads, &build_s, log, &mut report);
        return report;
    }

    let mut rates = Vec::new();
    let mut latency_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || rates.is_empty() {
        let t = Instant::now();
        let out = align_pass(&aligner, &reads, THREADS);
        rates.push(reads.len() as f64 / t.elapsed().as_secs_f64());
        report.attempted += out.len() as u64;
        for (i, ((alignment, ns), want)) in out.iter().zip(&expected).enumerate() {
            latency_ms.push(*ns as f64 / 1e6);
            if alignment != &want.0 {
                report.mismatch(format!("read {i}: {alignment:?} differs from {:?}", want.0));
            }
        }
    }
    let lat = Summary::of(&latency_ms);
    report.set("reads_per_s", median(&rates));
    report.set("p50_ms", lat.p50);
    report.set("p99_ms", lat.p99);
    report.note(format!(
        "{} passes of {} reads at {THREADS} threads: reads/s {:?}; per-read latency {}",
        rates.len(),
        reads.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        lat.describe("ms")
    ));
    report
}

/// Aligns every read at `threads`; returns each alignment with its
/// wall time in ns.
fn align_pass(
    aligner: &SoftwareAligner<'_>,
    reads: &[Read],
    threads: usize,
) -> Vec<(Option<Alignment>, u64)> {
    par::with_threads(threads, || {
        par::par_map_with(reads, AlignScratch::new, |scratch, r| {
            let t = Instant::now();
            let out = aligner.align_codes_fast(r.id, r.seq.codes(), scratch);
            (out.alignment, t.elapsed().as_nanos() as u64)
        })
    })
}

/// The aligner must place nearly every simulated read where it came from.
fn check_origins(reads: &[Read], got: &[(Option<Alignment>, u64)], report: &mut Report) {
    let at_origin = reads
        .iter()
        .zip(got)
        .filter(|(r, (a, _))| {
            a.as_ref().is_some_and(|a| {
                a.is_rc == (r.origin.strand == Strand::Reverse)
                    && a.flat_pos.abs_diff(r.origin.flat_pos as u64) <= r.seq.len() as u64
            })
        })
        .count();
    let frac = at_origin as f64 / reads.len() as f64;
    report.note(format!(
        "{:.4} of reads align at their simulated origin",
        frac
    ));
    if frac < MIN_AT_ORIGIN {
        report.mismatch(format!(
            "only {frac:.4} of reads align at their origin (need {MIN_AT_ORIGIN})"
        ));
    }
}

/// The traced run: per-layer self times at 1 thread, 1- vs 2-thread
/// scaling, and the cost of recording a span per read.
fn traced(
    budget: Duration,
    index: &ReferenceIndex,
    aligner: &SoftwareAligner<'_>,
    reads: &[Read],
    build_s: &[f64],
    mut log: SpanLog,
    report: &mut Report,
) {
    report.set("index.build_s", median(build_s));
    report.set(
        "index.heap_mb",
        index.heap_bytes() as f64 / (1u64 << 20) as f64,
    );
    let codes: Vec<Vec<u8>> = reads.iter().map(|r| r.seq.codes().to_vec()).collect();
    layers::short_read_layers(
        aligner,
        index,
        &codes,
        budget.mul_f64(0.4),
        &mut log,
        report,
    );

    let subset = &reads[..TRACED_READS.min(reads.len())];
    // Alternate untraced 1-thread, untraced 2-thread and traced 2-thread
    // passes so drift in the host's speed hits all three alike.
    let (mut one, mut two, mut two_traced) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget.mul_f64(0.6) || one.is_empty() {
        let rate = |t: Instant| subset.len() as f64 / t.elapsed().as_secs_f64();
        let t = Instant::now();
        align_pass(aligner, subset, 1);
        one.push(rate(t));
        let t = Instant::now();
        align_pass(aligner, subset, THREADS);
        two.push(rate(t));
        let t = Instant::now();
        let spans = par::with_threads(THREADS, || {
            par::par_map_with(subset, AlignScratch::new, |scratch, r| {
                let start_ns = log.now_ns();
                let out = aligner.align_codes_fast(r.id, r.seq.codes(), scratch);
                let span = Span {
                    name: "read.par",
                    start_ns,
                    end_ns: log.now_ns(),
                    parent: ROOT,
                    read: r.id,
                };
                std::hint::black_box(out);
                span
            })
        });
        two_traced.push(rate(t));
        for s in spans {
            log.push(s);
        }
        report.attempted += 3 * subset.len() as u64;
    }
    let (one, two, two_traced) = (median(&one), median(&two), median(&two_traced));
    report.set("align.par_efficiency", two / (THREADS as f64 * one));
    report.set("trace.overhead_frac", 1.0 - two_traced / two);
    report.note(format!(
        "reads/s: 1 thread {one:.0}, {THREADS} threads {two:.0} untraced / {two_traced:.0} traced"
    ));
    report.spans = Some(log);
}
