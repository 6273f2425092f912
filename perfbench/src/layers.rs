//! Per-layer probes shared by the traced runs: the short-read pipeline
//! decomposed into its public calls, and the wire protocol's frame codec.

use std::io::Cursor;
use std::time::{Duration, Instant};

use nvwa_align::chain::{chain_seeds, Seed};
use nvwa_align::pipeline::{AlignScratch, ReferenceIndex, SoftwareAligner};
use nvwa_index::smem::{collect_smems_into, SmemScratch};
use nvwa_index::trace::NullTrace;
use nvwa_serve::protocol::{read_frame, write_frame};
use nvwa_serve::{AlignResponse, Request};
use nvwa_telemetry::JsonValue;

use crate::spans::{SpanLog, ROOT};
use crate::stats::Summary;
use crate::Report;

/// Reads per chunk of the layer probe: enough that a chunk's index
/// working set does not fit in cache, so both passes over it start cold.
const CHUNK: usize = 2_000;

/// Times the short-read pipeline layer by layer at one thread, for
/// `budget`, over repeated passes of `reads`.
///
/// Each chunk of reads is aligned twice. First each read's layers are
/// called one by one, each in a child span of `read.decomposed`: `smem`
/// (`collect_smems_into`), `locate` (`SampledSa::locate` +
/// `FmdIndex::resolve_hit` per kept SMEM occurrence) and `chain`
/// (`chain_seeds`). Then `align_codes_fast` runs whole on each read in a
/// `read` span. Extension is the part of `read` the three layers do not
/// explain. The decomposition must find the SMEMs and hits the pipeline
/// reports, and the layers must not add up to more than the whole read.
pub fn short_read_layers(
    aligner: &SoftwareAligner<'_>,
    index: &ReferenceIndex,
    reads: &[Vec<u8>],
    budget: Duration,
    log: &mut SpanLog,
    report: &mut Report,
) {
    let cfg = aligner.config();
    let fmd = index.fmd();
    let mut smem_scratch = SmemScratch::default();
    let mut smems = Vec::new();
    let mut seeds: Vec<Seed> = Vec::new();
    let mut scratch = AlignScratch::new();
    let (mut n, mut smem_total, mut hit_total) = (0u64, 0u64, 0u64);
    let (mut dp_cells, mut hit_tasks, mut mapped) = (0u64, 0u64, 0u64);
    let mut read_ns = Vec::new();
    let mut found: Vec<(usize, usize)> = Vec::with_capacity(CHUNK);
    let start = Instant::now();
    'passes: loop {
        for (c, chunk) in reads.chunks(CHUNK).enumerate() {
            if start.elapsed() >= budget && n > 0 {
                break 'passes;
            }
            found.clear();
            for (i, codes) in chunk.iter().enumerate() {
                let id = (c * CHUNK + i) as u64;
                let root = log.open("read.decomposed", ROOT, id);
                let s = log.open("smem", root, id);
                collect_smems_into(
                    fmd,
                    codes,
                    &cfg.smem,
                    &mut smem_scratch,
                    &mut smems,
                    &mut NullTrace,
                );
                log.close(s);
                let l = log.open("locate", root, id);
                seeds.clear();
                for smem in smems.iter().filter(|m| m.occ() <= cfg.max_smem_occ) {
                    let take = (smem.occ() as usize).min(cfg.max_hits_per_smem);
                    for k in 0..take {
                        let pos = index.sampled_sa().locate(
                            fmd.fm(),
                            smem.interval.k + k as u64,
                            &mut NullTrace,
                        );
                        let Some(hit) = fmd.resolve_hit(pos as usize, smem.len()) else {
                            continue;
                        };
                        let (qs, qe) = if hit.is_rc {
                            (codes.len() - smem.query_end, codes.len() - smem.query_start)
                        } else {
                            (smem.query_start, smem.query_end)
                        };
                        seeds.push(Seed {
                            query_start: qs,
                            query_end: qe,
                            ref_pos: hit.pos as u64,
                            is_rc: hit.is_rc,
                        });
                    }
                }
                log.close(l);
                let ch = log.open("chain", root, id);
                std::hint::black_box(chain_seeds(&seeds, &cfg.chain));
                log.close(ch);
                log.close(root);
                found.push((smems.len(), seeds.len()));
            }
            for (i, (codes, &(n_smems, n_hits))) in chunk.iter().zip(&found).enumerate() {
                let id = (c * CHUNK + i) as u64;
                let r = log.open("read", ROOT, id);
                let outcome = aligner.align_codes_fast(id, codes, &mut scratch);
                log.close(r);
                read_ns.push(log.spans()[r as usize].dur_ns() as f64);
                let p = &outcome.profile;
                if p.smem_count as usize != n_smems || p.located_hits as usize != n_hits {
                    report.mismatch(format!(
                        "layer decomposition of read {id}: {n_smems} SMEMs/{n_hits} hits vs \
                         pipeline {}/{}",
                        p.smem_count, p.located_hits
                    ));
                }
                n += 1;
                smem_total += n_smems as u64;
                hit_total += n_hits as u64;
                dp_cells += p.dp_cells;
                hit_tasks += p.hit_tasks.len() as u64;
                mapped += u64::from(outcome.alignment.is_some());
            }
        }
    }
    report.attempted += n;
    let t = log.layer_times();
    let per_read = |name: &str| t.get(name).map_or(0.0, |l| l.self_ns as f64) / n as f64;
    let (smem, locate, chain) = (per_read("smem"), per_read("locate"), per_read("chain"));
    let read_mean = per_read("read");
    let nf = n as f64;
    report.set("index.smem_ns_per_read", smem);
    report.set("index.smems_per_read", smem_total as f64 / nf);
    report.set(
        "index.locate_ns_per_hit",
        locate * nf / (hit_total.max(1) as f64),
    );
    report.set("index.hits_per_read", hit_total as f64 / nf);
    report.set("align.chain_ns_per_read", chain);
    let read = Summary::of(&read_ns);
    report.set("align.read_ns.p50", read.p50);
    report.set("align.read_ns.p99", read.p99);
    report.set(
        "align.extend_ns_per_read",
        read_mean - smem - locate - chain,
    );
    report.set("align.dp_cells_per_read", dp_cells as f64 / nf);
    report.set("align.hit_tasks_per_read", hit_tasks as f64 / nf);
    report.set("align.mapped_frac", mapped as f64 / nf);
    let (hits, lookups) = scratch.seed_cache_stats();
    report.set(
        "index.occ_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    report.note(format!(
        "layers over {n} reads at 1 thread: smem {smem:.0} + locate {locate:.0} + chain {chain:.0} \
         of read {read_mean:.0} ns/read; read {}",
        read.describe("ns")
    ));
    if smem + locate + chain > read_mean {
        report.mismatch(format!(
            "smem + locate + chain = {:.0} ns/read exceeds the whole read's {read_mean:.0} ns",
            smem + locate + chain
        ));
    }
}

/// Times the frame codec on `requests` and `responses` (one frame each per
/// iteration): `read_frame` + `Request::decode` per request and
/// `AlignResponse::encode` + `write_frame` into a `Vec` per response.
/// Returns `(decode_ns_per_req, encode_ns_per_resp)`.
pub fn protocol_codec(
    requests: &[Request],
    responses: &[AlignResponse],
    budget: Duration,
    report: &mut Report,
) -> (f64, f64) {
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            write_frame(&mut buf, &r.encode()).expect("encoding into a Vec cannot fail");
            buf
        })
        .collect();
    let decode = |frame: &Vec<u8>| -> Result<Request, String> {
        let doc: JsonValue = read_frame(&mut Cursor::new(frame))
            .map_err(|e| e.to_string())?
            .ok_or("empty frame")?;
        Request::decode(&doc)
    };
    for (frame, sent) in frames.iter().zip(requests) {
        if decode(frame).as_ref() != Ok(sent) {
            report.mismatch(format!("request frame round trip changed {sent:?}"));
        }
    }
    let half = budget / 2;
    let (mut n, t) = (0u64, Instant::now());
    while t.elapsed() < half || n == 0 {
        for frame in &frames {
            std::hint::black_box(decode(frame)).ok();
            n += 1;
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let (mut m, t) = (0u64, Instant::now());
    let mut buf = Vec::new();
    while t.elapsed() < half || m == 0 {
        for resp in responses {
            buf.clear();
            write_frame(&mut buf, &resp.encode()).expect("encoding into a Vec cannot fail");
            std::hint::black_box(&buf);
            m += 1;
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / m as f64;
    (decode_ns, encode_ns)
}
