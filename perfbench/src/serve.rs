//! `serve_mixed_closed`, and the serving client pieces the open loop
//! shares: loopback against an in-process `Server::start` with 2 workers
//! and every other `ServerConfig` field at its default, on a 200 kb
//! reference whose index stays cache-resident.
//!
//! The closed loop runs over 2 connections, each keeping [`WINDOW`]
//! requests outstanding, of a repeating short (101 bp), long (2 kb), short,
//! classify (2 kb) sequence.
//!
//! Every response is checked against the offline pipeline for the same
//! read: short against `align_codes_fast`, long against
//! `LongReadAligner::align` over an index built as the server builds it,
//! classify against the same minimizer screen run offline.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nvwa_align::long_read::{LongReadAligner, LongReadConfig, LongReadIndex};
use nvwa_align::pipeline::{AlignScratch, AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa_genome::reads::{ReadSimParams, ReadSimulator};
use nvwa_genome::reference::{ReferenceGenome, ReferenceParams};
use nvwa_index::minimizer::{minimizers, MinimizerParams};
use nvwa_index::trace::NullTrace;
use nvwa_serve::protocol::{write_frame, WireAlignment, MAX_FRAME_BYTES};
use nvwa_serve::{
    AlignResponse, ClassifyResult, Mode, Request, Server, ServerConfig, Status, TenantScore,
};
use nvwa_sim::par;
use nvwa_telemetry::spans::{RequestSpans, Stage};
use nvwa_telemetry::{JsonValue, SnapshotMeta};

use crate::spans::{Span, SpanLog, ROOT};
use crate::stats::{median, Summary};
use crate::{layers, open_loop, repeated_setup, Args, Report};

const REF_LEN: usize = 200_000;
const WORKERS: usize = 2;
/// Distinct reads per kind; requests cycle through them.
const SHORT_POOL: usize = 20_000;
const LONG_POOL: usize = 256;
const LONG_LEN: usize = 2_000;

/// Requests each closed-loop connection keeps outstanding.
const WINDOW: usize = 8;
/// No response for this long means the outstanding requests are lost.
pub(crate) const STALL: Duration = Duration::from_secs(10);

/// A server that is always shut down: dropping it drains and joins every
/// server thread.
pub(crate) struct Served(Option<Server>);

impl Served {
    pub(crate) fn get(&self) -> &Server {
        self.0.as_ref().expect("server runs until dropped")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

pub(crate) struct Setup {
    pub(crate) index: Arc<ReferenceIndex>,
    pub(crate) server: Served,
    pub(crate) short: Vec<Vec<u8>>,
    pub(crate) long: Vec<Vec<u8>>,
    pub(crate) classify: Vec<Vec<u8>>,
}

impl Setup {
    pub(crate) fn pool(&self, kind: Mode) -> &[Vec<u8>] {
        match kind {
            Mode::Short => &self.short,
            Mode::Long => &self.long,
            Mode::Classify => &self.classify,
        }
    }
}

/// Reference synthesis, index build, server start and read pools.
pub(crate) fn setup(seed: u64, long_pools: bool) -> Setup {
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: REF_LEN,
            chromosomes: 4,
            ..ReferenceParams::default()
        },
        seed,
    );
    let index = Arc::new(ReferenceIndex::build(&genome, 32));
    let server = Server::start(
        Arc::clone(&index),
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback server");
    let pool = |params: ReadSimParams, salt: u64, n: usize| -> Vec<Vec<u8>> {
        ReadSimulator::new(&genome, params, seed ^ salt)
            .simulate_reads(n)
            .into_iter()
            .map(|r| r.seq.codes().to_vec())
            .collect()
    };
    let short = pool(ReadSimParams::illumina_101(), 0x5e7, SHORT_POOL);
    let (long, classify) = if long_pools {
        (
            pool(ReadSimParams::long_read(LONG_LEN), 0x10e6, LONG_POOL),
            pool(ReadSimParams::long_read(LONG_LEN), 0xc1a5, LONG_POOL),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    Setup {
        index,
        server: Served(Some(server)),
        short,
        long,
        classify,
    }
}

pub(crate) fn align_request(id: u64, codes: &[u8], mode: Mode) -> Vec<u8> {
    let doc = Request::Align {
        id,
        codes: codes.to_vec(),
        deadline_ms: None,
        tenant: None,
        region: None,
        mode,
    }
    .encode();
    let mut frame = Vec::new();
    write_frame(&mut frame, &doc).expect("encoding into a Vec cannot fail");
    frame
}

/// Splits length-prefixed frames off a socket without losing a partial
/// frame when a read times out.
pub(crate) struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    at: usize,
}

impl FrameReader {
    pub(crate) fn new(stream: TcpStream, poll: Duration) -> FrameReader {
        stream
            .set_read_timeout(Some(poll))
            .expect("set a socket read timeout");
        FrameReader {
            stream,
            buf: Vec::with_capacity(1 << 16),
            at: 0,
        }
    }

    /// The next response, or `None` when none arrived within the poll
    /// interval.
    pub(crate) fn next(&mut self) -> std::io::Result<Option<AlignResponse>> {
        loop {
            let avail = &self.buf[self.at..];
            if avail.len() >= 4 {
                let len = u32::from_be_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("{len}-byte frame exceeds the protocol limit"),
                    ));
                }
                if avail.len() >= 4 + len {
                    let body = std::str::from_utf8(&avail[4..4 + len])
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                    let doc = JsonValue::parse(body)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                    let resp = AlignResponse::decode(&doc)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                    self.at += 4 + len;
                    return Ok(Some(resp));
                }
            }
            if self.at > 0 {
                self.buf.drain(..self.at);
                self.at = 0;
            }
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// One answered request as the client saw it. The response itself is
/// judged against the [`Oracle`] as it arrives and not kept, so the
/// client's memory stays small next to the server's.
pub(crate) struct Answer {
    pub(crate) id: u64,
    pub(crate) kind: Mode,
    /// Index into the pool of its kind.
    pub(crate) pool_idx: usize,
    /// Due time (open loop) or send time (closed loop), ns since the log
    /// epoch; latency is measured from here.
    pub(crate) from_ns: u64,
    pub(crate) recv_ns: u64,
    /// Answered `ok` or `unmapped`: the work was done.
    pub(crate) completed: bool,
}

impl Answer {
    pub(crate) fn latency_ms(&self) -> f64 {
        self.recv_ns.saturating_sub(self.from_ns) as f64 / 1e6
    }
}

/// The offline answer for a short read.
fn offline_short(aligner: &SoftwareAligner<'_>, codes: &[Vec<u8>]) -> Vec<Option<WireAlignment>> {
    par::with_threads(WORKERS, || {
        par::par_map_with(codes, AlignScratch::new, |scratch, c| {
            aligner
                .align_codes_fast(0, c, scratch)
                .alignment
                .as_ref()
                .map(WireAlignment::from_alignment)
        })
    })
}

/// The classify screen the server runs, offline, for a single-tenant
/// server (tenant `default`): both orientations' minimizers, counted when
/// the tenant's minimizer index holds them.
fn offline_classify(long_index: &LongReadIndex, codes: &[u8]) -> ClassifyResult {
    let params = *long_index.minimizers().params();
    let rc: Vec<u8> = codes.iter().rev().map(|&c| 3 - c).collect();
    let mut mins = minimizers(codes, &params);
    mins.extend(minimizers(&rc, &params));
    let hits = mins
        .iter()
        .filter(|m| {
            !long_index
                .minimizers()
                .lookup(m.hash, &mut NullTrace)
                .is_empty()
        })
        .count() as u64;
    ClassifyResult {
        tenants: vec![TenantScore {
            tenant: "default".to_string(),
            hits,
            minimizers: mins.len() as u64,
        }],
        missing: Vec::new(),
        partial: false,
    }
}

fn offline_long(long_index: &LongReadIndex, codes: &[Vec<u8>]) -> Vec<Option<WireAlignment>> {
    let aligner = LongReadAligner::new(long_index, LongReadConfig::default());
    par::with_threads(WORKERS, || {
        par::par_map(codes, |c| {
            aligner.align(c).map(|a| WireAlignment {
                pos: a.ref_pos,
                is_rc: a.is_rc,
                score: a.score,
                cigar: a.cigar.to_string(),
                mapq: a.anchors.min(60) as u8,
            })
        })
    })
}

/// The offline answer to every pool read, computed after set-up and
/// before the first request.
pub(crate) struct Oracle {
    expected: HashMap<(Mode, usize), AlignResponse>,
}

impl Oracle {
    pub(crate) fn new(setup: &Setup) -> Oracle {
        let aligner = SoftwareAligner::new(&setup.index, AlignerConfig::default());
        let mut expected = HashMap::new();
        for (i, w) in offline_short(&aligner, &setup.short)
            .into_iter()
            .enumerate()
        {
            let resp = match w {
                Some(w) => AlignResponse::ok_wire(0, w, 0),
                None => AlignResponse::ok(0, None, 0),
            };
            expected.insert((Mode::Short, i), resp);
        }
        if !setup.long.is_empty() {
            // Built as the server builds its per-tenant minimizer index.
            let long_index =
                LongReadIndex::build(setup.index.flat().to_vec(), MinimizerParams::default());
            for (i, w) in offline_long(&long_index, &setup.long)
                .into_iter()
                .enumerate()
            {
                let resp = match w {
                    Some(w) => AlignResponse::ok_wire(0, w, 0),
                    None => AlignResponse::unmapped(0, 0),
                };
                expected.insert((Mode::Long, i), resp);
            }
            for (i, codes) in setup.classify.iter().enumerate() {
                let result = offline_classify(&long_index, codes);
                expected.insert((Mode::Classify, i), AlignResponse::classified(0, result, 0));
            }
        }
        Oracle { expected }
    }

    /// The offline answer to pool read `pool_idx` of `kind`, as request `id`.
    pub(crate) fn expected(&self, kind: Mode, pool_idx: usize, id: u64) -> AlignResponse {
        let mut resp = self.expected[&(kind, pool_idx)].clone();
        resp.id = id;
        resp
    }

    /// Judges one response; returns whether the work was done (`ok` or
    /// `unmapped`) and records any disagreement with the offline answer,
    /// which fails the run.
    pub(crate) fn judge(
        &self,
        kind: Mode,
        pool_idx: usize,
        got: &AlignResponse,
        mismatches: &mut Vec<String>,
    ) -> bool {
        if !matches!(got.status, Status::Ok | Status::Unmapped) {
            return false;
        }
        let want = &self.expected[&(kind, pool_idx)];
        if got.status != want.status
            || got.alignment != want.alignment
            || got.classify != want.classify
        {
            mismatches.push(format!(
                "{} request {} (pool read {pool_idx}): served {:?} {:?} {:?}, offline {:?} {:?} {:?}",
                kind.as_str(),
                got.id,
                got.status,
                got.alignment,
                got.classify,
                want.status,
                want.alignment,
                want.classify
            ));
        }
        true
    }
}

/// The server's span chains by read id.
fn chains_by_read(server: &Server) -> HashMap<u64, RequestSpans> {
    let doc = server.metrics().span_log_doc();
    doc.get("chains")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| RequestSpans::from_json(c).ok())
        .map(|c| (c.read_id, c))
        .collect()
}

/// Joins client answers with the server's span chains by read id: the
/// four server stages, and the client latency they do not explain. Each
/// answer becomes a `client.request` span whose children are the server
/// stages moved onto the benchmark's clock.
pub(crate) fn stage_metrics(
    server: &Server,
    answers: &[&Answer],
    log: &mut SpanLog,
    report: &mut Report,
) {
    let chains = chains_by_read(server);
    // Both clocks are monotonic; one paired reading maps server time onto
    // the log's epoch.
    let offset = log.now_ns() as i128 - server.metrics().now_ns() as i128;
    let mut stage_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut outside_us = Vec::new();
    let mut joined = 0usize;
    for a in answers.iter().filter(|a| a.completed) {
        let Some(chain) = chains.get(&a.id) else {
            continue;
        };
        joined += 1;
        let parent = log.push(Span {
            name: "client.request",
            start_ns: a.from_ns,
            end_ns: a.recv_ns,
            parent: ROOT,
            read: a.id,
        });
        for s in &chain.spans {
            let name = match s.stage {
                Stage::Queue => "serve.queue",
                Stage::Fill => "serve.fill",
                Stage::Align => "serve.align",
                Stage::Write => "serve.write",
            };
            stage_us
                .entry(name)
                .or_default()
                .push(s.dur_ns as f64 / 1e3);
            let start = (s.start_ns as i128 + offset).max(0) as u64;
            log.push(Span {
                name,
                start_ns: start,
                end_ns: start + s.dur_ns,
                parent,
                read: a.id,
            });
        }
        let client_ns = a.recv_ns.saturating_sub(a.from_ns);
        outside_us.push((client_ns as f64 - chain.e2e_ns() as f64) / 1e3);
    }
    for (name, p50, p99) in [
        ("serve.queue", "serve.queue_us.p50", "serve.queue_us.p99"),
        ("serve.fill", "serve.fill_us.p50", "serve.fill_us.p99"),
        ("serve.align", "serve.align_us.p50", "serve.align_us.p99"),
        ("serve.write", "serve.write_us.p50", "serve.write_us.p99"),
    ] {
        let s = Summary::of(stage_us.get(name).map_or(&[][..], Vec::as_slice));
        report.set(p50, s.p50);
        report.set(p99, s.p99);
    }
    let outside = Summary::of(&outside_us);
    report.set("serve.outside_us.p50", outside.p50);
    report.set("serve.outside_us.p99", outside.p99);
    report.note(format!(
        "joined {joined} of {} answers to server span chains; outside the server {}",
        answers.len(),
        outside.describe("us")
    ));

    let snap = server.metrics().snapshot(&SnapshotMeta {
        host_threads: WORKERS,
        git_rev: None,
    });
    let counter = |name: &str| server.metrics().counter(name) as f64;
    let batch = snap
        .get("histograms")
        .and_then(|h| h.get("serve.batch_size"));
    let field = |k: &str| batch.and_then(|b| b.get(k)).and_then(JsonValue::as_num);
    report.set(
        "serve.batch_size_mean",
        field("sum").unwrap_or(0.0) / field("count").unwrap_or(0.0).max(1.0),
    );
    report.set(
        "serve.timeout_flush_frac",
        counter("serve.batch_flush_timeout") / counter("serve.batches_formed").max(1.0),
    );
    report.set(
        "serve.queue_depth_max",
        snap.get("gauges")
            .and_then(|g| g.get("serve.queue_depth_max"))
            .and_then(JsonValue::as_num)
            .unwrap_or(0.0),
    );
    report.set("serve.shed", counter("serve.requests_shed"));
    report.set(
        "index.occ_cache_hit_ratio",
        counter("serve.seed_cache_hits") / counter("serve.seed_cache_lookups").max(1.0),
    );
}

/// Codec timings for up to 256 requests of `mode` among `answers`, and
/// their answers (equal to the served ones, which were checked).
pub(crate) fn codec_metrics(
    s: &Setup,
    oracle: &Oracle,
    answers: &[&Answer],
    mode: Mode,
    budget: Duration,
    report: &mut Report,
) -> (f64, f64) {
    let sample: Vec<&&Answer> = answers
        .iter()
        .filter(|a| a.kind == mode && a.completed)
        .take(256)
        .collect();
    if sample.is_empty() {
        return (0.0, 0.0);
    }
    let requests: Vec<Request> = sample
        .iter()
        .map(|a| Request::Align {
            id: a.id,
            codes: s.pool(mode)[a.pool_idx].clone(),
            deadline_ms: None,
            tenant: None,
            region: None,
            mode,
        })
        .collect();
    let responses: Vec<AlignResponse> = sample
        .iter()
        .map(|a| oracle.expected(mode, a.pool_idx, a.id))
        .collect();
    layers::protocol_codec(&requests, &responses, budget, report)
}

/// What the closed loop's connections saw.
#[derive(Default)]
struct ClosedRun {
    answers: Vec<Answer>,
    sent: u64,
    lost: u64,
    mismatches: Vec<String>,
}

pub fn run_mixed(args: &Args, budget: Duration) -> Report {
    let mut report = Report::default();
    let mut log = SpanLog::new(Instant::now());
    let s = repeated_setup(&mut report, || setup(args.seed, true));
    let addr = s.server.get().local_addr();
    const PATTERN: [Mode; 4] = [Mode::Short, Mode::Long, Mode::Short, Mode::Classify];

    let oracle = Oracle::new(&s);
    let run_closed = |dur: Duration| -> ClosedRun {
        let t0 = log.now_ns();
        let end_ns = t0 + dur.as_nanos() as u64;
        let conns: Vec<ClosedRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|c| {
                    let (log, s, oracle) = (&log, &s, &oracle);
                    scope.spawn(move || {
                        let stream = TcpStream::connect(addr).expect("connect to the server");
                        stream.set_nodelay(true).expect("set TCP_NODELAY");
                        let mut writer = stream.try_clone().expect("clone the client socket");
                        let mut reader = FrameReader::new(stream, STALL);
                        let mut pending: HashMap<u64, (Mode, usize, u64)> = HashMap::new();
                        let mut run = ClosedRun::default();
                        let mut k = 0u64;
                        loop {
                            while pending.len() < WINDOW && log.now_ns() < end_ns {
                                let kind = PATTERN[(k % 4) as usize];
                                let pool = s.pool(kind);
                                let id = k * 2 + c;
                                // Short reads come twice per pattern, the
                                // others once; the connections interleave.
                                let j = if kind == Mode::Short { k / 2 } else { k / 4 };
                                let idx = (j * 2 + c) as usize % pool.len();
                                let frame = align_request(id, &pool[idx], kind);
                                pending.insert(id, (kind, idx, log.now_ns()));
                                if writer.write_all(&frame).is_err() {
                                    pending.remove(&id);
                                    break;
                                }
                                run.sent += 1;
                                k += 1;
                            }
                            if pending.is_empty() {
                                break;
                            }
                            match reader.next() {
                                Ok(Some(resp)) => {
                                    let recv_ns = log.now_ns();
                                    let Some((kind, pool_idx, from_ns)) = pending.remove(&resp.id)
                                    else {
                                        continue;
                                    };
                                    let completed =
                                        oracle.judge(kind, pool_idx, &resp, &mut run.mismatches);
                                    run.answers.push(Answer {
                                        id: resp.id,
                                        kind,
                                        pool_idx,
                                        from_ns,
                                        recv_ns,
                                        completed,
                                    });
                                }
                                Ok(None) | Err(_) => break,
                            }
                        }
                        run.lost = pending.len() as u64;
                        run
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut all = ClosedRun::default();
        for run in conns {
            all.answers.extend(run.answers);
            all.sent += run.sent;
            all.lost += run.lost;
            all.mismatches.extend(run.mismatches);
        }
        all
    };

    // Warm-up: caches, connections and the long-read path, not measured.
    let warm = run_closed(budget / 10);
    let t0 = log.now_ns();
    let ClosedRun {
        answers,
        sent,
        lost,
        mismatches,
    } = run_closed(budget);
    for m in warm.mismatches.into_iter().chain(mismatches) {
        report.mismatch(m);
    }
    let refs: Vec<&Answer> = answers.iter().collect();
    let done: Vec<&Answer> = refs.iter().copied().filter(|a| a.completed).collect();
    report.attempted = sent;
    report.failed = lost + (answers.len() - done.len()) as u64;

    // Throughput per eighth of the run, then the median eighth. A window's
    // rate is its answers over the time between its first and last answer.
    const WINDOWS: usize = 8;
    let window_ns = (budget.as_nanos() as u64 / WINDOWS as u64).max(1);
    // (answers, bases, first and last receive time) per window.
    let mut windows = [(0u64, 0u64, u64::MAX, 0u64); WINDOWS];
    for a in &done {
        let w = (a.recv_ns.saturating_sub(t0) / window_ns) as usize;
        if let Some((n, bases, first, last)) = windows.get_mut(w) {
            *n += 1;
            *bases += s.pool(a.kind)[a.pool_idx].len() as u64;
            *first = (*first).min(a.recv_ns);
            *last = (*last).max(a.recv_ns);
        }
    }
    // (answers/s, bases/s) of each window with at least two answers.
    let rates: Vec<(f64, f64)> = windows
        .iter()
        .filter(|w| w.0 >= 2)
        .map(|&(n, bases, first, last)| {
            let per_s = (n - 1) as f64 * 1e9 / (last - first).max(1) as f64;
            (per_s, per_s * bases as f64 / n as f64)
        })
        .collect();
    let mut latencies: Vec<f64> = refs
        .iter()
        .map(|a| {
            if a.completed {
                a.latency_ms()
            } else {
                f64::INFINITY
            }
        })
        .collect();
    latencies.extend(std::iter::repeat_n(f64::INFINITY, lost as usize));
    let all = Summary::of(&latencies);
    report.set(
        "reads_per_s",
        median(&rates.iter().map(|r| r.0).collect::<Vec<_>>()),
    );
    report.set("p99_ms", all.p99);
    let mode_lat = |m: Mode| {
        Summary::of(
            &refs
                .iter()
                .filter(|a| a.kind == m)
                .map(|a| {
                    if a.completed {
                        a.latency_ms()
                    } else {
                        f64::INFINITY
                    }
                })
                .collect::<Vec<_>>(),
        )
    };
    let (short, long, classify) = (
        mode_lat(Mode::Short),
        mode_lat(Mode::Long),
        mode_lat(Mode::Classify),
    );
    // Short reads are exactly half the requests, so the median of all
    // requests sits on the edge between the short and the slower modes and
    // jumps between them from run to run; the short reads' median is the
    // typical request, waiting behind long batches included.
    report.set("p50_ms", short.p50);
    report.note(format!(
        "closed loop, 2 connections x {WINDOW} outstanding: {} answered of {sent} sent, reads per eighth {:?}; \
         all {}; short {}; long {}; classify {}",
        answers.len(),
        windows.iter().map(|w| w.0).collect::<Vec<_>>(),
        all.describe("ms"),
        short.describe("ms"),
        long.describe("ms"),
        classify.describe("ms")
    ));

    if args.trace {
        report.set(
            "client.bases_per_s",
            median(&rates.iter().map(|r| r.1).collect::<Vec<_>>()),
        );
        report.set("client.p99_ms.short", short.p99);
        report.set("client.p99_ms.long", long.p99);
        report.set("client.p99_ms.classify", classify.p99);
        let (dec, enc) = codec_metrics(&s, &oracle, &refs, Mode::Long, budget / 10, &mut report);
        report.set("protocol.decode_ns_per_req.long", dec);
        report.set("protocol.encode_ns_per_resp.long", enc);
        long_layers(&s, budget / 5, &mut log, &mut report);
        // Shut this server down before the open loop starts its own.
        drop(s);
        open_loop::run(args.seed, budget, &mut log, &mut report);
        report.spans = Some(log);
    }
    report
}

/// Offline per-read cost of the long-read and classify paths at 1 thread.
fn long_layers(s: &Setup, budget: Duration, log: &mut SpanLog, report: &mut Report) {
    let long_index = LongReadIndex::build(s.index.flat().to_vec(), MinimizerParams::default());
    let aligner = LongReadAligner::new(&long_index, LongReadConfig::default());
    for (name, metric) in [
        ("align.long", "align.long_ns_per_read"),
        ("align.classify", "align.classify_ns_per_read"),
    ] {
        let start = Instant::now();
        let mut n = 0u64;
        'passes: loop {
            for (i, codes) in s.long.iter().enumerate() {
                if start.elapsed() >= budget / 2 && n > 0 {
                    break 'passes;
                }
                let span = log.open(name, ROOT, i as u64);
                if name == "align.long" {
                    std::hint::black_box(aligner.align(codes));
                } else {
                    std::hint::black_box(offline_classify(&long_index, codes));
                }
                log.close(span);
                n += 1;
            }
        }
        let t = log.layer_times();
        report.set(metric, t[name].self_ns as f64 / t[name].count as f64);
    }
}
