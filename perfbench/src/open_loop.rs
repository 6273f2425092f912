//! The open loop of short reads, run at the end of `serve_mixed_closed`'s
//! traced run: one connection, a sender and a receiver thread, Poisson
//! arrivals at fixed rates into a fresh `Server::start` with 2 workers on
//! the 200 kb reference. Each request is timed from when it was due, not
//! from when it was written, so a stall in the sender or the server delays
//! every request scheduled behind it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nvwa_align::pipeline::{AlignerConfig, SoftwareAligner};
use nvwa_serve::Mode;

use crate::serve::{
    align_request, codec_metrics, setup, stage_metrics, Answer, FrameReader, Oracle, STALL,
};
use crate::spans::SpanLog;
use crate::stats::{median, percentile, sorted, Summary};
use crate::{layers, Report};

/// Rates searched for the highest one that meets the SLO, in requests
/// per second.
const SEARCH: [f64; 9] = [
    12_000.0, 14_000.0, 16_000.0, 18_000.0, 20_000.0, 22_000.0, 24_000.0, 28_000.0, 32_000.0,
];
/// Sub-steps per evaluation of a searched rate. Each sub-step has its own
/// p50, p99 and SLO verdict; a rate reports their medians and passes on a
/// majority, so one host stall cannot decide it.
const SUBSTEPS_SEARCH: usize = 3;
/// Sub-steps of the low rate, and the minimum of the primary rate. One
/// primary sub-step runs before every searched rate, so the primary
/// latencies sample the whole run.
const SUBSTEPS_LOW: usize = 4;
const SUBSTEPS_PRIMARY: usize = 8;
/// Requests per latency window. A rate's p50 and p99 are medians over
/// windows of this many consecutive requests: the smallest count whose p99
/// has ten samples beyond it. A host stall then spoils the windows it
/// falls in, not the whole rate.
const WINDOW_REQS: usize = 1_000;
/// A sub-step lasts the run's `--seconds` over this; a whole search takes
/// about 40 to 60 sub-steps.
const SUBSTEPS_PER_RUN: u32 = 40;
/// Where the batch-fill wait (2 ms default `max_wait`) dominates.
const LOW_RPS: f64 = 2_000.0;
/// Where per-request CPU dominates; the end-to-end latencies are read here.
const PRIMARY_RPS: f64 = 8_000.0;
/// The latency limit behind `client.slo_rps`.
const SLO_P99_MS: f64 = 10.0;
/// Backlog growth: the last third of a sub-step's requests has a median
/// latency above `BACKLOG_FACTOR` x the first third's + `BACKLOG_MS`. The
/// slack absorbs host jitter over half-second sub-steps; an overloaded
/// server grows its backlog far past it (or trips [`MAX_OUTSTANDING`]).
const BACKLOG_FACTOR: f64 = 2.0;
const BACKLOG_MS: f64 = 1.0;
/// A step stops sending once this many requests are unanswered. It is half
/// the default admission queue, so an overloaded step ends before the
/// server would shed.
const MAX_OUTSTANDING: u64 = 512;

/// SplitMix64, for the arrival schedule.
struct Prng(u64);

impl Prng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One sub-step of the open loop at one rate.
struct Step {
    sent: u64,
    aborted: bool,
    failed: u64,
    /// Ascending latencies; a failed or lost request is infinitely late.
    lat_ms: Vec<f64>,
    /// `(p50, p99)` of consecutive windows of about [`WINDOW_REQS`]
    /// requests, in send order.
    windows: Vec<(f64, f64)>,
    /// Median latency of the first and the last third of the requests, in
    /// send order.
    thirds: (f64, f64),
    /// Ascending lateness of the sender against the schedule.
    late_ms: Vec<f64>,
    /// The answers, for the join with the server's span chains.
    answers: Vec<Answer>,
}

impl Step {
    fn new(sent: u64, aborted: bool, mut answers: Vec<Answer>, late_ms: Vec<f64>) -> Step {
        answers.sort_by_key(|a| a.id);
        let lost = sent - answers.len() as u64;
        let failed = lost + answers.iter().filter(|a| !a.completed).count() as u64;
        let lat = |a: &Answer| {
            if a.completed {
                a.latency_ms()
            } else {
                f64::INFINITY
            }
        };
        let third = (answers.len() / 3).max(1).min(answers.len());
        let p50 = |xs: &[Answer]| median(&xs.iter().map(lat).collect::<Vec<_>>());
        let thirds = (
            p50(&answers[..third]),
            p50(&answers[answers.len() - third..]),
        );
        let mut lat_ms: Vec<f64> = answers.iter().map(lat).collect();
        lat_ms.extend(std::iter::repeat_n(f64::INFINITY, lost as usize));
        let k = (lat_ms.len() / WINDOW_REQS).max(1);
        let windows = (0..k)
            .map(|i| {
                let w = sorted(&lat_ms[i * lat_ms.len() / k..(i + 1) * lat_ms.len() / k]);
                (percentile(&w, 0.5), percentile(&w, 0.99))
            })
            .collect();
        Step {
            sent,
            aborted,
            failed,
            lat_ms: sorted(&lat_ms),
            windows,
            thirds,
            late_ms: sorted(&late_ms),
            answers,
        }
    }

    fn meets_slo(&self) -> bool {
        let (first, last) = self.thirds;
        !self.aborted
            && self.failed == 0
            && median(&self.windows.iter().map(|w| w.1).collect::<Vec<_>>()) <= SLO_P99_MS
            && last <= BACKLOG_FACTOR * first + BACKLOG_MS
    }
}

/// The sub-steps of one offered rate.
struct RateRun {
    rate: f64,
    steps: Vec<Step>,
}

impl RateRun {
    /// Median over every latency window of every sub-step.
    fn window_median(&self, f: impl Fn(&(f64, f64)) -> f64) -> f64 {
        median(
            &self
                .steps
                .iter()
                .flat_map(|s| &s.windows)
                .map(f)
                .collect::<Vec<_>>(),
        )
    }

    fn p50(&self) -> f64 {
        self.window_median(|w| w.0)
    }

    fn p99(&self) -> f64 {
        self.window_median(|w| w.1)
    }

    fn late_p99(&self) -> f64 {
        median(
            &self
                .steps
                .iter()
                .map(|s| percentile(&s.late_ms, 0.99))
                .collect::<Vec<_>>(),
        )
    }

    fn meets_slo(&self) -> bool {
        2 * self.steps.iter().filter(|s| s.meets_slo()).count() > self.steps.len()
    }

    fn describe(&self) -> String {
        let subs: Vec<String> = self
            .steps
            .iter()
            .map(|s| {
                let (first, last) = s.thirds;
                format!(
                    "[sent {} failed {}{} {} thirds {first:.2}->{last:.2} ms late p99 {:.2} ms{}]",
                    s.sent,
                    s.failed,
                    if s.aborted { " aborted" } else { "" },
                    Summary::of(&s.lat_ms).describe("ms"),
                    percentile(&s.late_ms, 0.99),
                    if s.meets_slo() { "" } else { " miss" }
                )
            })
            .collect();
        format!(
            "{:>6.0} req/s: p50 {:.3} ms p99 {:.3} ms {}; {}",
            self.rate,
            self.p50(),
            self.p99(),
            if self.meets_slo() {
                "meets SLO"
            } else {
                "misses SLO"
            },
            subs.join(" ")
        )
    }
}

/// The client side of the open loop: one connection, and what every
/// sub-step shares.
struct Client<'a> {
    stream: TcpStream,
    log: &'a SpanLog,
    /// Requests cycle through these reads.
    pool: &'a [Vec<u8>],
    /// Judges every answer.
    oracle: &'a Oracle,
    rng: Prng,
    /// Id of the next request.
    next_id: u64,
}

impl Client<'_> {
    /// One sub-step: offers `rate` requests per second for `dur`.
    fn step(&mut self, rate: f64, dur: Duration, report: &mut Report) -> Step {
        let step = open_step(self, rate, dur, report);
        self.next_id += step.sent;
        // Let the server settle between sub-steps.
        std::thread::sleep(Duration::from_millis(20));
        step
    }
}

fn open_step(c: &mut Client<'_>, rate: f64, dur: Duration, report: &mut Report) -> Step {
    let (log, pool, oracle, first_id) = (c.log, c.pool, c.oracle, c.next_id);
    let n = (rate * dur.as_secs_f64()).round().max(1.0) as usize;
    let mut at = 0.0f64;
    let offsets_ns: Vec<u64> = (0..n)
        .map(|_| {
            at += -(1.0 - c.rng.next_f64()).ln() / rate;
            (at * 1e9) as u64
        })
        .collect();
    let frames: Vec<Vec<u8>> = (0..n as u64)
        .map(|i| {
            let id = first_id + i;
            align_request(id, &pool[id as usize % pool.len()], Mode::Short)
        })
        .collect();
    let received = AtomicU64::new(0);
    let sent = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let start_ns = log.now_ns() + 1_000_000;
    let mut writer = c.stream.try_clone().expect("clone the client socket");
    let mut reader = FrameReader::new(
        c.stream.try_clone().expect("clone the client socket"),
        Duration::from_millis(20),
    );
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late_ms = Vec::with_capacity(n);
            let mut aborted = false;
            for (i, frame) in frames.iter().enumerate() {
                let due = start_ns + offsets_ns[i];
                let now = log.now_ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                if i as u64 - received.load(Ordering::Acquire) > MAX_OUTSTANDING {
                    aborted = true;
                    break;
                }
                late_ms.push(log.now_ns().saturating_sub(due) as f64 / 1e6);
                if writer.write_all(frame).is_err() {
                    aborted = true;
                    break;
                }
                sent.fetch_add(1, Ordering::Release);
            }
            sender_done.store(true, Ordering::Release);
            (aborted, late_ms)
        });
        let mut answers = Vec::with_capacity(n);
        let mut mismatches = Vec::new();
        let mut last_progress = Instant::now();
        loop {
            let done = sender_done.load(Ordering::Acquire);
            let outstanding = sent
                .load(Ordering::Acquire)
                .saturating_sub(answers.len() as u64);
            if done && outstanding == 0 {
                break;
            }
            match reader.next() {
                Ok(Some(resp)) => {
                    let recv_ns = log.now_ns();
                    // An answer to an earlier sub-step (one that gave up
                    // on it after STALL) is not this sub-step's.
                    let Some(idx) = resp.id.checked_sub(first_id).filter(|&i| i < n as u64) else {
                        continue;
                    };
                    let idx = idx as usize;
                    let pool_idx = resp.id as usize % pool.len();
                    answers.push(Answer {
                        id: resp.id,
                        kind: Mode::Short,
                        pool_idx,
                        from_ns: start_ns + offsets_ns[idx],
                        recv_ns,
                        completed: oracle.judge(Mode::Short, pool_idx, &resp, &mut mismatches),
                    });
                    received.fetch_add(1, Ordering::Release);
                    last_progress = Instant::now();
                }
                Ok(None) if last_progress.elapsed() < STALL || outstanding == 0 => {}
                Ok(None) | Err(_) => break,
            }
        }
        let (aborted, late_ms) = sender.join().expect("sender thread");
        for m in mismatches {
            report.mismatch(m);
        }
        Step::new(sent.load(Ordering::Acquire), aborted, answers, late_ms)
    })
}

/// The open loop of short reads, on a fresh server of its own: latency at
/// 2,000 and 8,000 req/s and the highest rate that meets the SLO, with the
/// server's stage breakdown at 8,000 req/s. Its numbers are per-layer
/// metrics of the traced run only: on a shared 2-CPU host an open loop's
/// tail and its SLO rate move by up to 2x between runs, too much for a
/// regression bound.
pub(crate) fn run(seed: u64, budget: Duration, log: &mut SpanLog, report: &mut Report) {
    let s = setup(seed, false);
    let stream = TcpStream::connect(s.server.get().local_addr()).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let sub = budget / SUBSTEPS_PER_RUN;
    let oracle = Oracle::new(&s);
    let mut client = Client {
        stream,
        log,
        pool: &s.short,
        oracle: &oracle,
        rng: Prng(seed ^ 0x0be7),
        next_id: 0,
    };
    let mut measure = |rate: f64, subs: usize, report: &mut Report| -> Vec<Step> {
        (0..subs).map(|_| client.step(rate, sub, report)).collect()
    };

    // Warm-up: one sub-step at the low rate, not measured.
    drop(measure(LOW_RPS, 1, report));
    let low = RateRun {
        rate: LOW_RPS,
        steps: measure(LOW_RPS, SUBSTEPS_LOW, report),
    };
    let mut primary = RateRun {
        rate: PRIMARY_RPS,
        steps: Vec::new(),
    };
    let mut searched: Vec<RateRun> = Vec::new();
    // One round: a primary sub-step, then `rate`. A rate that misses is
    // measured once more before it counts as a miss, so one transient host
    // stall cannot end the search. Returns whether the rate
    // met the SLO and whether any sub-step showed overload.
    let mut round = |rate: f64, report: &mut Report| {
        primary.steps.extend(measure(PRIMARY_RPS, 1, report));
        let mut aborted = false;
        for _ in 0..2 {
            let run = RateRun {
                rate,
                steps: measure(rate, SUBSTEPS_SEARCH, report),
            };
            let pass = run.meets_slo();
            aborted |= run.steps.iter().any(|s| s.aborted);
            searched.push(run);
            if pass {
                return (true, aborted);
            }
        }
        (false, aborted)
    };
    let mut slo_rps = 0.0f64;
    // Misses in a row, and how many of them showed overload (a sub-step
    // cut off at MAX_OUTSTANDING). The search ends at two overloaded
    // misses or three misses of any kind in a row.
    let (mut misses, mut overloaded) = (0, 0);
    for &rate in &SEARCH {
        if overloaded >= 2 || misses >= 3 {
            break;
        }
        let (pass, aborted) = round(rate, report);
        if pass {
            slo_rps = rate;
            (misses, overloaded) = (0, 0);
        } else {
            misses += 1;
            overloaded = if aborted { overloaded + 1 } else { 0 };
        }
    }
    // Halve the last gap: try midway between the best rate and the next
    // one searched.
    if let Some(&next) = SEARCH.iter().find(|&&r| r > slo_rps) {
        let mid = ((slo_rps + next) / 2_000.0).round() * 1_000.0;
        if slo_rps > 0.0 && mid > slo_rps && mid < next && round(mid, report).0 {
            slo_rps = mid;
        }
    }
    while primary.steps.len() < SUBSTEPS_PRIMARY {
        primary.steps.extend(measure(PRIMARY_RPS, 1, report));
    }
    if slo_rps == 0.0 {
        slo_rps = [&primary, &low]
            .into_iter()
            .find(|r| r.meets_slo())
            .map_or(0.0, |r| r.rate);
    }
    let rates: Vec<&RateRun> = [&low, &primary].into_iter().chain(&searched).collect();
    for r in &rates {
        report.note(r.describe());
    }

    report.attempted += rates
        .iter()
        .flat_map(|r| &r.steps)
        .map(|s| s.sent)
        .sum::<u64>();
    report.failed += rates
        .iter()
        .flat_map(|r| &r.steps)
        .map(|s| s.failed)
        .sum::<u64>();
    report.note(format!(
        "slo_rps {slo_rps} req/s (most sub-steps: windowed p99 <= {SLO_P99_MS} ms, nothing \
         failed, no backlog growth); at {PRIMARY_RPS} req/s p50 {:.4} ms p99 {:.4} ms; \
         at {LOW_RPS} req/s p50 {:.4} ms p99 {:.4} ms",
        primary.p50(),
        primary.p99(),
        low.p50(),
        low.p99()
    ));

    report.set("client.slo_rps", slo_rps);
    report.set("client.p50_ms.2k", low.p50());
    report.set("client.p99_ms.2k", low.p99());
    report.set("client.p50_ms.8k", primary.p50());
    report.set("client.p99_ms.8k", primary.p99());
    report.set("gen.late_p99_ms", primary.late_p99());
    let primary_answers: Vec<&Answer> = primary.steps.iter().flat_map(|s| &s.answers).collect();
    stage_metrics(s.server.get(), &primary_answers, log, report);
    let (dec, enc) = codec_metrics(
        &s,
        &oracle,
        &primary_answers,
        Mode::Short,
        budget / 10,
        report,
    );
    report.set("protocol.decode_ns_per_req.short", dec);
    report.set("protocol.encode_ns_per_resp.short", enc);
    let served_ratio = report.metrics["index.occ_cache_hit_ratio"];
    let aligner = SoftwareAligner::new(&s.index, AlignerConfig::default());
    layers::short_read_layers(&aligner, &s.index, &s.short, budget / 5, log, report);
    report.set("index.occ_cache_hit_ratio", served_ratio);
}
