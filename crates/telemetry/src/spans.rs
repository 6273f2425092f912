//! Per-request span chains: the distributed-style tracing layer.
//!
//! A request admitted by the serve path is followed through four stages —
//! queue wait, batch fill wait, alignment, response write — and leaves
//! behind a [`RequestSpans`] chain. Chains are built with
//! [`RequestSpans::chain`] from one monotonic timestamp sequence, so two
//! properties hold **by construction**, not by measurement:
//!
//! 1. spans are contiguous and non-overlapping (each starts where the
//!    previous ended), and
//! 2. the stage durations sum exactly (integer nanoseconds) to the
//!    end-to-end latency.
//!
//! The conformance suite pins exactly-once accounting: every admitted
//! request produces exactly one chain, every chain passes
//! [`RequestSpans::check`].
//!
//! [`SpanLog`] is the bounded collection side: a fixed-capacity log that
//! keeps the first `cap` chains and counts the rest as dropped, so a
//! long soak cannot OOM the server while short conformance runs see
//! every chain.

use crate::json::JsonValue;

/// The serve-path stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Admission queue wait: admitted → popped by the batcher.
    Queue,
    /// Batch fill wait: popped → batch execution starts on a worker.
    Fill,
    /// Alignment: batch execution start → done (or the deadline/panic
    /// verdict for requests that never align).
    Align,
    /// Response write: execution done → response frame handed to the
    /// socket.
    Write,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Queue, Stage::Fill, Stage::Align, Stage::Write];

    /// Wire name (also the Chrome-trace span name prefix).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Fill => "fill",
            Stage::Align => "align",
            Stage::Write => "write",
        }
    }

    /// Inverse of [`name`](Stage::name).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Position in the pipeline order.
    fn rank(&self) -> usize {
        *self as usize
    }
}

/// One stage of one request: `[start_ns, start_ns + dur_ns)` relative to
/// the process telemetry epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage.
    pub stage: Stage,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Terminal outcome of a request (mirrors the wire `status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Aligned and answered.
    Ok,
    /// Long-read mode: fully processed, but no chain placed the read;
    /// answered with `unmapped`. A completed request, not a rejection.
    Unmapped,
    /// Expired at batch formation; answered with `deadline`.
    Deadline,
    /// Answered with `error` (worker panic path).
    Error,
}

impl Outcome {
    /// Wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Unmapped => "unmapped",
            Outcome::Deadline => "deadline",
            Outcome::Error => "error",
        }
    }

    /// Inverse of [`name`](Outcome::name).
    pub fn from_name(name: &str) -> Option<Outcome> {
        match name {
            "ok" => Some(Outcome::Ok),
            "unmapped" => Some(Outcome::Unmapped),
            "deadline" => Some(Outcome::Deadline),
            "error" => Some(Outcome::Error),
            _ => None,
        }
    }
}

/// The complete span chain of one admitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpans {
    /// Trace id minted at admission (unique per admitted request).
    pub trace_id: u64,
    /// Connection the request arrived on.
    pub conn: u64,
    /// Caller-assigned read id (echoed in the response).
    pub read_id: u64,
    /// Length bin the batcher placed the read in.
    pub bin: usize,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Admission time, nanoseconds since the telemetry epoch.
    pub t0_ns: u64,
    /// Contiguous stage spans starting at `t0_ns`.
    pub spans: Vec<StageSpan>,
}

impl RequestSpans {
    /// Builds a chain from per-stage durations. Starts are cumulative
    /// from `t0_ns`, which makes the chain contiguous and its total equal
    /// to the sum of durations by construction.
    pub fn chain(
        trace_id: u64,
        conn: u64,
        read_id: u64,
        bin: usize,
        outcome: Outcome,
        t0_ns: u64,
        stages: &[(Stage, u64)],
    ) -> RequestSpans {
        let mut at = t0_ns;
        let spans = stages
            .iter()
            .map(|&(stage, dur_ns)| {
                let span = StageSpan {
                    stage,
                    start_ns: at,
                    dur_ns,
                };
                at += dur_ns;
                span
            })
            .collect();
        RequestSpans {
            trace_id,
            conn,
            read_id,
            bin,
            outcome,
            t0_ns,
            spans,
        }
    }

    /// End-to-end latency: the exact sum of stage durations.
    pub fn e2e_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_ns).sum()
    }

    /// Checks the chain invariants: non-empty, first span starts at
    /// `t0_ns`, spans contiguous (each starts where the previous ended),
    /// stages strictly in pipeline order, and — implied by contiguity —
    /// durations summing to the end-to-end latency. Returns a description
    /// of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let id = self.trace_id;
        let first = self
            .spans
            .first()
            .ok_or_else(|| format!("trace {id}: empty span chain"))?;
        if first.start_ns != self.t0_ns {
            return Err(format!(
                "trace {id}: first span starts at {} != admission {}",
                first.start_ns, self.t0_ns
            ));
        }
        for pair in self.spans.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if b.start_ns != a.start_ns + a.dur_ns {
                return Err(format!(
                    "trace {id}: {} starts at {} but {} ended at {}",
                    b.stage.name(),
                    b.start_ns,
                    a.stage.name(),
                    a.start_ns + a.dur_ns
                ));
            }
            if b.stage.rank() <= a.stage.rank() {
                return Err(format!(
                    "trace {id}: stage {} after {} breaks pipeline order",
                    b.stage.name(),
                    a.stage.name()
                ));
            }
        }
        Ok(())
    }

    /// The JSON document for one chain.
    pub fn to_json(&self) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::obj(vec![
                    ("stage", JsonValue::Str(s.stage.name().to_string())),
                    ("start_ns", JsonValue::Num(s.start_ns as f64)),
                    ("dur_ns", JsonValue::Num(s.dur_ns as f64)),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("trace_id", JsonValue::Num(self.trace_id as f64)),
            ("conn", JsonValue::Num(self.conn as f64)),
            ("read_id", JsonValue::Num(self.read_id as f64)),
            ("bin", JsonValue::Num(self.bin as f64)),
            ("outcome", JsonValue::Str(self.outcome.name().to_string())),
            ("t0_ns", JsonValue::Num(self.t0_ns as f64)),
            ("e2e_ns", JsonValue::Num(self.e2e_ns() as f64)),
            ("spans", JsonValue::Arr(spans)),
        ])
    }

    /// Parses a chain back from its JSON document (used by the
    /// integration test to audit a dumped span log).
    pub fn from_json(v: &JsonValue) -> Result<RequestSpans, String> {
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_num)
                .map(|n| n as u64)
                .ok_or_else(|| format!("span chain missing numeric '{key}'"))
        };
        let outcome = v
            .get("outcome")
            .and_then(JsonValue::as_str)
            .and_then(Outcome::from_name)
            .ok_or("span chain missing valid 'outcome'")?;
        let spans = v
            .get("spans")
            .and_then(JsonValue::as_arr)
            .ok_or("span chain missing 'spans' array")?
            .iter()
            .map(|s| {
                let stage = s
                    .get("stage")
                    .and_then(JsonValue::as_str)
                    .and_then(Stage::from_name)
                    .ok_or("span missing valid 'stage'")?;
                let field = |key: &str| -> Result<u64, String> {
                    s.get(key)
                        .and_then(JsonValue::as_num)
                        .map(|n| n as u64)
                        .ok_or_else(|| format!("span missing numeric '{key}'"))
                };
                Ok(StageSpan {
                    stage,
                    start_ns: field("start_ns")?,
                    dur_ns: field("dur_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let chain = RequestSpans {
            trace_id: num("trace_id")?,
            conn: num("conn")?,
            read_id: num("read_id")?,
            bin: num("bin")? as usize,
            outcome,
            t0_ns: num("t0_ns")?,
            spans,
        };
        let e2e = num("e2e_ns")?;
        if e2e != chain.e2e_ns() {
            return Err(format!(
                "trace {}: e2e_ns {} != span-duration sum {}",
                chain.trace_id,
                e2e,
                chain.e2e_ns()
            ));
        }
        Ok(chain)
    }
}

/// One retained chain as [`SpanLog`] stores it: ids, admission time and
/// one duration per stage, with no per-chain allocation. The starts are
/// not stored; [`RequestSpans::chain`] rebuilds them, which is exact for
/// every chain that passes [`RequestSpans::check`].
#[derive(Debug, Clone, Copy)]
struct ChainRecord {
    trace_id: u64,
    conn: u64,
    read_id: u64,
    t0_ns: u64,
    /// Duration of each stage, indexed by pipeline rank.
    dur_ns: [u64; 4],
    bin: u32,
    outcome: Outcome,
    /// Bit `rank` set when the chain has that stage.
    stages: u8,
}

impl ChainRecord {
    fn new(chain: &RequestSpans) -> ChainRecord {
        let mut dur_ns = [0; 4];
        let mut stages = 0u8;
        for span in &chain.spans {
            dur_ns[span.stage.rank()] = span.dur_ns;
            stages |= 1 << span.stage.rank();
        }
        ChainRecord {
            trace_id: chain.trace_id,
            conn: chain.conn,
            read_id: chain.read_id,
            t0_ns: chain.t0_ns,
            dur_ns,
            bin: u32::try_from(chain.bin).expect("length bin index fits in u32"),
            outcome: chain.outcome,
            stages,
        }
    }

    fn chain(&self) -> RequestSpans {
        let mut stages = [(Stage::Queue, 0); 4];
        let mut len = 0;
        for stage in Stage::ALL {
            if self.stages & (1 << stage.rank()) != 0 {
                stages[len] = (stage, self.dur_ns[stage.rank()]);
                len += 1;
            }
        }
        RequestSpans::chain(
            self.trace_id,
            self.conn,
            self.read_id,
            self.bin as usize,
            self.outcome,
            self.t0_ns,
            &stages[..len],
        )
    }
}

/// A bounded in-memory log of span chains: keeps the first `cap` chains,
/// counts overflow as dropped. Chains are stored as fixed-size records
/// and rebuilt with [`RequestSpans::chain`] when the log is rendered, so
/// every rendered chain is contiguous by construction.
#[derive(Debug)]
pub struct SpanLog {
    cap: usize,
    records: Vec<ChainRecord>,
    dropped: u64,
}

impl SpanLog {
    /// An empty log holding at most `cap` chains.
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            cap,
            records: Vec::new(),
            dropped: 0,
        }
    }

    /// Records one finished request's chain.
    ///
    /// # Panics
    ///
    /// With debug assertions, panics if `chain` fails
    /// [`RequestSpans::check`]: the log only holds contiguous chains.
    pub fn push(&mut self, chain: RequestSpans) {
        debug_assert!(
            chain.check().is_ok(),
            "span log rejects a broken chain: {}",
            chain.check().unwrap_err()
        );
        if self.records.len() < self.cap {
            self.records.push(ChainRecord::new(&chain));
        } else {
            self.dropped += 1;
        }
    }

    /// Number of chains retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no chain has been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Chains rejected because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The full span-log document (`kind: "nvwa-spanlog"`), chains sorted
    /// by trace id so the bytes don't depend on completion order.
    pub fn to_json(&self) -> JsonValue {
        let mut sorted: Vec<&ChainRecord> = self.records.iter().collect();
        sorted.sort_by_key(|r| r.trace_id);
        JsonValue::obj(vec![
            ("kind", JsonValue::Str("nvwa-spanlog".to_string())),
            ("schema_version", JsonValue::Num(1.0)),
            ("cap", JsonValue::Num(self.cap as f64)),
            ("dropped", JsonValue::Num(self.dropped as f64)),
            (
                "chains",
                JsonValue::Arr(sorted.iter().map(|r| r.chain().to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_chain(id: u64) -> RequestSpans {
        RequestSpans::chain(
            id,
            3,
            40 + id,
            1,
            Outcome::Ok,
            1_000,
            &[
                (Stage::Queue, 500),
                (Stage::Fill, 250),
                (Stage::Align, 2_000),
                (Stage::Write, 30),
            ],
        )
    }

    #[test]
    fn chain_is_contiguous_and_sums_exactly() {
        let c = ok_chain(7);
        c.check().unwrap();
        assert_eq!(c.e2e_ns(), 2_780);
        assert_eq!(c.spans[3].start_ns + c.spans[3].dur_ns, 1_000 + 2_780);
    }

    #[test]
    fn deadline_chain_skips_align() {
        // Expired requests never reach a worker's align stage; the chain
        // is queue → fill → write and still checks out.
        let c = RequestSpans::chain(
            9,
            0,
            0,
            2,
            Outcome::Deadline,
            0,
            &[
                (Stage::Queue, 10_000),
                (Stage::Fill, 5_000),
                (Stage::Write, 40),
            ],
        );
        c.check().unwrap();
        assert_eq!(c.e2e_ns(), 15_040);
    }

    #[test]
    fn check_rejects_gaps_overlaps_and_disorder() {
        let mut gap = ok_chain(1);
        gap.spans[2].start_ns += 1;
        assert!(gap.check().unwrap_err().contains("align starts at"));

        let mut overlap = ok_chain(2);
        overlap.spans[1].start_ns -= 1;
        assert!(overlap.check().is_err());

        let mut disorder = ok_chain(3);
        disorder.spans.swap(1, 2);
        assert!(disorder.check().is_err());

        let mut bad_start = ok_chain(4);
        bad_start.t0_ns += 5;
        assert!(bad_start.check().unwrap_err().contains("first span"));

        let empty = RequestSpans::chain(5, 0, 0, 0, Outcome::Error, 0, &[]);
        assert!(empty.check().unwrap_err().contains("empty"));
    }

    #[test]
    fn json_round_trip() {
        let c = ok_chain(11);
        let parsed = RequestSpans::from_json(&c.to_json()).unwrap();
        assert_eq!(parsed, c);
        // A lying e2e_ns is caught.
        let mut doc = c.to_json();
        if let JsonValue::Obj(entries) = &mut doc {
            for (k, v) in entries.iter_mut() {
                if k == "e2e_ns" {
                    *v = JsonValue::Num(1.0);
                }
            }
        }
        assert!(RequestSpans::from_json(&doc)
            .unwrap_err()
            .contains("e2e_ns"));
    }

    #[test]
    fn span_log_caps_and_sorts() {
        let mut log = SpanLog::new(2);
        log.push(ok_chain(5));
        log.push(ok_chain(1));
        log.push(ok_chain(9));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        let doc = log.to_json();
        let chains = doc.get("chains").and_then(JsonValue::as_arr).unwrap();
        let ids: Vec<u64> = chains
            .iter()
            .map(|c| c.get("trace_id").and_then(JsonValue::as_num).unwrap() as u64)
            .collect();
        assert_eq!(ids, vec![1, 5]);
        crate::snapshot::validate_span_log(&doc).unwrap();
    }

    /// The span-log document exactly as it was rendered from retained
    /// `RequestSpans` values, before the log stored compact records.
    fn reference_doc(cap: usize, dropped: u64, chains: &[RequestSpans]) -> JsonValue {
        let mut sorted: Vec<&RequestSpans> = chains.iter().collect();
        sorted.sort_by_key(|c| c.trace_id);
        JsonValue::obj(vec![
            ("kind", JsonValue::Str("nvwa-spanlog".to_string())),
            ("schema_version", JsonValue::Num(1.0)),
            ("cap", JsonValue::Num(cap as f64)),
            ("dropped", JsonValue::Num(dropped as f64)),
            (
                "chains",
                JsonValue::Arr(sorted.iter().map(|c| c.to_json()).collect()),
            ),
        ])
    }

    fn mixed_chains() -> Vec<RequestSpans> {
        vec![
            ok_chain(12),
            // Expired at batch formation: no align stage.
            RequestSpans::chain(
                4,
                1,
                77,
                2,
                Outcome::Deadline,
                9_000,
                &[
                    (Stage::Queue, 10_000),
                    (Stage::Fill, 5_000),
                    (Stage::Write, 40),
                ],
            ),
            RequestSpans::chain(
                30,
                2,
                u64::MAX >> 12,
                7,
                Outcome::Unmapped,
                123_456_789_012,
                &[
                    (Stage::Queue, 0),
                    (Stage::Fill, 1),
                    (Stage::Align, 4_000_000_000),
                    (Stage::Write, 17),
                ],
            ),
            RequestSpans::chain(8, 0, 3, 0, Outcome::Error, 5, &[(Stage::Align, 99)]),
            ok_chain(1),
        ]
    }

    #[test]
    fn span_log_renders_the_same_bytes_as_the_chains() {
        let chains = mixed_chains();
        let mut log = SpanLog::new(16);
        for c in &chains {
            log.push(c.clone());
        }
        let doc = log.to_json();
        let expected = reference_doc(16, 0, &chains);
        assert_eq!(doc.to_string_compact(), expected.to_string_compact());
        assert_eq!(doc.to_string_pretty(), expected.to_string_pretty());
        crate::snapshot::validate_span_log(&doc).unwrap();
        // Every chain round-trips through the rendered document.
        let rendered = doc.get("chains").and_then(JsonValue::as_arr).unwrap();
        let mut sorted = chains.clone();
        sorted.sort_by_key(|c| c.trace_id);
        for (v, c) in rendered.iter().zip(&sorted) {
            assert_eq!(&RequestSpans::from_json(v).unwrap(), c);
        }
    }

    #[test]
    fn span_log_keeps_the_first_cap_chains_and_counts_the_rest() {
        let chains = mixed_chains();
        for cap in 0..=chains.len() + 1 {
            let mut log = SpanLog::new(cap);
            for c in &chains {
                log.push(c.clone());
            }
            let kept = cap.min(chains.len());
            assert_eq!(log.len(), kept, "cap {cap}");
            assert_eq!(log.is_empty(), kept == 0, "cap {cap}");
            assert_eq!(log.dropped(), (chains.len() - kept) as u64, "cap {cap}");
            let doc = log.to_json();
            let expected = reference_doc(cap, log.dropped(), &chains[..kept]);
            assert_eq!(doc.to_string_compact(), expected.to_string_compact());
            crate::snapshot::validate_span_log(&doc).unwrap();
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "span log rejects a broken chain")]
    fn span_log_rejects_a_broken_chain() {
        let mut gap = ok_chain(1);
        gap.spans[2].start_ns += 1;
        SpanLog::new(4).push(gap);
    }
}
