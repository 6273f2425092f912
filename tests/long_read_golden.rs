//! Byte-stable golden of the long-read aligner: 256 simulated 2 kb reads
//! with a third-generation error profile through
//! [`LongReadAligner::align`], one line per read with its position,
//! strand, score, CIGAR, GACT tile count and DP cells.
//!
//! Any change to the Smith-Waterman fill, its tie-breaking or the GACT
//! stitching shows up here as a drifted line. Regenerate (only for an
//! intentional change of results) with
//! `NVWA_BLESS=1 cargo test -q --test long_read_golden`.

use std::fmt::Write as _;
use std::path::Path;

use nvwa::align::long_read::{LongReadAligner, LongReadConfig, LongReadIndex};
use nvwa::genome::{ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};
use nvwa::index::minimizer::MinimizerParams;
use nvwa::testkit::golden::{compare_or_bless, Outcome};

const READS: usize = 256;
const READ_LEN: usize = 2_000;

fn golden_text() -> String {
    let genome = ReferenceGenome::synthesize(
        &ReferenceParams {
            total_len: 200_000,
            chromosomes: 2,
            ..ReferenceParams::default()
        },
        13,
    );
    let index = LongReadIndex::build(genome.flat().codes().to_vec(), MinimizerParams::default());
    let aligner = LongReadAligner::new(&index, LongReadConfig::default());
    let reads = ReadSimulator::new(&genome, ReadSimParams::long_read(READ_LEN), 0x601d)
        .simulate_reads(READS);
    let mut out = String::from("# read pos strand score cigar tiles dp_cells\n");
    for (i, read) in reads.iter().enumerate() {
        match aligner.align(read.seq.codes()) {
            Some(a) => writeln!(
                out,
                "{i} {} {} {} {} {} {}",
                a.ref_pos,
                if a.is_rc { '-' } else { '+' },
                a.score,
                a.cigar,
                a.gact.tiles,
                a.gact.dp_cells
            ),
            None => writeln!(out, "{i} unmapped"),
        }
        .expect("write to a String");
    }
    out
}

#[test]
fn long_read_alignments_match_golden_file() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/long_read_align.txt"
    );
    match compare_or_bless(Path::new(golden), &golden_text()) {
        Outcome::Matched | Outcome::Blessed => {}
        Outcome::Drifted(summary) => panic!("{summary}"),
    }
}
