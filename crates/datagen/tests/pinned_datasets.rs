//! Pins every dataset generator to its exact output.
//!
//! `datasets_are_deterministic` only compares two runs of one build, so a
//! generator rewrite that changed every dataset would still pass it. Here
//! each dataset is reduced to one digest of what an experiment consumes:
//! the `write_log` text of both logs (vocabulary order included), the
//! ground-truth pairs by name and the displayed declared patterns. A
//! change to any generator's RNG draw order, vocabulary order or output
//! changes a digest; a change meant to alter the data updates the
//! constants below in the same commit, and says why.

use std::io::{self, Write};

use evematch_datagen::datasets::{fig1_like, larger_synthetic, random_pair, real_like_sized};
use evematch_datagen::{Dataset, LogPair};
use evematch_eventlog::write_log;
use evematch_pattern::Pattern;

/// FNV-1a, 64-bit, as a byte sink: enough to detect a change, not meant
/// to resist a crafted one.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn digest(pair: &LogPair, patterns: &[Pattern]) -> u64 {
    let mut h = Fnv1a::new();
    let (v1, v2) = (pair.log1.events(), pair.log2.events());
    write_log(&pair.log1, &mut h).unwrap();
    writeln!(h, "--").unwrap();
    write_log(&pair.log2, &mut h).unwrap();
    writeln!(h, "--").unwrap();
    for (a, b) in pair.truth.pairs() {
        writeln!(h, "{}\t{}", v1.name(a), v2.name(b)).unwrap();
    }
    writeln!(h, "--").unwrap();
    for p in patterns {
        writeln!(h, "{}", p.display(v1)).unwrap();
    }
    h.0
}

#[test]
fn every_generator_reproduces_its_pinned_output() {
    let of = |ds: Dataset| digest(&ds.pair, &ds.patterns);
    let got = [
        of(fig1_like()),
        of(real_like_sized(50, 50, 9)),
        of(larger_synthetic(2, 200, 11)),
        of(larger_synthetic(5, 300, 1011)),
        digest(&random_pair(12, 100, 5), &[]),
    ];
    let pinned: [u64; 5] = [
        0x7a31_4a1d_6c05_f86f, // fig1_like()
        0x5f01_aac5_98c3_d3e3, // real_like_sized(50, 50, 9)
        0x6ac6_267d_bf95_6f84, // larger_synthetic(2, 200, 11)
        0x0abb_34cc_a1f9_763a, // larger_synthetic(5, 300, 1011)
        0x64be_38a0_8063_f893, // random_pair(12, 100, 5)
    ];
    let hex = |ds: [u64; 5]| ds.map(|d| format!("{d:#018x}"));
    assert_eq!(hex(got), hex(pinned), "a generator's output changed");
}
