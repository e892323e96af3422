//! Seeded round-trip property test for the v4 columnar block codec:
//! randomly generated records — skewed hard toward the encodings'
//! corner cases — must survive `encode_block` → `decode_block` exactly,
//! and a store holding a full block plus a single-record tail block
//! must replay losslessly.
//!
//! The corners the generator is rigged to hit:
//!
//! * empty `ucg_support` (the common case for unstable topologies);
//! * an unbounded (`Threshold::Infinite`) final interval, exercising
//!   the 1-byte infinity tag at the end of a column;
//! * `None` stability / transfer, exercising the presence bitmaps at
//!   every density from all-absent to all-present;
//! * max-order-shaped keys (11+ graph6 characters) and maximal
//!   numeric fields (`u32::MAX` order, `u64::MAX` counters), whose
//!   zigzag deltas wrap the full width;
//! * single-record blocks (count = 1, every delta against the
//!   zero-initialized previous row).

use bnf_atlas::codec::{decode_block, encode_block};
use bnf_atlas::{ClassificationAtlas, BLOCK_RECORDS};
use bnf_core::{ClosedInterval, LowerBound, StabilityWindow, Threshold, WindowRecord};
use bnf_games::Ratio;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Graph6 printable alphabet (0x3F..=0x7E), the only bytes real keys
/// contain — but the codec must take any UTF-8, so a few seeds also
/// get plain ASCII letters.
fn random_key(rng: &mut StdRng) -> String {
    // Max-order shape: n = 11 canonical keys are 1 + ceil(55 / 6) = 11
    // characters; stretch a little past that.
    let len = 1 + rng.gen_range(0..14usize);
    (0..len)
        .map(|_| char::from(63 + rng.gen_range(0..64usize) as u8))
        .collect()
}

fn random_ratio(rng: &mut StdRng) -> Ratio {
    Ratio::new(
        rng.gen_range(0..2000usize) as i64,
        1 + rng.gen_range(0..200usize) as i64,
    )
}

fn random_threshold(rng: &mut StdRng) -> Threshold {
    if rng.gen_range(0..4usize) == 0 {
        Threshold::Infinite
    } else {
        Threshold::Finite(random_ratio(rng))
    }
}

fn random_record(rng: &mut StdRng, ordinal: usize) -> WindowRecord {
    let extreme = rng.gen_range(0..8usize) == 0;
    WindowRecord {
        // The ordinal suffix keeps keys unique within a batch without
        // disturbing the shared-prefix distribution the codec exploits.
        key: format!("{}{ordinal}", random_key(rng)),
        order: if extreme {
            u32::MAX
        } else {
            rng.gen_range(0..12usize) as u32
        },
        edges: if extreme {
            u64::MAX
        } else {
            rng.gen_range(0..56usize) as u64
        },
        total_distance: if extreme {
            u64::MAX - rng.gen_range(0..9usize) as u64
        } else {
            rng.gen_range(0..4000usize) as u64
        },
        stability: (rng.gen_range(0..3usize) > 0).then(|| StabilityWindow {
            lower: LowerBound {
                value: random_ratio(rng),
                inclusive: rng.gen_range(0..2usize) == 0,
            },
            upper: random_threshold(rng),
        }),
        transfer: (rng.gen_range(0..3usize) > 0).then(|| ClosedInterval {
            lo: random_ratio(rng),
            hi: random_threshold(rng),
        }),
        ucg_support: (0..rng.gen_range(0..4usize))
            .map(|_| ClosedInterval {
                lo: random_ratio(rng),
                hi: random_threshold(rng),
            })
            .collect(),
    }
}

#[test]
fn seeded_blocks_round_trip_exactly() {
    let mut payload = Vec::new();
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Odd sizes on purpose: 1 hits the all-deltas-from-zero row,
        // 257 spans several bitmap bytes with a ragged tail bit.
        for count in [1usize, 2, 7, 64, 257] {
            let records: Vec<WindowRecord> =
                (0..count).map(|i| random_record(&mut rng, i)).collect();
            let refs: Vec<&WindowRecord> = records.iter().collect();
            payload.clear();
            encode_block(&refs, &mut payload);
            let decoded = decode_block(&payload)
                .unwrap_or_else(|e| panic!("seed {seed}, count {count}: {e}"));
            assert_eq!(decoded, records, "seed {seed}, count {count}");
        }
    }
}

#[test]
fn handpicked_corner_records_round_trip_in_one_block() {
    let records = vec![
        // Everything absent: the all-zeros bitmap path.
        WindowRecord {
            key: "D?{".into(),
            order: 4,
            edges: 3,
            total_distance: 10,
            stability: None,
            transfer: None,
            ucg_support: Vec::new(),
        },
        // Unbounded final interval + inclusive-false lower bound.
        WindowRecord {
            key: "D]w".into(),
            order: 4,
            edges: 5,
            total_distance: 8,
            stability: Some(StabilityWindow {
                lower: LowerBound {
                    value: Ratio::new(1, 3),
                    inclusive: false,
                },
                upper: Threshold::Infinite,
            }),
            transfer: Some(ClosedInterval {
                lo: Ratio::new(0, 1),
                hi: Threshold::Finite(Ratio::new(7, 2)),
            }),
            ucg_support: vec![
                ClosedInterval {
                    lo: Ratio::new(1, 2),
                    hi: Threshold::Finite(Ratio::new(2, 1)),
                },
                ClosedInterval {
                    lo: Ratio::new(5, 1),
                    hi: Threshold::Infinite,
                },
            ],
        },
        // Max-order key shape and maximal numeric fields: the deltas
        // against the previous row wrap the full u64 width.
        WindowRecord {
            key: "J~~~~~~~~~~".into(),
            order: u32::MAX,
            edges: u64::MAX,
            total_distance: u64::MAX,
            stability: None,
            transfer: Some(ClosedInterval {
                lo: Ratio::new(0, 1),
                hi: Threshold::Infinite,
            }),
            ucg_support: Vec::new(),
        },
        // Back down from the maxima: negative deltas of full width.
        WindowRecord {
            key: "C~".into(),
            order: 0,
            edges: 0,
            total_distance: 0,
            stability: Some(StabilityWindow {
                lower: LowerBound {
                    value: Ratio::new(0, 1),
                    inclusive: true,
                },
                upper: Threshold::Finite(Ratio::new(0, 1)),
            }),
            transfer: None,
            ucg_support: vec![ClosedInterval {
                lo: Ratio::new(0, 1),
                hi: Threshold::Infinite,
            }],
        },
    ];
    let refs: Vec<&WindowRecord> = records.iter().collect();
    let mut payload = Vec::new();
    encode_block(&refs, &mut payload);
    assert_eq!(decode_block(&payload).unwrap(), records);
}

#[test]
fn full_block_plus_single_record_tail_replays_from_disk() {
    let path = std::env::temp_dir().join(format!("bnf-codec-tail-{}.bnfatlas", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut rng = StdRng::seed_from_u64(0xb10c);
    let records: Vec<WindowRecord> = (0..BLOCK_RECORDS + 1)
        .map(|i| random_record(&mut rng, i))
        .collect();
    {
        let mut atlas = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(atlas.append_records(&records).unwrap(), records.len());
    }
    // Two block frames on disk: a full 4096 and a single-record tail.
    let bytes = std::fs::read(&path).unwrap();
    let mut frames = 0;
    let mut at = 12;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        assert_eq!(bytes[at + 4], 4, "frame at {at} is not a columnar block");
        frames += 1;
        at += 4 + len;
    }
    assert_eq!(frames, 2);

    let reopened = ClassificationAtlas::open(&path).unwrap();
    assert_eq!(reopened.len(), records.len());
    for rec in &records {
        assert_eq!(reopened.get(&rec.key), Some(rec), "key {:?}", rec.key);
    }
    std::fs::remove_file(&path).ok();
}
