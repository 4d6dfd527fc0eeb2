//! Property tests for the channel record layer: arbitrary record sequences
//! must survive packing into compressed blocks and unpacking, across
//! compression modes and block-boundary placements.

use adcomp_codecs::LevelSet;
use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp_core::stream::AdaptiveWriter;
use adcomp_nephele::channel::{RecordReader, RecordWriter};
use proptest::prelude::*;

fn roundtrip(model: Box<dyn DecisionModel>, records: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut w =
        RecordWriter::new(AdaptiveWriter::new(Vec::new(), LevelSet::paper_default(), model));
    for r in records {
        w.write_record(r).unwrap();
    }
    let (wire, _, _) = w.finish().unwrap();
    let mut reader = RecordReader::new(&wire[..]);
    let mut out = Vec::new();
    while let Some(r) = reader.next_record().unwrap() {
        out.push(r);
    }
    out
}

fn fixed(level: usize) -> Box<dyn DecisionModel> {
    Box::new(StaticModel::new(level, LevelSet::paper_default().len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_records_roundtrip_uncompressed(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..3000), 0..40),
    ) {
        prop_assert_eq!(roundtrip(fixed(0), &records), records);
    }

    #[test]
    fn arbitrary_records_roundtrip_light(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..3000), 0..40),
    ) {
        prop_assert_eq!(roundtrip(fixed(1), &records), records);
    }

    #[test]
    fn record_sizes_straddling_block_boundaries(
        // Sizes chosen around the 128 KiB block size so length prefixes and
        // bodies land on every alignment.
        sizes in proptest::collection::vec(
            prop_oneof![
                Just(0usize),
                1usize..10,
                (128usize * 1024 - 8)..(128 * 1024 + 8),
                (256usize * 1024 - 3)..(256 * 1024 + 3),
            ],
            1..6),
    ) {
        let records: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| ((i * 131 + j * 7) % 256) as u8).collect())
            .collect();
        prop_assert_eq!(roundtrip(fixed(2), &records), records);
    }

    #[test]
    fn adaptive_mode_with_mixed_payload_kinds(
        reps in 1usize..60,
        seed in any::<u64>(),
    ) {
        // Alternate compressible and random records.
        let mut rng = adcomp_corpus::Prng::new(seed);
        let mut records = Vec::new();
        for i in 0..reps {
            if i % 2 == 0 {
                records.push(b"compressible compressible ".repeat(20).to_vec());
            } else {
                let mut r = vec![0u8; 777];
                rng.fill_bytes(&mut r);
                records.push(r);
            }
        }
        prop_assert_eq!(
            roundtrip(Box::new(RateBasedModel::new(Default::default())), &records),
            records
        );
    }
}
