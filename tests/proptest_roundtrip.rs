//! Property tests over the whole stack: arbitrary synthesized JPEGs
//! must round-trip through Lepton under arbitrary thread counts;
//! Deflate must round-trip arbitrary bytes; the container parser must
//! never panic on arbitrary input.

use lepton::codec::{
    compress, decompress, decompress_into, decompress_streaming, CompressOptions,
    DecompressOptions, ThreadPolicy,
};
use lepton::corpus::builder::{clean_jpeg, CorpusSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lepton_roundtrip_arbitrary_images(
        seed in any::<u64>(),
        dim in 48usize..220,
        threads in 1usize..6,
    ) {
        let spec = CorpusSpec {
            min_dim: dim,
            max_dim: dim + 32,
            ..Default::default()
        };
        let jpg = clean_jpeg(&spec, seed);
        let opts = CompressOptions {
            threads: ThreadPolicy::Fixed(threads),
            ..Default::default()
        };
        let lepton = compress(&jpg, &opts).expect("synthesized baselines compress");
        prop_assert_eq!(&decompress(&lepton).expect("admitted containers decode"), &jpg);
        // The adapters are one implementation: same bytes from each.
        let dopts = DecompressOptions::default();
        let mut streamed = Vec::new();
        decompress_streaming(&lepton, &dopts, &mut |b: &[u8]| streamed.extend_from_slice(b))
            .expect("streaming decode");
        prop_assert_eq!(&streamed, &jpg);
        let mut sunk = Vec::new();
        decompress_into(&lepton, &dopts, &mut sunk).expect("sink decode");
        prop_assert_eq!(sunk, jpg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deflate_roundtrip_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let z = lepton::deflate::zlib_compress(&data, lepton::deflate::Level::Default);
        prop_assert_eq!(lepton::deflate::zlib_decompress(&z, data.len().max(16)).expect("inflate"), data);
    }

    #[test]
    fn container_parser_never_panics(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = decompress(&data); // error or garbage, never panic
    }

    #[test]
    fn sha256_streaming_consistency(
        data in proptest::collection::vec(any::<u8>(), 0..10_000),
        split in 0usize..10_000,
    ) {
        use lepton::storage::sha256::{sha256, Sha256};
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finish(), sha256(&data));
    }
}
