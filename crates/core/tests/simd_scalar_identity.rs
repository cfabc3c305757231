//! Whole-pipeline SIMD/scalar identity: the container bytes produced
//! with every SIMD kernel engaged must equal the bytes produced with
//! dispatch forced to scalar — and each must decompress back to the
//! original JPEG under the *other* level. This is the end-to-end gate
//! over the vectorized kernels (destuff scan, dequantize) at once.

use lepton_core::{CompressOptions, Engine, ThreadPolicy};
use lepton_corpus::{Corpus, CorpusSpec};
use lepton_simd::{force_level, SimdLevel};

#[test]
fn containers_byte_identical_across_dispatch_levels() {
    let files: Vec<Vec<u8>> = Corpus::generate(&CorpusSpec {
        count: 6,
        min_dim: 96,
        max_dim: 320,
        clean_fraction: 1.0,
        seed: 0x51D_1DE7,
    })
    .files
    .into_iter()
    .map(|f| f.data)
    .collect();
    let engine = Engine::new(2);
    let detected = {
        force_level(None);
        lepton_simd::level()
    };
    // Fixed thread counts cover the inline single-segment path and the
    // pipelined multi-segment path.
    for threads in [1usize, 3] {
        let opts = CompressOptions {
            threads: ThreadPolicy::Fixed(threads),
            verify: true,
            ..Default::default()
        };
        for (i, jpeg) in files.iter().enumerate() {
            force_level(Some(SimdLevel::Scalar));
            let scalar = engine.compress(jpeg, &opts).expect("scalar compress");
            force_level(Some(detected));
            let simd = engine.compress(jpeg, &opts).expect("simd compress");
            assert_eq!(
                scalar, simd,
                "file {i} at {threads} threads: containers diverged (Scalar vs {detected:?})"
            );
            // Cross-decode: the scalar-built container through the SIMD
            // decoder (dispatch still forced to `detected`)...
            let back = engine.decompress(&scalar).expect("simd decompress");
            assert_eq!(&back, jpeg, "file {i}: simd decode mismatch");
            // ...and the SIMD-built container through the scalar decoder.
            force_level(Some(SimdLevel::Scalar));
            let back = engine.decompress(&simd).expect("scalar decompress");
            force_level(None);
            assert_eq!(&back, jpeg, "file {i}: scalar decode mismatch");
        }
    }
}
