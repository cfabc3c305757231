//! Determinism under engine reuse (paper §5.2).
//!
//! The engine's whole point is that worker arenas — model bins, output
//! buffers, plane storage — are *reused* across jobs. Determinism
//! demands that reuse be invisible: a heavily shared, interleaved,
//! reconfigured pool must produce byte-for-byte the same Lepton
//! containers as a fresh engine running its very first job, and every
//! container must still round-trip exactly.

use lepton_core::{CompressOptions, Engine, ThreadPolicy};
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};

fn corpus() -> Vec<Vec<u8>> {
    // Different sizes exercise 1-, 2- and multi-segment paths.
    [(64, 1u64), (128, 2), (200, 3)]
        .iter()
        .map(|&(dim, seed)| {
            clean_jpeg(
                &CorpusSpec {
                    min_dim: dim,
                    max_dim: dim + 16,
                    ..Default::default()
                },
                seed,
            )
        })
        .collect()
}

fn policies() -> Vec<ThreadPolicy> {
    vec![
        ThreadPolicy::Fixed(1),
        ThreadPolicy::Fixed(2),
        ThreadPolicy::Fixed(5),
        ThreadPolicy::Auto,
    ]
}

/// Compress the same corpus through a fresh engine vs. a heavily reused
/// pool: interleaved jobs, alternating thread policies, repeated
/// rounds. Outputs must be byte-identical and every container must
/// round-trip.
#[test]
fn reused_pool_matches_fresh_engine_byte_for_byte() {
    let files = corpus();
    let policies = policies();

    // References: every (file, policy) pair on a brand-new engine whose
    // arenas have never seen another job.
    let mut reference = Vec::new();
    for jpeg in &files {
        for policy in &policies {
            let fresh = Engine::new(2);
            let opts = CompressOptions {
                threads: *policy,
                verify: false,
                ..Default::default()
            };
            reference.push(fresh.compress(jpeg, &opts).expect("fresh compress"));
        }
    }

    // One shared pool, dirtied across three rounds of interleaved work:
    // compressions under every policy, decompressions between them
    // (decode jobs reuse the same arenas), different files back to
    // back. Every output must match its fresh-engine reference.
    let pool = Engine::new(2);
    for round in 0..3 {
        let mut k = 0;
        for jpeg in &files {
            for policy in &policies {
                let opts = CompressOptions {
                    threads: *policy,
                    verify: round == 1, // round 1 also runs the streamed verify jobs
                    ..Default::default()
                };
                let out = pool.compress(jpeg, &opts).expect("pooled compress");
                assert_eq!(
                    out, reference[k],
                    "round {round}: pooled output diverged from fresh engine"
                );
                // Interleave decode jobs so decode arenas are reused too.
                let back = pool.decompress(&out).expect("pooled decompress");
                assert_eq!(&back, jpeg, "round {round}: round-trip mismatch");
                k += 1;
            }
        }
    }
}

/// The free functions run on the global engine; they must agree with a
/// private engine and with themselves across repeated (arena-reusing)
/// calls.
#[test]
fn global_engine_is_deterministic_across_reuse() {
    let files = corpus();
    let opts = CompressOptions {
        threads: ThreadPolicy::Fixed(3),
        verify: false,
        ..Default::default()
    };
    let private = Engine::new(2);
    for jpeg in &files {
        let first = lepton_core::compress(jpeg, &opts).expect("compress");
        for _ in 0..2 {
            assert_eq!(
                lepton_core::compress(jpeg, &opts).expect("compress"),
                first,
                "global engine output changed across reuse"
            );
        }
        assert_eq!(
            private.compress(jpeg, &opts).expect("compress"),
            first,
            "private engine disagrees with global"
        );
        assert_eq!(lepton_core::decompress(&first).expect("decompress"), *jpeg);
    }
}
