//! The `Codec` contract over hostile input: every codec of
//! [`all_codecs`] round-trips every file, through its Deflate fallback
//! if need be, and never panics.
//!
//! The inputs are the §6.2 hostile set (each one a file Lepton refuses)
//! and `hostile::dc_swing_across_restart`, a legal JPEG whose DC
//! differences swing past a coder's range if it carries its DC
//! predictor across a restart.

use lepton_baselines::all_codecs;
use lepton_corpus::{hostile, hostile_cases, probe};

#[test]
fn every_codec_round_trips_hostile_input_without_panicking() {
    let mut inputs: Vec<(String, Vec<u8>)> = hostile_cases()
        .into_iter()
        .map(|case| (case.label, case.input))
        .collect();
    inputs.push((
        "dc_swing_across_restart".into(),
        hostile::dc_swing_across_restart(),
    ));
    let mut broken = Vec::new();
    for codec in all_codecs() {
        for (label, input) in &inputs {
            let outcome = probe(|| {
                let enc = codec.encode(input).map_err(|e| format!("encode: {e}"))?;
                let dec = codec
                    .decode(&enc, input.len())
                    .map_err(|e| format!("decode: {e}"))?;
                if dec == *input {
                    Ok(())
                } else {
                    Err("decoded bytes differ".to_string())
                }
            });
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => broken.push(format!("{} on {label}: {e}", codec.name())),
                Err(panic) => broken.push(format!("{} on {label}: panic: {panic}", codec.name())),
            }
        }
    }
    assert!(broken.is_empty(), "contract broken:\n{}", broken.join("\n"));
}

#[test]
fn lepton_encodes_the_restart_swing() {
    let jpg = hostile::dc_swing_across_restart();
    let enc = lepton_core::compress(&jpg, &lepton_core::CompressOptions::default())
        .expect("a legal file Lepton encodes");
    assert_eq!(lepton_core::decompress(&enc).expect("decode"), jpg);
}
