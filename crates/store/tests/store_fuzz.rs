//! Fuzz suite for the store decoders, in the mold of the checkpoint fuzz
//! suite: parsing must never panic on arbitrary/truncated/bit-flipped
//! bytes, and because every header byte is either CRC-covered or
//! validated-zero — and both payload sections carry their own CRC — *every*
//! single-bit flip of a valid file must be rejected (walked exhaustively).

use proptest::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use tmn_store::{
    write_corpus, AlignedBytes, BlockedDistanceMatrix, CorpusView, EmbeddingsView, EmbeddingsWriter,
    StoreError,
};
use tmn_traj::metrics::{Metric, MetricParams};
use tmn_traj::{Point, Trajectory};

/// The bytes `write` leaves at a fresh path. Tests run concurrently and
/// rebuild their fixtures per call, so a shared name would let one test read
/// another's half-written file; a per-call counter keeps the paths apart.
fn file_image(name: &str, write: impl FnOnce(&Path)) -> Vec<u8> {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("tmn-store-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{}-{name}", CALLS.fetch_add(1, Ordering::Relaxed)));
    write(&p);
    let bytes = std::fs::read(&p).unwrap();
    std::fs::remove_file(&p).unwrap();
    bytes
}

fn trajs(n: usize) -> Vec<Trajectory> {
    (0..n)
        .map(|i| {
            (0..(4 + i % 3))
                .map(|j| Point::new(j as f64 * 0.2 + i as f64 * 0.01, (i % 5) as f64 * 0.1))
                .collect()
        })
        .collect()
}

/// A small but fully populated corpus file image.
fn corpus_bytes() -> Vec<u8> {
    file_image("fuzz-corpus.tmns", |p| write_corpus(p, &trajs(7)).unwrap())
}

/// A small embeddings file image.
fn embeddings_bytes() -> Vec<u8> {
    file_image("fuzz-emb.tmns", |p| {
        let mut w = EmbeddingsWriter::create(p, 3).unwrap();
        for i in 0..11 {
            w.push(&[i as f32, -0.5 * i as f32, 2.0]).unwrap();
        }
        w.finish().unwrap();
    })
}

/// A small tiled ground-truth file image (ragged edge: n=10, tile=4).
fn tiles_bytes() -> Vec<u8> {
    file_image("fuzz-tiles.tmns", |p| {
        BlockedDistanceMatrix::compute(p, &trajs(10), Metric::Dtw, &MetricParams::default(), 2, 4)
            .unwrap();
    })
}

/// Structural parse + full payload CRC for each decoder, against an
/// aligned copy of `bytes` (matching what a mapping would hand them).
fn full_check_embeddings(bytes: &[u8]) -> Result<(), StoreError> {
    let buf = AlignedBytes::from_slice(bytes);
    EmbeddingsView::parse(&buf)?.verify()
}

fn full_check_corpus(bytes: &[u8]) -> Result<(), StoreError> {
    let buf = AlignedBytes::from_slice(bytes);
    CorpusView::parse(&buf)?.verify()
}

fn full_check_tiles(bytes: &[u8]) -> Result<(), StoreError> {
    let buf = AlignedBytes::from_slice(bytes);
    BlockedDistanceMatrix::validate_bytes(&buf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary garbage: all three decoders return errors, never panic.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = full_check_embeddings(&bytes);
        let _ = full_check_corpus(&bytes);
        let _ = full_check_tiles(&bytes);
    }

    /// Garbage behind a valid magic/version/kind prefix reaches the deep
    /// paths (size fields, section offsets, directory walk) — still no
    /// panics, no unbounded allocation.
    #[test]
    fn decode_framed_garbage_never_panics(
        kind in prop_oneof![Just(1u32), Just(2u32), Just(3u32)],
        body in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let mut buf = b"TMNS".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&kind.to_le_bytes());
        buf.extend_from_slice(&body);
        let _ = full_check_embeddings(&buf);
        let _ = full_check_corpus(&buf);
        let _ = full_check_tiles(&buf);
    }

    /// Truncations at every length parse cleanly into an error (a shorter
    /// file can never validate: section extents are checked exactly).
    #[test]
    fn truncation_never_panics_and_is_rejected(cut_seed in 0usize..usize::MAX) {
        let clean = corpus_bytes();
        let cut = cut_seed % clean.len();
        prop_assert!(full_check_corpus(&clean[..cut]).is_err());
        let clean = tiles_bytes();
        let cut = cut_seed % clean.len();
        prop_assert!(full_check_tiles(&clean[..cut]).is_err());
    }

    /// Random single-byte mutations of a valid tiles file: rejected, no
    /// panics (the exhaustive bit walk below covers the other two kinds
    /// completely; this samples the larger tiled file).
    #[test]
    fn tiles_single_byte_mutation_rejected(
        pos_seed in 0usize..usize::MAX,
        xor in 1u8..=255,
    ) {
        let clean = tiles_bytes();
        let pos = pos_seed % clean.len();
        let mut bad = clean.clone();
        bad[pos] ^= xor;
        prop_assert!(full_check_tiles(&bad).is_err(), "mutation at {pos} (^{xor:#x}) accepted");
    }
}

/// Every header byte is CRC-covered or validated-zero and the payload has
/// its own CRC, so *no* single-bit flip of a corpus file may decode.
#[test]
fn corpus_rejects_every_single_bit_flip() {
    let clean = corpus_bytes();
    assert!(full_check_corpus(&clean).is_ok(), "baseline corpus must validate");
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                full_check_corpus(&bad).is_err(),
                "single-bit flip at byte {byte} bit {bit} was accepted"
            );
        }
    }
}

/// Same exhaustive guarantee for embeddings files.
#[test]
fn embeddings_reject_every_single_bit_flip() {
    let clean = embeddings_bytes();
    assert!(full_check_embeddings(&clean).is_ok(), "baseline embeddings must validate");
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                full_check_embeddings(&bad).is_err(),
                "single-bit flip at byte {byte} bit {bit} was accepted"
            );
        }
    }
}

/// Same exhaustive guarantee for tiled ground-truth files.
#[test]
fn tiles_reject_every_single_bit_flip() {
    let clean = tiles_bytes();
    assert!(full_check_tiles(&clean).is_ok(), "baseline tile file must validate");
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                full_check_tiles(&bad).is_err(),
                "single-bit flip at byte {byte} bit {bit} was accepted"
            );
        }
    }
}

/// The zero-copy casts require a mapping-grade base address; a buffer that
/// is off by one byte must be rejected up front, not mis-read.
#[test]
fn misaligned_header_rejected() {
    let clean = corpus_bytes();
    let mut padded = vec![0u8];
    padded.extend_from_slice(&clean);
    let buf = AlignedBytes::from_slice(&padded);
    // buf[1..] holds the byte-exact valid file at an unaligned base.
    assert_eq!(CorpusView::parse(&buf[1..]).err(), Some(StoreError::Misaligned));

    let clean = embeddings_bytes();
    let mut padded = vec![0u8];
    padded.extend_from_slice(&clean);
    let buf = AlignedBytes::from_slice(&padded);
    assert_eq!(EmbeddingsView::parse(&buf[1..]).err().map(|e| format!("{e}")),
               Some("store buffer is not aligned for zero-copy reads".into()));
}
