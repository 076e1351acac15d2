//! End-to-end run of the `tmn-cli` binary: generate a small dataset, train
//! TMN-NM for one epoch, encode the test partition, and read the encoded
//! TMNS file back through the library.

use std::path::{Path, PathBuf};
use std::process::Command;
use tmn::prelude::*;

fn cli(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_tmn-cli")).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "tmn-cli {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn generate_train_encode_writes_a_checked_tmns_file() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("tmn-cli-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (data, model, emb) = (dir.join("data.csv"), dir.join("model"), dir.join("emb.tmns"));

    cli(&["generate", "--kind", "porto", "--count", "40", "--seed", "7", "--out", path_str(&data)]);
    cli(&[
        "train", "--data", path_str(&data), "--metric", "dtw", "--model", "tmn-nm", "--dim", "8",
        "--epochs", "1", "--out", path_str(&model),
    ]);
    cli(&[
        "encode", "--data", path_str(&data), "--model", path_str(&model), "--out", path_str(&emb),
    ]);

    // The CLI encodes the test partition: filtered, then split at the
    // default train ratio (normalizing keeps the count).
    let kept = filter(tmn::data::io::load_path(&data).unwrap(), &FilterConfig::default());
    let (_, test) = train_test_split(&kept, 0.2);
    let store = EmbeddingStore::open_mmap(&emb).unwrap();
    assert!(store.is_mapped());
    assert_eq!(store.len(), test.len());
    assert_eq!(store.dim(), 8);

    // A flipped payload byte fails the data CRC on open.
    let mut bytes = std::fs::read(&emb).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    let corrupt = dir.join("corrupt.tmns");
    std::fs::write(&corrupt, &bytes).unwrap();
    assert!(EmbeddingStore::open_mmap(&corrupt).is_err(), "corrupt payload was accepted");

    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
