//! Seeded byte mutation of the certified-distance readers.
//!
//! Every file these readers parse may have been torn by a crash or
//! damaged on disk, so each one is fed every truncation and seeded
//! single-byte flips of a small, cleanly written file. Nothing may
//! panic or hang, and nothing wrong may be trusted:
//!
//! * a strict `load_checkpoint` that succeeds returns the original
//!   entries, bit for bit;
//! * a lenient `load_checkpoint_lenient` that succeeds returns a
//!   bit-exact subset of them, and fails only when no CRC marker in the
//!   damaged file verifies;
//! * `SharedStore::open` over a WAL whose tail segment is damaged always
//!   opens, keeps every sealed entry, and serves a bit-exact subset.

use std::collections::BTreeMap;
use std::path::PathBuf;

use prox_core::{crc32, load_checkpoint, load_checkpoint_lenient, save_checkpoint, Pair, TinyRng};
use prox_serve::wal::segment_path;
use prox_serve::{SharedStore, WalConfig};

/// `count` edges with distances that use all 17 printed digits.
fn edges(count: u32) -> Vec<(Pair, f64)> {
    (0..count)
        .map(|i| {
            (
                Pair::new(i, i + 1 + i % 7),
                (f64::from(i) + 0.5).sqrt() / 7.0,
            )
        })
        .collect()
}

fn bits(entries: &[(Pair, f64)]) -> BTreeMap<u64, u64> {
    entries
        .iter()
        .map(|&(p, d)| (p.key(), d.to_bits()))
        .collect()
}

/// Every proper truncation of `clean`, plus two flips at every byte:
/// one with a seeded non-zero mask and one of the high bit (the flip
/// that leaves invalid UTF-8 behind).
fn mutants(clean: &[u8], seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut rng = TinyRng::new(seed);
    let mut out = Vec::new();
    for cut in 0..clean.len() {
        out.push((format!("truncate to {cut}"), clean[..cut].to_vec()));
    }
    for at in 0..clean.len() {
        let mask = 1 + rng.below(255) as u8;
        for mask in [mask, 0x80] {
            let mut m = clean.to_vec();
            m[at] ^= mask;
            out.push((format!("flip {mask:#04x} at {at}"), m));
        }
    }
    out
}

/// Whether any `#! crc32_upto=` / `#! crc32=` line of `bytes` carries
/// the CRC-32 of every byte before it — an independent restatement of
/// the checkpoint format's marker rule.
fn some_marker_verifies(bytes: &[u8]) -> bool {
    let mut offset = 0;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let t = line.trim_ascii();
        let hex = t
            .strip_prefix(b"#! crc32_upto=")
            .or_else(|| t.strip_prefix(b"#! crc32="));
        let value = hex
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h.trim(), 16).ok());
        if value.is_some_and(|v| v == crc32(&bytes[..offset])) {
            return true;
        }
        offset += line.len();
    }
    false
}

fn assert_subset(what: &str, got: &[(Pair, f64)], truth: &BTreeMap<u64, u64>) {
    for &(p, d) in got {
        assert_eq!(
            truth.get(&p.key()),
            Some(&d.to_bits()),
            "{what}: {p:?} = {d} is not an original entry"
        );
    }
}

#[test]
fn checkpoint_readers_trust_nothing_a_mutation_changed() {
    let original = edges(100);
    let truth = bits(&original);
    let manifest = vec![("dataset".to_string(), "mutation".to_string())];
    let mut clean = Vec::new();
    save_checkpoint(&mut clean, &manifest, original.iter().copied()).expect("write");

    let (mut strict_ok, mut lenient_ok) = (0usize, 0usize);
    for (what, bytes) in mutants(&clean, 0x5eed) {
        if let Ok(ckpt) = load_checkpoint(&bytes[..]) {
            assert_eq!(
                bits(&ckpt.known),
                truth,
                "{what}: strict load changed entries"
            );
            assert_eq!(ckpt.known.len(), original.len(), "{what}");
            strict_ok += 1;
        }
        match load_checkpoint_lenient(&bytes[..]) {
            Ok(rec) => {
                assert_subset(&what, &rec.checkpoint.known, &truth);
                assert_eq!(rec.recovered, !rec.reasons.is_empty(), "{what}");
                lenient_ok += 1;
            }
            Err(e) => assert!(
                !some_marker_verifies(&bytes),
                "{what}: lenient load refused ({e}) although a CRC marker verifies"
            ),
        }
    }
    // The sweep must exercise both outcomes, not refuse everything.
    assert!(
        lenient_ok > clean.len(),
        "only {lenient_ok} lenient loads succeeded"
    );
    assert!(
        strict_ok < clean.len(),
        "{strict_ok} strict loads succeeded"
    );
}

#[test]
fn shared_store_opens_over_any_mutated_tail_segment() {
    let dir: PathBuf = std::env::temp_dir().join(format!("prox-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = vec![("dataset".to_string(), "mutation".to_string())];
    let cfg = WalConfig {
        segment_entries: 100,
    };
    // One sealed segment of 100 entries, a tail of 80 (one CRC marker).
    let original = edges(180);
    let truth = bits(&original);
    {
        let (store, _) = SharedStore::open(&dir, &manifest, cfg).expect("open clean");
        store
            .commit(store.token(), &original)
            .expect("commit clean entries");
    }
    let tail = segment_path(&dir, 1);
    let clean = std::fs::read(&tail).expect("read tail");

    for (what, bytes) in mutants(&clean, 0x7a11) {
        std::fs::write(&tail, &bytes).expect("write mutant tail");
        let (store, rec) = SharedStore::open(&dir, &manifest, cfg)
            .unwrap_or_else(|e| panic!("{what}: store refused to open: {e}"));
        let served = store.export();
        assert_subset(&what, &served, &truth);
        assert!(
            served.len() >= 100,
            "{what}: the sealed segment lost entries ({} served)",
            served.len()
        );
        assert_eq!(rec.entries as usize, served.len(), "{what}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
