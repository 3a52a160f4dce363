//! The one on-disk format for certified distances.
//!
//! A billed oracle makes every resolved distance money, and a wrong one
//! poisons every later bound. Everything that writes or reads certified
//! distances — `prox-cli --cache`, `--checkpoint` / `--resume`, and
//! every segment of the serving layer's write-ahead log — goes through
//! [`write_checkpoint_file`] and [`read_checkpoint_file`] /
//! [`read_checkpoint_file_lenient`]. A checkpoint is plain text: one
//! `lo,hi,distance` data line per resolved pair, `#` comment lines, and
//! `#! key=value` manifest lines that record what the run was
//! (`dataset`, `n`, `seed`, …) so a reader can refuse a file that
//! describes another problem instead of silently poisoning its bound
//! scheme.
//!
//! # Integrity (format v2)
//!
//! Files are self-verifying: the first line is `#! ckpt_version=2`, a
//! rolling `#! crc32_upto=<hex>` marker (CRC-32 of every file byte
//! before the marker line) lands after each block of
//! [`CRC_BLOCK_LINES`] data lines, and the file ends with a
//! `#! crc32=<hex>` trailer over everything before it. The CRC is
//! checked over raw bytes and only the verified prefix is decoded, so
//! damage of any kind — a torn write, a flipped bit, a byte that is no
//! longer UTF-8 — costs a lenient recovery at most one block of
//! resolved pairs. Strict loading ([`load_checkpoint`]) is lenient
//! loading that refuses on the first dropped line.
//!
//! Files without a version line are v1: the same data lines with no
//! integrity metadata (the format older `--cache` files were written
//! in). They still load, line by line, and a lenient load reports every
//! dropped line with its number and reason.
//!
//! Files are written atomically *and durably*: the bytes land in a
//! sibling temp file which is fsynced before the same-directory rename,
//! and the directory entry is fsynced after it — a crash at any point
//! leaves either the previous file or the complete new one.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

use crate::crc::Crc32;
use crate::Pair;

/// Data lines per rolling CRC marker in a v2 checkpoint: the most a
/// torn tail can cost a lenient recovery.
pub const CRC_BLOCK_LINES: usize = 64;

/// Manifest keys the format itself owns; user manifests may not shadow
/// them and parsed manifests never contain them.
const RESERVED_KEYS: [&str; 3] = ["ckpt_version", "crc32", "crc32_upto"];

/// A parsed checkpoint: the manifest plus the resolved-distance set.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// `key=value` manifest entries, in file order.
    pub manifest: Vec<(String, String)>,
    /// The resolved distances in file order, pairs canonical and
    /// bit-identical repeats removed.
    pub known: Vec<(Pair, f64)>,
}

impl Checkpoint {
    /// The first manifest value stored under `key`, if any.
    pub fn manifest_value(&self, key: &str) -> Option<&str> {
        self.manifest
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Writes a v2 checkpoint: the version line, manifest comment lines,
/// then one data line per edge with rolling CRC markers and a
/// whole-file CRC trailer. Returns the number of edges written.
///
/// Manifest keys and values must not contain newlines or `=` in the
/// key, and may not shadow the format's reserved keys (`ckpt_version`,
/// `crc32`, `crc32_upto`); offending entries are rejected with
/// `InvalidInput`.
pub fn save_checkpoint<W: Write>(
    mut w: W,
    manifest: &[(String, String)],
    edges: impl IntoIterator<Item = (Pair, f64)>,
) -> io::Result<usize> {
    for (k, v) in manifest {
        let clean = !k.is_empty()
            && !k.contains('=')
            && !k.contains('\n')
            && !v.contains('\n')
            && k.trim() == k
            && !RESERVED_KEYS.contains(&k.as_str());
        if !clean {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad manifest entry {k:?}={v:?}"),
            ));
        }
    }
    // The CRC markers digest every preceding file byte, so the whole
    // file is staged in memory; checkpoints are line-oriented and small
    // (tens of bytes per resolved pair).
    let mut buf: Vec<u8> = Vec::new();
    let mut digest = Crc32::new();
    let mut absorbed = 0usize;
    writeln!(buf, "#! ckpt_version=2")?;
    for (k, v) in manifest {
        writeln!(buf, "#! {k}={v}")?;
    }
    writeln!(buf, "# prox resolved-distance cache v1")?;
    let mut count = 0usize;
    for (p, d) in edges {
        // 17 significant digits round-trip any f64 exactly.
        writeln!(buf, "{},{},{:.17e}", p.lo(), p.hi(), d)?;
        count += 1;
        if count.is_multiple_of(CRC_BLOCK_LINES) {
            digest.update(&buf[absorbed..]);
            absorbed = buf.len();
            writeln!(buf, "#! crc32_upto={:08x}", digest.value())?;
        }
    }
    digest.update(&buf[absorbed..]);
    writeln!(buf, "#! crc32={:08x}", digest.value())?;
    w.write_all(&buf)?;
    Ok(count)
}

/// Parses one non-comment data line into a canonical edge, or explains
/// (without line context) why it cannot be trusted.
fn parse_line(trimmed: &str) -> Result<(Pair, f64), &'static str> {
    let mut parts = trimmed.split(',');
    let a: u32 = parts
        .next()
        .and_then(|s| s.trim().parse().ok())
        .ok_or("bad first id")?;
    let b: u32 = parts
        .next()
        .and_then(|s| s.trim().parse().ok())
        .ok_or("bad second id")?;
    let d: f64 = parts
        .next()
        .and_then(|s| s.trim().parse().ok())
        .ok_or("bad distance")?;
    if parts.next().is_some() {
        return Err("trailing fields");
    }
    if a == b {
        return Err("self-loop");
    }
    if !d.is_finite() || d < 0.0 {
        return Err("distance must be finite and non-negative");
    }
    Ok((Pair::new(a, b), d))
}

/// The data lines of `text`: the edges that parse, in order, plus one
/// `line N: reason: "text"` entry per dropped line. Bit-identical
/// repeats are removed silently; on a conflicting repeat the first copy
/// is kept (a torn append or merge introduced the later one) and the
/// repeat is dropped — trusting either copy blindly could poison every
/// downstream bound. Every writer ends each line with a newline, so a
/// last line without one was cut short by a torn write and is dropped
/// even when what is left still parses (`5` from `5.15e-3`).
fn parse_data(text: &str) -> (Vec<(Pair, f64)>, Vec<String>) {
    let torn = if text.ends_with('\n') {
        0
    } else {
        text.lines().count()
    };
    let mut known = Vec::new();
    let mut dropped = Vec::new();
    let mut seen: BTreeMap<u64, f64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        let fresh = if lineno + 1 == torn && !trimmed.is_empty() {
            Err("unterminated last line (torn write)")
        } else if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        } else {
            parse_line(trimmed).and_then(|(p, d)| match seen.get(&p.key()) {
                Some(prev) if prev.to_bits() == d.to_bits() => Ok(None),
                Some(_) => Err("conflicting duplicate pair"),
                None => Ok(Some((p, d))),
            })
        };
        match fresh {
            Ok(Some((p, d))) => {
                seen.insert(p.key(), d);
                known.push((p, d));
            }
            Ok(None) => {}
            Err(msg) => dropped.push(format!("line {}: {msg}: {trimmed:?}", lineno + 1)),
        }
    }
    (known, dropped)
}

/// `#! key=value` manifest entries of `text`, reserved keys excluded.
fn parse_manifest(text: &str) -> Vec<(String, String)> {
    let mut manifest = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("#!") {
            if let Some((k, v)) = rest.split_once('=') {
                let k = k.trim();
                if !RESERVED_KEYS.contains(&k) {
                    manifest.push((k.to_string(), v.trim().to_string()));
                }
            }
        }
    }
    manifest
}

/// Whether `text` is a v2 file: it declares `ckpt_version=2` (any
/// other declared version is an error), or it declares none but carries
/// a CRC marker — a v2 file whose version line was damaged, which must
/// be verified rather than trusted line by line as v1.
fn is_v2(text: &str) -> io::Result<bool> {
    let mut marked = false;
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("#!") {
            if let Some((k, v)) = rest.split_once('=') {
                match k.trim() {
                    "ckpt_version" if v.trim() == "2" => return Ok(true),
                    "ckpt_version" => {
                        return Err(invalid(format!(
                            "unsupported checkpoint version {:?}",
                            v.trim()
                        )))
                    }
                    "crc32" | "crc32_upto" => marked = true,
                    _ => {}
                }
            }
        }
    }
    Ok(marked)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// What lenient checkpoint recovery salvaged.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointRecovery {
    /// The checkpoint reconstructed from the verified (or, for v1
    /// files, parseable) portion of the file.
    pub checkpoint: Checkpoint,
    /// Non-empty lines dropped after the trusted prefix (v2) or data
    /// lines dropped as malformed or conflicting (v1).
    pub dropped_lines: usize,
    /// Whether anything had to be dropped — `false` means the file
    /// verified (or parsed) end to end.
    pub recovered: bool,
    /// Why lines were dropped, each entry starting `line N:` — one per
    /// dropped v1 data line, or one for a v2 file's unverified tail.
    /// Empty exactly when `recovered` is `false`.
    pub reasons: Vec<String>,
}

/// The byte length of the longest prefix of `bytes` that a CRC marker
/// verifies, plus the offset just past that marker line and whether it
/// was the whole-file trailer. Works on raw bytes: damage that is no
/// longer UTF-8 fails the CRC like any other.
fn verified_prefix(bytes: &[u8]) -> Option<(usize, usize, bool)> {
    let mut digest = Crc32::new();
    let mut offset = 0usize;
    let mut best: Option<(usize, usize, bool)> = None;
    for seg in bytes.split_inclusive(|&b| b == b'\n') {
        let t = seg.trim_ascii();
        let marker = t
            .strip_prefix(b"#! crc32_upto=")
            .map(|h| (h, false))
            .or_else(|| t.strip_prefix(b"#! crc32=").map(|h| (h, true)));
        if let Some((hex, is_trailer)) = marker {
            let value = std::str::from_utf8(hex)
                .ok()
                .and_then(|h| u32::from_str_radix(h.trim(), 16).ok());
            if value == Some(digest.value()) {
                best = Some((offset, offset + seg.len(), is_trailer));
            }
        }
        digest.update(seg);
        offset += seg.len();
    }
    best
}

fn recover_bytes(bytes: &[u8]) -> io::Result<CheckpointRecovery> {
    let text = String::from_utf8_lossy(bytes);
    if !is_v2(&text)? {
        // v1: no integrity metadata to verify; salvage what parses. No
        // writer leaves an empty file, so an empty one is torn too.
        let (known, mut reasons) = parse_data(&text);
        let dropped_lines = reasons.len();
        if text.is_empty() {
            reasons.push("line 1: empty file (torn write)".to_string());
        }
        return Ok(CheckpointRecovery {
            checkpoint: Checkpoint {
                manifest: parse_manifest(&text),
                known,
            },
            dropped_lines,
            recovered: !reasons.is_empty(),
            reasons,
        });
    }
    let Some((trusted, after_marker, is_trailer)) = verified_prefix(bytes) else {
        return Err(invalid(
            "checkpoint has no CRC-verifiable prefix; refusing to trust any of it",
        ));
    };
    // The verified prefix is bit-exact what the writer produced: ASCII
    // data lines that parse without a single drop.
    let prefix = std::str::from_utf8(&bytes[..trusted])
        .map_err(|_| invalid("CRC-verified prefix is not UTF-8"))?;
    let (known, bad) = parse_data(prefix);
    if let Some(first) = bad.into_iter().next() {
        return Err(invalid(first));
    }
    let tail = &bytes[after_marker..];
    let dropped_lines = tail
        .split(|&b| b == b'\n')
        .filter(|l| !l.trim_ascii().is_empty())
        .count();
    let mut reasons = Vec::new();
    if !(is_trailer && dropped_lines == 0) {
        let line = bytes[..after_marker]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1;
        reasons.push(format!(
            "line {line}: checkpoint failed CRC verification \
             ({dropped_lines} trailing line(s) unverified)"
        ));
    }
    Ok(CheckpointRecovery {
        checkpoint: Checkpoint {
            manifest: parse_manifest(prefix),
            known,
        },
        dropped_lines,
        recovered: !reasons.is_empty(),
        reasons,
    })
}

/// Reads a checkpoint written by [`save_checkpoint`] strictly: the
/// lenient load, refused with `InvalidData` on its first dropped line.
/// A v2 file whose CRC trailer is missing, torn, or mismatched and a v1
/// file with a malformed or conflicting data line are both rejected,
/// the message naming the line (use [`load_checkpoint_lenient`] to
/// salvage the rest).
pub fn load_checkpoint<R: BufRead>(r: R) -> io::Result<Checkpoint> {
    let rec = load_checkpoint_lenient(r)?;
    match rec.reasons.into_iter().next() {
        Some(first) => Err(invalid(first)),
        None => Ok(rec.checkpoint),
    }
}

/// Lenient twin of [`load_checkpoint`]: recovers the longest
/// CRC-verified prefix of a v2 file (or the parseable lines of a v1
/// file) instead of failing on a torn or bit-flipped tail. Errors only
/// on I/O failure or when *nothing* verifies.
pub fn load_checkpoint_lenient<R: BufRead>(mut r: R) -> io::Result<CheckpointRecovery> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    recover_bytes(&bytes)
}

/// Atomically and durably writes a checkpoint file: the bytes land in a
/// sibling `<path>.tmp` (same directory, so the rename can never cross
/// devices), are fsynced to disk, renamed over `path`, and the parent
/// directory entry is fsynced — a crash between any two steps leaves
/// either the old complete file or the new complete file.
pub fn write_checkpoint_file(
    path: &Path,
    manifest: &[(String, String)],
    edges: impl IntoIterator<Item = (Pair, f64)>,
) -> io::Result<usize> {
    let mut bytes = Vec::new();
    let count = save_checkpoint(&mut bytes, manifest, edges)?;
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        // Data must be on disk *before* the rename publishes the name;
        // otherwise a crash can expose a complete-looking, empty file.
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        // Persist the directory entry too, so the rename itself
        // survives a crash. Failure here is not fatal: the data is
        // durable and the old name at worst reappears.
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(count)
}

/// Reads a checkpoint file written by [`write_checkpoint_file`],
/// verifying integrity strictly (see [`load_checkpoint`]).
pub fn read_checkpoint_file(path: &Path) -> io::Result<Checkpoint> {
    load_checkpoint(io::BufReader::new(fs::File::open(path)?))
}

/// Reads a checkpoint file, salvaging the verified prefix of a damaged
/// v2 file (see [`load_checkpoint_lenient`]).
pub fn read_checkpoint_file_lenient(path: &Path) -> io::Result<CheckpointRecovery> {
    load_checkpoint_lenient(io::BufReader::new(fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges() -> Vec<(Pair, f64)> {
        vec![(Pair::new(0, 1), 0.5), (Pair::new(2, 7), 1.0 / 3.0)]
    }

    fn sample_manifest() -> Vec<(String, String)> {
        vec![
            ("algo".into(), "knng".into()),
            ("n".into(), "200".into()),
            ("seed".into(), "42".into()),
        ]
    }

    fn lenient(text: &str) -> CheckpointRecovery {
        load_checkpoint_lenient(text.as_bytes()).expect("io ok")
    }

    #[test]
    fn roundtrips_manifest_and_edges() {
        let mut buf = Vec::new();
        let n = save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        assert_eq!(n, 2);
        let ck = load_checkpoint(&buf[..]).expect("read");
        assert_eq!(ck.manifest, sample_manifest());
        assert_eq!(ck.known, sample_edges());
        assert_eq!(ck.manifest_value("seed"), Some("42"));
        assert_eq!(ck.manifest_value("missing"), None);
    }

    #[test]
    fn roundtrip_exact() {
        let edges = vec![
            (Pair::new(0, 1), 0.1),
            (Pair::new(5, 2), 1.0 / 3.0),
            (Pair::new(7, 100), f64::MIN_POSITIVE),
        ];
        let mut buf = Vec::new();
        let n = save_checkpoint(&mut buf, &[], edges.clone()).expect("write");
        assert_eq!(n, 3);
        let back = load_checkpoint(&buf[..]).expect("read");
        assert_eq!(back.known, edges, "bit-exact distances after round-trip");
    }

    #[test]
    fn checkpoints_are_plain_v1_caches() {
        // Every `#` line is a comment to the v1 grammar: a v2 file with
        // its version, manifest, and CRC lines stripped is a v1 cache of
        // the same edges.
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let data: String = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        let ck = load_checkpoint(data.as_bytes()).expect("v1 load");
        assert_eq!(ck.known, sample_edges());
    }

    #[test]
    fn plain_caches_load_with_empty_manifest() {
        let v1 = "# prox resolved-distance cache v1\n\
                  0,1,5.00000000000000000e-1\n\
                  2,7,3.33333333333333315e-1\n";
        let ck = load_checkpoint(v1.as_bytes()).expect("read");
        assert!(ck.manifest.is_empty());
        assert_eq!(ck.known, sample_edges());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n0,1,0.5\n  # indented comment\n2,3,0.25\n";
        let back = load_checkpoint(text.as_bytes()).expect("read").known;
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], (Pair::new(0, 1), 0.5));
    }

    #[test]
    fn rejects_malformed_lines() {
        for (bad, reason) in [
            ("0,1", "bad distance"),
            ("0,1,0.5,extra", "trailing fields"),
            ("x,1,0.5", "bad first id"),
            ("0,y,0.5", "bad second id"),
            ("1,1,0.5", "self-loop"),
            ("0,1,-0.5", "finite and non-negative"),
            ("0,1,NaN_", "bad distance"),
            ("0,1,inf", "finite and non-negative"),
        ] {
            let err = load_checkpoint(format!("{bad}\n").as_bytes()).expect_err(bad);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("line 1") && msg.contains(reason),
                "{bad:?}: unexpected message {msg}"
            );
        }
    }

    #[test]
    fn canonicalizes_pair_order() {
        let back = load_checkpoint("9,4,0.25\n".as_bytes()).expect("read");
        assert_eq!(back.known[0].0.ends(), (4, 9));
    }

    #[test]
    fn dedupes_bit_identical_repeats() {
        let back = load_checkpoint("0,1,0.5\n1,0,0.5\n0,1,0.5\n".as_bytes()).expect("read");
        assert_eq!(back.known, vec![(Pair::new(0, 1), 0.5)]);
    }

    #[test]
    fn rejects_conflicting_duplicate_pairs() {
        let err = load_checkpoint("0,1,0.5\n2,3,0.25\n1,0,0.75\n".as_bytes())
            .expect_err("conflicting repeat must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("line 3") && msg.contains("conflicting duplicate pair"),
            "unexpected message: {msg}"
        );
    }

    #[test]
    fn lenient_load_of_clean_file_matches_strict() {
        let text = "# header\n0,1,0.5\n2,3,0.25\n";
        let rec = lenient(text);
        let strict = load_checkpoint(text.as_bytes()).expect("strict");
        assert_eq!(rec.checkpoint, strict);
        assert!(!rec.recovered);
        assert_eq!(rec.dropped_lines, 0);
        assert!(rec.reasons.is_empty());
    }

    #[test]
    fn lenient_load_skips_truncated_tail() {
        // A torn write cut the last line: before its distance field, or
        // inside it where what is left still parses as a number.
        for torn in ["0,1,0.5\n2,3,0.25\n4,5", "0,1,0.5\n2,3,0.25\n4,5,5"] {
            let rec = lenient(torn);
            assert_eq!(rec.checkpoint.known.len(), 2);
            assert_eq!(rec.dropped_lines, 1);
            assert!(
                rec.reasons[0].starts_with("line 3: unterminated last line (torn write)"),
                "{:?}",
                rec.reasons
            );
            assert!(load_checkpoint(torn.as_bytes()).is_err());
        }
        // No writer leaves an empty file or half a header line either.
        for torn in ["", "# prox resolved-dis"] {
            assert!(lenient(torn).recovered, "{torn:?}");
            assert!(load_checkpoint(torn.as_bytes()).is_err(), "{torn:?}");
        }
    }

    #[test]
    fn lenient_load_skips_nan_distances() {
        let rec = lenient("0,1,0.5\n2,3,NaN\n4,5,0.7\n");
        assert_eq!(
            rec.checkpoint.known,
            vec![(Pair::new(0, 1), 0.5), (Pair::new(4, 5), 0.7)]
        );
        assert_eq!(rec.dropped_lines, 1);
        assert!(
            rec.reasons[0].contains("line 2") && rec.reasons[0].contains("finite"),
            "{:?}",
            rec.reasons
        );
    }

    #[test]
    fn lenient_load_keeps_first_of_conflicting_duplicates() {
        let rec = lenient("0,1,0.5\n1,0,0.75\n2,3,0.25\n");
        assert_eq!(
            rec.checkpoint.known,
            vec![(Pair::new(0, 1), 0.5), (Pair::new(2, 3), 0.25)]
        );
        assert_eq!(rec.dropped_lines, 1);
        assert!(
            rec.reasons[0].contains("line 2")
                && rec.reasons[0].contains("conflicting duplicate pair"),
            "{:?}",
            rec.reasons
        );
        // Bit-identical repeats still dedupe silently.
        let rec = lenient("0,1,0.5\n1,0,0.5\n");
        assert_eq!(rec.checkpoint.known.len(), 1);
        assert_eq!(rec.dropped_lines, 0);
    }

    #[test]
    fn rejects_unserializable_manifest_entries() {
        for (k, v) in [("a=b", "x"), ("", "x"), ("k", "two\nlines"), (" pad", "x")] {
            let m = vec![(k.to_string(), v.to_string())];
            let err = save_checkpoint(Vec::new(), &m, sample_edges())
                .expect_err("bad manifest entry must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn file_roundtrip_is_atomic_over_previous_content() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prox-ckpt-test-{}.csv", std::process::id()));
        write_checkpoint_file(&path, &sample_manifest(), sample_edges()).expect("write");
        // Overwrite with a second snapshot; the temp file must be gone.
        write_checkpoint_file(&path, &sample_manifest(), sample_edges()).expect("rewrite");
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        let ck = read_checkpoint_file(&path).expect("read");
        assert_eq!(ck.known, sample_edges());
        fs::remove_file(&path).expect("cleanup");
    }

    /// Enough edges to cross several CRC block boundaries.
    fn many_edges(count: u32) -> Vec<(Pair, f64)> {
        (0..count)
            .map(|i| (Pair::new(i, i + 1), f64::from(i) / f64::from(count)))
            .collect()
    }

    #[test]
    fn v2_version_line_and_trailer_are_present() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(text.starts_with("#! ckpt_version=2\n"));
        let last = text.lines().last().expect("non-empty");
        assert!(last.starts_with("#! crc32="), "trailer line, got {last:?}");
    }

    #[test]
    fn rolling_markers_appear_every_block() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &[], many_edges(200)).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let markers = text
            .lines()
            .filter(|l| l.starts_with("#! crc32_upto="))
            .count();
        assert_eq!(markers, 200 / CRC_BLOCK_LINES, "200 edges, blocks of 64");
    }

    #[test]
    fn rejects_reserved_manifest_keys() {
        for k in RESERVED_KEYS {
            let m = vec![(k.to_string(), "1".to_string())];
            let err = save_checkpoint(Vec::new(), &m, sample_edges())
                .expect_err("reserved key must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn parsed_manifest_excludes_reserved_keys() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), sample_edges()).expect("write");
        let ck = load_checkpoint(&buf[..]).expect("read");
        assert_eq!(ck.manifest, sample_manifest(), "no ckpt_version/crc32 leak");
    }

    #[test]
    fn strict_load_rejects_any_bit_flip() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), many_edges(100)).expect("write");
        // Sanity: the pristine file loads.
        assert!(load_checkpoint(&buf[..]).is_ok());
        // Flip one bit at a sample of positions across the whole file.
        for at in (0..buf.len()).step_by(97) {
            let mut flipped = buf.clone();
            flipped[at] ^= 0x10;
            assert!(
                load_checkpoint(&flipped[..]).is_err(),
                "bit flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn strict_load_names_the_unverified_tail() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &[], many_edges(100)).expect("write");
        buf.truncate(buf.len() - 30);
        let err = load_checkpoint(&buf[..]).expect_err("torn trailer");
        let msg = err.to_string();
        // The version line, the comment header, 64 data lines and the
        // first marker (line 67) verify; the other 36 data lines do not.
        assert!(
            msg.starts_with(
                "line 68: checkpoint failed CRC verification (36 trailing line(s) unverified)"
            ),
            "{msg}"
        );
    }

    #[test]
    fn lenient_load_recovers_prefix_after_tail_flip() {
        let mut clean = Vec::new();
        save_checkpoint(&mut clean, &sample_manifest(), many_edges(200)).expect("write");
        // Corrupt a byte in the last quarter of the file, once keeping
        // it ASCII and once making it invalid UTF-8: the CRC decides
        // either way, before anything is decoded.
        let at = clean.len() - clean.len() / 8;
        for mask in [0x01, 0x80] {
            let mut buf = clean.clone();
            buf[at] ^= mask;
            let rec = load_checkpoint_lenient(&buf[..]).expect("recoverable");
            assert!(rec.recovered);
            assert!(rec.dropped_lines > 0);
            // At least the blocks before the flip survived, and
            // everything recovered is bit-exact truth.
            assert!(rec.checkpoint.known.len() >= CRC_BLOCK_LINES);
            let truth = many_edges(200);
            assert_eq!(
                rec.checkpoint.known[..],
                truth[..rec.checkpoint.known.len()],
                "recovered prefix is exact (mask {mask:#x})"
            );
            assert_eq!(rec.checkpoint.manifest, sample_manifest());
            assert!(load_checkpoint(&buf[..]).is_err(), "strict still refuses");
        }
    }

    #[test]
    fn lenient_load_recovers_torn_write() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &sample_manifest(), many_edges(200)).expect("write");
        // A torn write: the file simply stops mid-line.
        buf.truncate(buf.len() * 3 / 5);
        let rec = load_checkpoint_lenient(&buf[..]).expect("recoverable");
        assert!(rec.recovered);
        assert!(rec.checkpoint.known.len() >= CRC_BLOCK_LINES);
        let truth = many_edges(200);
        assert_eq!(
            rec.checkpoint.known[..],
            truth[..rec.checkpoint.known.len()]
        );
    }

    #[test]
    fn lenient_load_refuses_unverifiable_v2_file() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &[], sample_edges()).expect("write");
        // Corrupt the very first data-bearing region so no marker
        // (there is only the trailer for 2 edges) can verify.
        buf[20] ^= 0x10;
        let err = load_checkpoint_lenient(&buf[..]).expect_err("nothing verifies");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no CRC-verifiable prefix"));
    }

    #[test]
    fn lenient_load_handles_v1_files() {
        // Clean v1 cache: loads fully, not marked recovered.
        let rec = lenient("0,1,0.5\n2,7,3.33333333333333315e-1\n");
        assert!(!rec.recovered);
        assert_eq!(rec.checkpoint.known, sample_edges());
        // Damaged v1 cache: parseable lines survive, damage is counted.
        let rec = lenient("#! algo=prim\n0,1,0.5\n2,3,garbage\n");
        assert!(rec.recovered);
        assert_eq!(rec.dropped_lines, 1);
        assert_eq!(rec.checkpoint.known, vec![(Pair::new(0, 1), 0.5)]);
        assert_eq!(rec.checkpoint.manifest_value("algo"), Some("prim"));
        // A byte that is not UTF-8 drops its line, not the file.
        let rec = load_checkpoint_lenient(&b"0,1,0.5\n2,3,0.2\x805\n"[..]).expect("v1 salvage");
        assert_eq!(rec.checkpoint.known, vec![(Pair::new(0, 1), 0.5)]);
        assert!(rec.reasons[0].starts_with("line 2: bad distance"));
    }

    #[test]
    fn damaged_version_line_is_still_verified() {
        let mut buf = Vec::new();
        save_checkpoint(&mut buf, &[], many_edges(100)).expect("write");
        // `#! ckpt_version=2` -> `#! dkpt_version=2`: no version line is
        // left, but the CRC markers still make it a v2 file, and none of
        // them verifies any more.
        buf[3] ^= 0x07;
        assert!(buf.starts_with(b"#! dkpt_version=2\n"));
        assert!(load_checkpoint(&buf[..]).is_err());
        let err = load_checkpoint_lenient(&buf[..]).expect_err("nothing verifies");
        assert!(err.to_string().contains("no CRC-verifiable prefix"));
    }

    #[test]
    fn unsupported_version_is_an_error() {
        let text = "#! ckpt_version=3\n0,1,0.5\n";
        assert!(load_checkpoint(text.as_bytes()).is_err());
        assert!(load_checkpoint_lenient(text.as_bytes()).is_err());
    }

    #[test]
    fn full_verification_roundtrips_through_files() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prox-ckpt-v2-{}.csv", std::process::id()));
        write_checkpoint_file(&path, &sample_manifest(), many_edges(100)).expect("write");
        let strict = read_checkpoint_file(&path).expect("verifies");
        let lenient = read_checkpoint_file_lenient(&path).expect("verifies");
        assert!(!lenient.recovered);
        assert_eq!(lenient.dropped_lines, 0);
        assert_eq!(strict, lenient.checkpoint);
        assert_eq!(strict.known, many_edges(100));
        fs::remove_file(&path).expect("cleanup");
    }
}
