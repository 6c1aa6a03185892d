//! `geostreams-digest <chaos|crash|store|swarm|obs>`: seeded,
//! timing-free digests of the system's stateful paths.
//!
//! Each subcommand drives one path — the supervised runtime over a
//! degraded downlink, crash recovery of the archive, archive
//! persist/replay, shared-plan multicast, the traced chunked driver —
//! from fixed seeds and prints JSON lines that hold only what the seed
//! determines: counts, byte totals and FNV-1a hashes over every
//! delivered pixel or PNG byte. `scripts/determinism_gate.sh` runs each
//! subcommand twice and diffs the outputs, so nondeterminism anywhere
//! on those paths is a diff, and a change of behaviour is a changed
//! digest against the parent commit. Speed is not measured here: that
//! is geobench (`bench/`) and `scripts/perf_pairs.sh`.

mod chaos;
mod crash;
mod obs;
mod store;
mod swarm;

use std::path::PathBuf;
use std::process::ExitCode;

/// FNV-1a offset basis: the hash of nothing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a hash; a pixel value goes in as
/// the little-endian bytes of its bit pattern.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// An absent directory under the system's temporary directory, named
/// after this process so concurrent runs do not collide.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gs-digest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() -> ExitCode {
    let sub = std::env::args().nth(1);
    match sub.as_deref() {
        Some("chaos") => chaos::run(),
        Some("crash") => crash::run(),
        Some("store") => store::run(),
        Some("swarm") => swarm::run(),
        Some("obs") => println!("{}", obs::digest(256, 96, 24)),
        _ => {
            eprintln!("usage: geostreams-digest <chaos|crash|store|swarm|obs>");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b"", FNV_OFFSET), FNV_OFFSET);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
        // Folding is incremental: hashing in two steps is hashing once.
        assert_eq!(fnv1a(b"bar", fnv1a(b"foo", FNV_OFFSET)), fnv1a(b"foobar", FNV_OFFSET));
    }
}
