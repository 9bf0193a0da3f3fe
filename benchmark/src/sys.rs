//! Process-level measurements read from `/proc`, plus the stable digest
//! the output checks pin.

use std::time::{SystemTime, UNIX_EPOCH};

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat`. Linux reports them in `USER_HZ`, which its ABI
/// fixes at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, summed over
/// all of its threads (exited threads included).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i - 3]
            .parse::<u64>()
            .expect("utime/stime are integers") as f64
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kb as f64 * 1024.0 / 1e6
}

/// Wall-clock time since the Unix epoch in nanoseconds. Used only to
/// measure across a process boundary (spawn to the timed part).
pub fn unix_nanos() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock is after 1970")
        .as_nanos()
}

/// 64-bit FNV-1a, fed incrementally. Stable across platforms and
/// releases, which `std`'s hashers do not promise.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a `u64` in little-endian byte order.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// Fold an `f64`'s exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
        assert_eq!(Digest::default().update(b"a").hex(), "af63dc4c8601ec8c");
        assert_eq!(
            Digest::default().update(b"foobar").hex(),
            "85944171f73967e8"
        );
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        let rss = peak_rss_mb();
        assert!(rss > 0.1 && rss < 100_000.0, "{rss}");
    }
}
