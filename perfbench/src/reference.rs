//! A fixed reference job, timed between the workload's timed units.
//!
//! On a shared host, other tenants slow this process by up to 2-3x for
//! seconds to minutes at a time, far more than the changes the benchmark
//! has to resolve. The reference job shares no code with the repository
//! (a sort and an ordered-map workload, which the same contention slows
//! about as much as it slows the simulator), so the ratio of a unit's
//! time to the reference job's time stays put while both swing. Host
//! times are reported at reference speed: measured seconds ×
//! `NOMINAL_S` ÷ the median reference time of the same passes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference job's time at reference speed, in seconds (about its
/// median on a 2-vCPU Xeon guest of a busy host).
pub const NOMINAL_S: f64 = 0.0065;

/// Keys sorted per job.
const SORT_KEYS: usize = 1 << 16;

/// Ordered-map inserts and range lookups per job.
const MAP_OPS: u64 = 20_000;

/// The job's checksum, the same on every call.
const CHECKSUM: u64 = 0x0b2a_4fc3_de35_90c6;

/// Runs the reference job once and returns its host seconds.
///
/// # Panics
///
/// Panics if the job's checksum is wrong: the job must do the same work
/// on every call.
pub fn time_job() -> f64 {
    let t0 = Instant::now();
    let sum = job(black_box(SORT_KEYS), black_box(MAP_OPS));
    let took = t0.elapsed().as_secs_f64();
    assert_eq!(sum, CHECKSUM, "the reference job must repeat exactly");
    took
}

/// Sorts `keys` pseudo-random words, then inserts and looks up `ops`
/// keys in an ordered map; returns a checksum over both.
fn job(keys: usize, ops: u64) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut words: Vec<u64> = (0..keys).map(|_| next()).collect();
    words.sort_unstable();
    let mut sum = words[keys / 2] ^ words[keys / 3];
    let mut map = BTreeMap::new();
    for i in 0..ops {
        map.insert(next() % 100_000, i);
    }
    for i in 0..ops {
        let (k, v) = map
            .range(i * 7 % 100_000..)
            .next()
            .map_or((0, 0), |(k, v)| (*k, *v));
        sum = sum.rotate_left(5) ^ k ^ v;
    }
    black_box(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_repeats_exactly() {
        assert_eq!(job(SORT_KEYS, MAP_OPS), CHECKSUM);
        assert_eq!(job(SORT_KEYS, MAP_OPS), CHECKSUM);
        assert_ne!(job(SORT_KEYS, MAP_OPS - 1), CHECKSUM);
    }
}
