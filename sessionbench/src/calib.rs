//! Host-speed calibration.
//!
//! The benchmark shares a virtual machine's CPUs with other tenants, and
//! their load changes how fast the same code runs by up to 1.5× over
//! spells of seconds to minutes. Two kinds of load were seen, and they
//! come and go apart: one slows code that allocates and walks maps and
//! buffers (the fleet, the engine, the codec), the other slows tight
//! arithmetic (the per-session `VideoId::of` hash). Two fixed kernels of
//! the benchmark's own code, one of each kind, are timed between measured
//! rounds on the same thread; weighted by the share of each kind in a
//! workload ([`crate::run::Workload::MEMORY_SHARE`]), they tell how much
//! slower than the reference host the host ran that round, and the
//! round's times are divided by that [`slowdown`]. The program under test
//! never runs inside a kernel, so a change to the program moves the
//! rescaled figures and a change of host load does not.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::mix;

/// [`compute_kernel`]'s time on the reference host, a 2-vCPU Xeon
/// virtual machine in a quiet spell. Rescaled figures read in seconds of
/// that host.
pub const COMPUTE_REFERENCE_S: f64 = 0.52e-3;

/// [`memory_kernel`]'s time on the reference host.
pub const MEMORY_REFERENCE_S: f64 = 0.80e-3;

/// Tight integer arithmetic on registers: a fixed xorshift walk.
pub fn compute_kernel(salt: u64) -> u64 {
    let mut x = salt | 1;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x % 1_000_003);
    }
    acc
}

/// A fixed amount of allocation, string formatting, hashing and ordered
/// map work.
pub fn memory_kernel(salt: u64) -> u64 {
    let mut ordered = BTreeMap::new();
    let mut hashed: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..3000 {
        let k = mix(salt, i);
        ordered.insert(k % 4096, i);
        hashed.entry(format!("s{}", k % 512)).or_default().push(i);
    }
    let found: u64 = (0..3000)
        .filter_map(|i| ordered.get(&(mix(salt, i) % 4096)))
        .sum();
    found + hashed.len() as u64
}

fn time(kernel: fn(u64) -> u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel(std::hint::black_box(7)));
    t.elapsed().as_secs_f64()
}

/// Both kernels timed once, each as a multiple of its reference time.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    compute: f64,
    memory: f64,
}

impl Sample {
    /// The reference host: both kernels at their reference times.
    pub const REFERENCE: Sample = Sample {
        compute: 1.0,
        memory: 1.0,
    };

    /// Times both kernels now.
    pub fn take() -> Sample {
        Sample {
            compute: time(compute_kernel) / COMPUTE_REFERENCE_S,
            memory: time(memory_kernel) / MEMORY_REFERENCE_S,
        }
    }
}

/// How many times slower than the reference host the host ran between
/// samples `before` and `after`, for work of which `memory_share` is of
/// the memory kind: each kernel's mean of the two samples, weighted by
/// its share. Wall seconds divided by it are reference-host seconds.
pub fn slowdown(before: Sample, after: Sample, memory_share: f64) -> f64 {
    let compute = (before.compute + after.compute) / 2.0;
    let memory = (before.memory + after.memory) / 2.0;
    (1.0 - memory_share) * compute + memory_share * memory
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_weights_each_kernel_by_its_share() {
        let reference = Sample::REFERENCE;
        assert_eq!(slowdown(reference, reference, 0.25), 1.0);
        let slow_memory = Sample {
            compute: 1.0,
            memory: 2.0,
        };
        assert_eq!(slowdown(reference, slow_memory, 0.0), 1.0);
        assert_eq!(slowdown(reference, slow_memory, 1.0), 1.5);
        assert_eq!(slowdown(slow_memory, slow_memory, 0.5), 1.5);
    }
}
