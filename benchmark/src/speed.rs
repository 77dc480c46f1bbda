//! The machine's speed, measured beside the workload by a fixed kernel.
//!
//! The benchmark runs on a few cores of a shared host whose neighbours
//! slow memory-bound code by up to 2× for minutes at a time; a 30-second
//! run cannot average that away. So the untraced run times a fixed
//! kernel between stretches of operations (a fifth of an `xmark-churn`
//! pass, an `imdb-mixed` pass, one document group of a `doc-load` round)
//! and scales each stretch's timings by `REFERENCE_NS / kernel time`: a
//! gated time reads as the time the operation would take on a machine
//! that runs the kernel in [`REFERENCE_NS`]. The kernel is the
//! benchmark's own code, built from a fixed seed and independent of
//! `--seed` and of every repository crate, so a change to the program
//! moves the scaled figures by as much as it moves the measured ones on
//! a steady machine.
//!
//! The kernel does what the indexes do most: hash-map lookups, ordered-map
//! lookups and walks over adjacency lists, over about 50 MiB, so that
//! contention for caches and memory slows it as it slows the program.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::Instant;

use crate::common::{median, Metrics};

/// The kernel's time on an unloaded machine (Intel Xeon, Sapphire Rapids,
/// 2 vCPUs of a shared VM host, 2.0 GHz), in nanoseconds.
pub const REFERENCE_NS: f64 = 20e6;

const MAP_KEYS: u64 = 1 << 20;
const TREE_KEYS: u64 = 1 << 19;
const ADJ_NODES: usize = 1 << 16;
/// Keys and lookups are drawn from `KEY_RANGE`, so most lookups miss.
const KEY_RANGE: u64 = 4 << 20;
const MAP_LOOKUPS: usize = 50_000;
const TREE_LOOKUPS: usize = 20_000;
const WALK_STEPS: usize = 100_000;

/// xorshift64: the kernel's own generator, so that it does not change
/// with the workload crate.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's data and the times of every sample taken.
pub struct Speed {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    tree: BTreeMap<u64, u64>,
    /// A random tree plus a fifth as many random cross edges.
    adj: Vec<Vec<u32>>,
    samples_ns: Vec<f64>,
}

impl Speed {
    pub fn new() -> Speed {
        let mut x = 0x5EED_5EED_5EED_5EED;
        let map = (0..MAP_KEYS)
            .map(|i| (next(&mut x) % KEY_RANGE, i))
            .collect();
        let tree = (0..TREE_KEYS)
            .map(|i| (next(&mut x) % KEY_RANGE, i))
            .collect();
        let mut adj = vec![Vec::new(); ADJ_NODES];
        for child in 1..ADJ_NODES {
            let parent = (next(&mut x) % child as u64) as usize;
            adj[parent].push(child as u32);
            adj[child].push(parent as u32);
        }
        for _ in 0..ADJ_NODES / 5 {
            let from = (next(&mut x) % ADJ_NODES as u64) as usize;
            adj[from].push((next(&mut x) % ADJ_NODES as u64) as u32);
        }
        Speed {
            map,
            tree,
            adj,
            samples_ns: Vec::new(),
        }
    }

    /// Runs the kernel once and records its time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = 0x0DD_BA11;
        let mut sum = 0u64;
        for _ in 0..MAP_LOOKUPS {
            sum = sum.wrapping_add(*self.map.get(&(next(&mut x) % KEY_RANGE)).unwrap_or(&1));
        }
        for _ in 0..TREE_LOOKUPS {
            sum = sum.wrapping_add(*self.tree.get(&(next(&mut x) % KEY_RANGE)).unwrap_or(&1));
        }
        let mut at = 0;
        for _ in 0..WALK_STEPS {
            let out = &self.adj[at];
            let to = out[(next(&mut x) % out.len() as u64) as usize] as usize;
            sum = sum.wrapping_add(to as u64);
            // Restart now and then, so the walk covers the whole graph.
            at = if next(&mut x) % 64 == 0 {
                (next(&mut x) % ADJ_NODES as u64) as usize
            } else {
                to
            };
        }
        std::hint::black_box(sum);
        self.samples_ns.push(t.elapsed().as_nanos() as f64);
    }

    /// The scale of each stretch between consecutive samples:
    /// [`REFERENCE_NS`] over the mean of the two samples around it.
    /// Multiply a time measured in the stretch by it, or divide a rate.
    pub fn scales(&self) -> Vec<f64> {
        self.samples_ns
            .windows(2)
            .map(|w| REFERENCE_NS * 2.0 / (w[0] + w[1]))
            .collect()
    }

    /// Prints the median kernel time and scale beside the metrics, so a
    /// reader can tell the measured times from the scaled ones.
    pub fn report(&self, extra: &mut Metrics) {
        extra.set("speed.kernel_ms", median(&self.samples_ns) / 1e6, "ms");
        extra.set("speed.scale", median(&self.scales()), "ratio");
    }
}

/// The median of `values[i] * scales[i]`.
pub fn scaled_median(values: &[f64], scales: &[f64]) -> f64 {
    assert_eq!(values.len(), scales.len(), "one scale per value");
    median(
        &values
            .iter()
            .zip(scales)
            .map(|(v, s)| v * s)
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_is_scaled_by_the_samples_around_it() {
        let mut speed = Speed::new();
        speed.samples_ns = vec![REFERENCE_NS, 3.0 * REFERENCE_NS, REFERENCE_NS];
        assert_eq!(speed.scales(), vec![0.5, 0.5]);
        assert_eq!(scaled_median(&[10.0, 30.0], &speed.scales()), 10.0);
        speed.sample();
        assert_eq!(speed.scales().len(), 3);
    }
}
