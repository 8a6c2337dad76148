//! The yardstick: a fixed piece of graph traversal the benchmark owns, timed
//! beside every round to say how fast the machine is *right then*.
//!
//! This sandbox's speed drifts by tens of percent in phases that last
//! minutes (neighbours' memory traffic), longer than a run, so no median
//! inside a run can remove it. The yardstick can: an in-memory,
//! single-thread BFS over a synthetic graph of the benchmark's own (memory
//! latency and bandwidth) followed by a loop of hashing (the ALU) — the same
//! work in every run, nothing of the `blaze-*` crates in it — and a round's
//! times are rescaled by how fast the yardstick ran just before and just
//! after it (see [`Speed`]). A later PR cannot move it, and a slow phase
//! moves it and the engine nearly alike: over sets of ten runs in which the
//! raw times of the unpaced workloads spread by 6–21 % of their median, the
//! rescaled ones spread by 2–7 % (`README.md` has the runs).

use std::time::Instant;

use crate::workload::splitmix;

/// Out-edges per vertex; with the vertex count of the workload's graph this
/// gives the yardstick the same adjacency size as the graphs under test.
const DEGREE: usize = 16;
/// Seed of the synthetic graph: a constant, so every run does the same work.
const SEED: u64 = 0x7961_7264_7374_6963;
/// Hashing steps per vertex after the traversal: about three tenths of the
/// yardstick's time, as the engine, too, computes as well as it fetches.
/// (The traversal alone swings more with the machine's phases than the
/// engine does, and rescaling by it overcorrects.)
const HASHES_PER_VERTEX: usize = 40;

/// The machine speed the time-based metrics are rescaled to, as the
/// yardstick's edge rate: what this sandbox reaches in a quiet phase.
pub const NOMINAL_MEDGES_PER_S: f64 = 80.0;

pub struct Yardstick {
    /// `DEGREE` random targets per vertex, vertex after vertex.
    targets: Vec<u32>,
    level: Vec<i64>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// The latest timing: the `before` of the next [`Yardstick::lap`].
    last: f64,
}

impl Yardstick {
    /// A uniform random graph of 2^`scale` vertices.
    pub fn new(scale: u32) -> Yardstick {
        let n = 1usize << scale;
        let mut rng = SEED;
        let mut yardstick = Yardstick {
            targets: (0..n * DEGREE)
                .map(|_| (splitmix(&mut rng) % n as u64) as u32)
                .collect(),
            level: vec![-1; n],
            frontier: Vec::new(),
            next: Vec::new(),
            last: 0.0,
        };
        yardstick.traverse(); // untimed: touches its memory
        yardstick.lap();
        yardstick
    }

    /// One BFS from vertex 0; returns `(edges traversed, vertices reached)`.
    fn traverse(&mut self) -> (u64, u64) {
        self.level.fill(-1);
        self.level[0] = 0;
        self.frontier.clear();
        self.frontier.push(0);
        let (mut edges, mut reached, mut depth) = (0u64, 1u64, 0i64);
        while !self.frontier.is_empty() {
            depth += 1;
            self.next.clear();
            for &v in &self.frontier {
                let at = v as usize * DEGREE;
                for &d in &self.targets[at..at + DEGREE] {
                    if self.level[d as usize] == -1 {
                        self.level[d as usize] = depth;
                        self.next.push(d);
                    }
                }
                edges += DEGREE as u64;
            }
            reached += self.next.len() as u64;
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        (edges, reached)
    }

    /// Times the yardstick and returns the machine's speed around whatever
    /// ran since the previous call. Work that follows other work at once
    /// shares a timing with it; after a pause, call this first and drop the
    /// result.
    pub fn lap(&mut self) -> Speed {
        let after = self.medges_per_s();
        let speed = Speed {
            before: self.last,
            after,
        };
        self.last = after;
        speed
    }

    /// Times the yardstick once: M traversed edges per second.
    fn medges_per_s(&mut self) -> f64 {
        let start = Instant::now();
        let (edges, _) = self.traverse();
        let mut state = SEED;
        let mut sum = 0u64;
        for _ in 0..self.level.len() * HASHES_PER_VERTEX {
            sum = sum.wrapping_add(splitmix(&mut state));
        }
        std::hint::black_box(sum);
        edges as f64 / 1e6 / start.elapsed().as_secs_f64()
    }
}

/// The machine's speed around one round: the yardstick just before and just
/// after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    pub before: f64,
    pub after: f64,
}

impl Speed {
    pub fn medges_per_s(self) -> f64 {
        (self.before + self.after) / 2.0
    }

    /// What a time measured in the round is multiplied by to read as if the
    /// machine ran at [`NOMINAL_MEDGES_PER_S`]: below 1 in a slow phase.
    /// Rates are divided by it.
    pub fn time_factor(self) -> f64 {
        self.medges_per_s() / NOMINAL_MEDGES_PER_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_work_every_time() {
        let (mut a, mut b) = (Yardstick::new(10), Yardstick::new(10));
        let first = a.traverse();
        assert_eq!(first, a.traverse(), "a second traversal starts afresh");
        assert_eq!(first, b.traverse(), "the graph is a constant");
        let (edges, reached) = first;
        assert_eq!(edges, reached * DEGREE as u64);
        assert!(reached > 1000, "degree 16 reaches nearly every vertex");
        let first_lap = a.lap();
        assert!(first_lap.before > 0.0 && first_lap.after > 0.0);
        assert_eq!(a.lap().before, first_lap.after, "laps share a timing");
    }

    #[test]
    fn a_slow_phase_shrinks_times_and_a_quiet_one_leaves_them() {
        let quiet = Speed {
            before: NOMINAL_MEDGES_PER_S,
            after: NOMINAL_MEDGES_PER_S,
        };
        assert_eq!(quiet.time_factor(), 1.0);
        let slow = Speed {
            before: 0.5 * NOMINAL_MEDGES_PER_S,
            after: 0.7 * NOMINAL_MEDGES_PER_S,
        };
        assert!((slow.time_factor() - 0.6).abs() < 1e-12);
    }
}
