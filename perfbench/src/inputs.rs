//! Seeded input generation. Everything the system under test receives is
//! made here from the run's `--seed`: the same seed gives byte-identical
//! trajectories, points and schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tmn_data::{Dataset, DatasetConfig, DatasetKind};
use tmn_traj::{Point, Trajectory};

/// Distinct sub-seeds for the independent streams one run draws from, so
/// that changing one stream's length never shifts another's values.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    tmn_index::splitmix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `count` normalized trajectories of 16–96 points from the repository's
/// generator, train and test halves concatenated.
pub fn trajectories(kind: DatasetKind, count: usize, seed: u64) -> Vec<Trajectory> {
    let ds = Dataset::generate(&DatasetConfig::new(kind, count, seed));
    let mut all = ds.train;
    all.extend(ds.test);
    assert_eq!(
        all.len(),
        count,
        "generator returned {} of {count} trajectories",
        all.len()
    );
    all
}

/// Split `all` into consecutive parts of the given sizes.
pub fn split(mut all: Vec<Trajectory>, sizes: &[usize]) -> Vec<Vec<Trajectory>> {
    assert_eq!(
        all.len(),
        sizes.iter().sum::<usize>(),
        "split sizes must cover the input"
    );
    let mut parts = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let rest = all.split_off(n);
        parts.push(std::mem::replace(&mut all, rest));
    }
    parts
}

/// The next GPS point of a trajectory that keeps moving: its last step
/// repeated, plus noise of a tenth of that step.
pub fn next_point(traj: &Trajectory, rng: &mut StdRng) -> Point {
    let pts = traj.points();
    let last = pts[pts.len() - 1];
    let prev = if pts.len() > 1 {
        pts[pts.len() - 2]
    } else {
        last
    };
    let (dx, dy) = (last.lon - prev.lon, last.lat - prev.lat);
    let scale = (dx.abs() + dy.abs()).max(1e-3) * 0.1;
    Point {
        lon: last.lon + dx + scale * (rng.gen::<f64>() - 0.5),
        lat: last.lat + dy + scale * (rng.gen::<f64>() - 0.5),
    }
}

/// Uniform choice in `0..n` for each of `len` draws.
pub fn picks(n: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..n)).collect()
}

/// Bernoulli draws: `true` with probability `p`.
pub fn coins(p: f64, len: usize, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<f64>() < p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Little-endian bytes of every coordinate, for byte-level comparison.
    fn to_bytes(trajs: &[Trajectory]) -> Vec<u8> {
        let mut out = Vec::new();
        for t in trajs {
            out.extend_from_slice(&(t.len() as u64).to_le_bytes());
            for p in t.points() {
                out.extend_from_slice(&p.lon.to_le_bytes());
                out.extend_from_slice(&p.lat.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = trajectories(DatasetKind::PortoLike, 300, 11);
        let b = trajectories(DatasetKind::PortoLike, 300, 11);
        assert_eq!(to_bytes(&a), to_bytes(&b));
        let c = trajectories(DatasetKind::PortoLike, 300, 12);
        assert_ne!(to_bytes(&a), to_bytes(&c));
        assert!(a.iter().all(|t| (16..=96).contains(&t.len())));

        let g = trajectories(DatasetKind::GeolifeLike, 120, 11);
        assert_eq!(
            to_bytes(&g),
            to_bytes(&trajectories(DatasetKind::GeolifeLike, 120, 11))
        );

        let mut r1 = StdRng::seed_from_u64(sub_seed(11, 3));
        let mut r2 = StdRng::seed_from_u64(sub_seed(11, 3));
        let p1 = next_point(&a[0], &mut r1);
        let p2 = next_point(&a[0], &mut r2);
        assert_eq!(
            (p1.lon.to_bits(), p1.lat.to_bits()),
            (p2.lon.to_bits(), p2.lat.to_bits())
        );
        assert_eq!(picks(50, 100, 5), picks(50, 100, 5));
        assert_eq!(coins(0.3, 100, 5), coins(0.3, 100, 5));
        assert_eq!(
            crate::load::poisson_offsets(800.0, 1.0, 5),
            crate::load::poisson_offsets(800.0, 1.0, 5)
        );
    }

    #[test]
    fn split_keeps_order() {
        let a = trajectories(DatasetKind::PortoLike, 30, 1);
        let bytes = to_bytes(&a);
        let parts = split(a, &[10, 5, 15]);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![10, 5, 15]
        );
        assert_eq!(to_bytes(&parts.concat()), bytes);
    }
}
