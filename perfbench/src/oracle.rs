//! The benchmark's own correctness oracle: exact brute-force top-k over
//! f32, written here rather than taken from the program, plus the checks
//! every workload applies to the neighbor lists the program returns.

use ann_core::{Neighbor, VecSet};

/// Exact top-`k` ids of every query over `points` (whose ids are `ids`),
/// by squared L2 distance with ties broken by the smaller id. Queries are
/// split over `threads` scoped threads.
pub fn brute_force(
    points: &VecSet<f32>,
    ids: &[u64],
    queries: &VecSet<f32>,
    k: usize,
    threads: usize,
) -> Vec<Vec<u64>> {
    assert_eq!(points.len(), ids.len(), "one id per point");
    let nq = queries.len();
    let per = nq.div_ceil(threads.max(1)).max(1);
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); nq];
    std::thread::scope(|s| {
        for (c, chunk) in out.chunks_mut(per).enumerate() {
            s.spawn(move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = exact_topk(points, ids, queries.get(c * per + j), k);
                }
            });
        }
    });
    out
}

fn exact_topk(points: &VecSet<f32>, ids: &[u64], q: &[f32], k: usize) -> Vec<u64> {
    // (dist, id) pairs kept sorted ascending; k is small.
    let mut best: Vec<(f32, u64)> = Vec::with_capacity(k + 1);
    for (p, &id) in points.iter().zip(ids) {
        let mut d = 0.0f32;
        for (a, b) in p.iter().zip(q) {
            let t = a - b;
            d += t * t;
        }
        if best.len() == k {
            let (wd, wid) = best[k - 1];
            if d > wd || (d == wd && id > wid) {
                continue;
            }
        }
        let pos = best.partition_point(|&(bd, bid)| bd < d || (bd == d && bid < id));
        best.insert(pos, (d, id));
        best.truncate(k);
    }
    best.into_iter().map(|(_, id)| id).collect()
}

/// Mean recall@k of `results` against `truth`.
pub fn recall(results: &[&[Neighbor]], truth: &[Vec<u64>], k: usize) -> f64 {
    assert_eq!(results.len(), truth.len());
    let hits: usize = results
        .iter()
        .zip(truth)
        .map(|(r, t)| r.iter().take(k).filter(|n| t.contains(&n.id)).count())
        .sum();
    hits as f64 / (k * truth.len()).max(1) as f64
}

/// A neighbor list is well formed when it holds exactly `k` distinct ids,
/// each accepted by `valid_id`, in non-decreasing distance order.
pub fn check_list(
    list: &[Neighbor],
    k: usize,
    valid_id: impl Fn(u64) -> bool,
) -> Result<(), String> {
    if list.len() != k {
        return Err(format!("{} neighbors, expected {k}", list.len()));
    }
    for (i, n) in list.iter().enumerate() {
        if !valid_id(n.id) {
            return Err(format!("id {} was never a live corpus id", n.id));
        }
        if list[..i].iter().any(|m| m.id == n.id) {
            return Err(format!("id {} appears twice", n.id));
        }
        if i > 0 && list[i - 1].dist > n.dist {
            return Err(format!("not sorted by distance at rank {i}"));
        }
    }
    Ok(())
}

/// Bit-exact equality of two neighbor lists (ids and distance bits).
pub fn same_bits(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_orders_by_distance_then_id() {
        let pts = VecSet::from_flat(1, vec![5.0, 1.0, 3.0, 1.0, 9.0]);
        let ids: Vec<u64> = (0..5).collect();
        let q = VecSet::from_flat(1, vec![2.0]);
        // distances: 9, 1, 1, 1, 49 -> ids 1, 2, 3 tie at 1
        assert_eq!(brute_force(&pts, &ids, &q, 3, 2), vec![vec![1, 2, 3]]);
        assert_eq!(brute_force(&pts, &ids, &q, 4, 1), vec![vec![1, 2, 3, 0]]);
    }

    #[test]
    fn list_checks_reject_duplicates_and_disorder() {
        let n = |id, d| Neighbor::new(id, d);
        assert!(check_list(&[n(1, 0.5), n(2, 1.0)], 2, |_| true).is_ok());
        assert!(check_list(&[n(1, 0.5), n(1, 1.0)], 2, |_| true).is_err());
        assert!(check_list(&[n(1, 1.5), n(2, 1.0)], 2, |_| true).is_err());
        assert!(check_list(&[n(1, 0.5)], 2, |_| true).is_err());
        assert!(check_list(&[n(1, 0.5), n(7, 1.0)], 2, |id| id < 5).is_err());
    }
}
