//! Parallel sweep helpers.
//!
//! Every cell of a paper sweep (Figure 5/6 grids, Table 1 rows) is an
//! independent single-threaded simulation, so the harness parallelizes at
//! the cell level: a bounded worker pool pulls cell indices from an atomic
//! counter, and results are reassembled in input order, keeping output
//! deterministic regardless of completion order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` on a pool of scoped worker threads (at most one
/// per available core). Results come back in input order.
pub fn par_map<A, R, F>(items: &[A], f: F) -> Vec<R>
where
    A: Sync,
    R: Send,
    F: Fn(&A) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (f, next) = (&f, &next);
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        got.push((i, f(&items[i])));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Evaluate `f` over the full `rows × cols` grid, all cells in parallel,
/// returning one `(row, Vec<(col as f64, value)>)` entry per row — the
/// shape every figure sweep consumes.
pub(crate) fn par_grid<A, B, F>(rows: &[A], cols: &[B], f: F) -> Vec<(A, Vec<(f64, f64)>)>
where
    A: Sync + Send + Copy,
    B: Sync + Send + Copy + Into<f64>,
    F: Fn(&A, &B) -> f64 + Sync,
{
    let cells: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|r| (0..cols.len()).map(move |c| (r, c)))
        .collect();
    let vals = par_map(&cells, |&(r, c)| f(&rows[r], &cols[c]));
    rows.iter()
        .enumerate()
        .map(|(r, &a)| {
            let pts = cols
                .iter()
                .enumerate()
                .map(|(c, &b)| (b.into(), vals[r * cols.len() + c]))
                .collect();
            (a, pts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_grid_shapes_rows_and_cols() {
        let rows = [1u32, 2, 3];
        let cols = [10.0f64, 20.0];
        let out = par_grid(&rows, &cols, |&r, &c| r as f64 * c);
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].0, 2);
        assert_eq!(out[1].1, vec![(10.0, 20.0), (20.0, 40.0)]);
    }
}
