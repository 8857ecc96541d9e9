//! A 2-d uniform grid index: the surrogate stratification of the SSP
//! baseline (paper §3.1). The paper grids the 2-d attribute space into
//! the desired number of strata; [`GridIndex::assignments`] yields the
//! stratum id per row.

use crate::error::{TableError, TableResult};

/// A uniform grid over the bounding box of a 2-d point set, kept as
/// the cell each point falls in.
#[derive(Debug, Clone)]
pub struct GridIndex {
    nx: usize,
    ny: usize,
    /// Cell id per indexed row, row-major (`cy * nx + cx`).
    assignments: Vec<usize>,
}

impl GridIndex {
    /// Build an `nx × ny` grid over the points `(xs[i], ys[i])`.
    ///
    /// # Errors
    ///
    /// Returns an error if the slices are empty, of different lengths, or
    /// if `nx`/`ny` are zero.
    pub fn build(xs: &[f64], ys: &[f64], nx: usize, ny: usize) -> TableResult<Self> {
        if xs.is_empty() {
            return Err(TableError::Empty);
        }
        if xs.len() != ys.len() {
            return Err(TableError::LengthMismatch {
                expected: xs.len(),
                found: ys.len(),
            });
        }
        if nx == 0 || ny == 0 {
            return Err(TableError::InvalidExpression {
                message: "grid dimensions must be positive".into(),
            });
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for (&x, &y) in xs.iter().zip(ys) {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        // Degenerate extents still get a valid 1-wide bucket.
        let inv_wx = 1.0 / ((max_x - min_x) / nx as f64).max(f64::MIN_POSITIVE);
        let inv_wy = 1.0 / ((max_y - min_y) / ny as f64).max(f64::MIN_POSITIVE);
        // Points on the upper edges clamp into the last cell.
        let assignments = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| {
                let cx = (((x - min_x) * inv_wx) as usize).min(nx - 1);
                let cy = (((y - min_y) * inv_wy) as usize).min(ny - 1);
                cy * nx + cx
            })
            .collect();
        Ok(Self {
            nx,
            ny,
            assignments,
        })
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Cell (stratum) id per indexed row — the SSP surrogate strata.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignments_cover_all_rows() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 1.0, 2.0, 3.0, 4.0];
        let g = GridIndex::build(&xs, &ys, 2, 2).unwrap();
        let a = g.assignments();
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|&c| c < g.num_cells()));
        // Corner points land in opposite corner cells.
        assert_ne!(a[0], a[4]);
    }

    #[test]
    fn degenerate_extent_is_fine() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [2.0, 2.0, 2.0];
        let g = GridIndex::build(&xs, &ys, 3, 3).unwrap();
        let a = g.assignments();
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&c| c == a[0]));
    }

    #[test]
    fn build_rejects_bad_input() {
        assert!(GridIndex::build(&[], &[], 2, 2).is_err());
        assert!(GridIndex::build(&[1.0], &[1.0, 2.0], 2, 2).is_err());
        assert!(GridIndex::build(&[1.0], &[1.0], 0, 2).is_err());
    }

    #[test]
    fn cell_ids_are_stable_and_clamped() {
        let xs = [0.0, 10.0, 4.9];
        let ys = [0.0, 10.0, 5.1];
        let g = GridIndex::build(&xs, &ys, 4, 4).unwrap();
        assert_eq!(g.num_cells(), 16);
        // The maximum lands in the last cell, not past it; (4.9, 5.1)
        // is cell (1, 2) of cells 2.5 wide.
        assert_eq!(g.assignments(), &[0, 15, 2 * 4 + 1]);
    }
}
