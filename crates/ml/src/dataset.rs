//! Dense matrices and supervised datasets.

use serde::{Deserialize, Serialize};

use pv_stats::StatsError;

use crate::Result;

/// A dense, row-major `f64` matrix.
///
/// The crate's common currency for features (`n × d`) and multi-output
/// targets (`n × t`). Row-major layout keeps per-sample access — the hot
/// pattern in kNN and tree training — contiguous.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// Fails when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(StatsError::invalid(
                "DenseMatrix",
                format!("expected {} values, got {}", rows * cols, data.len()),
            ));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Errors
    /// Fails when rows have inconsistent widths or the input is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "DenseMatrix::from_rows",
                needed: 1,
                got: 0,
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(StatsError::invalid(
                    "DenseMatrix::from_rows",
                    format!("row {i} has {} values, expected {cols}", r.len()),
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by copying borrowed row slices.
    ///
    /// The fold-runner assembles training sets as slices borrowed from a
    /// precomputed corpus cache; this constructor turns them into an owned
    /// matrix with a single copy (no intermediate `Vec<Vec<f64>>`).
    ///
    /// # Errors
    /// Fails when rows have inconsistent widths or the input is empty.
    pub fn from_row_refs(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "DenseMatrix::from_row_refs",
                needed: 1,
                got: 0,
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(StatsError::invalid(
                    "DenseMatrix::from_row_refs",
                    format!("row {i} has {} values, expected {cols}", r.len()),
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable row view.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row view.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Copies out one column.
    pub fn column(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// A supervised dataset: features and multi-output targets, one row per
/// sample.
///
/// Which rows a fold trains on is decided before a dataset is built (the
/// leave-one-group-out include sets of `pv_core::pipeline::FoldRunner`),
/// so the dataset carries no group labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Feature matrix, `n × d`.
    pub x: DenseMatrix,
    /// Target matrix, `n × t`.
    pub y: DenseMatrix,
}

impl Dataset {
    /// Bundles features and targets into a dataset.
    ///
    /// # Errors
    /// Fails when row counts disagree or the dataset is empty.
    pub fn new(x: DenseMatrix, y: DenseMatrix) -> Result<Self> {
        if x.rows() == 0 {
            return Err(StatsError::EmptyInput {
                what: "Dataset",
                needed: 1,
                got: 0,
            });
        }
        if x.rows() != y.rows() {
            return Err(StatsError::invalid(
                "Dataset",
                format!("row mismatch: x={}, y={}", x.rows(), y.rows()),
            ));
        }
        Ok(Dataset { x, y })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// Whether the dataset has no rows (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Number of target outputs.
    pub fn n_outputs(&self) -> usize {
        self.y.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let x = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let y = DenseMatrix::from_rows(&[vec![10.0], vec![20.0], vec![30.0]]).unwrap();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn from_flat_validates_shape() {
        assert!(DenseMatrix::from_flat(2, 2, vec![1.0; 4]).is_ok());
        assert!(DenseMatrix::from_flat(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(DenseMatrix::from_rows(&[]).is_err());
    }

    #[test]
    fn row_and_column_access() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn set_and_row_mut() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 7.0);
    }

    #[test]
    fn dataset_shape_checks() {
        let d = sample_dataset();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_outputs(), 1);
        assert!(!d.is_empty());

        let x = DenseMatrix::zeros(2, 2);
        let y = DenseMatrix::zeros(3, 1);
        assert!(Dataset::new(x, y).is_err());
    }

    #[test]
    fn from_row_refs_matches_from_rows() {
        let owned = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let refs: Vec<&[f64]> = owned.iter().map(|r| r.as_slice()).collect();
        assert_eq!(
            DenseMatrix::from_row_refs(&refs).unwrap(),
            DenseMatrix::from_rows(&owned).unwrap()
        );
        let ragged: Vec<&[f64]> = vec![&[1.0], &[1.0, 2.0]];
        assert!(DenseMatrix::from_row_refs(&ragged).is_err());
        assert!(DenseMatrix::from_row_refs(&[]).is_err());
    }
}
