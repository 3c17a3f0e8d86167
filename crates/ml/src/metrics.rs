//! Regression quality metrics (multi-output aware).

use pv_stats::StatsError;

use crate::dataset::DenseMatrix;
use crate::Result;

fn check_shapes(what: &'static str, a: &DenseMatrix, b: &DenseMatrix) -> Result<()> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return Err(StatsError::invalid(
            what,
            format!(
                "shape mismatch: {}×{} vs {}×{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        ));
    }
    if a.rows() == 0 {
        return Err(StatsError::EmptyInput {
            what,
            needed: 1,
            got: 0,
        });
    }
    Ok(())
}

/// Mean squared error over every (row, output) cell.
///
/// # Errors
/// Fails on shape mismatch or empty input.
pub fn mse(truth: &DenseMatrix, pred: &DenseMatrix) -> Result<f64> {
    check_shapes("mse", truth, pred)?;
    let n = (truth.rows() * truth.cols()) as f64;
    Ok(truth
        .as_slice()
        .iter()
        .zip(pred.as_slice())
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[Vec<f64>]) -> DenseMatrix {
        DenseMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn perfect_prediction_scores() {
        let t = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(mse(&t, &t).unwrap(), 0.0);
    }

    #[test]
    fn known_mse() {
        let t = m(&[vec![0.0], vec![0.0]]);
        let p = m(&[vec![1.0], vec![-3.0]]);
        assert!((mse(&t, &p).unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = m(&[vec![1.0]]);
        let b = m(&[vec![1.0, 2.0]]);
        assert!(mse(&a, &b).is_err());
    }
}
