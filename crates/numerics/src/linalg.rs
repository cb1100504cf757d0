//! Small dense and tridiagonal linear solvers.
//!
//! The band-profile / 1-D Poisson problems of the device simulator are
//! tridiagonal; polynomial fitting needs small dense solves. Nothing here is
//! tuned for large matrices — the workspace never needs them.
//!
//! # Example
//!
//! ```
//! use gnr_numerics::linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
//! let x = a.solve(&[5.0, 10.0]).unwrap();
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
//! ```

use crate::{NumericsError, Result};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] when rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(NumericsError::InvalidInput(
                "matrix must be non-empty".into(),
            ));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(NumericsError::InvalidInput("ragged rows".into()));
        }
        let mut m = Self::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            m.data[i * cols..(i + 1) * cols].copy_from_slice(r);
        }
        Ok(m)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Solves `A x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] for a non-square `A` or mismatched
    /// `b`; [`NumericsError::SingularMatrix`] when a pivot vanishes.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(NumericsError::InvalidInput(format!(
                "solve requires a square matrix, got {}x{}",
                self.rows, self.cols
            )));
        }
        if b.len() != self.rows {
            return Err(NumericsError::InvalidInput(format!(
                "rhs length {} does not match {} rows",
                b.len(),
                self.rows
            )));
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in col + 1..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(NumericsError::SingularMatrix { pivot: col });
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            let inv = 1.0 / a[col * n + col];
            for r in col + 1..n {
                let factor = a[r * n + col] * inv;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= factor * a[col * n + j];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in col + 1..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }
}

/// Solves a tridiagonal system with the Thomas algorithm.
///
/// `sub[0]` and `sup[n-1]` are ignored (conventional padding).
///
/// # Errors
///
/// [`NumericsError::InvalidInput`] for mismatched lengths;
/// [`NumericsError::SingularMatrix`] when elimination breaks down.
pub fn solve_tridiagonal(sub: &[f64], diag: &[f64], sup: &[f64], rhs: &[f64]) -> Result<Vec<f64>> {
    let n = diag.len();
    if n == 0 {
        return Err(NumericsError::InvalidInput("empty system".into()));
    }
    if sub.len() != n || sup.len() != n || rhs.len() != n {
        return Err(NumericsError::InvalidInput(
            "sub/diag/sup/rhs must have equal lengths".into(),
        ));
    }
    let mut c = vec![0.0; n];
    let mut d = vec![0.0; n];
    if diag[0].abs() < 1e-300 {
        return Err(NumericsError::SingularMatrix { pivot: 0 });
    }
    c[0] = sup[0] / diag[0];
    d[0] = rhs[0] / diag[0];
    for i in 1..n {
        let denom = diag[i] - sub[i] * c[i - 1];
        if denom.abs() < 1e-300 {
            return Err(NumericsError::SingularMatrix { pivot: i });
        }
        c[i] = sup[i] / denom;
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / denom;
    }
    let mut x = vec![0.0; n];
    x[n - 1] = d[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = d[i] - c[i] * x[i + 1];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_solve_identity() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        assert_eq!(a.solve(&[3.0, -4.0]).unwrap(), vec![3.0, -4.0]);
    }

    #[test]
    fn dense_solve_requires_pivoting() {
        // Zero leading pivot forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 5.0]).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn dense_solve_3x3() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (xi, ei) in x.iter().zip(&expect) {
            assert!((xi - ei).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(NumericsError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn tridiagonal_matches_dense() {
        let sub = [0.0, 1.0, 2.0, 1.0];
        let diag = [4.0, 5.0, 6.0, 5.0];
        let sup = [1.0, 2.0, 1.0, 0.0];
        let rhs = [6.0, 12.0, 18.0, 11.0];
        let x = solve_tridiagonal(&sub, &diag, &sup, &rhs).unwrap();
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0, 0.0],
            &[1.0, 5.0, 2.0, 0.0],
            &[0.0, 2.0, 6.0, 1.0],
            &[0.0, 0.0, 1.0, 5.0],
        ])
        .unwrap();
        let xd = a.solve(&rhs).unwrap();
        for (xi, di) in x.iter().zip(&xd) {
            assert!((xi - di).abs() < 1e-12);
        }
    }

    #[test]
    fn tridiagonal_length_mismatch_rejected() {
        assert!(solve_tridiagonal(&[0.0], &[1.0, 2.0], &[0.0, 0.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }
}
