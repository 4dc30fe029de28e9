//! Sparse linear algebra powering the grid thermal model.
//!
//! The block-level compact model solves tiny dense systems (one node per
//! PE), but the validation-grade [`GridModel`] discretises the die into
//! `nx x ny` cells and its Laplacian is far too large for dense methods.
//! This crate provides the direct solvers that workload needs, dependency
//! free:
//!
//! * [`BandedMatrix`] — symmetric banded storage with stamp semantics (the
//!   grid Laplacian has bandwidth `nx`),
//! * [`BandedCholesky`] and [`BorderedBandedCholesky`] — cached direct
//!   factorisations for banded SPD systems and for banded systems with a
//!   few dense coupling rows (spreader/sink nodes), each with in-place
//!   `solve_into` for repeated right-hand sides.
//!
//! [`GridModel`]: https://docs.rs/tats_thermal
//!
//! # Examples
//!
//! ```
//! use tats_sparse::{BandedCholesky, BandedMatrix};
//!
//! # fn main() -> Result<(), tats_sparse::SparseError> {
//! // Assemble a 1-D conductance chain with a ground leak per node.
//! let n = 32;
//! let mut a = BandedMatrix::zeros(n, 1);
//! for i in 0..n {
//!     a.add(i, i, 0.05)?;
//! }
//! for i in 1..n {
//!     a.add(i - 1, i - 1, 1.0)?;
//!     a.add(i, i, 1.0)?;
//!     a.add(i, i - 1, -1.0)?;
//! }
//!
//! // Factor once, then solve in place.
//! let factor = BandedCholesky::new(&a)?;
//! let b = vec![1.0; n];
//! let mut x = b.clone();
//! factor.solve_into(&mut x)?;
//! for i in 0..n {
//!     let row: f64 = (i.saturating_sub(1)..(i + 2).min(n)).map(|j| a.get(i, j) * x[j]).sum();
//!     assert!((row - b[i]).abs() < 1e-10);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod banded;
mod bordered;
mod error;

pub use banded::{BandedCholesky, BandedMatrix};
pub use bordered::BorderedBandedCholesky;
pub use error::SparseError;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Assembles a random 2-D grid conductance system (5-point stencil with
    /// per-node ground leak) as a banded matrix.
    fn grid_matrix(nx: usize, ny: usize, leak: f64, coupling: f64) -> BandedMatrix {
        let n = nx * ny;
        let mut banded = BandedMatrix::zeros(n, nx);
        for i in 0..n {
            banded.add(i, i, leak).unwrap();
        }
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    banded.add(i, i, coupling).unwrap();
                    banded.add(i + 1, i + 1, coupling).unwrap();
                    banded.add(i + 1, i, -coupling).unwrap();
                }
                if y + 1 < ny {
                    banded.add(i, i, coupling).unwrap();
                    banded.add(i + nx, i + nx, coupling).unwrap();
                    banded.add(i + nx, i, -coupling).unwrap();
                }
            }
        }
        banded
    }

    /// `y = A x` over the band of a symmetric banded matrix.
    fn banded_product(matrix: &BandedMatrix, x: &[f64]) -> Vec<f64> {
        let n = matrix.n();
        let bw = matrix.bandwidth();
        (0..n)
            .map(|i| {
                (i.saturating_sub(bw)..(i + bw + 1).min(n))
                    .map(|j| matrix.get(i, j) * x[j])
                    .sum()
            })
            .collect()
    }

    proptest! {
        /// Branch/diagonal stamps always produce symmetric, diagonally
        /// dominant matrices with a positive diagonal.
        #[test]
        fn assembled_systems_are_symmetric_dominant(
            nx in 1usize..6,
            ny in 1usize..6,
            leak in 0.001f64..1.0,
            coupling in 0.01f64..10.0,
        ) {
            let matrix = grid_matrix(nx, ny, leak, coupling);
            let n = matrix.n();
            for i in 0..n {
                let diagonal = matrix.get(i, i);
                prop_assert!(diagonal > 0.0, "diagonal {i} is {diagonal}");
                let mut off_diagonal = 0.0;
                for j in (0..n).filter(|&j| j != i) {
                    prop_assert_eq!(matrix.get(i, j), matrix.get(j, i));
                    off_diagonal += matrix.get(i, j).abs();
                }
                prop_assert!(diagonal + 1e-9 >= off_diagonal, "row {i}");
            }
        }

        /// Solving then multiplying round-trips the right-hand side.
        #[test]
        fn solve_spmv_round_trips(
            nx in 2usize..6,
            ny in 2usize..6,
            leak in 0.05f64..1.0,
            rhs in proptest::collection::vec(-5.0f64..5.0, 25),
        ) {
            let matrix = grid_matrix(nx, ny, leak, 1.0);
            let b = &rhs[..matrix.n()];
            let mut x = b.to_vec();
            BandedCholesky::new(&matrix).unwrap().solve_into(&mut x).unwrap();
            for (bi, backi) in b.iter().zip(banded_product(&matrix, &x)) {
                prop_assert!((bi - backi).abs() < 1e-8);
            }
        }
    }
}
