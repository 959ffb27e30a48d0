//! # hal-baselines — the comparison systems of the paper's evaluation
//!
//! Table 4 judges the actor runtime against an optimized sequential C
//! fib; Table 5 against Split-C's dense kernels. This crate provides
//! the references the workloads validate against:
//!
//! * [`fib_seq`] — Fibonacci values and call-tree sizes;
//! * [`gemm`] — dense matmul kernels (per-node compute of the systolic
//!   algorithm + validation references);
//! * [`linalg`] — sequential Cholesky factorization and SPD generators
//!   validating the Table 1 variants.

#![warn(missing_docs)]

pub mod fib_seq;
pub mod gemm;
pub mod linalg;

pub use fib_seq::{call_tree_nodes, fib_iter};
pub use gemm::{matmul_flops, matmul_ikj_acc, matmul_naive, max_abs_diff, random_matrix};
pub use linalg::{
    b_row, cholesky_flops, cholesky_seq, llt, random_spd, spd_column, spd_column_tail,
};
