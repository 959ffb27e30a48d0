//! # hal-workloads — the paper's evaluation workloads as actor programs
//!
//! * [`fib`] — the Table 4 Fibonacci generator (load imbalance +
//!   dynamic load balancing);
//! * [`matmul`] — the Table 5 systolic (Cannon) matrix multiplication
//!   with per-actor local synchronization;
//! * [`cholesky`] — the Table 1 column-Cholesky variants (BP/CP
//!   pipelined with local sync, Seq/Bcast with global sync);
//! * [`chase`] — the Fig. 3 migration chase: probes racing a migrating
//!   actor through FIR chases and forward chains (§4.3);
//! * [`synth`] — synthetic micro-workloads driving the Table 2/3
//!   primitive-cost harnesses;
//! * [`uts`] — unbalanced tree search, the "dynamic, irregular
//!   application" the paper's introduction argues the runtime's
//!   flexibility exists for (extension beyond the paper's own
//!   evaluation).

#![warn(missing_docs)]

pub mod chase;
pub mod cholesky;
pub mod fib;
pub mod matmul;
pub mod synth;
pub mod uts;

/// Pack a f64 slice into a wire payload.
pub fn pack_f64(data: &[f64]) -> hal_am::Bytes {
    let mut out = Vec::with_capacity(data.len() * 8);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    hal_am::Bytes::from(out)
}

/// The f64s of a wire payload, read in place.
pub fn f64s(b: &[u8]) -> impl ExactSizeIterator<Item = f64> + Clone + '_ {
    assert_eq!(b.len() % 8, 0, "payload not a multiple of 8 bytes");
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
}

/// Unpack a wire payload into f64s.
pub fn unpack_f64(b: &hal_am::Bytes) -> Vec<f64> {
    f64s(b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(unpack_f64(&pack_f64(&v)), v);
    }

    #[test]
    fn empty_roundtrip() {
        assert!(unpack_f64(&pack_f64(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn ragged_payload_rejected() {
        unpack_f64(&hal_am::Bytes::from(vec![1u8, 2, 3]));
    }
}
