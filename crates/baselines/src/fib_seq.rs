//! Sequential Fibonacci — the reference the fib workload validates
//! against, and the call-tree size behind Table 4's "C 1node" column.
//!
//! The paper reports 8.49 s for an optimized C fib(33) on one 33 MHz
//! SPARC node, against which the actor system's overhead is judged.

/// Iterative Fibonacci (for result validation only — O(n)).
pub fn fib_iter(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        let c = a + b;
        a = b;
        b = c;
    }
    a
}

/// Number of call-tree nodes of the doubly recursive fib — the actor
/// version creates one actor per node, so this predicts actor counts.
/// Satisfies `nodes(n) = 2*fib(n+1) - 1`.
pub fn call_tree_nodes(n: u64) -> u64 {
    2 * fib_iter(n + 1) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values() {
        let expect = [0u64, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        for (n, &e) in expect.iter().enumerate() {
            assert_eq!(fib_iter(n as u64), e);
        }
    }

    #[test]
    fn paper_tree_size_for_fib_33() {
        // "executing the Fibonacci of 33 results in the creation of
        // 11,405,773 actors" — the call-tree node count.
        assert_eq!(call_tree_nodes(33), 11_405_773);
    }

    #[test]
    fn tree_node_recurrence() {
        // nodes(n) = nodes(n-1) + nodes(n-2) + 1 for n >= 2.
        for n in 2..30 {
            assert_eq!(
                call_tree_nodes(n),
                call_tree_nodes(n - 1) + call_tree_nodes(n - 2) + 1
            );
        }
    }
}
