//! TPC-C-lite: the OLTP workload of Figures 4 and 5.
//!
//! Implements the nine-table TPC-C schema, spec-conformant data
//! generation (NURand selection, a-strings, syllable last names, 10 %
//! "ORIGINAL" stock data) and the five-transaction mix (New-Order 45 %,
//! Payment 43 %, Order-Status / Delivery / Stock-Level 4 % each), all
//! running on the `prins-pagestore` engine so every transaction turns
//! into realistic page-level block writes.
//!
//! Simplifications versus the full specification, none of which affect
//! block-write content realism: single-threaded execution (terminals
//! only pace wall-clock time, which we do not model), payment customer
//! selection always by id (no last-name path), and no think times.

pub(crate) mod db;
mod driver;

pub use db::{TpccDatabase, TpccScale};
pub use driver::TpccDriver;

/// Key-packing helpers: composite TPC-C keys into `u64` B-tree keys.
pub(crate) mod keys {
    /// Warehouse key.
    pub(crate) fn wh(w: u64) -> u64 {
        w
    }

    /// District key.
    pub(crate) fn dist(w: u64, d: u64) -> u64 {
        w * 100 + d
    }

    /// Customer key.
    pub(crate) fn cust(w: u64, d: u64, c: u64) -> u64 {
        dist(w, d) * 100_000 + c
    }

    /// Order key.
    pub(crate) fn order(w: u64, d: u64, o: u64) -> u64 {
        dist(w, d) * 100_000_000 + o
    }

    /// Order-line key.
    pub(crate) fn order_line(w: u64, d: u64, o: u64, line: u64) -> u64 {
        order(w, d, o) * 100 + line
    }

    /// Stock key.
    pub(crate) fn stock(w: u64, i: u64) -> u64 {
        w * 1_000_000 + i
    }
}

#[cfg(test)]
mod tests {
    use super::keys::*;

    #[test]
    fn keys_are_injective_across_plausible_ranges() {
        let mut seen = std::collections::HashSet::new();
        for w in 1..=3u64 {
            for d in 1..=10 {
                for o in 1..=50 {
                    for l in 1..=15 {
                        assert!(seen.insert(order_line(w, d, o, l)));
                    }
                }
            }
        }
    }

    #[test]
    fn stock_and_order_spaces_do_not_rely_on_overlap() {
        // Different key spaces go into different B-trees, but keys
        // must stay within u64 at paper scale.
        let k = order_line(10, 10, 99_999_999, 15);
        assert!(k < u64::MAX / 2);
        assert!(stock(10, 100_000) < u64::MAX);
    }
}
