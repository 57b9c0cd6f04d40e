//! Per-DBMS layout profiles.
//!
//! The paper runs three real databases. Their storage layouts differ in
//! ways that matter for block-delta size: Postgres stores a 23-byte
//! tuple header per row (MVCC `xmin`/`xmax`/`ctid`), Oracle packs rows
//! more tightly but updates block-level SCN metadata, MySQL/InnoDB sits
//! in between with 18-byte record headers and a higher default fill
//! factor (15/16). These knobs steer the page engine toward each
//! system's behaviour; the resulting change ratios land in the paper's
//! measured 5–20 % band either way.

/// Layout knobs approximating one DBMS's page behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DbProfile {
    name: &'static str,
    /// Extra per-row header bytes beyond our 8-byte txn counter.
    row_header_pad: usize,
    /// Fraction of a page filled before the engine starts a new page.
    fill_factor: f64,
}

impl DbProfile {
    /// Oracle-like: compact 3-byte-ish row overhead, 90 % fill (PCTFREE
    /// 10).
    pub fn oracle() -> Self {
        Self {
            name: "oracle",
            row_header_pad: 3,
            fill_factor: 0.90,
        }
    }

    /// Postgres-like: 23-byte tuple headers, fillfactor 100 for heap
    /// inserts.
    pub fn postgres() -> Self {
        Self {
            name: "postgres",
            row_header_pad: 15, // + our 8-byte txn counter = 23
            fill_factor: 0.98,
        }
    }

    /// MySQL/InnoDB-like: 18-byte record headers, 15/16 fill.
    pub fn mysql() -> Self {
        Self {
            name: "mysql",
            row_header_pad: 10, // + 8 = 18
            fill_factor: 0.9375,
        }
    }

    /// Profile name ("oracle", "postgres", "mysql").
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Extra per-row header bytes (beyond the 8-byte txn counter).
    pub(crate) fn row_header_pad(&self) -> usize {
        self.row_header_pad
    }

    /// Free-space threshold in bytes below which a page of `page_size`
    /// is considered full for new inserts.
    pub(crate) fn reserve_bytes(&self, page_size: usize) -> usize {
        ((1.0 - self.fill_factor) * page_size as f64) as usize
    }
}

impl Default for DbProfile {
    /// The Oracle profile (the paper's primary platform).
    fn default() -> Self {
        Self::oracle()
    }
}

impl std::fmt::Display for DbProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct() {
        let o = DbProfile::oracle();
        let p = DbProfile::postgres();
        let m = DbProfile::mysql();
        assert!(p.row_header_pad() > m.row_header_pad());
        assert!(m.row_header_pad() > o.row_header_pad());
        assert_eq!(o.name(), "oracle");
    }

    #[test]
    fn reserve_bytes_scales_with_page_size() {
        let o = DbProfile::oracle();
        assert_eq!(o.reserve_bytes(8192), 819);
        assert!(DbProfile::postgres().reserve_bytes(8192) < 200);
    }
}
