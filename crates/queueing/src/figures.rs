//! Series generators for Figures 8, 9 and 10.
//!
//! Each generator takes the *measured* bytes-per-write of the three
//! replication techniques (produced by the traffic experiments in
//! `prins-bench`) and the paper's network parameters, and emits the
//! plotted series. Defaults reproduce the paper's setup: think time
//! 0.1 s, two routers, 8 KB blocks.

use crate::mm1::MM1;
use crate::{Mva, NodalDelay};

/// The paper's measured think time: TPC-C generated 10.22 writes/s per
/// node, so a node thinks ~0.1 s between writes.
pub(crate) const THINK_TIME: f64 = 0.1;

/// Routers each replication traverses in Figures 8/9.
pub(crate) const ROUTERS: usize = 2;

/// One plotted curve.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Technique label ("traditional", "compressed", "prins").
    pub label: String,
    /// X values (population or write rate).
    pub x: Vec<f64>,
    /// Y values (seconds); `NaN` marks saturated points in Figure 10.
    pub y: Vec<f64>,
}

/// Bytes one write puts on the wire, per technique — the bridge from
/// the traffic experiments to the queueing model.
#[derive(Clone, Debug, PartialEq)]
pub struct BytesPerWrite {
    /// Technique label.
    pub(crate) label: String,
    /// Mean payload bytes per replicated write.
    pub(crate) bytes: f64,
}

impl BytesPerWrite {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, bytes: f64) -> Self {
        Self {
            label: label.into(),
            bytes,
        }
    }

    /// The paper's 8 KB-block regime with representative measured
    /// values: traditional ships the whole block, compression ~2.2×,
    /// PRINS ~100× — the "up to 2 orders of magnitude" regime the
    /// paper's Figure 8 plots (where the PRINS curve stays flat to
    /// population 100). Benches replace these with actually measured
    /// per-workload values.
    pub fn paper_defaults() -> Vec<Self> {
        vec![
            Self::new("traditional", 8192.0),
            Self::new("compressed", 8192.0 / 2.2),
            Self::new("prins", 8192.0 / 100.0),
        ]
    }
}

/// Figure 8 / Figure 9: closed-network response time vs population.
///
/// `link` selects T1 (Figure 8) or T3 (Figure 9); `populations` is the
/// x-axis (the paper uses 1..=100).
pub fn response_vs_population(
    link: NodalDelay,
    techniques: &[BytesPerWrite],
    populations: &[u32],
) -> Vec<Series> {
    techniques
        .iter()
        .map(|t| {
            let s = link.service_time(t.bytes);
            let mva = Mva::new(THINK_TIME, vec![s; ROUTERS]);
            let y = populations
                .iter()
                .map(|&n| mva.solve(n).response_time)
                .collect();
            Series {
                label: t.label.clone(),
                x: populations.iter().map(|&n| n as f64).collect(),
                y,
            }
        })
        .collect()
}

/// Figure 10: single-router M/M/1 queueing time vs write request rate.
///
/// Saturated points are emitted as `NaN` (the paper's curves shoot off
/// the chart there).
pub fn router_queueing_vs_rate(
    link: NodalDelay,
    techniques: &[BytesPerWrite],
    rates: &[f64],
) -> Vec<Series> {
    techniques
        .iter()
        .map(|t| {
            let queue = MM1::new(link.service_time(t.bytes));
            let y = rates
                .iter()
                .map(|&r| queue.queueing_time(r).unwrap_or(f64::NAN))
                .collect();
            Series {
                label: t.label.clone(),
                x: rates.to_vec(),
                y,
            }
        })
        .collect()
}

/// The paper's population axis for Figures 8/9.
pub fn paper_populations() -> Vec<u32> {
    (1..=100).collect()
}

/// The paper's write-rate axis for Figure 10 (1..=56 requests/s).
pub fn paper_rates() -> Vec<f64> {
    (1..=56).map(|r| r as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_shape_traditional_blows_up_prins_stays_flat() {
        let series = response_vs_population(
            NodalDelay::t1(),
            &BytesPerWrite::paper_defaults(),
            &paper_populations(),
        );
        let get = |label: &str| series.iter().find(|s| s.label == label).unwrap();
        let trad = get("traditional");
        let prins = get("prins");
        // At population 100 traditional queues catastrophically…
        assert!(trad.y[99] > 4.0, "traditional at 100: {}", trad.y[99]);
        // …while PRINS stays well under a tenth of a second.
        assert!(prins.y[99] < 0.1, "prins at 100: {}", prins.y[99]);
        // And the gap at 100 is > 50x (paper: "stays relatively flat").
        assert!(trad.y[99] / prins.y[99] > 50.0);
    }

    #[test]
    fn figure9_t3_same_ordering_smaller_magnitudes() {
        let t1 = response_vs_population(NodalDelay::t1(), &BytesPerWrite::paper_defaults(), &[100]);
        let t3 = response_vs_population(NodalDelay::t3(), &BytesPerWrite::paper_defaults(), &[100]);
        for (a, b) in t1.iter().zip(&t3) {
            assert!(b.y[0] <= a.y[0], "{}: T3 must be faster", a.label);
        }
        // Ordering within T3 still traditional > compressed > prins.
        assert!(t3[0].y[0] > t3[1].y[0]);
        assert!(t3[1].y[0] > t3[2].y[0]);
    }

    #[test]
    fn figure10_traditional_saturates_first() {
        let series = router_queueing_vs_rate(
            NodalDelay::t1(),
            &BytesPerWrite::paper_defaults(),
            &paper_rates(),
        );
        let saturation_rate = |s: &Series| {
            s.y.iter()
                .position(|v| v.is_nan())
                .map(|i| s.x[i])
                .unwrap_or(f64::INFINITY)
        };
        let trad = saturation_rate(&series[0]);
        let comp = saturation_rate(&series[1]);
        let prins = saturation_rate(&series[2]);
        assert!(trad < comp, "traditional {trad} vs compressed {comp}");
        assert!(comp < prins, "compressed {comp} vs prins {prins}");
        // Traditional over T1 saturates in the teens, as in the paper.
        assert!((10.0..25.0).contains(&trad), "got {trad}");
    }

    #[test]
    fn paper_axes_match_the_figures() {
        assert_eq!(paper_populations().len(), 100);
        let rates = paper_rates();
        assert_eq!(rates.first(), Some(&1.0));
        assert_eq!(rates.last(), Some(&56.0));
    }
}
