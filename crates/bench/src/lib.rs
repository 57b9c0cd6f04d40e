//! Measurement harness regenerating every table and figure of the PRINS
//! paper's evaluation (§4).
//!
//! The heart of the harness is [`measure_traffic`]: it runs one workload
//! at one block size, streams every block write through the three
//! replication strategies (plus the PRINS+LZSS ablation), and accumulates
//! the payload and wire bytes each strategy would put on the network —
//! exactly the quantity Figures 4–7 plot. The `fig*` functions assemble those
//! measurements (and the queueing models of `prins-queueing`) into the
//! paper's figures; the `figures` binary prints them.
//!
//! # Example
//!
//! ```
//! use prins_bench::{measure_traffic, TrafficConfig};
//! use prins_block::BlockSize;
//! use prins_repl::ReplicationMode;
//! use prins_workloads::Workload;
//!
//! let m = measure_traffic(
//!     Workload::TpccOracle,
//!     &TrafficConfig::smoke(BlockSize::kb8()),
//! )
//! .expect("measurement runs");
//! let trad = m.payload_bytes(ReplicationMode::Traditional);
//! let prins = m.payload_bytes(ReplicationMode::Prins);
//! assert!(prins * 2 < trad, "PRINS must beat traditional");
//! ```

#![warn(unreachable_pub)]

mod adaptive;
mod ec;
mod figures;
mod kernels;
mod obs;
mod resync;
mod scale;
mod tailtrace;
mod traffic;

pub use adaptive::adaptive_figure;
pub use ec::{ec_experiment, EcReport};
pub use figures::{
    fig10_router_saturation, fig4_tpcc_oracle, fig5_tpcc_postgres, fig6_tpcw, fig7_fs_micro,
    fig8_response_t1, fig9_response_t3, overhead_experiment, write_rate_experiment, FigureTable,
    OverheadReport, WriteRateReport,
};
pub use kernels::{
    crc32c_scalar, gf_mul_xor_scalar, heavy_tail_writes, lzss_compress_reference,
    lzss_decompress_reference, xor_scalar,
};
pub use obs::obs_experiment;
pub use resync::{resync_experiment, resync_figure, ResyncMeasurement};
pub use scale::{scale_experiment, ScaleCurve, ScaleReport};
pub use tailtrace::{trace_experiment, TailTraceReport};
pub use traffic::{measure_traffic, ModeTraffic, TrafficConfig, TrafficMeasurement};
