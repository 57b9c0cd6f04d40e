//! PRINS workspace umbrella crate: re-exports for integration tests and examples.
pub use prins_block as block;
pub use prins_compress as compress;
pub use prins_core as core_engine;
pub use prins_fs as fs;
pub use prins_iscsi as iscsi;
pub use prins_net as net;
pub use prins_pagestore as pagestore;
pub use prins_parity as parity;
pub use prins_queueing as queueing;
pub use prins_raid as raid;
pub use prins_repl as repl;
pub use prins_trap as trap;
pub use prins_workloads as workloads;
