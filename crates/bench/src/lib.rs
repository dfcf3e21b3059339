//! # kaas-bench — the figure-reproduction harness
//!
//! One module per figure of the KaaS paper's evaluation (§5), plus the
//! benches beyond it. Each exposes a `run` taking `quick`, which trims
//! sweeps for CI. `cargo run --release -p kaas-bench -- <id> [--quick]`
//! runs any of them by id and prints the series as commented CSV.

#![warn(missing_docs)]

pub mod ablation;
pub mod cluster;
pub mod coldstart;
pub mod common;
pub mod dataflow;
pub mod dataplane;
pub mod fig02;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod overload;
pub mod sharing;
pub mod trace_replay;
pub mod verify;
