//! The RenoFS repo benchmark: five simulated workloads measured end to
//! end (`bench`) and layer by layer (`trace`), from outside the program
//! under test. See `README.md`.

pub mod cells;
pub mod cli;
pub mod host;
pub mod json;
pub mod measure;
pub mod names;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod wrapper;
