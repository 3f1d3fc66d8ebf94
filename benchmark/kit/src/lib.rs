//! The parts of the FloDB benchmark that do not touch the engine: the
//! metric spec `BENCHMARK.json` is generated from, the key/value generator's
//! RNG, exact quantiles, JSON output and the machine record. `e2e` and
//! `layers` both build on this crate and on nothing of each other.

pub mod json;
pub mod machine;
pub mod quantile;
pub mod rng;
pub mod spec;
