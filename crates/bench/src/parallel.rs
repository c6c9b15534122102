//! The replicate driver's old path. The pool lives in
//! [`century::experiment`]; this re-export stays because the benchmark
//! (`perfbench/src/adapter.rs`) imports `bench::parallel::run_reports`.

pub use century::experiment::run_reports;
