//! Tracing-overhead trail: pipelined sampling throughput with trace
//! context on every batch vs none, served by one graph server; writes
//! target/bench/BENCH_9.json (verify.sh gates overhead_ratio >= 0.9).
//! Run: cargo run -p platod2gl-bench --release --bin report_obs_overhead

fn main() {
    platod2gl_bench::experiments::obs_overhead_report();
}
