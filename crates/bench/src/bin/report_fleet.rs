//! Scale-out trail: fleet sampling throughput at 1/2/3 servers vs one
//! remote server, under a uniform modeled shard latency; writes
//! target/bench/BENCH_7.json. Run: cargo run -p platod2gl-bench --release --bin report_fleet

fn main() {
    platod2gl_bench::experiments::fleet_report();
}
