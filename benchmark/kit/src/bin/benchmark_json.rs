//! Prints the text of `BENCHMARK.json`:
//! `cargo run -p flodb-benchkit --bin benchmark-json > ../BENCHMARK.json`.

fn main() {
    print!("{}", benchkit::spec::benchmark_json());
}
