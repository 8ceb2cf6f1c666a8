//! `trace`: the traced run — `bench --trace 1` under its own name.

fn main() {
    std::process::exit(renofs_benchmark::cli::main(true));
}
