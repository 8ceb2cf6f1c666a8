//! `bench`: the end-to-end run (and `--verify`, `--smoke`).

fn main() {
    std::process::exit(renofs_benchmark::cli::main(false));
}
