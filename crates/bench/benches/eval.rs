//! The whole evaluation: `cargo bench -p twin-bench --bench eval -- [name...]`
//! runs the named scenarios (all of them when none is named).

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    twin_bench::scenarios::run(&args)
}
