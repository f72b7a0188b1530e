fn main() -> std::process::ExitCode {
    sciflow_benchmark::cli::main()
}
