fn main() -> std::process::ExitCode {
    avgi_perf::cli::main()
}
