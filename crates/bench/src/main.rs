//! `avgi` — the one executable of the experiment harness (see
//! [`avgi_bench::cmd`] for its commands).

fn main() -> std::process::ExitCode {
    avgi_bench::cmd::main(std::env::args().skip(1))
}
