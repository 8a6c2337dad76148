//! `blaze <command> [flags] <operands>`; see [`blaze_cli`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    blaze_cli::run(&argv)
}
