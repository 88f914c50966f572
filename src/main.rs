//! The `tenblock` command-line tool. See [`tenblock::cli::USAGE`].

#![forbid(unsafe_code)]

use tenblock::cli::{run, Args, USAGE};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let args = Args::parse(&raw[1..]);
    match run(cmd, &args) {
        Ok(text) => println!("{text}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
