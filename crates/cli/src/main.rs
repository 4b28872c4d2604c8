//! `dpc` — distributed partial clustering on CSV data from the command
//! line. See `dpc --help` (or [`dpc_cli::args::USAGE`]).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match dpc_cli::parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Typed validation before any data is read: hard ConfigErrors (e.g.
    // `stream --eps 0`) abort here; structured no-effect warnings go to
    // stderr so JSON output stays clean.
    let warnings = match dpc_cli::preflight(&inv) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for w in warnings {
        eprintln!("warning: {w}");
    }
    // Rows stream through a buffered reader; the file is never held in
    // memory whole. `blobs:` specs generate their workload in-process and
    // read nothing.
    let reader: Box<dyn std::io::BufRead> = if dpc_cli::is_synthetic_input(&inv.input) {
        Box::new(std::io::empty())
    } else {
        match std::fs::File::open(&inv.input) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!("cannot read '{}': {e}", inv.input);
                return ExitCode::from(1);
            }
        }
    };
    if inv.grid.is_some() {
        return match dpc_cli::execute_sweep(&inv, reader) {
            Ok(artifacts) => {
                if inv.json {
                    println!("{}", dpc::api::json_table(&artifacts));
                } else {
                    print!("{}", dpc::api::csv_table(&artifacts));
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    match dpc_cli::execute(&inv, reader) {
        Ok(artifact) => {
            if inv.json {
                println!("{}", artifact.to_json());
            } else {
                print!("{}", artifact.text());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
