//! `smiler` — command-line front end for the SMiLer system.
//!
//! ```text
//! smiler forecast --input sensor.csv --horizons 1,6 --interval
//! smiler evaluate --input sensor.csv --models smiler-gp,lazyknn
//! smiler generate --dataset road --days 14 > road.csv
//! smiler info
//! ```

mod args;
mod commands;

fn main() {
    match commands::run(&mut args::Args::new(std::env::args().skip(1))) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
