//! A declarative experiment matrix: `k × t × transport`, one `Sweep`.
//!
//! The paper's evaluation is a grid of comparisons; this example runs a
//! 2 × 2 × 2 corner of it in parallel and prints the shared CSV table —
//! the same output `dpc sweep median --k 4,8 --t 16,64 --transport
//! channel,mux data.csv` produces from a file.
//!
//! Run with: `cargo run --release -p dpc --example sweep_grid`

use dpc::prelude::*;

fn main() {
    let mix = gaussian_mixture(MixtureSpec {
        clusters: 8,
        inliers: 1200,
        outliers: 64,
        ..Default::default()
    });

    // The base job carries everything the axes don't sweep: data, sites,
    // seed. Axis values override k/t/transport cell by cell.
    let base = Job::median(0, 0).sites(6).seed(17).points(mix.points);
    let sweep = Sweep::grid(base)
        .k(&[4, 8])
        .t(&[16, 64])
        .transports(&[TransportKind::Channel, TransportKind::Mux])
        .parallelism(4);
    println!("sweeping {} cells ({} workers max)…\n", sweep.cells(), 4);
    let artifacts = sweep.run().expect("every cell validates");

    // One schema everywhere: the CSV table for spreadsheets…
    print!("{}", dpc::api::csv_table(&artifacts));

    // …and the invariant the runtime guarantees: byte accounting is
    // transport-independent, so channel/mux pairs agree exactly.
    for pair in artifacts.chunks(2) {
        assert_eq!(
            pair[0].bytes, pair[1].bytes,
            "transport changed the bytes on the wire?!"
        );
    }
    println!("\nchannel/mux cells are byte-identical, as charged.");
}
