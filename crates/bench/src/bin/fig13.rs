//! Regenerates Figure 13 of the KaaS paper. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    for fig in kaas_bench::fig13::run(quick) {
        fig.print();
        println!();
    }
}
