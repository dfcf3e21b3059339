//! Regenerates Figure 12 of the KaaS paper. Pass `--quick` for a
//! reduced sweep.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    for fig in kaas_bench::fig12::run(quick) {
        fig.print();
        println!();
    }
}
