//! Cluster-scale dispatch benchmark: the serialized router-contention
//! knee (a one-shard layout) vs. the sharded+batched engine at 10⁵+
//! invocations. Pass `--quick` for a reduced sweep (used by CI's
//! determinism diff). Full runs also archive the series to
//! `results/cluster.json`.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let figs = kaas_bench::cluster::run(quick);
    for fig in &figs {
        fig.print();
        println!();
    }
    if !quick {
        std::fs::create_dir_all("results").ok();
        std::fs::write("results/cluster.json", kaas_bench::cluster::to_json(&figs))
            .expect("write results/cluster.json");
        eprintln!("wrote results/cluster.json");
    }
}
