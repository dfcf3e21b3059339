//! `kaas-bench <id> [--quick] [--seed=N]`: runs one experiment of the
//! KaaS paper's evaluation and prints it on stdout. `all_figures` runs
//! every `fig*` row in order. `--quick` trims the sweeps; `--seed=N`
//! reseeds the rows that take a seed. A full run of an archiving row
//! also writes `results/<id>.json`. Bad arguments print the usage and
//! exit with status 2.

use kaas_bench::common::Figure;
use kaas_bench::{
    ablation, cluster, coldstart, dataflow, dataplane, fig02, fig06, fig07, fig08, fig09, fig10,
    fig11, fig12, fig13, fig14, fig15, fig16, fig17, overload, trace_replay, verify,
};

/// `run(quick, seed)` returns the text to print and, for an archiving
/// row, the JSON a full run writes to `results/<id>.json`.
type Run = fn(bool, u64) -> (String, Option<String>);

/// One experiment the binary can run.
struct Row {
    id: &'static str,
    /// The default seed; `None` for rows that take no seed.
    seed: Option<u64>,
    run: Run,
}

const fn row(id: &'static str, seed: Option<u64>, run: Run) -> Row {
    Row { id, seed, run }
}

const ROWS: &[Row] = &[
    row("fig02", None, |quick, _| figures(fig02::run(quick))),
    row("fig06", None, |quick, _| figures(fig06::run(quick))),
    row("fig07", None, |quick, _| figures(fig07::run(quick))),
    row("fig08", None, |quick, _| figures(fig08::run(quick))),
    row("fig09", None, |quick, _| figures(fig09::run(quick))),
    row("fig10", None, |quick, _| figures(fig10::run(quick))),
    row("fig11", None, |quick, _| figures(fig11::run(quick))),
    row("fig12", None, |quick, _| figures(fig12::run(quick))),
    row("fig13", None, |quick, _| figures(fig13::run(quick))),
    row("fig14", None, |quick, _| figures(fig14::run(quick))),
    row("fig15", None, |quick, _| figures(fig15::run(quick))),
    row("fig16", None, |quick, _| figures(fig16::run(quick))),
    row("fig17", None, |quick, _| figures(fig17::run(quick))),
    row("ablation", None, |quick, _| figures(ablation::run(quick))),
    row("cluster", None, |quick, _| {
        let figs = cluster::run(quick);
        (csv(&figs), Some(cluster::to_json(&figs)))
    }),
    row("coldstart", Some(2026), |quick, seed| {
        let r = coldstart::run(quick, seed);
        (coldstart::to_table(&r), Some(coldstart::to_json(&r)))
    }),
    row("dataflow", None, |quick, _| figures(dataflow::run(quick))),
    row("dataplane", None, |quick, _| figures(dataplane::run(quick))),
    row("overload", Some(7), |quick, seed| {
        let r = overload::run(seed, quick);
        (overload::render(&r), Some(overload::to_json(&r)))
    }),
    row("trace", None, |quick, _| figures(trace_replay::run(quick))),
    row("verify", Some(2026), |quick, seed| {
        let r = verify::run(quick, seed);
        (verify::to_table(&r), Some(verify::to_json(&r)))
    }),
];

const ALL_FIGURES: &str = "all_figures";

/// Figures as commented CSV, each followed by a blank line.
fn csv(figs: &[Figure]) -> String {
    figs.iter().map(|fig| fig.to_csv() + "\n").collect()
}

/// A row that prints figures and archives nothing.
fn figures(figs: Vec<Figure>) -> (String, Option<String>) {
    (csv(&figs), None)
}

impl Row {
    fn execute(&self, quick: bool, seed: u64) {
        let (text, json) = (self.run)(quick, seed);
        print!("{text}");
        if let (false, Some(json)) = (quick, json) {
            let path = format!("results/{}.json", self.id);
            std::fs::create_dir_all("results").ok();
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

/// A parsed command line.
struct Cli {
    /// The row to run; `None` runs every `fig*` row.
    row: Option<&'static Row>,
    quick: bool,
    /// `--seed=N`, else the row's default seed (0 for unseeded rows).
    seed: u64,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let (mut id, mut quick, mut seed) = (None, false, None);
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if arg.starts_with("--seed") {
            let n = arg.strip_prefix("--seed=").and_then(|n| n.parse().ok());
            seed = Some(n.ok_or_else(|| format!("malformed seed `{arg}`: use --seed=N"))?);
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else if id.replace(arg.as_str()).is_some() {
            return Err("expected one experiment id".into());
        }
    }
    let id = id.ok_or("missing experiment id")?;
    let row = ROWS.iter().find(|row| row.id == id);
    if row.is_none() && id != ALL_FIGURES {
        return Err(format!("unknown experiment `{id}`"));
    }
    let default = row.and_then(|row| row.seed);
    if seed.is_some() && default.is_none() {
        return Err(format!("`{id}` takes no seed"));
    }
    Ok(Cli {
        row,
        quick,
        seed: seed.or(default).unwrap_or(0),
    })
}

fn usage() -> String {
    let ids: Vec<&str> = ROWS.iter().map(|row| row.id).collect();
    let ids = ids.join(" ");
    format!("usage: kaas-bench <id> [--quick] [--seed=N]\n  ids: {ALL_FIGURES} {ids}")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|e| {
        eprintln!("kaas-bench: {e}\n{}", usage());
        std::process::exit(2)
    });
    match cli.row {
        Some(row) => row.execute(cli.quick, cli.seed),
        None => {
            for row in ROWS.iter().filter(|row| row.id.starts_with("fig")) {
                eprintln!("== running {} ==", row.id);
                row.execute(cli.quick, cli.seed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn parse_str(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&args)
    }

    fn error(line: &str) -> String {
        parse_str(line)
            .err()
            .unwrap_or_else(|| panic!("`{line}` parsed"))
    }

    #[test]
    fn row_ids_are_unique() {
        let ids: BTreeSet<&str> = ROWS.iter().map(|row| row.id).chain([ALL_FIGURES]).collect();
        assert_eq!(ids.len(), ROWS.len() + 1);
    }

    #[test]
    fn seeded_rows_keep_their_default_seeds() {
        for (id, seed) in [("overload", 7), ("verify", 2026), ("coldstart", 2026)] {
            let cli = parse_str(id).unwrap();
            assert_eq!((cli.row.unwrap().id, cli.seed), (id, seed));
        }
        assert_eq!(ROWS.iter().filter(|row| row.seed.is_some()).count(), 3);
        assert_eq!(parse_str("overload --seed=11 --quick").unwrap().seed, 11);
    }

    #[test]
    fn flags_parse_in_any_order() {
        let cli = parse_str("--quick fig12").unwrap();
        assert!(cli.quick && cli.row.unwrap().id == "fig12");
        let all = parse_str("all_figures --quick").unwrap();
        assert!(all.row.is_none() && all.quick);
    }

    #[test]
    fn rejects_unknown_ids() {
        assert!(error("fig03").contains("unknown experiment"));
        assert!(error("--quick").contains("missing"));
        assert!(error("fig02 fig06").contains("one experiment"));
    }

    #[test]
    fn rejects_unknown_flags() {
        for line in ["fig02 --fast", "fig02 -q", "verify --help"] {
            assert!(error(line).contains("unknown flag"), "{line}");
        }
    }

    #[test]
    fn rejects_malformed_seeds() {
        let lines = [
            "verify --seed=abc",
            "coldstart --seed=",
            "overload --seed=-1",
            "overload --seed 5",
            "overload --seeds=5",
        ];
        for line in lines {
            assert!(error(line).contains("malformed seed"), "{line}");
        }
    }

    #[test]
    fn rejects_a_seed_on_unseeded_rows() {
        for line in ["fig02 --seed=1", "cluster --seed=1", "all_figures --seed=1"] {
            assert!(error(line).contains("takes no seed"), "{line}");
        }
    }
}
