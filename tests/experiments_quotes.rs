//! EXPERIMENTS.md quotes its archives: every number in a figure row's
//! "Measured here" cell appears in a `# note:` line of that figure's
//! `results/figNN.csv`. An archive refresh that moves a quoted number
//! fails here until the quote follows it.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The numbers in `text`, as written: maximal runs of ASCII digits and
/// inner dots (`1.52`, `4096`; `20 000` is two numbers).
fn numbers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_digit() && c != '.')
        .map(|s| s.trim_matches('.'))
        .filter(|s| !s.is_empty())
}

/// The cells of one Markdown table row.
fn cells(row: &str) -> Vec<&str> {
    row.trim()
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect()
}

#[test]
fn measured_cells_quote_their_archive_notes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut rows = doc.lines().skip_while(|l| !l.starts_with("| Fig. |"));
    let header = cells(rows.next().expect("EXPERIMENTS.md has a figure table"));
    let column = header
        .iter()
        .position(|&c| c == "Measured here")
        .expect("the figure table has a \"Measured here\" column");

    let mut unquoted = Vec::new();
    for row in rows.skip(1).take_while(|l| l.starts_with('|')) {
        let row = cells(row);
        // Figure `6a` quotes `results/fig06.csv`.
        let fig: u32 = row[0]
            .trim_end_matches(|c: char| c.is_ascii_alphabetic())
            .parse()
            .unwrap_or_else(|_| panic!("figure id {:?}", row[0]));
        let archive = root.join(format!("results/fig{fig:02}.csv"));
        let csv = fs::read_to_string(&archive).expect("figure archive");
        let notes: BTreeSet<&str> = csv
            .lines()
            .filter_map(|l| l.strip_prefix("# note:"))
            .flat_map(numbers)
            .collect();
        let cell = row[column];
        for n in numbers(cell).filter(|n| !notes.contains(n)) {
            unquoted.push(format!("Fig. {}: {n} (in {cell:?})", row[0]));
        }
    }
    assert!(
        unquoted.is_empty(),
        "numbers no note of their archive states:\n{}",
        unquoted.join("\n")
    );
}

#[test]
fn numbers_are_read_as_written() {
    assert_eq!(
        numbers("KaaS 16.46 vs 1.67 at N=4096; 20 000²; 1.0–1.3 %.").collect::<Vec<_>>(),
        ["16.46", "1.67", "4096", "20", "000", "1.0", "1.3"]
    );
}
