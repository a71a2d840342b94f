//! EXPERIMENTS.md quotes the Paper-scale figures. This test holds every
//! cell of its Figure 8, Table 2, Figure 9 and Figure 10 tables to
//! `tests/golden/all_paper.csv` (the bytes `repro all --scale paper
//! --format csv` prints, pinned by CI) at the precision the document
//! prints, so the prose cannot drift from what the tool measures. When
//! the golden changes on purpose, regenerate those tables from it.

use std::collections::HashMap;

/// One markdown table: the `##` section it sits in, the last paragraph
/// line before it, its header and its body rows (cells trimmed).
struct Table {
    section: String,
    caption: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn cells(line: &str) -> Vec<String> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(|c| c.trim().to_string()).collect()
}

fn tables(doc: &str) -> Vec<Table> {
    let mut out: Vec<Table> = Vec::new();
    let (mut section, mut caption) = (String::new(), String::new());
    let mut in_table = false;
    for line in doc.lines() {
        let t = line.trim();
        if t.starts_with('|') {
            if !in_table {
                out.push(Table {
                    section: section.clone(),
                    caption: caption.clone(),
                    header: cells(t),
                    rows: Vec::new(),
                });
                in_table = true;
            } else if !t.starts_with("|--") {
                out.last_mut().unwrap().rows.push(cells(t));
            }
            continue;
        }
        in_table = false;
        if let Some(h) = t.strip_prefix("## ") {
            section = h.to_string();
            caption.clear();
        } else if !t.is_empty() {
            caption = t.to_string();
        }
    }
    out
}

/// The golden CSV's blank-line-separated sections, keyed by header line;
/// each row is split on commas (the checked sections quote nothing).
fn golden() -> HashMap<String, Vec<Vec<String>>> {
    let text = include_str!("golden/all_paper.csv");
    let mut out = HashMap::new();
    for block in text.split("\n\n") {
        let mut lines = block.lines().filter(|l| !l.is_empty());
        let Some(header) = lines.next() else { continue };
        let rows = lines
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        out.insert(header.to_string(), rows);
    }
    out
}

/// The golden column a document column header names.
fn column(doc_header: &str) -> &'static str {
    match doc_header {
        "Superscalar" => "superscalar",
        "CP+AP" => "cp_ap",
        "CP+CMP" => "cp_cmp",
        "HiDISC" => "hidisc",
        "baseline miss rate" => "base_miss_rate",
        other => panic!("EXPERIMENTS.md: unknown column `{other}`"),
    }
}

/// Compares one printed cell with the golden value at the cell's own
/// precision; `**bold**` and a trailing ` %` are presentation only.
fn check(errors: &mut Vec<String>, what: &str, cell: &str, golden: f64) {
    let text = cell.trim_matches('*').trim_end_matches('%').trim();
    let decimals = text.split_once('.').map_or(0, |(_, f)| f.len());
    let want = if text.starts_with('+') || text.starts_with('-') {
        format!("{golden:+.decimals$}")
    } else {
        format!("{golden:.decimals$}")
    };
    if text != want {
        errors.push(format!("{what}: document says {cell}, golden gives {want}"));
    }
}

fn value(row: &[String], header: &[String], col: &str) -> f64 {
    let i = header.iter().position(|h| h == col).unwrap();
    row[i].parse().unwrap()
}

#[test]
fn experiments_tables_match_the_paper_scale_golden() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md");
    let tables = tables(&doc);
    let golden = golden();
    let mut errors = Vec::new();
    let mut checked = 0;
    let find = |section: &str, caption: &str| -> &Table {
        let mut hits = tables
            .iter()
            .filter(|t| t.section.starts_with(section) && t.caption.starts_with(caption));
        let t = hits
            .next()
            .unwrap_or_else(|| panic!("no table under `{section}` / `{caption}`"));
        assert!(
            hits.next().is_none(),
            "two tables under `{section}` / `{caption}`"
        );
        t
    };

    // Figure 8 and Figure 9: one row per benchmark, one cell per model.
    for (section, key) in [
        ("Figure 8", "benchmark,superscalar,cp_ap,cp_cmp,hidisc"),
        ("Figure 9", "benchmark,base_miss_rate,cp_ap,cp_cmp,hidisc"),
    ] {
        let t = find(section, "");
        let header: Vec<String> = key.split(',').map(str::to_string).collect();
        let rows = &golden[key];
        assert_eq!(t.rows.len(), rows.len(), "{section}: one row per benchmark");
        for (doc_row, row) in t.rows.iter().zip(rows) {
            assert_eq!(doc_row[0], row[0], "{section}: benchmark order");
            for (h, cell) in t.header.iter().zip(doc_row).skip(1) {
                let g = value(row, &header, column(h));
                check(&mut errors, &format!("{section} {} {h}", row[0]), cell, g);
                checked += 1;
            }
        }
    }

    // Table 2: average speed-up as a signed percentage.
    let t = find("Table 2", "");
    let header = ["model".to_string(), "avg_speedup".to_string()];
    let rows = &golden["model,avg_speedup"];
    let repo = t.header.iter().position(|h| h == "this repo").unwrap();
    assert_eq!(t.rows.len(), 3, "Table 2: one row per non-baseline model");
    for doc_row in &t.rows {
        let label = doc_row[0].split(' ').next().unwrap();
        let row = rows.iter().find(|r| r[0] == column(label)).unwrap();
        let pct = (value(row, &header, "avg_speedup") - 1.0) * 100.0;
        check(
            &mut errors,
            &format!("Table 2 {label}"),
            &doc_row[repo],
            pct,
        );
        checked += 1;
    }

    // Figure 10: one table per benchmark, one row per latency point.
    let key = "benchmark,l2_latency,mem_latency,superscalar,cp_ap,cp_cmp,hidisc";
    let header: Vec<String> = key.split(',').map(str::to_string).collect();
    for (caption, bench) in [
        ("Neighborhood (IPC)", "neighborhood"),
        ("Pointer (IPC)", "pointer"),
    ] {
        let t = find("Figure 10", caption);
        let rows: Vec<&Vec<String>> = golden[key].iter().filter(|r| r[0] == bench).collect();
        assert_eq!(
            t.rows.len(),
            rows.len(),
            "Figure 10 {bench}: one row per point"
        );
        for (doc_row, row) in t.rows.iter().zip(rows) {
            assert_eq!(
                doc_row[0],
                format!("{}/{}", row[1], row[2]),
                "Figure 10 {bench}: points"
            );
            for (h, cell) in t.header.iter().zip(doc_row).skip(1) {
                let g = value(row, &header, column(h));
                let what = format!("Figure 10 {bench} {} {h}", doc_row[0]);
                check(&mut errors, &what, cell, g);
                checked += 1;
            }
        }
    }

    assert!(
        errors.is_empty(),
        "EXPERIMENTS.md disagrees with the golden:\n{}",
        errors.join("\n")
    );
    assert_eq!(checked, 21 + 28 + 3 + 32, "every quoted cell is checked");
}
