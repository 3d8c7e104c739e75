//! # nfi-bench — experiment drivers for the evaluation suite
//!
//! The paper is a vision paper with no quantitative tables; DESIGN.md §3
//! derives the experiment suite (E1–E8) its §IV/§V commit to. This crate
//! hosts the *drivers* that regenerate each experiment's table/series:
//! `nfi experiments` prints the tables, the workspace integration tests
//! assert the qualitative shapes on smaller configurations, and
//! [`scenarios`] supplies the fault scenarios the drivers and the
//! repository benchmark (`perfbench/`) share.

pub mod experiments;
pub mod scenarios;

pub use scenarios::{build_scenarios, Scenario};

/// Renders an ASCII table (used by `nfi experiments` to print each
/// experiment's rows the way the paper would report them).
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:<w$}", w = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:<w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_with_alignment() {
        let t = render_table(
            "T",
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long-header"));
        assert!(t.lines().count() >= 5);
    }
}
