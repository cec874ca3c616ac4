//! A minimal fixed-width table renderer for `--metrics-summary`.

/// Renders `rows` under `headers` as a left-aligned, space-padded table
/// with a dashed rule under the header. Rows shorter than the header are
/// padded with empty cells; longer rows are truncated.
pub(crate) fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().take(cols).enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }

    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[&str]| {
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let cell = cells.get(i).copied().unwrap_or("");
            out.push_str(cell);
            // No trailing padding on the last column.
            if i + 1 < cols {
                for _ in cell.chars().count()..*w {
                    out.push(' ');
                }
            }
        }
        out.push('\n');
    };

    write_row(&mut out, headers);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let rule_refs: Vec<&str> = rule.iter().map(String::as_str).collect();
    write_row(&mut out, &rule_refs);
    for row in rows {
        let refs: Vec<&str> = row.iter().map(String::as_str).collect();
        write_row(&mut out, &refs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::render;

    #[test]
    fn renders_aligned_columns() {
        let rows = vec![
            vec!["alpha".to_string(), "1".to_string()],
            vec!["b".to_string(), "23456".to_string()],
        ];
        let t = render(&["name", "value"], &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "name   value");
        assert_eq!(lines[1], "-----  -----");
        assert_eq!(lines[2], "alpha  1");
        assert_eq!(lines[3], "b      23456");
    }

    #[test]
    fn pads_short_rows() {
        let t = render(&["a", "b", "c"], &[vec!["x".to_string()]]);
        assert!(t.lines().nth(2).unwrap().starts_with('x'));
    }
}
