//! Uniform containers for reproduced figures and tables, with plain-text and
//! CSV rendering (no plotting dependency: the series are written in a form
//! any plotting tool ingests directly).

use std::fmt::Write as _;

/// One plotted series: a label and `(x, y)` points.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's figure legends where applicable).
    pub label: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub(crate) fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// A reproduced figure: identifier, axis names, and its series.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Paper figure id, e.g. `"fig4a"`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub(crate) x_label: &'static str,
    /// Y-axis label.
    pub(crate) y_label: &'static str,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Renders as CSV: a header row `x,label` then one row per point, with
    /// series concatenated and identified by the `series` column.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "series,{},{}", self.x_label, self.y_label);
        for s in &self.series {
            for (x, y) in &s.points {
                let _ = writeln!(out, "{},{},{}", csv_escape(&s.label), fmt_num(*x), fmt_num(*y));
            }
        }
        out
    }

    /// A short textual summary: per-series point count and y-range.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[{}] {}", self.id, self.title);
        for s in &self.series {
            let (min, max) = s
                .points
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(_, y)| {
                    (lo.min(y), hi.max(y))
                });
            let _ = writeln!(
                out,
                "  {}: {} points, {} in [{}, {}]",
                s.label,
                s.points.len(),
                self.y_label,
                fmt_num(min),
                fmt_num(max)
            );
        }
        out
    }
}

/// A reproduced table.
#[derive(Clone, Debug)]
pub struct TableData {
    /// Paper table id, e.g. `"table1"`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl TableData {
    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| csv_escape(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| csv_escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Renders as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let render = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", render(&self.headers, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render(row, &widths));
        }
        out
    }
}

/// Thousandths as a fixed three-decimal number (`1234` → `"1.234"`): the
/// QoE table's milliseconds, the campaign rollup's mean startup and the
/// flight recorder's Chrome-trace microseconds. Integer math only, so no
/// float rounding reaches a pinned output.
pub(crate) fn fixed3(milli: u64) -> String {
    format!("{}.{:03}", milli / 1_000, milli % 1_000)
}

/// Millionths as a fixed six-decimal number (`1234` → `"0.001234"`): the
/// stall ratios (parts per million) and the text dumps' milliseconds.
pub(crate) fn fixed6(micro: u64) -> String {
    format!("{}.{:06}", micro / 1_000_000, micro % 1_000_000)
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_figure() -> FigureData {
        FigureData {
            id: "figX",
            title: "Example".into(),
            x_label: "time_s",
            y_label: "mb",
            series: vec![
                Series::new("a", vec![(0.0, 1.0), (1.0, 2.5)]),
                Series::new("b, c", vec![(0.0, 3.0)]),
            ],
        }
    }

    #[test]
    fn figure_csv_has_header_and_rows() {
        let csv = sample_figure().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,time_s,mb");
        assert_eq!(lines[1], "a,0,1");
        assert_eq!(lines[2], "a,1,2.500000");
        assert_eq!(lines[3], "\"b, c\",0,3");
    }

    #[test]
    fn figure_summary_reports_ranges() {
        let s = sample_figure().summary();
        assert!(s.contains("[figX]"));
        assert!(s.contains("2 points"));
    }

    #[test]
    fn table_rendering() {
        let t = TableData {
            id: "t",
            title: "T".into(),
            headers: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "22".into()]],
        };
        assert_eq!(t.to_csv(), "a,b\n1,22\n");
        let text = t.to_text();
        assert!(text.contains("a  b"));
    }

    #[test]
    fn fixed_point_formatting_is_integer_exact() {
        assert_eq!(fixed3(0), "0.000");
        assert_eq!(fixed3(999), "0.999");
        assert_eq!(fixed3(1_234), "1.234");
        assert_eq!(fixed3(1_000_000), "1000.000");
        assert_eq!(fixed6(0), "0.000000");
        assert_eq!(fixed6(25_000), "0.025000");
        assert_eq!(fixed6(1_000_001), "1.000001");
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("with,comma"), "\"with,comma\"");
        assert_eq!(csv_escape("with\"quote"), "\"with\"\"quote\"");
    }
}
