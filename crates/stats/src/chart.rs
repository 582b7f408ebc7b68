//! ASCII bar charts for the `figure*` harness binaries.

use std::fmt::Write as _;

/// Renders grouped horizontal bar charts — one labelled bar per (row,
/// series) pair — mirroring the paper's grouped-bar figures in a terminal.
///
/// ```
/// use arl_stats::BarChart;
///
/// let mut c = BarChart::new("speedup over (2+0)", 40);
/// c.bar("go: (3+3)", 1.28);
/// c.bar("go: (16+0)", 1.33);
/// let s = c.render();
/// assert!(s.contains("go: (3+3)"));
/// ```
#[derive(Clone, Debug)]
pub struct BarChart {
    title: String,
    width: usize,
    bars: Vec<(String, f64)>,
}

impl BarChart {
    /// Creates a chart with a title and a maximum bar width in characters.
    pub fn new(title: &str, width: usize) -> BarChart {
        BarChart {
            title: title.to_string(),
            width: width.max(1),
            bars: Vec::new(),
        }
    }

    /// Appends a labelled bar.
    pub fn bar(&mut self, label: &str, value: f64) -> &mut BarChart {
        self.bars.push((label.to_string(), value));
        self
    }

    /// Inserts a blank separator line between groups.
    pub fn gap(&mut self) -> &mut BarChart {
        self.bars.push((String::new(), f64::NAN));
        self
    }

    /// Renders the chart; bars scale to the maximum value.
    pub fn render(&self) -> String {
        let max = self
            .bars
            .iter()
            .filter(|(_, v)| !v.is_nan())
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        let label_w = self
            .bars
            .iter()
            .map(|(l, _)| l.chars().count())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        for (label, value) in &self.bars {
            if value.is_nan() {
                out.push('\n');
                continue;
            }
            let n = if max > 0.0 {
                ((value / max) * self.width as f64).round() as usize
            } else {
                0
            };
            let _ = writeln!(
                out,
                "{label:<label_w$} |{} {value:.3}",
                "#".repeat(n),
                label_w = label_w
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let mut c = BarChart::new("t", 10);
        c.bar("half", 0.5).bar("full", 1.0);
        let s = c.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains(&"#".repeat(5)));
        assert!(!lines[1].contains(&"#".repeat(6)));
        assert!(lines[2].contains(&"#".repeat(10)));
    }

    #[test]
    fn gap_produces_blank_line() {
        let mut c = BarChart::new("t", 10);
        c.bar("a", 1.0).gap().bar("b", 2.0);
        assert_eq!(c.render().lines().count(), 4);
    }

    #[test]
    fn zero_values_render_without_panic() {
        let mut c = BarChart::new("t", 10);
        c.bar("z", 0.0);
        assert!(c.render().contains("0.000"));
    }
}
