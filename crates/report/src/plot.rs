//! ASCII scatter/line plots with linear or logarithmic axes.
//!
//! Good enough to eyeball the shape of Figure 2's knee or Figure 3's
//! long tail straight from a terminal; the CSV output carries the exact
//! numbers.

/// Axis scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Base-10 logarithmic axis (requires positive values).
    Log,
}

/// One plotted series: a glyph and its points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Glyph used for this series' points.
    pub glyph: char,
    /// `(x, y)` data.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create a series.
    pub fn new<S: Into<String>>(label: S, glyph: char, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            glyph,
            points,
        }
    }
}

/// A character-grid plot.
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    title: String,
    x_label: String,
    y_label: String,
    width: usize,
    height: usize,
    x_scale: Scale,
    y_scale: Scale,
    series: Vec<Series>,
}

impl AsciiPlot {
    /// Create a plot with the given title and canvas size (characters).
    ///
    /// # Panics
    /// Panics when the canvas is smaller than 16×4.
    pub fn new<S: Into<String>>(title: S, width: usize, height: usize) -> Self {
        assert!(
            width >= 16 && height >= 4,
            "canvas too small: {width}×{height}"
        );
        AsciiPlot {
            title: title.into(),
            x_label: String::new(),
            y_label: String::new(),
            width,
            height,
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            series: Vec::new(),
        }
    }

    /// Set axis labels.
    pub fn labels<S: Into<String>, T: Into<String>>(mut self, x: S, y: T) -> Self {
        self.x_label = x.into();
        self.y_label = y.into();
        self
    }

    /// Set axis scales.
    pub fn scales(mut self, x: Scale, y: Scale) -> Self {
        self.x_scale = x;
        self.y_scale = y;
        self
    }

    /// Add a series.
    pub fn series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    fn transform(v: f64, scale: Scale) -> Option<f64> {
        match scale {
            Scale::Linear => Some(v),
            Scale::Log => (v > 0.0).then(|| v.log10()),
        }
    }

    /// Render the plot. Points with non-finite coordinates (or
    /// non-positive ones on log axes) are skipped.
    pub fn render(&self) -> String {
        let mut pts: Vec<(usize, f64, f64)> = Vec::new(); // (series, tx, ty)
        for (si, s) in self.series.iter().enumerate() {
            for &(x, y) in &s.points {
                if !(x.is_finite() && y.is_finite()) {
                    continue;
                }
                if let (Some(tx), Some(ty)) = (
                    Self::transform(x, self.x_scale),
                    Self::transform(y, self.y_scale),
                ) {
                    pts.push((si, tx, ty));
                }
            }
        }
        let mut out = format!("{}\n", self.title);
        if pts.is_empty() {
            out.push_str("(no plottable points)\n");
            return out;
        }
        let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, x, y) in &pts {
            x_lo = x_lo.min(x);
            x_hi = x_hi.max(x);
            y_lo = y_lo.min(y);
            y_hi = y_hi.max(y);
        }
        // Degenerate ranges still render: widen symmetrically.
        if x_hi - x_lo < 1e-12 {
            x_lo -= 0.5;
            x_hi += 0.5;
        }
        if y_hi - y_lo < 1e-12 {
            y_lo -= 0.5;
            y_hi += 0.5;
        }

        let mut grid = vec![vec![' '; self.width]; self.height];
        for &(si, x, y) in &pts {
            let cx = ((x - x_lo) / (x_hi - x_lo) * (self.width - 1) as f64).round() as usize;
            let cy = ((y - y_lo) / (y_hi - y_lo) * (self.height - 1) as f64).round() as usize;
            let row = self.height - 1 - cy; // y grows upward
            grid[row][cx] = self.series[si].glyph;
        }

        let inv = |t: f64, scale: Scale| -> f64 {
            match scale {
                Scale::Linear => t,
                Scale::Log => 10f64.powf(t),
            }
        };
        let y_top = inv(y_hi, self.y_scale);
        let y_bot = inv(y_lo, self.y_scale);
        for (i, row) in grid.iter().enumerate() {
            let marker = if i == 0 {
                format!("{y_top:>10.3} ")
            } else if i == self.height - 1 {
                format!("{y_bot:>10.3} ")
            } else {
                " ".repeat(11)
            };
            out.push_str(&marker);
            out.push('|');
            out.push_str(&row.iter().collect::<String>());
            out.push('\n');
        }
        out.push_str(&" ".repeat(11));
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        let x_left = inv(x_lo, self.x_scale);
        let x_right = inv(x_hi, self.x_scale);
        out.push_str(&format!(
            "{}{:<.3}{}{:>.3}\n",
            " ".repeat(12),
            x_left,
            " ".repeat(self.width.saturating_sub(16)),
            x_right
        ));
        if !self.x_label.is_empty() || !self.y_label.is_empty() {
            out.push_str(&format!("x: {}   y: {}\n", self.x_label, self.y_label));
        }
        for s in &self.series {
            out.push_str(&format!("  {} {}\n", s.glyph, s.label));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_and_legend() {
        let plot = AsciiPlot::new("demo", 40, 10)
            .labels("load", "time")
            .series(Series::new("P=2", 'o', vec![(0.0, 1.0), (1.0, 2.0)]))
            .series(Series::new("P=8", 'x', vec![(0.5, 5.0)]));
        let text = plot.render();
        assert!(text.starts_with("demo"));
        assert!(text.contains('o'));
        assert!(text.contains('x'));
        assert!(text.contains("P=2"));
        assert!(text.contains("x: load   y: time"));
    }

    #[test]
    fn empty_plot_is_graceful() {
        let plot = AsciiPlot::new("empty", 20, 5);
        assert!(plot.render().contains("no plottable points"));
    }

    #[test]
    fn log_scale_skips_nonpositive() {
        let plot = AsciiPlot::new("log", 20, 5)
            .scales(Scale::Linear, Scale::Log)
            .series(Series::new(
                "s",
                '*',
                vec![(0.0, 0.0), (1.0, 10.0), (2.0, 100.0)],
            ));
        let text = plot.render();
        // The (0, 0) point is dropped; the others plot.
        assert_eq!(text.matches('*').count(), 2 + 1); // 2 points + legend glyph
    }

    #[test]
    fn constant_series_renders() {
        let plot = AsciiPlot::new("flat", 20, 5).series(Series::new(
            "c",
            '#',
            vec![(0.0, 1.0), (1.0, 1.0)],
        ));
        let text = plot.render();
        assert!(text.contains('#'));
    }

    #[test]
    fn nan_points_skipped() {
        let plot = AsciiPlot::new("nan", 20, 5).series(Series::new(
            "s",
            '@',
            vec![(f64::NAN, 1.0), (1.0, 2.0)],
        ));
        let text = plot.render();
        assert_eq!(text.matches('@').count(), 1 + 1);
    }

    #[test]
    #[should_panic(expected = "canvas too small")]
    fn tiny_canvas_rejected() {
        let _ = AsciiPlot::new("t", 2, 2);
    }
}
