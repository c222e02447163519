//! ASCII rendering of deployments — a terminal-friendly "Figure 2".
//!
//! Examples and experiment logs render the field as a character raster:
//! nodes, highlighted regions (pools, zones), and routes. Purely
//! diagnostic; nothing in the protocols depends on it.
//!
//! ```text
//! .  .  · 2 2 ·  .  ·
//! ·  . ·2 2 2       ·
//! ·   * * * * ·  . ·
//! ```

use crate::geometry::{Point, Rect};
use crate::node::NodeId;
use crate::topology::Topology;

/// A character canvas over a rectangular field.
///
/// Later draw calls overwrite earlier ones, so draw background layers
/// (regions) first and foreground layers (routes, markers) last.
///
/// # Examples
///
/// ```
/// use pool_netsim::geometry::{Point, Rect};
/// use pool_netsim::render::Canvas;
///
/// let mut canvas = Canvas::new(Rect::square(10.0), 10, 5);
/// canvas.draw_point(Point::new(5.0, 2.5), '*');
/// let art = canvas.render();
/// assert!(art.contains('*'));
/// ```
#[derive(Debug, Clone)]
pub struct Canvas {
    field: Rect,
    cols: usize,
    rows: usize,
    cells: Vec<char>,
}

impl Canvas {
    /// Creates a blank canvas of `cols × rows` characters covering `field`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero or the field is degenerate.
    pub fn new(field: Rect, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "canvas must have positive dimensions");
        assert!(field.width() > 0.0 && field.height() > 0.0, "degenerate field");
        Canvas { field, cols, rows, cells: vec![' '; cols * rows] }
    }

    /// Canvas sized for a terminal: 72 columns, aspect-corrected rows
    /// (characters are ~2× taller than wide).
    pub fn terminal(field: Rect) -> Self {
        let cols = 72usize;
        let rows = ((field.height() / field.width()) * cols as f64 / 2.0).ceil().max(1.0) as usize;
        Canvas::new(field, cols, rows)
    }

    /// The character cell for a field position, or `None` if outside.
    fn index_of(&self, p: Point) -> Option<usize> {
        if !self.field.contains(p) {
            return None;
        }
        let fx = (p.x - self.field.min.x) / self.field.width();
        let fy = (p.y - self.field.min.y) / self.field.height();
        let cx = ((fx * self.cols as f64) as usize).min(self.cols - 1);
        // Row 0 renders at the top: flip y.
        let cy = self.rows - 1 - ((fy * self.rows as f64) as usize).min(self.rows - 1);
        Some(cy * self.cols + cx)
    }

    /// Plots a single character at a field position (no-op outside).
    pub fn draw_point(&mut self, p: Point, glyph: char) {
        if let Some(i) = self.index_of(p) {
            self.cells[i] = glyph;
        }
    }

    /// Plots every node of a topology (dead nodes render as `x`).
    pub fn draw_nodes(&mut self, topology: &Topology, glyph: char) {
        for node in topology.nodes() {
            let g = if topology.is_alive(node.id) { glyph } else { 'x' };
            self.draw_point(node.position, g);
        }
    }

    /// Fills an axis-aligned region with a glyph (background layer).
    pub fn fill_region(&mut self, region: Rect, glyph: char) {
        for row in 0..self.rows {
            for col in 0..self.cols {
                let p = self.cell_center(col, row);
                if region.contains(p) {
                    self.cells[row * self.cols + col] = glyph;
                }
            }
        }
    }

    /// Traces a route as a sequence of node positions.
    pub fn draw_route(&mut self, topology: &Topology, path: &[NodeId], glyph: char) {
        for w in path.windows(2) {
            let a = topology.position(w[0]);
            let b = topology.position(w[1]);
            // Sample along the segment densely enough to hit every cell.
            let steps = (2 * self.cols.max(self.rows)) as f64;
            for s in 0..=steps as usize {
                let t = s as f64 / steps;
                self.draw_point(Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)), glyph);
            }
        }
        if let Some(&first) = path.first() {
            self.draw_point(topology.position(first), 'S');
        }
        if let Some(&last) = path.last() {
            self.draw_point(topology.position(last), 'D');
        }
    }

    /// The field position at the center of character cell `(col, row)`.
    fn cell_center(&self, col: usize, row: usize) -> Point {
        let fx = (col as f64 + 0.5) / self.cols as f64;
        let fy = 1.0 - (row as f64 + 0.5) / self.rows as f64;
        Point::new(
            self.field.min.x + fx * self.field.width(),
            self.field.min.y + fy * self.field.height(),
        )
    }

    /// Renders the canvas to a newline-separated string.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for row in 0..self.rows {
            for col in 0..self.cols {
                out.push(self.cells[row * self.cols + col]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, Placement};
    use crate::node::Node;

    #[test]
    fn point_lands_in_expected_quadrant() {
        let mut canvas = Canvas::new(Rect::square(10.0), 10, 10);
        canvas.draw_point(Point::new(9.9, 9.9), '#'); // top-right
        let art = canvas.render();
        let first_line = art.lines().next().unwrap();
        assert_eq!(first_line.chars().last(), Some('#'));
    }

    #[test]
    fn y_axis_is_flipped_for_display() {
        let mut canvas = Canvas::new(Rect::square(10.0), 4, 4);
        canvas.draw_point(Point::new(0.1, 0.1), 'B'); // bottom-left
        let art = canvas.render();
        let last_line = art.lines().last().unwrap();
        assert_eq!(last_line.chars().next(), Some('B'));
    }

    #[test]
    fn out_of_field_points_are_ignored() {
        let mut canvas = Canvas::new(Rect::square(10.0), 4, 4);
        canvas.draw_point(Point::new(-1.0, 5.0), '#');
        canvas.draw_point(Point::new(11.0, 5.0), '#');
        assert!(!canvas.render().contains('#'));
    }

    #[test]
    fn region_fill_covers_inside_only() {
        let mut canvas = Canvas::new(Rect::square(10.0), 10, 10);
        canvas.fill_region(Rect::new(Point::new(0.0, 0.0), Point::new(5.0, 5.0)), '1');
        let art = canvas.render();
        let ones = art.chars().filter(|&c| c == '1').count();
        assert!((15..=35).contains(&ones), "filled {ones} of 100 cells for a quarter region");
    }

    #[test]
    fn dead_nodes_render_differently() {
        let nodes = vec![
            Node::new(NodeId(0), Point::new(2.0, 2.0)),
            Node::new(NodeId(1), Point::new(8.0, 8.0)),
        ];
        let mut topo = Topology::build(nodes, 20.0).unwrap();
        topo.fail_nodes(&[NodeId(1)]);
        let mut canvas = Canvas::new(Rect::square(10.0), 20, 20);
        canvas.draw_nodes(&topo, '.');
        let art = canvas.render();
        assert!(art.contains('.'));
        assert!(art.contains('x'));
    }

    #[test]
    fn route_has_source_and_destination_markers() {
        let nodes = Deployment::new(Rect::square(50.0), 30, Placement::Uniform, 3).nodes();
        let topo = Topology::build(nodes, 25.0).unwrap();
        let mut canvas = Canvas::terminal(Rect::square(50.0));
        canvas.draw_route(&topo, &[NodeId(0), NodeId(1), NodeId(2)], '*');
        let art = canvas.render();
        assert!(art.contains('S') && art.contains('D'));
    }

    #[test]
    fn terminal_canvas_has_sane_aspect() {
        let c = Canvas::terminal(Rect::square(100.0));
        assert_eq!(c.cols, 72);
        assert_eq!(c.rows, 36);
    }
}
