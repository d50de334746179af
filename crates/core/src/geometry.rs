//! Planar and solid geometry for device placement.
//!
//! MicroDeep assigns CNN units to sensor nodes laid out on XY coordinates
//! (paper Fig. 8); RF propagation needs 2D/3D distances; the temperature
//! experiment uses a 25×17 cell grid over a 1,400 m² lounge. This module
//! provides the point types and the [`Grid2`] cell lattice those systems
//! share.

use crate::error::{require_positive, ConfigError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in the plane, in metres.
///
/// # Example
///
/// ```
/// use zeiot_core::geometry::Point2;
/// let a = Point2::new(0.0, 0.0);
/// let b = Point2::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Vertical coordinate in metres.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from coordinates in metres.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Self = Self::new(0.0, 0.0);

    /// Euclidean distance to `other` in metres.
    pub fn distance(self, other: Self) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other`, avoiding the square root.
    pub fn distance_squared(self, other: Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise midpoint between `self` and `other`.
    pub fn midpoint(self, other: Self) -> Self {
        Self::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Self::new(x, y)
    }
}

/// A point in 3D space, in metres.
///
/// # Example
///
/// ```
/// use zeiot_core::geometry::Point3;
/// let a = Point3::new(0.0, 0.0, 0.0);
/// let b = Point3::new(1.0, 2.0, 2.0);
/// assert_eq!(a.distance(b), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point3 {
    /// Horizontal coordinate in metres.
    pub x: f64,
    /// Depth coordinate in metres.
    pub y: f64,
    /// Height coordinate in metres.
    pub z: f64,
}

impl Point3 {
    /// Creates a point from coordinates in metres.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance(self, other: Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt()
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

impl From<(f64, f64, f64)> for Point3 {
    fn from((x, y, z): (f64, f64, f64)) -> Self {
        Self::new(x, y, z)
    }
}

/// A rectangular lattice of `cols × rows` cells covering a physical area.
///
/// Cell `(0, 0)` is the south-west corner. Cells are addressed in
/// column-major `(col, row)` order to mirror the paper's XY assignment of
/// sensor readings to coordinates (Fig. 8). The temperature experiment's
/// lounge is `Grid2::new(25, 17, width_m, height_m)`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), zeiot_core::ConfigError> {
/// use zeiot_core::geometry::Grid2;
/// let grid = Grid2::new(25, 17, 50.0, 28.0)?;
/// assert_eq!(grid.cell_count(), 425);
/// let c = grid.cell_center(0, 0);
/// assert!((c.x - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Grid2 {
    cols: usize,
    rows: usize,
    width_m: f64,
    height_m: f64,
}

impl Grid2 {
    /// Creates a grid of `cols × rows` cells spanning `width_m × height_m`
    /// metres.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either cell count is zero or either
    /// physical dimension is not strictly positive.
    pub fn new(cols: usize, rows: usize, width_m: f64, height_m: f64) -> Result<Self> {
        if cols == 0 || rows == 0 {
            return Err(ConfigError::new("cols/rows", "grid must be non-empty"));
        }
        let width_m = require_positive("width_m", width_m)?;
        let height_m = require_positive("height_m", height_m)?;
        Ok(Self {
            cols,
            rows,
            width_m,
            height_m,
        })
    }

    /// Number of cell columns.
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Number of cell rows.
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells.
    pub const fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Physical width in metres.
    pub const fn width_m(&self) -> f64 {
        self.width_m
    }

    /// Physical height in metres.
    pub const fn height_m(&self) -> f64 {
        self.height_m
    }

    /// Width of one cell in metres.
    pub fn cell_width_m(&self) -> f64 {
        self.width_m / self.cols as f64
    }

    /// Height of one cell in metres.
    pub fn cell_height_m(&self) -> f64 {
        self.height_m / self.rows as f64
    }

    /// The physical centre of cell `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols()` or `row >= rows()`.
    pub fn cell_center(&self, col: usize, row: usize) -> Point2 {
        assert!(
            col < self.cols,
            "col {col} out of range (cols={})",
            self.cols
        );
        assert!(
            row < self.rows,
            "row {row} out of range (rows={})",
            self.rows
        );
        Point2::new(
            (col as f64 + 0.5) * self.cell_width_m(),
            (row as f64 + 0.5) * self.cell_height_m(),
        )
    }

    /// Flattens `(col, row)` to a dense index in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols()` or `row >= rows()`.
    pub fn flat_index(&self, col: usize, row: usize) -> usize {
        assert!(col < self.cols && row < self.rows);
        row * self.cols + col
    }

    /// Iterates over all `(col, row)` cell coordinates in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.cols;
        (0..self.cell_count()).map(move |i| (i % cols, i / cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point2_distances() {
        let a = Point2::new(1.0, 1.0);
        let b = Point2::new(4.0, 5.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25.0);
    }

    #[test]
    fn point2_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), Point2::new(1.0, 2.0));
    }

    #[test]
    fn point3_distance() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(2.0, 3.0, 6.0);
        assert_eq!(a.distance(b), 7.0);
    }

    #[test]
    fn grid_rejects_degenerate_inputs() {
        assert!(Grid2::new(0, 17, 1.0, 1.0).is_err());
        assert!(Grid2::new(25, 0, 1.0, 1.0).is_err());
        assert!(Grid2::new(25, 17, 0.0, 1.0).is_err());
        assert!(Grid2::new(25, 17, 1.0, -1.0).is_err());
    }

    #[test]
    fn grid_lounge_dimensions() {
        // The paper's 1,400 m² lounge split into 25×17 cells.
        let grid = Grid2::new(25, 17, 50.0, 28.0).unwrap();
        assert_eq!(grid.cell_count(), 425);
        assert!((grid.cell_width_m() - 2.0).abs() < 1e-12);
        assert!((grid.width_m() * grid.height_m() - 1400.0).abs() < 1e-9);
    }

    #[test]
    fn grid_cell_center_lies_in_its_cell() {
        let grid = Grid2::new(25, 17, 50.0, 34.0).unwrap();
        for (col, row) in grid.cells() {
            let c = grid.cell_center(col, row);
            assert_eq!((c.x / grid.cell_width_m()).floor() as usize, col);
            assert_eq!((c.y / grid.cell_height_m()).floor() as usize, row);
        }
    }

    #[test]
    fn grid_flat_index_round_trip() {
        let grid = Grid2::new(5, 3, 5.0, 3.0).unwrap();
        for (i, (c, r)) in grid.cells().enumerate() {
            assert_eq!(grid.flat_index(c, r), i);
        }
    }

    #[test]
    #[should_panic]
    fn grid_cell_center_panics_out_of_range() {
        let grid = Grid2::new(2, 2, 2.0, 2.0).unwrap();
        let _ = grid.cell_center(2, 0);
    }
}
