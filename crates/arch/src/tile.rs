//! The simulated-tile contract shared with the execution engine.
//!
//! The paper's accelerator is physically an array of tiles, each a bank of
//! 512×512 crossbars (§IV, Table 3: 8 IMAs × 4 crossbars per tile). For
//! functional sharding the relevant physics is the **row budget**: partial
//! sums produced by different row ranges of a filter must be reduced
//! digitally, so a layer whose filters are longer than one tile's rows has
//! to be split into row groups placed on different tiles and merged by an
//! inter-tile accumulator reduction. Columns, by contrast, replicate
//! freely within a tile's crossbar bank — more filters just occupy more
//! columns (and more crossbars) on the same tile.
//!
//! [`TileSpec`] is that contract: the crossbar geometry one simulated tile
//! offers. `raella-core`'s shard planner consumes it to decide which
//! layers fit whole on a tile and where row-group splits fall.

use serde::{Deserialize, Serialize};

/// Crossbar geometry of one simulated accelerator tile.
///
/// `rows` is the row budget a single crossbar of the tile offers one
/// filter — the split granularity for row-sharded layers. `cols` is the
/// column width of one crossbar, used to count how many crossbars of the
/// tile a placement occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileSpec {
    /// Crossbar rows available to one filter on this tile.
    pub rows: usize,
    /// Columns per crossbar on this tile.
    pub cols: usize,
}

impl TileSpec {
    /// Creates a tile specification.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "tile dimensions must be nonzero");
        TileSpec { rows, cols }
    }

    /// The paper's tile: 512×512 crossbars (§5.1, Table 3).
    pub fn raella() -> Self {
        TileSpec {
            rows: 512,
            cols: 512,
        }
    }

    /// Crossbars needed to hold `columns` crossbar columns on this tile.
    pub fn crossbars_for_columns(&self, columns: usize) -> usize {
        columns.div_ceil(self.cols)
    }

    /// Cells of one crossbar (`rows × cols`).
    pub fn cells_per_crossbar(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }
}

impl Default for TileSpec {
    fn default() -> Self {
        TileSpec::raella()
    }
}

impl std::fmt::Display for TileSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}×{} tile", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_geometry() {
        let tile = TileSpec::default();
        assert_eq!((tile.rows, tile.cols), (512, 512));
        assert_eq!(tile, TileSpec::raella());
        assert_eq!(tile.cells_per_crossbar(), 512 * 512);
    }

    #[test]
    fn crossbar_count_rounds_up() {
        let tile = TileSpec::new(64, 64);
        assert_eq!(tile.crossbars_for_columns(1), 1);
        assert_eq!(tile.crossbars_for_columns(64), 1);
        assert_eq!(tile.crossbars_for_columns(65), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_rows_rejected() {
        TileSpec::new(0, 64);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(TileSpec::new(256, 128).to_string(), "256×128 tile");
    }
}
