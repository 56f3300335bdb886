//! Grid geometry: tile identifiers, mesh directions, and neighbor math.
//!
//! The Raw prototype is a 4x4 mesh of tiles, but the architecture scales to
//! larger fabrics ("Raw Processors can be seamlessly connected to build
//! fabrics of up to 1,024 tiles"), so all geometry here is parameterized by
//! a [`GridDim`].

use std::fmt;

/// Identifier of a tile within the grid, numbered row-major: tile
/// `r * cols + c` sits at row `r`, column `c`. On the 4x4 prototype this
/// matches the numbering of Figure 7-2 of the paper (tiles 0..=15).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId(pub u16);

impl TileId {
    /// Index usable for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One of the four mesh directions. `North` is towards row 0, `West` towards
/// column 0, matching the layout drawings in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dir {
    North,
    East,
    South,
    West,
}

impl Dir {
    /// All four directions, in a fixed deterministic order.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// The direction a neighbor sees this link from, e.g. a word leaving a
    /// tile heading `South` arrives at the neighbor's `North` input.
    #[inline]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// Small stable index for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::East => 1,
            Dir::South => 2,
            Dir::West => 3,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::North => "N",
            Dir::East => "E",
            Dir::South => "S",
            Dir::West => "W",
        };
        f.write_str(s)
    }
}

/// Dimensions of the tile grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GridDim {
    pub rows: u16,
    pub cols: u16,
}

impl GridDim {
    /// The 4x4 grid of the Raw prototype evaluated in the paper.
    pub const RAW_PROTOTYPE: GridDim = GridDim { rows: 4, cols: 4 };

    pub fn new(rows: u16, cols: u16) -> GridDim {
        assert!(rows >= 1 && cols >= 1, "grid must be at least 1x1");
        GridDim { rows, cols }
    }

    /// Total number of tiles.
    #[inline]
    pub fn tiles(self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// Tile at `(row, col)`.
    #[inline]
    pub fn tile(self, row: u16, col: u16) -> TileId {
        debug_assert!(row < self.rows && col < self.cols);
        TileId(row * self.cols + col)
    }

    /// `(row, col)` of a tile.
    #[inline]
    pub fn coords(self, t: TileId) -> (u16, u16) {
        (t.0 / self.cols, t.0 % self.cols)
    }

    /// The neighbor of `t` in direction `d`, or `None` if the link leaves
    /// the chip (an edge port, where line cards and DRAM attach).
    pub fn neighbor(self, t: TileId, d: Dir) -> Option<TileId> {
        let (r, c) = self.coords(t);
        match d {
            Dir::North if r > 0 => Some(self.tile(r - 1, c)),
            Dir::South if r + 1 < self.rows => Some(self.tile(r + 1, c)),
            Dir::West if c > 0 => Some(self.tile(r, c - 1)),
            Dir::East if c + 1 < self.cols => Some(self.tile(r, c + 1)),
            _ => None,
        }
    }

    /// True if the link `(t, d)` exits the chip.
    #[inline]
    pub fn is_edge(self, t: TileId, d: Dir) -> bool {
        self.neighbor(t, d).is_none()
    }

    /// Iterator over all tiles in numeric order.
    pub fn iter(self) -> impl Iterator<Item = TileId> {
        (0..self.tiles() as u16).map(TileId)
    }

    /// Manhattan distance between two tiles (lower bound on static-network
    /// hop count, exact for dimension-ordered routes).
    pub fn manhattan(self, a: TileId, b: TileId) -> u16 {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_prototype_is_4x4() {
        let g = GridDim::RAW_PROTOTYPE;
        assert_eq!(g.tiles(), 16);
        assert_eq!(g.tile(1, 1), TileId(5));
        assert_eq!(g.coords(TileId(10)), (2, 2));
    }

    #[test]
    fn neighbors_match_figure_layout() {
        let g = GridDim::RAW_PROTOTYPE;
        // Tile 0 sends south to tile 4 (the Figure 3-2 example pair).
        assert_eq!(g.neighbor(TileId(0), Dir::South), Some(TileId(4)));
        assert_eq!(g.neighbor(TileId(4), Dir::North), Some(TileId(0)));
        // Crossbar ring of the router: 5 -E-> 6 -S-> 10 -W-> 9 -N-> 5.
        assert_eq!(g.neighbor(TileId(5), Dir::East), Some(TileId(6)));
        assert_eq!(g.neighbor(TileId(6), Dir::South), Some(TileId(10)));
        assert_eq!(g.neighbor(TileId(10), Dir::West), Some(TileId(9)));
        assert_eq!(g.neighbor(TileId(9), Dir::North), Some(TileId(5)));
    }

    #[test]
    fn edges_detected() {
        let g = GridDim::RAW_PROTOTYPE;
        assert!(g.is_edge(TileId(0), Dir::North));
        assert!(g.is_edge(TileId(0), Dir::West));
        assert!(!g.is_edge(TileId(0), Dir::South));
        assert!(g.is_edge(TileId(15), Dir::East));
        assert!(g.is_edge(TileId(15), Dir::South));
        // Ingress tiles of the router layout sit on west/east edges.
        for (t, d) in [
            (TileId(4), Dir::West),
            (TileId(7), Dir::East),
            (TileId(11), Dir::East),
            (TileId(8), Dir::West),
        ] {
            assert!(g.is_edge(t, d), "ingress port {t:?} must face an edge");
        }
    }

    #[test]
    fn opposite_is_involution() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn manhattan_distance() {
        let g = GridDim::RAW_PROTOTYPE;
        assert_eq!(g.manhattan(TileId(0), TileId(15)), 6);
        assert_eq!(g.manhattan(TileId(5), TileId(6)), 1);
        assert_eq!(g.manhattan(TileId(5), TileId(10)), 2);
    }

    #[test]
    fn non_square_grids() {
        let g = GridDim::new(2, 8);
        assert_eq!(g.tiles(), 16);
        assert_eq!(g.neighbor(g.tile(0, 7), Dir::South), Some(g.tile(1, 7)));
        assert!(g.is_edge(g.tile(1, 0), Dir::South));
    }
}
