package dataset

import "fmt"

// TileRows is T, the fixed tile height of a TiledMatrix. One feature's
// codes within a tile occupy TileRows consecutive bytes — 256 bytes =
// four cache lines — so a partition kernel visiting a node reads a short
// straight byte run instead of striding NumFeatures bytes apart across
// the whole block. 256 also keeps a tile's per-sample index buffers
// (int32) inside the compiled engine's existing 1024-sample scratch.
const TileRows = 256

// TiledMatrix is the feature-major tiled layout of a quantized code
// matrix: rows are grouped into tiles of TileRows consecutive rows, and
// within a tile each feature's codes sit contiguously. The code of row i,
// feature f lives at
//
//	Data[(i/TileRows)*TileRows*NumFeatures + f*TileRows + i%TileRows]
//
// Row-major layouts (BinnedMatrix.Quantize) make one *row* contiguous —
// right for scoring a sample through all features. The tiled layout makes
// one *feature column* contiguous per tile — right for the partitioned
// batch traversal, whose per-node kernel reads a single feature for every
// sample in the block — and, being a straight byte run, is exactly the
// shape the AVX2 compare-and-compress partition tier (see cart's
// partition_*.go) consumes with full-width loads. The tail tile is
// allocated in full and zero-padded; kernels only ever address rows
// below NumRows.
//
// A TiledMatrix is plain data: safe for concurrent readers once filled.
type TiledMatrix struct {
	// NumRows and NumFeatures give the logical matrix shape.
	NumRows, NumFeatures int
	// Data is the tiled backing, Tiles()*TileRows*NumFeatures bytes.
	Data []uint8
}

// NewTiledMatrix allocates a zeroed tiled matrix for the given shape.
func NewTiledMatrix(rows, features int) (*TiledMatrix, error) {
	if rows < 0 || features < 1 {
		return nil, fmt.Errorf("dataset: tiled matrix shape %d×%d invalid", rows, features)
	}
	tiles := (rows + TileRows - 1) / TileRows
	return &TiledMatrix{
		NumRows:     rows,
		NumFeatures: features,
		Data:        make([]uint8, tiles*TileRows*features),
	}, nil
}

// TileCodes builds a tiled matrix from row-major code rows (as produced
// by BinnedMatrix.Quantize). Every row must carry at least features
// codes; surplus trailing codes are ignored.
func TileCodes(rows [][]uint8, features int) (*TiledMatrix, error) {
	tm, err := NewTiledMatrix(len(rows), features)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) < features {
			return nil, fmt.Errorf("dataset: tiled row %d has %d of %d features", i, len(row), features)
		}
		tm.SetRow(i, row)
	}
	return tm, nil
}

// Tiles returns the tile count (including the padded tail tile).
func (tm *TiledMatrix) Tiles() int {
	return (tm.NumRows + TileRows - 1) / TileRows
}

// SetRow scatters one row's codes into the tiled layout. codes must hold
// at least NumFeatures entries and i must be below NumRows.
//
//hddlint:noalloc
func (tm *TiledMatrix) SetRow(i int, codes []uint8) {
	base := (i/TileRows)*TileRows*tm.NumFeatures + i%TileRows
	for f := 0; f < tm.NumFeatures; f++ {
		tm.Data[base+f*TileRows] = codes[f]
	}
}

// Code returns the code of row i, feature f.
func (tm *TiledMatrix) Code(i, f int) uint8 {
	return tm.Data[(i/TileRows)*TileRows*tm.NumFeatures+f*TileRows+i%TileRows]
}

// Row gathers row i back into row-major order, reusing dst when it is
// large enough — the inverse of SetRow, for tests and diagnostics.
func (tm *TiledMatrix) Row(i int, dst []uint8) []uint8 {
	if cap(dst) < tm.NumFeatures {
		dst = make([]uint8, tm.NumFeatures)
	}
	dst = dst[:tm.NumFeatures]
	base := (i/TileRows)*TileRows*tm.NumFeatures + i%TileRows
	for f := range dst {
		dst[f] = tm.Data[base+f*TileRows]
	}
	return dst
}
