package core

import "barytree/internal/kernel"

// TargetTile is the working state of the target-tiled evaluation drivers:
// up to kernel.TileWidth targets evaluated together against every source
// block on an interaction list, so the source arrays stream once per tile
// instead of once per target (the paper's thread-block-of-targets layout
// on the host). Drivers call the resolved kernel.TileKernel's
// EvalTileAccum on TX/TY/TZ/Acc directly (the field path calls
// kernel.EvalGradTileAccum with Acc as phi); each call adds one block total
// per target, so loading Acc from phi, running the list, and storing back
// reproduces the per-target "phi[ti] += block" add chain of the scalar
// reference bit-for-bit (up to the kernel's kernel.TileMaxULP contract).
//
// A tile holding n < TileWidth real targets is padded: Load replicates the
// last real target into the empty lanes, and Store writes only the n real
// lanes. Lanes are independent, so a target's bits do not depend on which
// lane it occupies or whether its tile is padded.
type TargetTile struct {
	TX, TY, TZ [kernel.TileWidth]float64
	Acc        [kernel.TileWidth]float64
}

// Load gathers the n real targets [lo, lo+n) of the coordinate arrays x,
// y, z — particles or a Chebyshev grid's proxy points — pads the
// remaining lanes with the last of them, and zeroes the accumulators.
// 1 <= n <= kernel.TileWidth.
//
//hot:path
func (t *TargetTile) Load(x, y, z []float64, lo, n int) {
	for l := range t.TX {
		i := lo + min(l, n-1)
		t.TX[l], t.TY[l], t.TZ[l] = x[i], y[i], z[i]
	}
	t.Acc = [kernel.TileWidth]float64{}
}

// LoadAt is Load for the arbitrary target indices idx (sampled-target
// evaluation), 1 <= len(idx) <= kernel.TileWidth.
//
//hot:path
func (t *TargetTile) LoadAt(x, y, z []float64, idx []int) {
	for l := range t.TX {
		i := idx[min(l, len(idx)-1)]
		t.TX[l], t.TY[l], t.TZ[l] = x[i], y[i], z[i]
	}
	t.Acc = [kernel.TileWidth]float64{}
}

// LoadPotentials seeds the n real lanes' accumulators from phi[lo:], so the
// tile's adds continue phi's existing rounding chain exactly.
//
//hot:path
func (t *TargetTile) LoadPotentials(phi []float64, lo, n int) {
	copy(t.Acc[:n], phi[lo:lo+n])
}

// Store writes the n real lanes' accumulators back to phi[lo:].
//
//hot:path
func (t *TargetTile) Store(phi []float64, lo, n int) {
	copy(phi[lo:lo+n], t.Acc[:n])
}

// TargetTileF32 is the single-precision tile state: float32 coordinates
// (rounded once at load) and float32 accumulators, padded like TargetTile.
type TargetTileF32 struct {
	TX, TY, TZ [kernel.TileWidth]float32
	Acc        [kernel.TileWidth]float32
}

// Load gathers targets [lo, lo+n), rounding coordinates to float32, pads
// the remaining lanes with the last of them, and zeroes the accumulators.
//
//hot:path
func (t *TargetTileF32) Load(x, y, z []float64, lo, n int) {
	for l := range t.TX {
		i := lo + min(l, n-1)
		t.TX[l], t.TY[l], t.TZ[l] = float32(x[i]), float32(y[i]), float32(z[i])
	}
	t.Acc = [kernel.TileWidth]float32{}
}
