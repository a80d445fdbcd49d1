package core

import (
	"barytree/internal/kernel"
	"barytree/internal/particle"
)

// EvalDirectTarget computes the potential at one target due to direct
// summation over source particles [cLo, cHi) — the body of one thread block
// of the batch-cluster direct sum kernel (Figure 3b): the loop over sources
// is what the GPU parallelizes over threads and reduces.
//
// This is the scalar reference path (one interface dispatch per pairwise
// interaction). The drivers run the tiled path (TargetTile through a
// kernel.TileKernel), which is bit-identical to it by the TileKernel
// contract for exact kernels and within kernel.TileMaxULP otherwise; this
// form remains the executable definition of that contract.
//
//hot:path
func EvalDirectTarget(k kernel.Kernel, tg *particle.Set, ti int, src *particle.Set, cLo, cHi int) float64 {
	tx, ty, tz := tg.X[ti], tg.Y[ti], tg.Z[ti]
	var phi float64
	for j := cLo; j < cHi; j++ {
		phi += k.Eval(tx, ty, tz, src.X[j], src.Y[j], src.Z[j]) * src.Q[j]
	}
	return phi
}

// EvalApproxTarget computes the potential at one target due to the
// barycentric particle-cluster approximation (equation (11)): a direct sum
// over the cluster's Chebyshev points with modified charges. This identical
// direct-sum structure is what makes the BLTC map efficiently onto GPUs.
// Scalar reference path; the drivers run the tiled path.
//
//hot:path
func EvalApproxTarget(k kernel.Kernel, tg *particle.Set, ti int, px, py, pz, qhat []float64) float64 {
	tx, ty, tz := tg.X[ti], tg.Y[ti], tg.Z[ti]
	var phi float64
	for j := range qhat {
		phi += k.Eval(tx, ty, tz, px[j], py[j], pz[j]) * qhat[j]
	}
	return phi
}

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
// (rounded once at load, exactly as the scalar F32 reference rounds the
// target) and float32 accumulators, padded like TargetTile.
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

// EvalDirectTargetF32 is the single-precision variant of EvalDirectTarget,
// used by the mixed-precision extension. Accumulation is float32 as well,
// mirroring an fp32 GPU kernel. Scalar reference path.
//
//hot:path
func EvalDirectTargetF32(k kernel.F32Kernel, tg *particle.Set, ti int, src *particle.Set, cLo, cHi int) float64 {
	tx, ty, tz := float32(tg.X[ti]), float32(tg.Y[ti]), float32(tg.Z[ti])
	var phi float32
	for j := cLo; j < cHi; j++ {
		phi += k.EvalF32(tx, ty, tz, float32(src.X[j]), float32(src.Y[j]), float32(src.Z[j])) * float32(src.Q[j])
	}
	return float64(phi)
}

// EvalApproxTargetF32 is the single-precision variant of EvalApproxTarget.
// Scalar reference path.
//
//hot:path
func EvalApproxTargetF32(k kernel.F32Kernel, tg *particle.Set, ti int, px, py, pz, qhat []float64) float64 {
	tx, ty, tz := float32(tg.X[ti]), float32(tg.Y[ti]), float32(tg.Z[ti])
	var phi float32
	for j := range qhat {
		phi += k.EvalF32(tx, ty, tz, float32(px[j]), float32(py[j]), float32(pz[j])) * float32(qhat[j])
	}
	return float64(phi)
}
