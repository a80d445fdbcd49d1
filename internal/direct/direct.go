// Package direct implements O(N^2) direct summation of particle potentials,
// the exact reference that the treecode approximates (equation (1) of the
// paper) and the baseline in Figure 4. It provides a serial evaluator, a
// multicore evaluator parallelized over targets, and sampled-target
// evaluation for error measurement at large N (Section 4 samples the error
// at a random subset of targets for systems of 8M particles and up).
//
// All evaluators resolve the kernel's tiled fast path (kernel.AsTile) once
// per call and evaluate kernel.TileWidth targets per dispatch, so the
// O(N^2) inner loop streams the source arrays once per target tile and
// pays one dynamic dispatch per tile, not per pairwise interaction. A
// ragged last tile is padded with its last real target, so every target
// takes the same lane computation wherever it sits: the evaluators agree
// with each other bit for bit, and with the per-target scalar loop for
// exact kernels; kernels whose installed tile carries a measured-ULP
// contract (kernel.TileMaxULP > 0, e.g. the vectorized Yukawa exp) match
// it within that contract.
package direct

import (
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/pool"
)

// Sum computes phi[i] = sum_j G(x_i, y_j) q_j serially for all targets.
// When targets and sources are the same set, the singular self term is
// excluded by the kernel convention G(x,x) = 0.
func Sum(k kernel.Kernel, targets, sources *particle.Set) []float64 {
	phi := make([]float64, targets.Len())
	sumRange(kernel.AsTile(k), targets, sources, phi, 0, len(phi))
	return phi
}

// SumParallel computes the same potentials using up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). Targets are partitioned into
// contiguous blocks; each worker owns its block of the output and tiles
// within it, so no synchronization on phi is needed.
func SumParallel(k kernel.Kernel, targets, sources *particle.Set, workers int) []float64 {
	tk := kernel.AsTile(k)
	phi := make([]float64, targets.Len())
	pool.Blocks(len(phi), workers, func(_, lo, hi int) {
		sumRange(tk, targets, sources, phi, lo, hi)
	})
	return phi
}

// SumAt computes the potentials only at the target indices in sample,
// returning them in the same order. This is the sampled reference used for
// error norms at large N. Tiles gather up to TileWidth sampled targets per
// dispatch; the indices need not be contiguous.
func SumAt(k kernel.Kernel, targets *particle.Set, sample []int, sources *particle.Set) []float64 {
	tk := kernel.AsTile(k)
	phi := make([]float64, len(sample))
	pool.Blocks(len(sample), 0, func(_, lo, hi int) {
		for i := lo; i < hi; i += kernel.TileWidth {
			n := min(kernel.TileWidth, hi-i)
			evalTile(tk, targets, sample[i:i+n], sources, phi[i:i+n])
		}
	})
	return phi
}

// sumRange fills phi[lo:hi] with the potentials of targets [lo, hi)
// against all sources, one tile at a time.
//
//hot:path
func sumRange(tk kernel.TileKernel, targets, sources *particle.Set, phi []float64, lo, hi int) {
	var idx [kernel.TileWidth]int
	for i := lo; i < hi; i += kernel.TileWidth {
		n := min(kernel.TileWidth, hi-i)
		for l := 0; l < n; l++ {
			idx[l] = i + l
		}
		evalTile(tk, targets, idx[:n], sources, phi[i:i+n])
	}
}

// evalTile stores into out the potentials of the targets at indices idx
// (1 <= len(idx) <= TileWidth) due to all sources: one tile, its empty
// lanes padded with the last real target and their results discarded.
//
//hot:path
func evalTile(tk kernel.TileKernel, targets *particle.Set, idx []int, sources *particle.Set, out []float64) {
	var tx, ty, tz, acc [kernel.TileWidth]float64
	for l := range tx {
		i := idx[min(l, len(idx)-1)]
		tx[l], ty[l], tz[l] = targets.X[i], targets.Y[i], targets.Z[i]
	}
	tk.EvalTileAccum(&tx, &ty, &tz, sources.X, sources.Y, sources.Z, sources.Q, &acc)
	copy(out, acc[:len(idx)])
}
