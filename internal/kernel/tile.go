package kernel

import "math"

// TileWidth is the number of targets one tile-kernel call evaluates
// together, in both precisions: eight fp64 lanes fill one ZMM register
// (or two YMM lane groups), eight fp32 lanes one YMM register (the __m256
// SoA layout). Drivers walk a run of targets in tiles of TileWidth and pad
// the ragged last tile by replicating its last real target into the
// empty lanes; the padded lanes' accumulators are never stored. Lanes are
// independent, so every target takes the same lane computation wherever
// it sits in a run, and padding changes no real target's bits.
const TileWidth = 8

// TileKernel is the target-tiled evaluation fast path: one call evaluates
// a whole block of sources against a *tile* of TileWidth targets,
// accumulating each target's charge-weighted potential into phi:
//
//	for t := range phi { phi[t] += sum_j G(tile_t, s_j) * q[j] }
//
// This is the host-side analogue of the paper's GPU thread-block layout,
// where a block of targets shares every streamed source/cluster block: the
// sx/sy/sz/q arrays are loaded once per tile instead of once per target,
// and the per-target accumulator chains run independently.
//
// Contract: EvalTileAccum must be bit-identical to the per-target scalar
// reference
//
//	for t := range phi {
//		var p float64
//		for j := range q { p += k.Eval(tx[t], ty[t], tz[t], sx[j], sy[j], sz[j]) * q[j] }
//		phi[t] += p
//	}
//
// — each target's inner sum accumulated in source order from zero, and
// exactly one add of that block total into phi[t] (so tiling never changes
// how partial sums are grouped across blocks). Implementations may hoist
// loop-invariant parameter arithmetic (e.g. eps*eps) and interleave the
// chains source-by-source — the chains are independent — but must not
// reorder or fuse any single target's accumulation. Transcendental
// kernels whose vector path approximates exp differently from math.Exp
// are held to the measured TileMaxULP contract instead. All built-in
// kernels implement TileKernel; every other kernel gets the generic
// adapter from AsTile, which runs the reference loop above, so kernel.Func
// and user kernels keep working unchanged. See docs/performance.md.
type TileKernel interface {
	Kernel
	EvalTileAccum(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64)
}

// F32TileKernel is the single-precision tile fast path. Source coordinates
// and charges arrive as the float64 storage arrays and are rounded per
// element; per target the contract is the float32 reference
//
//	var p float32
//	for j := range q {
//		p += k.EvalF32(tx[t], ty[t], tz[t], float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
//	}
//	phi[t] += p
//
// with float32 accumulation (mirroring an fp32 GPU kernel). As with
// TileKernel, the per-target chains may be interleaved but not reordered,
// and exact kernels must stay bit-identical to that reference;
// transcendental kernels are covered by the F32TileMaxULP contract.
type F32TileKernel interface {
	F32Kernel
	EvalTileAccumF32(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, phi *[TileWidth]float32)
}

// AsTile resolves the tile fast path for k: kernels implementing
// TileKernel (all built-ins) are returned unchanged; any other Kernel —
// kernel.Func and user-defined kernels — is wrapped in the generic
// adapter, which loops k.Eval per lane. Resolve once per run, outside the
// hot loops.
func AsTile(k Kernel) TileKernel {
	if tk, ok := k.(TileKernel); ok {
		return tk
	}
	return tileAdapter{k}
}

// AsF32Tile resolves the single-precision tile fast path for k, wrapping
// kernels without a native F32TileKernel implementation in a generic
// adapter that loops k.EvalF32 per lane.
func AsF32Tile(k F32Kernel) F32TileKernel {
	if tk, ok := k.(F32TileKernel); ok {
		return tk
	}
	return f32TileAdapter{k}
}

// tileAdapter lifts any Kernel to TileKernel — the executable form of the
// TileKernel contract.
type tileAdapter struct {
	Kernel
}

// EvalTileAccum implements TileKernel.
//
//hot:path
func (a tileAdapter) EvalTileAccum(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	for t := range phi {
		var p float64
		for j := range q {
			p += a.Kernel.Eval(tx[t], ty[t], tz[t], sx[j], sy[j], sz[j]) * q[j]
		}
		phi[t] += p
	}
}

// f32TileAdapter lifts any F32Kernel to F32TileKernel.
type f32TileAdapter struct {
	F32Kernel
}

// EvalTileAccumF32 implements F32TileKernel.
//
//hot:path
func (a f32TileAdapter) EvalTileAccumF32(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, phi *[TileWidth]float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	for t := range phi {
		var p float32
		for j := range q {
			p += a.F32Kernel.EvalF32(tx[t], ty[t], tz[t], float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
		}
		phi[t] += p
	}
}

// half returns lanes [h, h+4) of an fp64 tile array. The pure-Go fp64
// loops and the AVX2 Yukawa tile are four lanes wide and run on each half
// of the tile in turn; the lanes are independent, so splitting a tile
// changes no lane's operations.
func half(a *[TileWidth]float64, h int) *[4]float64 {
	return (*[4]float64)(a[h : h+4])
}

// --- Hand-specialized fp64 tile loops for the built-in kernels. Each
// four-lane body streams the source arrays once: for every source, all
// four targets evaluate their kernel expression (repeated verbatim from
// the scalar Eval, loop-invariant parameter products hoisted) and advance
// their own scalar accumulator chain, so each chain's bits match the
// per-target scalar loop exactly while the sources are loaded once per
// half tile.

// coulombTileLoop, when non-nil, evaluates a whole Coulomb tile with the
// targets packed across SIMD lanes — per-lane IEEE-correctly-rounded
// vector sqrt/div, per-lane (hence per-target, in source order) vector
// accumulation — so the bits match the scalar chains exactly (see
// tile_amd64.s). The source block is handled whole: broadcasting one
// source at a time needs no multiple-of-anything prefix. Nil on
// architectures without an implementation and on x86 CPUs without AVX.
var coulombTileLoop func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64)

// EvalTileAccum implements TileKernel.
//
//hot:path
func (c Coulomb) EvalTileAccum(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
	if coulombTileLoop != nil && len(q) > 0 {
		coulombTileLoop(tx, ty, tz, sx, sy, sz, q, phi)
		return
	}
	for h := 0; h < TileWidth; h += 4 {
		c.tile4(half(tx, h), half(ty, h), half(tz, h), sx, sy, sz, q, half(phi, h))
	}
}

// tile4 is the pure-Go four-lane body of EvalTileAccum.
//
//hot:path
func (c Coulomb) tile4(tx, ty, tz *[4]float64, sx, sy, sz, q []float64, phi *[4]float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		g := 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = 1 / math.Sqrt(r2)
		}
		p3 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// yukawaTileLoop, when non-nil, evaluates a whole Yukawa tile with the
// exp computed by a range-reduced polynomial on the FMA ports
// (tile_amd64.s). Unlike the Coulomb loops it is NOT bit-identical to
// the scalar chains: the polynomial and math.Exp are different faithful
// approximations, so the tile carries the measured-ULP contract below
// (YukawaTileMaxULP) instead of the exact `==` contract. negKappa is
// -k.Kappa, so the vector (-kappa)*r product matches the scalar's bits.
var yukawaTileLoop func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, negKappa float64, phi *[TileWidth]float64)

// Accuracy contract for the vectorized tiles, per kernel:
//
//   - An exact kernel's tile paths are bit-identical to the per-target
//     scalar reference (the TileKernel contract) — TileMaxULP reports 0
//     and the tests compare with `==`.
//   - A transcendental kernel whose vector path approximates exp/log/...
//     differently from math.* cannot be exact; it instead pins a measured
//     per-pairwise-term ULP bound. TileMaxULP reports that bound, and the
//     tests check |tile - scalar| against it (scaled by the sum of
//     absolute terms for multi-source blocks, since per-term errors
//     accumulate additively at worst).
//
// The bounds are constants, not knobs: they were measured over the fuzz
// corpus and the full [-745, 710] exp argument range with margin, and
// TestYukawaTileULPContract fails if the implementation ever drifts past
// them, exactly as the bit-identity tests fail on a single flipped bit.
const (
	// YukawaTileMaxULP bounds |yukawaTileLoop - scalar| for one pairwise
	// Yukawa term, in fp64 ulps of the scalar term. EXPPD's error budget:
	// ~2.2 ulp from the polynomial + reduction, ~0.5 from each scale
	// multiply, ~0.5 from the division, against math.Exp's own ~1 ulp —
	// measured max over the fuzz corpus is 4 ulp; 6 leaves margin without
	// weakening the contract below observability.
	YukawaTileMaxULP = 6

	// YukawaTileF32MaxULP bounds the fp32 Yukawa tile's per-term error in
	// float32 ulps. The fp64 exp error above narrows to <= 1 ulp32 almost
	// everywhere; 3 covers the narrowing+division double rounding worst
	// case observed under fuzzing (max seen: 2).
	YukawaTileF32MaxULP = 3
)

// TileMaxULP reports the accuracy contract of k's vectorized fp64 tile
// paths against the scalar per-target reference: 0 means every installed
// vector path is bit-identical (`==`), n > 0 means pairwise terms may
// differ by up to n ulps (transcendental kernels whose vector exp is not
// math.Exp). Kernels currently running pure-Go tile loops are exact by
// construction. The result reflects the loops installed right now, so it
// follows SetAsmKernels.
func TileMaxULP(k Kernel) int {
	if _, ok := k.(Yukawa); ok && yukawaTileLoop != nil {
		return YukawaTileMaxULP
	}
	return 0
}

// F32TileMaxULP is TileMaxULP for the single-precision tile paths, in
// float32 ulps.
func F32TileMaxULP(k F32Kernel) int {
	if _, ok := k.(Yukawa); ok && yukawaTileF32Loop != nil {
		return YukawaTileF32MaxULP
	}
	return 0
}

// EvalTileAccum implements TileKernel.
//
//hot:path
func (k Yukawa) EvalTileAccum(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
	if yukawaTileLoop != nil && len(q) > 0 {
		yukawaTileLoop(tx, ty, tz, sx, sy, sz, q, -k.Kappa, phi)
		return
	}
	for h := 0; h < TileWidth; h += 4 {
		k.tile4(half(tx, h), half(ty, h), half(tz, h), sx, sy, sz, q, half(phi, h))
	}
}

// tile4 is the pure-Go four-lane body of EvalTileAccum.
//
//hot:path
func (k Yukawa) tile4(tx, ty, tz *[4]float64, sx, sy, sz, q []float64, phi *[4]float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	kappa := k.Kappa
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		g := 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			r := math.Sqrt(r2)
			g = math.Exp(-kappa*r) / r
		}
		p3 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// EvalTileAccum implements TileKernel.
//
//hot:path
func (g Gaussian) EvalTileAccum(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
	for h := 0; h < TileWidth; h += 4 {
		g.tile4(half(tx, h), half(ty, h), half(tz, h), sx, sy, sz, q, half(phi, h))
	}
}

// tile4 is the pure-Go four-lane body of EvalTileAccum.
//
//hot:path
func (g Gaussian) tile4(tx, ty, tz *[4]float64, sx, sy, sz, q []float64, phi *[4]float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	s2 := g.Sigma * g.Sigma
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += math.Exp(-(dx*dx+dy*dy+dz*dz)/s2) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += math.Exp(-(dx*dx+dy*dy+dz*dz)/s2) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += math.Exp(-(dx*dx+dy*dy+dz*dz)/s2) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += math.Exp(-(dx*dx+dy*dy+dz*dz)/s2) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// EvalTileAccum implements TileKernel.
//
//hot:path
func (m Multiquadric) EvalTileAccum(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
	for h := 0; h < TileWidth; h += 4 {
		m.tile4(half(tx, h), half(ty, h), half(tz, h), sx, sy, sz, q, half(phi, h))
	}
}

// tile4 is the pure-Go four-lane body of EvalTileAccum.
//
//hot:path
func (m Multiquadric) tile4(tx, ty, tz *[4]float64, sx, sy, sz, q []float64, phi *[4]float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	c2 := m.C * m.C
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// EvalTileAccum implements TileKernel.
//
//hot:path
func (r RegularizedCoulomb) EvalTileAccum(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
	for h := 0; h < TileWidth; h += 4 {
		r.tile4(half(tx, h), half(ty, h), half(tz, h), sx, sy, sz, q, half(phi, h))
	}
}

// tile4 is the pure-Go four-lane body of EvalTileAccum.
//
//hot:path
func (r RegularizedCoulomb) tile4(tx, ty, tz *[4]float64, sx, sy, sz, q []float64, phi *[4]float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e2 := r.Eps * r.Eps
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+e2) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+e2) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// EvalTileAccum implements TileKernel.
//
//hot:path
func (ip InversePower) EvalTileAccum(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
	for h := 0; h < TileWidth; h += 4 {
		ip.tile4(half(tx, h), half(ty, h), half(tz, h), sx, sy, sz, q, half(phi, h))
	}
}

// tile4 is the pure-Go four-lane body of EvalTileAccum.
//
//hot:path
func (ip InversePower) tile4(tx, ty, tz *[4]float64, sx, sy, sz, q []float64, phi *[4]float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e := -ip.P / 2
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	var p0, p1, p2, p3 float64
	for j := range q {
		sxj, syj, szj, qj := sx[j], sy[j], sz[j], q[j]
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		g := 0.0
		if r2 != 0 {
			g = math.Pow(r2, e)
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = math.Pow(r2, e)
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = math.Pow(r2, e)
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0.0
		if r2 != 0 {
			g = math.Pow(r2, e)
		}
		p3 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
}

// --- Hand-specialized fp32 tile loops for the built-in F32 kernels.

// coulombTileF32Loop, when non-nil, evaluates a whole fp32 Coulomb tile
// with the eight targets packed across float32 SIMD lanes. It is
// bit-identical to the scalar chains below: the per-element float32
// roundings of the source arrays, the fp32 distance math, the
// double-rounding-innocuous fp32 sqrt, the division and the per-lane
// source-order accumulation all have exact vector twins (tile_amd64.s).
var coulombTileF32Loop func(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, phi *[TileWidth]float32)

// yukawaTileF32Loop, when non-nil, is the fp32 Yukawa tile: exact twins
// everywhere except the exp, which runs the fp64 EXPPD polynomial on
// widened lanes and narrows back — the YukawaTileF32MaxULP contract.
var yukawaTileF32Loop func(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, negKappa float32, phi *[TileWidth]float32)

// EvalTileAccumF32 implements F32TileKernel.
//
//hot:path
func (Coulomb) EvalTileAccumF32(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, phi *[TileWidth]float32) {
	if coulombTileF32Loop != nil && len(q) > 0 {
		coulombTileF32Loop(tx, ty, tz, sx, sy, sz, q, phi)
		return
	}
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	tx4, tx5, tx6, tx7 := tx[4], tx[5], tx[6], tx[7]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	ty4, ty5, ty6, ty7 := ty[4], ty[5], ty[6], ty[7]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	tz4, tz5, tz6, tz7 := tz[4], tz[5], tz[6], tz[7]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for j := range q {
		sxj, syj, szj := float32(sx[j]), float32(sy[j]), float32(sz[j])
		qj := float32(q[j])
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		var g float32
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p3 += g * qj
		dx, dy, dz = tx4-sxj, ty4-syj, tz4-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p4 += g * qj
		dx, dy, dz = tx5-sxj, ty5-syj, tz5-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p5 += g * qj
		dx, dy, dz = tx6-sxj, ty6-syj, tz6-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p6 += g * qj
		dx, dy, dz = tx7-sxj, ty7-syj, tz7-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			g = 1 / float32(math.Sqrt(float64(r2)))
		}
		p7 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
	phi[4] += p4
	phi[5] += p5
	phi[6] += p6
	phi[7] += p7
}

// EvalTileAccumF32 implements F32TileKernel.
//
//hot:path
func (k Yukawa) EvalTileAccumF32(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, phi *[TileWidth]float32) {
	if yukawaTileF32Loop != nil && len(q) > 0 {
		yukawaTileF32Loop(tx, ty, tz, sx, sy, sz, q, -float32(k.Kappa), phi)
		return
	}
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	kappa := float32(k.Kappa)
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	tx4, tx5, tx6, tx7 := tx[4], tx[5], tx[6], tx[7]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	ty4, ty5, ty6, ty7 := ty[4], ty[5], ty[6], ty[7]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	tz4, tz5, tz6, tz7 := tz[4], tz[5], tz[6], tz[7]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for j := range q {
		sxj, syj, szj := float32(sx[j]), float32(sy[j]), float32(sz[j])
		qj := float32(q[j])
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		r2 := dx*dx + dy*dy + dz*dz
		var g float32
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p0 += g * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p1 += g * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p2 += g * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p3 += g * qj
		dx, dy, dz = tx4-sxj, ty4-syj, tz4-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p4 += g * qj
		dx, dy, dz = tx5-sxj, ty5-syj, tz5-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p5 += g * qj
		dx, dy, dz = tx6-sxj, ty6-syj, tz6-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p6 += g * qj
		dx, dy, dz = tx7-sxj, ty7-syj, tz7-szj
		r2 = dx*dx + dy*dy + dz*dz
		g = 0
		if r2 != 0 {
			r := float32(math.Sqrt(float64(r2)))
			g = float32(math.Exp(float64(-kappa*r))) / r
		}
		p7 += g * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
	phi[4] += p4
	phi[5] += p5
	phi[6] += p6
	phi[7] += p7
}

// EvalTileAccumF32 implements F32TileKernel.
//
//hot:path
func (g Gaussian) EvalTileAccumF32(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, phi *[TileWidth]float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	s := float32(g.Sigma)
	s2 := s * s
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	tx4, tx5, tx6, tx7 := tx[4], tx[5], tx[6], tx[7]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	ty4, ty5, ty6, ty7 := ty[4], ty[5], ty[6], ty[7]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	tz4, tz5, tz6, tz7 := tz[4], tz[5], tz[6], tz[7]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for j := range q {
		sxj, syj, szj := float32(sx[j]), float32(sy[j]), float32(sz[j])
		qj := float32(q[j])
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx4-sxj, ty4-syj, tz4-szj
		p4 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx5-sxj, ty5-syj, tz5-szj
		p5 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx6-sxj, ty6-syj, tz6-szj
		p6 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
		dx, dy, dz = tx7-sxj, ty7-syj, tz7-szj
		p7 += float32(math.Exp(float64(-(dx*dx+dy*dy+dz*dz)/s2))) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
	phi[4] += p4
	phi[5] += p5
	phi[6] += p6
	phi[7] += p7
}

// EvalTileAccumF32 implements F32TileKernel.
//
//hot:path
func (r RegularizedCoulomb) EvalTileAccumF32(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, phi *[TileWidth]float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e := float32(r.Eps)
	e2 := e * e
	tx0, tx1, tx2, tx3 := tx[0], tx[1], tx[2], tx[3]
	tx4, tx5, tx6, tx7 := tx[4], tx[5], tx[6], tx[7]
	ty0, ty1, ty2, ty3 := ty[0], ty[1], ty[2], ty[3]
	ty4, ty5, ty6, ty7 := ty[4], ty[5], ty[6], ty[7]
	tz0, tz1, tz2, tz3 := tz[0], tz[1], tz[2], tz[3]
	tz4, tz5, tz6, tz7 := tz[4], tz[5], tz[6], tz[7]
	var p0, p1, p2, p3, p4, p5, p6, p7 float32
	for j := range q {
		sxj, syj, szj := float32(sx[j]), float32(sy[j]), float32(sz[j])
		qj := float32(q[j])
		dx, dy, dz := tx0-sxj, ty0-syj, tz0-szj
		p0 += 1 / float32(math.Sqrt(float64(dx*dx+dy*dy+dz*dz+e2))) * qj
		dx, dy, dz = tx1-sxj, ty1-syj, tz1-szj
		p1 += 1 / float32(math.Sqrt(float64(dx*dx+dy*dy+dz*dz+e2))) * qj
		dx, dy, dz = tx2-sxj, ty2-syj, tz2-szj
		p2 += 1 / float32(math.Sqrt(float64(dx*dx+dy*dy+dz*dz+e2))) * qj
		dx, dy, dz = tx3-sxj, ty3-syj, tz3-szj
		p3 += 1 / float32(math.Sqrt(float64(dx*dx+dy*dy+dz*dz+e2))) * qj
		dx, dy, dz = tx4-sxj, ty4-syj, tz4-szj
		p4 += 1 / float32(math.Sqrt(float64(dx*dx+dy*dy+dz*dz+e2))) * qj
		dx, dy, dz = tx5-sxj, ty5-syj, tz5-szj
		p5 += 1 / float32(math.Sqrt(float64(dx*dx+dy*dy+dz*dz+e2))) * qj
		dx, dy, dz = tx6-sxj, ty6-syj, tz6-szj
		p6 += 1 / float32(math.Sqrt(float64(dx*dx+dy*dy+dz*dz+e2))) * qj
		dx, dy, dz = tx7-sxj, ty7-syj, tz7-szj
		p7 += 1 / float32(math.Sqrt(float64(dx*dx+dy*dy+dz*dz+e2))) * qj
	}
	phi[0] += p0
	phi[1] += p1
	phi[2] += p2
	phi[3] += p3
	phi[4] += p4
	phi[5] += p5
	phi[6] += p6
	phi[7] += p7
}
