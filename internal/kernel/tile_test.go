package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// tileTestKernels lists every built-in kernel with non-trivial parameters.
func tileTestKernels() []Kernel {
	return []Kernel{
		Coulomb{},
		Yukawa{Kappa: 0.7},
		Gaussian{Sigma: 1.3},
		Multiquadric{C: 0.4},
		RegularizedCoulomb{Eps: 0.05},
		InversePower{P: 3},
	}
}

// tileTestSources builds a random source block that includes a source
// coincident with the target (tx, ty, tz), exercising the r2 == 0 branch
// of the singular kernels exactly as self-interactions do in the
// treecode.
func tileTestSources(rng *rand.Rand, n int, tx, ty, tz float64) (sx, sy, sz, q []float64) {
	sx = make([]float64, n)
	sy = make([]float64, n)
	sz = make([]float64, n)
	q = make([]float64, n)
	for j := range sx {
		sx[j] = rng.Float64()*2 - 1
		sy[j] = rng.Float64()*2 - 1
		sz[j] = rng.Float64()*2 - 1
		q[j] = rng.Float64()*2 - 1
	}
	sx[n/2], sy[n/2], sz[n/2] = tx, ty, tz // self term
	return sx, sy, sz, q
}

// scalarAccum is the per-target reference the TileKernel contract is
// defined against: per-source interface Eval, accumulated in index order.
func scalarAccum(k Kernel, tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	var phi float64
	for j := range q {
		phi += k.Eval(tx, ty, tz, sx[j], sy[j], sz[j]) * q[j]
	}
	return phi
}

// scalarAccumF32 is the single-precision reference: per-element rounding
// of the float64 storage, float32 accumulation.
func scalarAccumF32(k F32Kernel, tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	var phi float32
	for j := range q {
		phi += k.EvalF32(tx, ty, tz, float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
	}
	return phi
}

// tileTestSizes covers every residue mod TileWidth at small and moderate
// block lengths, so the specialized loops, the AVX tiles (which handle
// any n, and the ZMM tile's odd trailing source), and the adapters all
// see ragged sizes.
var tileTestSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 34, 63, 64, 65, 66, 127, 128, 129, 130}

// tileTestTargets builds a random fp64 tile.
func tileTestTargets(rng *rand.Rand) (tx, ty, tz [TileWidth]float64) {
	for t := 0; t < TileWidth; t++ {
		tx[t] = rng.Float64()*2 - 1
		ty[t] = rng.Float64()*2 - 1
		tz[t] = rng.Float64()*2 - 1
	}
	return
}

// ulpDiff64 measures the distance between a and b in units in the last
// place, using the ordered-integer representation of the fp64 line (so the
// distance is exact across exponent boundaries and through zero). Two NaNs
// count as equal.
func ulpDiff64(a, b float64) uint64 {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return 0
	}
	ia, ib := orderedBits64(a), orderedBits64(b)
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

func orderedBits64(f float64) int64 {
	b := int64(math.Float64bits(f))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// ulpDiff32 is ulpDiff64 on the float32 line.
func ulpDiff32(a, b float32) uint32 {
	if a == b || (a != a && b != b) {
		return 0
	}
	ia, ib := orderedBits32(a), orderedBits32(b)
	if ia > ib {
		return uint32(ia - ib)
	}
	return uint32(ib - ia)
}

func orderedBits32(f float32) int32 {
	b := int32(math.Float32bits(f))
	if b < 0 {
		b = math.MinInt32 - b
	}
	return b
}

// tileAccumTol converts a per-pairwise-term ULP bound into an absolute
// tolerance for an accumulated n-term block: each term may be off by
// maxULP ulps of itself, each of the n adds may round differently by half
// an ulp of the running sum, and every involved ulp is at most one ulp of
// the block's sum of absolute terms. An exact kernel (maxULP = 0) gets
// tolerance 0, i.e. the `==` contract.
func tileAccumTol(maxULP, n int, absSum float64) float64 {
	if maxULP == 0 {
		return 0
	}
	return float64(maxULP+1) * float64(n) * ulpOf64(absSum)
}

func ulpOf64(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

func tileAccumTol32(maxULP, n int, absSum float32) float32 {
	if maxULP == 0 {
		return 0
	}
	return float32(maxULP+1) * float32(n) * ulpOf32(absSum)
}

func ulpOf32(x float32) float32 {
	x = float32(math.Abs(float64(x)))
	return math.Nextafter32(x, float32(math.Inf(1))) - x
}

// scalarAccumAbs is scalarAccum over |G*q|: the sum of absolute pairwise
// terms that scales the ULP tolerance for transcendental tiles.
func scalarAccumAbs(k Kernel, tx, ty, tz float64, sx, sy, sz, q []float64) float64 {
	var sum float64
	for j := range q {
		sum += math.Abs(k.Eval(tx, ty, tz, sx[j], sy[j], sz[j]) * q[j])
	}
	return sum
}

func scalarAccumAbsF32(k F32Kernel, tx, ty, tz float32, sx, sy, sz, q []float64) float32 {
	var sum float32
	for j := range q {
		t := k.EvalF32(tx, ty, tz, float32(sx[j]), float32(sy[j]), float32(sz[j])) * float32(q[j])
		sum += float32(math.Abs(float64(t)))
	}
	return sum
}

// checkTilePhi compares an accumulated tile against the reference under
// the kernel's accuracy contract: exact bits when maxULP is 0, otherwise
// within the additive ULP tolerance.
func checkTilePhi(t *testing.T, label string, n, maxULP int, got, want, absSum []float64) {
	t.Helper()
	for i := range got {
		if maxULP == 0 {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("%s n=%d lane %d: got %v (%x) != want %v (%x)",
					label, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
			continue
		}
		tol := tileAccumTol(maxULP, n, absSum[i])
		if d := math.Abs(got[i] - want[i]); !(d <= tol) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s n=%d lane %d: |%v - %v| = %v exceeds %d-ULP tolerance %v",
				label, n, i, got[i], want[i], d, maxULP, tol)
		}
	}
}

func checkTilePhiF32(t *testing.T, label string, n, maxULP int, got, want, absSum []float32) {
	t.Helper()
	for i := range got {
		if maxULP == 0 {
			if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
				t.Fatalf("%s n=%d lane %d: got %v (%x) != want %v (%x)",
					label, n, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
			continue
		}
		tol := tileAccumTol32(maxULP, n, absSum[i])
		if d := float32(math.Abs(float64(got[i] - want[i]))); !(d <= tol) && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s n=%d lane %d: |%v - %v| = %v exceeds %d-ULP tolerance %v",
				label, n, i, got[i], want[i], d, maxULP, tol)
		}
	}
}

// TestTileKernelBitIdentical verifies the TileKernel accuracy contract for
// every built-in kernel at tile-ragged sizes, twice: once with whatever
// loops init() installed (assembly on capable hardware) and once forced
// through the pure-Go fallbacks via SetAsmKernels(false). Exact kernels
// must match the per-target scalar Eval loop and the generic adapter
// (forced through kernel.Func so AsTile cannot return the specialization)
// bit-for-bit — including the single phi[t] += add into a preloaded,
// nonzero phi tile. Transcendental tiles (the asm
// Yukawa) are held to their pinned TileMaxULP bound instead; with the
// assembly off, TileMaxULP reports 0 and the same code path re-pins the
// Go loops as exact.
func TestTileKernelBitIdentical(t *testing.T) {
	t.Run("installed", func(t *testing.T) { testTileKernelContract(t, 44) })
	t.Run("pure-go", func(t *testing.T) {
		if !AsmKernelsAvailable() {
			t.Skip("no assembly kernels on this machine; installed == pure-go")
		}
		prev := SetAsmKernels(false)
		defer SetAsmKernels(prev)
		testTileKernelContract(t, 44)
	})
}

func testTileKernelContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range tileTestKernels() {
		t.Run(k.Name(), func(t *testing.T) {
			tk := AsTile(k)
			if _, ok := k.(TileKernel); !ok {
				t.Fatalf("built-in kernel %s does not implement TileKernel", k.Name())
			}
			maxULP := TileMaxULP(k)
			adapter := AsTile(Func{KernelName: k.Name() + "-func", F: k.Eval})
			for _, n := range tileTestSizes {
				tx, ty, tz := tileTestTargets(rng)
				// The self terms sit on targets 1 and 6, one per 4-lane
				// half (the second at an odd source index, which the ZMM
				// tile's Goldschmidt stream takes), so those lanes
				// exercise the r2 == 0 branch while the others stay
				// regular.
				sx, sy, sz, q := tileTestSources(rng, n, tx[1], ty[1], tz[1])
				if n > 2 {
					sx[1], sy[1], sz[1] = tx[6], ty[6], tz[6]
				}

				var phi0 [TileWidth]float64
				for t := range phi0 {
					phi0[t] = rng.Float64()*2 - 1
				}
				want := phi0
				var absSum [TileWidth]float64
				for t := 0; t < TileWidth; t++ {
					want[t] += scalarAccum(k, tx[t], ty[t], tz[t], sx, sy, sz, q)
					absSum[t] = scalarAccumAbs(k, tx[t], ty[t], tz[t], sx, sy, sz, q)
				}

				got := phi0
				tk.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhi(t, "specialized tile", n, maxULP, got[:], want[:], absSum[:])
				got = phi0
				adapter.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhi(t, "adapter tile", n, 0, got[:], want[:], absSum[:])
			}
		})
	}
}

// TestF32TileKernelBitIdentical is the fp32 analogue for the built-in
// kernels that implement F32Kernel, with the same installed/pure-go
// double pass. Source block sizes cover every residue mod 8
// (tileTestSizes).
func TestF32TileKernelBitIdentical(t *testing.T) {
	t.Run("installed", func(t *testing.T) { testF32TileKernelContract(t, 45) })
	t.Run("pure-go", func(t *testing.T) {
		if !AsmKernelsAvailable() {
			t.Skip("no assembly kernels on this machine; installed == pure-go")
		}
		prev := SetAsmKernels(false)
		defer SetAsmKernels(prev)
		testF32TileKernelContract(t, 45)
	})
}

func testF32TileKernelContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, k := range tileTestKernels() {
		f32, ok := k.(F32Kernel)
		if !ok {
			continue
		}
		t.Run(k.Name(), func(t *testing.T) {
			tk := AsF32Tile(f32)
			if _, ok := f32.(F32TileKernel); !ok {
				t.Fatalf("built-in F32 kernel %s does not implement F32TileKernel", k.Name())
			}
			maxULP := F32TileMaxULP(f32)
			adapter := f32TileAdapter{f32}
			for _, n := range tileTestSizes {
				var tx, ty, tz [TileWidth]float32
				for t := 0; t < TileWidth; t++ {
					tx[t] = float32(rng.Float64()*2 - 1)
					ty[t] = float32(rng.Float64()*2 - 1)
					tz[t] = float32(rng.Float64()*2 - 1)
				}
				sx, sy, sz, q := tileTestSources(rng, n, float64(tx[1]), float64(ty[1]), float64(tz[1]))

				var phi0 [TileWidth]float32
				for t := range phi0 {
					phi0[t] = float32(rng.Float64()*2 - 1)
				}
				want := phi0
				var absSum [TileWidth]float32
				for t := 0; t < TileWidth; t++ {
					want[t] += scalarAccumF32(f32, tx[t], ty[t], tz[t], sx, sy, sz, q)
					absSum[t] = scalarAccumAbsF32(f32, tx[t], ty[t], tz[t], sx, sy, sz, q)
				}

				got := phi0
				tk.EvalTileAccumF32(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhiF32(t, "specialized fp32 tile", n, maxULP, got[:], want[:], absSum[:])
				got = phi0
				adapter.EvalTileAccumF32(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhiF32(t, "fp32 adapter tile", n, 0, got[:], want[:], absSum[:])
			}
		})
	}
}

// TestAsmVsGoTiles pins asm-vs-Go equivalence for every vectorized tile
// on the same inputs, via the SetAsmKernels dispatch override: each block
// is evaluated once with the assembly loops installed and once through
// the pure-Go fallbacks, and the results must agree under the kernel's
// accuracy contract (bit-identical for Coulomb fp64/fp32; within the
// pinned ULP bound for the Yukawa transcendental tiles). Before this
// knob existed the fallback loops were dead code on machines where
// init() installed the assembly.
func TestAsmVsGoTiles(t *testing.T) {
	if !AsmKernelsAvailable() {
		t.Skip("no assembly kernels to compare on this machine")
	}
	rng := rand.New(rand.NewSource(48))
	kernels := []Kernel{Coulomb{}, Yukawa{Kappa: 0.7}, Yukawa{Kappa: 0}}
	for _, n := range tileTestSizes {
		tx, ty, tz := tileTestTargets(rng)
		sx, sy, sz, q := tileTestSources(rng, n, tx[1], ty[1], tz[1])
		var phi0 [TileWidth]float64
		for i := range phi0 {
			phi0[i] = rng.Float64()*2 - 1
		}
		var ftx, fty, ftz [TileWidth]float32
		for i := range ftx {
			ftx[i] = float32(rng.Float64()*2 - 1)
			fty[i] = float32(rng.Float64()*2 - 1)
			ftz[i] = float32(rng.Float64()*2 - 1)
		}
		ftx[1], fty[1], ftz[1] = float32(tx[1]), float32(ty[1]), float32(tz[1])
		var fphi0 [TileWidth]float32
		for i := range fphi0 {
			fphi0[i] = float32(rng.Float64()*2 - 1)
		}

		for _, k := range kernels {
			maxULP := TileMaxULP(k)

			asm := phi0
			AsTile(k).EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &asm)
			fasm := fphi0
			var f32k F32Kernel
			var f32ULP int
			if fk, ok := k.(F32Kernel); ok {
				f32k = fk
				f32ULP = F32TileMaxULP(fk)
				AsF32Tile(fk).EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &fasm)
			}

			// Same inputs through the pure-Go loops.
			prev := SetAsmKernels(false)
			goPhi := phi0
			AsTile(k).EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &goPhi)
			fgo := fphi0
			if f32k != nil {
				AsF32Tile(f32k).EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &fgo)
			}
			SetAsmKernels(prev)

			var absSum [TileWidth]float64
			for i := 0; i < TileWidth; i++ {
				absSum[i] = scalarAccumAbs(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
			}
			checkTilePhi(t, k.Name()+" asm-vs-go tile", n, maxULP, asm[:], goPhi[:], absSum[:])
			if f32k != nil {
				var fabsSum [TileWidth]float32
				for i := range fabsSum {
					fabsSum[i] = scalarAccumAbsF32(f32k, ftx[i], fty[i], ftz[i], sx, sy, sz, q)
				}
				checkTilePhiF32(t, k.Name()+" asm-vs-go fp32 tile", n, f32ULP, fasm[:], fgo[:], fabsSum[:])
			}
		}
	}
}

// TestAsTileResolution pins the dispatch rules: built-ins resolve to
// themselves, foreign kernels to the generic per-lane Eval adapter, and
// resolving an adapter's result again is a no-op.
func TestAsTileResolution(t *testing.T) {
	for _, k := range tileTestKernels() {
		if tk := AsTile(k); tk != k {
			t.Errorf("AsTile(%s) wrapped a kernel that already implements TileKernel", k.Name())
		}
	}
	f := Func{KernelName: "custom", F: Coulomb{}.Eval}
	tk := AsTile(f)
	if _, ok := tk.(tileAdapter); !ok {
		t.Fatalf("AsTile(Func) = %T, want tileAdapter", tk)
	}
	if again, ok := AsTile(tk).(tileAdapter); !ok {
		t.Errorf("AsTile(AsTile(k)) lost the adapter")
	} else if _, double := again.Kernel.(tileAdapter); double {
		t.Errorf("AsTile(AsTile(k)) double-wrapped the adapter")
	}
	if tk.Name() != "custom" {
		t.Errorf("adapter name = %q, want custom", tk.Name())
	}
}

// TestTileKernelEmpty verifies the degenerate empty block leaves the
// accumulated values unchanged (phi[t] += 0 at most).
func TestTileKernelEmpty(t *testing.T) {
	tx := [TileWidth]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	for _, k := range tileTestKernels() {
		phi := [TileWidth]float64{1, 2, 3, 4, 5, 6, 7, 8}
		AsTile(k).EvalTileAccum(&tx, &tx, &tx, nil, nil, nil, nil, &phi)
		if phi != [TileWidth]float64{1, 2, 3, 4, 5, 6, 7, 8} {
			t.Errorf("%s: empty block changed phi to %v", k.Name(), phi)
		}
	}
}

// TestCoulombTileExtremeMagnitudes sweeps coordinate scales across the
// full binary exponent range, so s = sqrt(r2) runs from the bottom of its
// domain (r2 subnormal) to +Inf overflow. This is the empirical pin for
// the ZMM tile's Goldschmidt square root and Newton–Raphson reciprocal
// being correctly rounded — hence bit-identical to the scalar
// 1/math.Sqrt — at every magnitude, through both its fast and divider
// patch paths, and for the masked s == +Inf lanes matching the scalar
// 1/Inf = +0.
func TestCoulombTileExtremeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tk := AsTile(Coulomb{})
	trials := 40
	if testing.Short() {
		trials = 4
	}
	for scale := -538.0; scale <= 520; scale += 1 {
		mag := math.Ldexp(1, int(scale))
		for trial := 0; trial < trials; trial++ {
			n := 1 + rng.Intn(9)
			var tx, ty, tz [TileWidth]float64
			for i := range tx {
				tx[i] = (rng.Float64()*2 - 1) * mag
				ty[i] = (rng.Float64()*2 - 1) * mag
				tz[i] = (rng.Float64()*2 - 1) * mag
			}
			sx := make([]float64, n)
			sy := make([]float64, n)
			sz := make([]float64, n)
			q := make([]float64, n)
			for j := range sx {
				sx[j] = (rng.Float64()*2 - 1) * mag
				sy[j] = (rng.Float64()*2 - 1) * mag
				sz[j] = (rng.Float64()*2 - 1) * mag
				q[j] = rng.Float64()*2 - 1
			}
			sx[n/2], sy[n/2], sz[n/2] = tx[0], ty[0], tz[0] // self term

			var want [TileWidth]float64
			for i := 0; i < TileWidth; i++ {
				want[i] = scalarAccum(Coulomb{}, tx[i], ty[i], tz[i], sx, sy, sz, q)
			}
			var got [TileWidth]float64
			tk.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
			if got != want {
				t.Fatalf("scale 2^%g n=%d: tile %v != scalar %v", scale, n, got, want)
			}
		}
	}
}

// TestF32TileExtremeMagnitudes is the fp32 magnitude sweep (the fp32 half
// of the extreme-magnitude pin): coordinate scales span the float32
// exponent range past both ends — r2 subnormal in fp32 at the bottom,
// r2 = +Inf overflow at the top, where both paths must produce g = +0.
// Coulomb must stay bit-identical; Yukawa is held to its fp32 ULP bound.
func TestF32TileExtremeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	kernels := []F32Kernel{Coulomb{}, Yukawa{Kappa: 0.9}}
	trials := 12
	if testing.Short() {
		trials = 2
	}
	for scale := -70.0; scale <= 70; scale += 1 {
		mag := math.Ldexp(1, int(scale))
		for trial := 0; trial < trials; trial++ {
			n := 1 + rng.Intn(9)
			var tx, ty, tz [TileWidth]float32
			for i := range tx {
				tx[i] = float32((rng.Float64()*2 - 1) * mag)
				ty[i] = float32((rng.Float64()*2 - 1) * mag)
				tz[i] = float32((rng.Float64()*2 - 1) * mag)
			}
			sx := make([]float64, n)
			sy := make([]float64, n)
			sz := make([]float64, n)
			q := make([]float64, n)
			for j := range sx {
				sx[j] = (rng.Float64()*2 - 1) * mag
				sy[j] = (rng.Float64()*2 - 1) * mag
				sz[j] = (rng.Float64()*2 - 1) * mag
				q[j] = rng.Float64()*2 - 1
			}
			sx[n/2], sy[n/2], sz[n/2] = float64(tx[0]), float64(ty[0]), float64(tz[0])

			for _, k := range kernels {
				maxULP := F32TileMaxULP(k)
				var want, absSum [TileWidth]float32
				for i := 0; i < TileWidth; i++ {
					want[i] = scalarAccumF32(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
					absSum[i] = scalarAccumAbsF32(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
				}
				var got [TileWidth]float32
				AsF32Tile(k).EvalTileAccumF32(&tx, &ty, &tz, sx, sy, sz, q, &got)
				checkTilePhiF32(t, k.Name()+" fp32 tile @2^"+itoa(int(scale)), n, maxULP, got[:], want[:], absSum[:])
			}
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// TestYukawaTileULPContract is the per-pairwise-term pin for the
// transcendental tiles: over a sweep of kappa and log-spaced distances
// covering the exp argument range from ~-0 down through the underflow
// cutoff, single-source single-term tiles are compared against the scalar
// term in exact ULP distance, which must stay within YukawaTileMaxULP
// (fp64) and YukawaTileF32MaxULP (fp32). This is the measured bound the
// constants document; if the polynomial, the reduction, or the scaling
// ever drift past it, this test fails just as the bit-identity tests fail
// on a flipped bit. Skipped when no vector Yukawa is installed (the Go
// loops ARE the scalar reference).
func TestYukawaTileULPContract(t *testing.T) {
	if yukawaTileLoop == nil && yukawaTileF32Loop == nil {
		t.Skip("no vectorized Yukawa tile on this machine")
	}
	rng := rand.New(rand.NewSource(50))
	kappas := []float64{1e-6, 0.3, 0.7, 2.5, 10, 100, 1500}
	points := 4000
	if testing.Short() {
		points = 400
	}
	q := []float64{1}
	sx, sy, sz := []float64{0}, []float64{0}, []float64{0}
	var maxSeen uint64
	var maxSeen32 uint32
	for _, kappa := range kappas {
		k := Yukawa{Kappa: kappa}
		// Distances such that x = -kappa*r sweeps [-760, -1e-8]: past the
		// underflow cutoff at the bottom (where the clamp and scale
		// rounding must agree with math.Exp's flush to zero / minimum
		// subnormal), to vanishing arguments at the top (exp -> 1).
		lo, hi := 1e-8/kappa, 760/kappa
		step := math.Pow(hi/lo, 1/float64(points-1))
		d := lo
		for i := 0; i < points; i += TileWidth {
			var tx, ty, tz [TileWidth]float64
			for l := 0; l < TileWidth; l++ {
				// Jitter the mantissa so the sweep isn't phase-locked.
				tx[l] = d * (1 + rng.Float64()*1e-3)
				d *= step
			}
			var want, got, absSum [TileWidth]float64
			for l := 0; l < TileWidth; l++ {
				want[l] = scalarAccum(k, tx[l], ty[l], tz[l], sx, sy, sz, q)
				absSum[l] = math.Abs(want[l])
			}
			if yukawaTileLoop != nil {
				k.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
				for l := 0; l < TileWidth; l++ {
					if ud := ulpDiff64(got[l], want[l]); ud > maxSeen {
						maxSeen = ud
						if ud > YukawaTileMaxULP {
							t.Errorf("kappa=%g r=%g: fp64 tile %v vs scalar %v = %d ulps > %d",
								kappa, tx[l], got[l], want[l], ud, YukawaTileMaxULP)
						}
					}
				}
			}
			if yukawaTileF32Loop != nil && kappa*float64(float32(d)) < 100 {
				var ftx, fty, ftz, fwant, fgot [TileWidth]float32
				for l := 0; l < TileWidth; l++ {
					ftx[l] = float32(tx[l])
					fwant[l] = scalarAccumF32(k, ftx[l], fty[l], ftz[l], sx, sy, sz, q)
				}
				k.EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &fgot)
				for l := 0; l < TileWidth; l++ {
					if ud := ulpDiff32(fgot[l], fwant[l]); ud > maxSeen32 {
						maxSeen32 = ud
						if ud > YukawaTileF32MaxULP {
							t.Errorf("kappa=%g r=%g: fp32 tile %v vs scalar %v = %d ulps > %d",
								kappa, ftx[l], fgot[l], fwant[l], ud, YukawaTileF32MaxULP)
						}
					}
				}
			}
		}
	}
	t.Logf("max ULP distance seen: fp64 %d (bound %d), fp32 %d (bound %d)",
		maxSeen, YukawaTileMaxULP, maxSeen32, YukawaTileF32MaxULP)
}

// FuzzTileAccum cross-checks the specialized tile loops (including the
// assembly tiles on capable hardware) against the per-target scalar
// reference on randomized blocks for every built-in kernel, fp64 and
// fp32, under each kernel's accuracy contract — exact bits for exact
// kernels, the pinned ULP tolerance for transcendental tiles.
func FuzzTileAccum(f *testing.F) {
	f.Add(int64(1), uint(4))
	f.Add(int64(2), uint(7))
	f.Add(int64(3), uint(129))
	f.Fuzz(func(t *testing.T, seed int64, size uint) {
		n := int(size%256) + 1
		rng := rand.New(rand.NewSource(seed))
		tx, ty, tz := tileTestTargets(rng)
		sx, sy, sz, q := tileTestSources(rng, n, tx[1], ty[1], tz[1])
		var phi0 [TileWidth]float64
		for i := range phi0 {
			phi0[i] = rng.Float64()*2 - 1
		}
		var ftx, fty, ftz [TileWidth]float32
		for i := range ftx {
			ftx[i] = float32(rng.Float64()*2 - 1)
			fty[i] = float32(rng.Float64()*2 - 1)
			ftz[i] = float32(rng.Float64()*2 - 1)
		}
		ftx[1], fty[1], ftz[1] = float32(tx[1]), float32(ty[1]), float32(tz[1])
		for _, k := range tileTestKernels() {
			maxULP := TileMaxULP(k)
			want := phi0
			var absSum [TileWidth]float64
			for i := 0; i < TileWidth; i++ {
				want[i] += scalarAccum(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
				absSum[i] = scalarAccumAbs(k, tx[i], ty[i], tz[i], sx, sy, sz, q)
			}
			got := phi0
			AsTile(k).EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &got)
			checkTilePhi(t, k.Name()+" tile", n, maxULP, got[:], want[:], absSum[:])
			if f32, ok := k.(F32Kernel); ok {
				f32ULP := F32TileMaxULP(f32)
				var fwant, fgot, fabsSum [TileWidth]float32
				for i := range fwant {
					fwant[i] = float32(phi0[i])
				}
				fgot = fwant
				for i := 0; i < TileWidth; i++ {
					fwant[i] += scalarAccumF32(f32, ftx[i], fty[i], ftz[i], sx, sy, sz, q)
					fabsSum[i] = scalarAccumAbsF32(f32, ftx[i], fty[i], ftz[i], sx, sy, sz, q)
				}
				AsF32Tile(f32).EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &fgot)
				checkTilePhiF32(t, k.Name()+" fp32 tile", n, f32ULP, fgot[:], fwant[:], fabsSum[:])
			}
		}
	})
}

// gradVariant is one RegularizedCoulomb gradient body with the signature
// of regularizedCoulombGradLoop; ok reports whether this machine runs it.
type gradVariant struct {
	name string
	ok   bool
	f    func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz *[TileWidth]float64)
}

// BenchmarkEvalTile times one tile call over a 2000-source block for the
// Coulomb and Yukawa fp64 and fp32 paths, and for the RegularizedCoulomb
// gradient: installed (asm-on), through the reference loop (asm-off), and
// each assembly body by name, whatever dispatch installed.
func BenchmarkEvalTile(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 2000
	tx, ty, tz := tileTestTargets(rng)
	sx, sy, sz, q := tileTestSources(rng, n, tx[1], ty[1], tz[1])
	var ftx, fty, ftz [TileWidth]float32
	for i := range ftx {
		ftx[i] = float32(tx[i])
		fty[i] = float32(ty[i])
		ftz[i] = float32(tz[i])
	}
	for _, k := range []Kernel{Coulomb{}, Yukawa{Kappa: 0.7}} {
		k := k
		b.Run(k.Name()+"/tile", func(b *testing.B) {
			tk := AsTile(k)
			var phi [TileWidth]float64
			b.SetBytes(TileWidth * n * 8)
			for i := 0; i < b.N; i++ {
				tk.EvalTileAccum(&tx, &ty, &tz, sx, sy, sz, q, &phi)
			}
		})
		if f32, ok := k.(F32Kernel); ok {
			b.Run(k.Name()+"/tile-f32", func(b *testing.B) {
				tk := AsF32Tile(f32)
				var phi [TileWidth]float32
				b.SetBytes(TileWidth * n * 8)
				for i := 0; i < b.N; i++ {
					tk.EvalTileAccumF32(&ftx, &fty, &ftz, sx, sy, sz, q, &phi)
				}
			})
		}
	}
	// The gradient tile, installed and through the reference loop.
	rk := RegularizedCoulomb{Eps: 0.05}
	for _, asm := range []bool{true, false} {
		name := rk.Name() + "/grad/asm-off"
		if asm {
			name = rk.Name() + "/grad/asm-on"
		}
		b.Run(name, func(b *testing.B) {
			prev := SetAsmKernels(asm)
			defer SetAsmKernels(prev)
			var out gradTile
			b.SetBytes(TileWidth * n * 8)
			for i := 0; i < b.N; i++ {
				out.eval(rk, &tx, &ty, &tz, sx, sy, sz, q)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(TileWidth*n*b.N), "ns/interaction")
		})
	}
	for _, v := range regularizedCoulombGradVariants() {
		v := v
		b.Run(rk.Name()+"/grad/"+v.name, func(b *testing.B) {
			if !v.ok {
				b.Skip("variant not supported on this machine")
			}
			var out gradTile
			b.SetBytes(TileWidth * n * 8)
			for i := 0; i < b.N; i++ {
				v.f(&tx, &ty, &tz, sx, sy, sz, q, rk.Eps*rk.Eps, &out[0], &out[1], &out[2], &out[3])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(TileWidth*n*b.N), "ns/interaction")
		})
	}
}
