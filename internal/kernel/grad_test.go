package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// gradKernels returns every built-in kernel implementing GradKernel.
func gradKernels() []GradKernel {
	return []GradKernel{
		Coulomb{},
		Yukawa{Kappa: 0.5},
		Yukawa{Kappa: 2},
		Gaussian{Sigma: 0.8},
		Multiquadric{C: 0.7},
		RegularizedCoulomb{Eps: 0.05},
	}
}

func TestEvalGradValueMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range gradKernels() {
		for trial := 0; trial < 50; trial++ {
			tx, ty, tz := rng.Float64(), rng.Float64(), rng.Float64()
			sx, sy, sz := 2+rng.Float64(), rng.Float64(), rng.Float64()
			g, _, _, _ := k.EvalGrad(tx, ty, tz, sx, sy, sz)
			want := k.Eval(tx, ty, tz, sx, sy, sz)
			if math.Abs(g-want) > 1e-14*math.Max(1, math.Abs(want)) {
				t.Errorf("%s: EvalGrad value %g != Eval %g", k.Name(), g, want)
			}
		}
	}
}

func TestEvalGradMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const h = 1e-6
	for _, k := range gradKernels() {
		for trial := 0; trial < 30; trial++ {
			tx, ty, tz := rng.Float64(), rng.Float64(), rng.Float64()
			// Keep the pair well separated so finite differences are
			// well conditioned.
			sx, sy, sz := 2+rng.Float64(), 2+rng.Float64(), rng.Float64()
			_, gx, gy, gz := k.EvalGrad(tx, ty, tz, sx, sy, sz)
			fdx := (k.Eval(tx+h, ty, tz, sx, sy, sz) - k.Eval(tx-h, ty, tz, sx, sy, sz)) / (2 * h)
			fdy := (k.Eval(tx, ty+h, tz, sx, sy, sz) - k.Eval(tx, ty-h, tz, sx, sy, sz)) / (2 * h)
			fdz := (k.Eval(tx, ty, tz+h, sx, sy, sz) - k.Eval(tx, ty, tz-h, sx, sy, sz)) / (2 * h)
			scale := math.Max(1e-6, math.Abs(fdx)+math.Abs(fdy)+math.Abs(fdz))
			if math.Abs(gx-fdx)/scale > 1e-5 || math.Abs(gy-fdy)/scale > 1e-5 || math.Abs(gz-fdz)/scale > 1e-5 {
				t.Errorf("%s: gradient (%g,%g,%g) vs FD (%g,%g,%g)", k.Name(), gx, gy, gz, fdx, fdy, fdz)
			}
		}
	}
}

func TestEvalGradSelfInteractionZero(t *testing.T) {
	for _, k := range gradKernels() {
		if _, ok := k.(Gaussian); ok {
			continue // Gaussian has no singularity: G(x,x)=1 is fine
		}
		if _, ok := k.(Multiquadric); ok {
			continue // multiquadric is regular at r=0 too
		}
		if _, ok := k.(RegularizedCoulomb); ok {
			continue // regularized: finite at r=0
		}
		g, gx, gy, gz := k.EvalGrad(1, 2, 3, 1, 2, 3)
		if g != 0 || gx != 0 || gy != 0 || gz != 0 {
			t.Errorf("%s: self interaction gradient nonzero: %g (%g,%g,%g)", k.Name(), g, gx, gy, gz)
		}
	}
}

func TestGradPointsDownhill(t *testing.T) {
	// For decaying radial kernels the gradient at the target points away
	// from the source (potential decreases with distance).
	for _, k := range []GradKernel{Coulomb{}, Yukawa{Kappa: 0.5}, Gaussian{Sigma: 1}, RegularizedCoulomb{Eps: 0.1}} {
		_, gx, gy, gz := k.EvalGrad(2, 0, 0, 0, 0, 0)
		// Direction target-source is +x; a decaying kernel has d/dx < 0.
		if gx >= 0 || gy != 0 || gz != 0 {
			t.Errorf("%s: gradient (%g,%g,%g) not pointing downhill", k.Name(), gx, gy, gz)
		}
	}
	// Multiquadric grows with r: gradient points along +x.
	_, gx, _, _ := (Multiquadric{C: 1}).EvalGrad(2, 0, 0, 0, 0, 0)
	if gx <= 0 {
		t.Errorf("multiquadric gradient %g should be positive", gx)
	}
}

func TestGradCostExceedsBase(t *testing.T) {
	for _, k := range gradKernels() {
		for _, arch := range []Arch{ArchCPU, ArchGPU} {
			if GradCost(k, arch) <= k.Cost(arch) {
				t.Errorf("%s: grad cost not above base on %v", k.Name(), arch)
			}
		}
	}
}

// gradTile is one call's worth of EvalGradTileAccum outputs.
type gradTile [4][TileWidth]float64

func (o *gradTile) eval(k GradKernel, tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64) {
	EvalGradTileAccum(k, tx, ty, tz, sx, sy, sz, q, &o[0], &o[1], &o[2], &o[3])
}

// TestRegularizedCoulombGradTileBitIdentical pins the installed
// RegularizedCoulomb gradient tile against EvalGradTileAccum's reference
// loop (assembly off) with Float64bits equality on all four outputs.
// Targets and sources sweep the exponent range (so d2 underflows,
// overflows to +Inf, crosses either end of the ZMM tile's FMA range
// [2^-512, 2^680), or is dominated by Eps*Eps), blocks hold 1-17
// sources with coincident points in both half tiles, and the outputs start
// nonzero so the single add of each block total is checked. At Eps = 0 a
// coincident pair makes the scalar result NaN, whose sign and payload are
// unspecified, so there only NaN-ness is compared.
func TestRegularizedCoulombGradTileBitIdentical(t *testing.T) {
	if !AsmKernelsAvailable() {
		t.Skip("no assembly kernels on this machine")
	}
	rng := rand.New(rand.NewSource(61))
	for _, eps := range []float64{0.05, 1e-3, 0} {
		k := RegularizedCoulomb{Eps: eps}
		for _, scale := range []int{0, -256, -257, -300, -500, -510, -520, -538, 300, 339, 340, 341, 500, 511} {
			mag := math.Ldexp(1, scale)
			for n := 1; n <= 17; n++ {
				var tx, ty, tz [TileWidth]float64
				for i := range tx {
					tx[i] = (rng.Float64()*2 - 1) * mag
					ty[i] = (rng.Float64()*2 - 1) * mag
					tz[i] = (rng.Float64()*2 - 1) * mag
				}
				sx, sy, sz, q := tileTestSources(rng, n, tx[1], ty[1], tz[1])
				for j := range sx {
					if j != n/2 {
						sx[j], sy[j], sz[j] = sx[j]*mag, sy[j]*mag, sz[j]*mag
					}
				}
				if n > 2 {
					sx[1], sy[1], sz[1] = tx[6], ty[6], tz[6] // self term in the other half
				}
				var start gradTile
				for o := range start {
					for i := range start[o] {
						start[o][i] = rng.Float64()*2 - 1
					}
				}
				got, want := start, start
				got.eval(k, &tx, &ty, &tz, sx, sy, sz, q)
				prev := SetAsmKernels(false)
				want.eval(k, &tx, &ty, &tz, sx, sy, sz, q)
				SetAsmKernels(prev)
				for o := range got {
					for i := range got[o] {
						g, w := got[o][i], want[o][i]
						if math.Float64bits(g) == math.Float64bits(w) || (eps == 0 && math.IsNaN(g) && math.IsNaN(w)) {
							continue
						}
						t.Fatalf("eps=%g scale=2^%d n=%d output %d lane %d: asm %v != reference %v", eps, scale, n, o, i, g, w)
					}
				}
			}
		}
	}
}

// TestEvalGradTileAccumEmpty pins empty source blocks: every kernel, in
// both dispatch modes, adds +0 to each output, so a -0 output becomes +0
// and nothing else changes.
func TestEvalGradTileAccumEmpty(t *testing.T) {
	var tx, ty, tz [TileWidth]float64
	forEachAsmMode(func(mode string) {
		for _, k := range gradKernels() {
			var out gradTile
			for o := range out {
				for i := range out[o] {
					out[o][i] = math.Copysign(0, -1)
				}
			}
			out[1][3] = 2.5
			out.eval(k, &tx, &ty, &tz, nil, nil, nil, nil)
			for o := range out {
				for i, v := range out[o] {
					want := 0.0
					if o == 1 && i == 3 {
						want = 2.5
					}
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Errorf("%s %s: output %d lane %d = %v (bits %#x), want %v", mode, k.Name(), o, i, v, math.Float64bits(v), want)
					}
				}
			}
		}
	})
}
