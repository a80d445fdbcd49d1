//go:build amd64

package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestCoulombTile8Variants pins every Coulomb tile implementation — not
// just the one init() selected for this machine — against the scalar
// reference, bit for bit. Dispatch prefers coulombTileZMM on AVX-512
// parts, which would otherwise leave the AVX variant untested there; and
// the ZMM tile's
// Goldschmidt fast path, divider patch path (r2 below 2^-512 or
// overflowed to +Inf), and their mid-block hand-offs only differ when
// coordinate magnitudes are driven across the exponent range, so the
// sweep here goes well past both ends on every variant.
func TestCoulombTile8Variants(t *testing.T) {
	if !cpuHasAVX() {
		t.Skip("no AVX")
	}
	type variant struct {
		name string
		ok   bool
		f    func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, phi *[TileWidth]float64)
	}
	variants := []variant{
		{"avx", true, coulombTileAVX},
		{"zmm", cpuHasAVX512VL(), coulombTileZMM},
	}
	scales := []float64{0, -300, -500, -510, -520, -538, 300, 500, 511}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			if !v.ok {
				t.Skip("variant not supported on this machine")
			}
			rng := rand.New(rand.NewSource(53))
			for _, scale := range scales {
				mag := math.Ldexp(1, int(scale))
				for _, n := range tileTestSizes {
					var tx, ty, tz [TileWidth]float64
					for i := range tx {
						tx[i] = (rng.Float64()*2 - 1) * mag
						ty[i] = (rng.Float64()*2 - 1) * mag
						tz[i] = (rng.Float64()*2 - 1) * mag
					}
					sx, sy, sz, q := tileTestSources(rng, n, tx[1], ty[1], tz[1])
					if n > 2 {
						// Second self term in the other 4-lane group, at an
						// odd source index so the ZMM tile's B stream sees it.
						sx[1], sy[1], sz[1] = tx[6], ty[6], tz[6]
					}
					var phi0 [TileWidth]float64
					for i := range phi0 {
						phi0[i] = rng.Float64()*2 - 1
					}
					want := phi0
					for i := 0; i < TileWidth; i++ {
						want[i] += scalarAccum(Coulomb{}, tx[i], ty[i], tz[i], sx, sy, sz, q)
					}
					got := phi0
					v.f(&tx, &ty, &tz, &sx[0], &sy[0], &sz[0], &q[0], n, &got)
					if got != want {
						t.Fatalf("scale=2^%g n=%d: %v != scalar %v", scale, n, got, want)
					}
				}
			}
		})
	}
}

// regularizedCoulombGradVariants lists every RegularizedCoulomb gradient
// body this package has, each behind the signature of
// regularizedCoulombGradLoop, with whether this machine can run it.
func regularizedCoulombGradVariants() []gradVariant {
	return []gradVariant{
		{"avx", cpuHasAVX(), func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz *[TileWidth]float64) {
			for h := 0; h < TileWidth; h += 4 {
				regularizedCoulombGradAVX(half(tx, h), half(ty, h), half(tz, h), &sx[0], &sy[0], &sz[0], &q[0], len(q), e2,
					half(phi, h), half(gx, h), half(gy, h), half(gz, h))
			}
		}},
		{"zmm", cpuHasAVX() && cpuHasAVX512VL(), func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz *[TileWidth]float64) {
			regularizedCoulombGradZMM(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), e2, phi, gx, gy, gz)
		}},
	}
}

// TestRegularizedCoulombGradVariants pins every RegularizedCoulomb
// gradient body, not just the one dispatch installed on this machine,
// against the reference loop of EvalGradTileAccum with Float64bits
// equality on all four outputs. Dispatch prefers the ZMM body on AVX-512
// parts, which would otherwise leave the AVX body untested there.
//
// The ZMM body's FMA-port sequences are proven only for d2 in
// [2^-512, 2^680) and away from two significands, so the sweep drives d2
// across both ends of that range, and places odd (B-stream) or even
// (A-stream) sources farther out than the others so the hand-off to the
// divider patch falls on either stream mid-block. Coincident points sit at an even and an odd
// index: at Eps = 0 they make d2 == 0, where phi must get the
// reference's +Inf*q; the other outputs are NaN there, whose sign and
// payload are unspecified, so only NaN-ness is compared. Block lengths
// include 1 and odd lengths for the single-source tail.
func TestRegularizedCoulombGradVariants(t *testing.T) {
	scales := []int{0, -250, -255, -256, -257, -258, -262, -300, -500, -538, 300, 336, 339, 340, 341, 344, 500, 511}
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33}
	for _, v := range regularizedCoulombGradVariants() {
		t.Run(v.name, func(t *testing.T) {
			if !v.ok {
				t.Skip("variant not supported on this machine")
			}
			rng := rand.New(rand.NewSource(67))
			for _, eps := range []float64{0.05, 1e-3, 0} {
				k := RegularizedCoulomb{Eps: eps}
				for _, scale := range scales {
					mag := math.Ldexp(1, scale)
					// far[j%2] scales the even or odd sources away from the
					// targets: odd by 16 to move the range boundary onto the
					// B stream, even by 2^200 to overflow d2 on the A stream
					// alone.
					for _, far := range [][2]float64{{1, 1}, {1, 16}, {0x1p200, 1}} {
						for _, n := range sizes {
							var tx, ty, tz [TileWidth]float64
							for i := range tx {
								tx[i] = (rng.Float64()*2 - 1) * mag
								ty[i] = (rng.Float64()*2 - 1) * mag
								tz[i] = (rng.Float64()*2 - 1) * mag
							}
							sx, sy, sz, q := tileTestSources(rng, n, tx[1], ty[1], tz[1])
							for j := range sx {
								m := mag * far[j%2]
								if j != n/2 {
									sx[j], sy[j], sz[j] = sx[j]*m, sy[j]*m, sz[j]*m
								}
							}
							if n > 1 {
								sx[1], sy[1], sz[1] = tx[6], ty[6], tz[6] // coincident, odd index
							}
							if n > 2 {
								sx[2], sy[2], sz[2] = tx[3], ty[3], tz[3] // coincident, even index
							}
							label := fmt.Sprintf("eps=%g scale=2^%d far=%v n=%d", eps, scale, far, n)
							checkGradVariant(t, v, k, label, &tx, &ty, &tz, sx, sy, sz, q, rng)
						}
					}
				}
			}
		})
	}
}

// TestRegularizedCoulombGradVariantsSignificands aims sources at the
// d2 values whose significand is 1.1...10 or 1.1...11, in both binade
// parities: there the last Newton-Raphson step of a reciprocal of d2, or
// of sqrt(d2) (whose significand is then all ones), ties and rounds the
// wrong way, so the ZMM body must send them to the divider. The points
// are found by search so that d2 = (dx*dx + dy*dy) + dz*dz, evaluated in
// the reference's order, lands exactly on those significands.
func TestRegularizedCoulombGradVariantsSignificands(t *testing.T) {
	type point struct{ dx, dy, dz float64 }
	var pts []point
	for _, top := range []float64{2, 4, 8} {
		for _, dy := range []float64{0, 0.5, 0.75} {
			dz := math.Sqrt(top - 1 - dy*dy)
			for i := 0; i < 256; i++ {
				dz = math.Nextafter(dz, 0)
				d2 := (1*1 + dy*dy) + dz*dz
				if frac := math.Float64bits(d2) & (1<<52 - 1); frac >= 1<<52-2 {
					pts = append(pts, point{1, dy, dz})
				}
			}
		}
	}
	if len(pts) < 8 {
		t.Fatalf("search found %d points, want at least 8", len(pts))
	}
	k := RegularizedCoulomb{}
	for _, v := range regularizedCoulombGradVariants() {
		t.Run(v.name, func(t *testing.T) {
			if !v.ok {
				t.Skip("variant not supported on this machine")
			}
			rng := rand.New(rand.NewSource(71))
			var tx, ty, tz [TileWidth]float64
			for _, p := range pts {
				for _, at := range []int{0, 1, 2, 3} {
					n := 5
					sx, sy, sz, q := tileTestSources(rng, n, 0, 0, 0)
					sx[n/2] += 3 // no coincident points here
					sx[at], sy[at], sz[at] = p.dx, p.dy, p.dz
					checkGradVariant(t, v, k, fmt.Sprintf("source %v at %d", p, at), &tx, &ty, &tz, sx, sy, sz, q, rng)
				}
			}
		})
	}
}

// checkGradVariant runs one gradient body and the reference loop from the
// same random starting outputs and requires bit-identical results (only
// NaN-ness where the reference is NaN).
func checkGradVariant(t *testing.T, v gradVariant, k RegularizedCoulomb, label string, tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, rng *rand.Rand) {
	t.Helper()
	var start gradTile
	for o := range start {
		for i := range start[o] {
			start[o][i] = rng.Float64()*2 - 1
		}
	}
	got, want := start, start
	v.f(tx, ty, tz, sx, sy, sz, q, k.Eps*k.Eps, &got[0], &got[1], &got[2], &got[3])
	prev := SetAsmKernels(false)
	want.eval(k, tx, ty, tz, sx, sy, sz, q)
	SetAsmKernels(prev)
	for o := range got {
		for i := range got[o] {
			g, w := got[o][i], want[o][i]
			if math.Float64bits(g) == math.Float64bits(w) || (math.IsNaN(g) && math.IsNaN(w)) {
				continue
			}
			t.Fatalf("%s output %d lane %d: %v (%#x) != reference %v (%#x)", label, o, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}
