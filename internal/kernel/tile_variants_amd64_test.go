//go:build amd64

package kernel

import (
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
