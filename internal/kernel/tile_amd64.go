//go:build amd64

package kernel

// cpuHasAVX reports whether this CPU and OS support AVX (VEX.256 float
// math). Implemented in tile_amd64.s.
func cpuHasAVX() bool

// coulombTileAVX is the VEX-only Coulomb tile: two 4-lane YMM groups
// sharing each source's broadcasts (see tile_amd64.s). n must be
// positive; there is no alignment or multiple-of-anything requirement
// because each iteration broadcasts a single source to every lane.
//
//go:noescape
func coulombTileAVX(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, phi *[TileWidth]float64)

// coulombTileZMM is the 512-bit Coulomb tile for parts with dual 512-bit
// FMA pipes: one ZMM lane group with the square root computed by a
// correctly-rounded Goldschmidt/Markstein sequence on the FMA ports, off
// the divide/sqrt unit that bounds the YMM tile. Still bit-identical to
// the scalar loop. Requires AVX-512 F+VL. See tile_amd64.s.
//
//go:noescape
func coulombTileZMM(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, phi *[TileWidth]float64)

// yukawaTileFMA evaluates a Yukawa source block against four targets
// with exp computed by a range-reduced polynomial on the FMA ports
// (EXPPD in tile_amd64.s); the installed tile calls it on each half.
// Requires AVX2+FMA; carries the measured-ULP contract
// (YukawaTileMaxULP), not bit-identity. negKappa is -kappa.
//
//go:noescape
func yukawaTileFMA(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, negKappa float64, phi *[4]float64)

// coulombTileF32AVX2 evaluates a Coulomb source block against an
// 8-target fp32 tile, bit-identical to the scalar fp32 chains. Requires
// AVX2 (register-source VBROADCASTSS). See tile_amd64.s.
//
//go:noescape
func coulombTileF32AVX2(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q *float64, n int, phi *[TileWidth]float32)

// yukawaTileF32FMA evaluates a Yukawa source block against an 8-target
// fp32 tile, exact except for the widened EXPPD exp (YukawaTileF32MaxULP
// contract). Requires AVX2+FMA. negKappa is -float32(kappa).
//
//go:noescape
func yukawaTileF32FMA(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q *float64, n int, negKappa float32, phi *[TileWidth]float32)

// regularizedCoulombGradAVX evaluates a RegularizedCoulomb gradient block
// against four targets, bit-identical to the reference loop of
// EvalGradTileAccum, with every square root and division on the divider;
// on hosts without AVX-512 the installed gradient tile calls it on each
// half. Requires AVX. e2 is Eps*Eps. See tile_amd64.s.
//
//go:noescape
func regularizedCoulombGradAVX(tx, ty, tz *[4]float64, sx, sy, sz, q *float64, n int, e2 float64, phi, gx, gy, gz *[4]float64)

// regularizedCoulombGradZMM evaluates a RegularizedCoulomb gradient
// block against an 8-target tile in one ZMM lane group, bit-identical to
// the reference loop of EvalGradTileAccum. Sources run in pairs: the even
// source's square root and both divisions go to the divider, the odd
// source's to correctly rounded Goldschmidt/Newton-Raphson/Markstein
// sequences on the FMA ports, so the two units work at once; it is the
// installed gradient tile on AVX-512 hosts. Requires AVX-512 F+VL. e2 is
// Eps*Eps. See tile_amd64.s.
//
//go:noescape
func regularizedCoulombGradZMM(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q *float64, n int, e2 float64, phi, gx, gy, gz *[TileWidth]float64)

// cpuHasAVX512VL reports AVX512F+VL support with full OS state saving.
// Implemented in tile_amd64.s.
func cpuHasAVX512VL() bool

// cpuHasAVX2FMA reports AVX2 and FMA3 instruction support; the caller
// must additionally require cpuHasAVX for the OS-state half of the
// check. Implemented in tile_amd64.s.
func cpuHasAVX2FMA() bool

func init() {
	if !cpuHasAVX() {
		return
	}
	avx512 := cpuHasAVX512VL()
	fma := cpuHasAVX2FMA()
	switch {
	case avx512:
		cpuFeatureLevel = "avx512vl"
	case fma:
		cpuFeatureLevel = "avx2-fma"
	default:
		cpuFeatureLevel = "avx"
	}

	// One installer for every assembly loop in the package, so
	// SetAsmKernels can flip them all together.
	asmInstall = func(on bool) {
		if !on {
			coulombTileLoop = nil
			regularizedCoulombGradLoop = nil
			yukawaTileLoop = nil
			coulombTileF32Loop = nil
			yukawaTileF32Loop = nil
			return
		}
		tile := coulombTileAVX
		if avx512 {
			// The pair-wise Goldschmidt/divider ZMM tile overlaps the two
			// square-root resources (see tile_amd64.s).
			tile = coulombTileZMM
		}
		coulombTileLoop = func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi *[TileWidth]float64) {
			tile(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), phi)
		}
		regularizedCoulombGradLoop = func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz *[TileWidth]float64) {
			if avx512 {
				// The divider/FMA-port pair hybrid (see tile_amd64.s).
				regularizedCoulombGradZMM(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), e2, phi, gx, gy, gz)
				return
			}
			for h := 0; h < TileWidth; h += 4 {
				regularizedCoulombGradAVX(half(tx, h), half(ty, h), half(tz, h), &sx[0], &sy[0], &sz[0], &q[0], len(q), e2,
					half(phi, h), half(gx, h), half(gy, h), half(gz, h))
			}
		}
		if !fma {
			return
		}
		yukawaTileLoop = func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, negKappa float64, phi *[TileWidth]float64) {
			for h := 0; h < TileWidth; h += 4 {
				yukawaTileFMA(half(tx, h), half(ty, h), half(tz, h), &sx[0], &sy[0], &sz[0], &q[0], len(q), negKappa, half(phi, h))
			}
		}
		coulombTileF32Loop = func(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, phi *[TileWidth]float32) {
			coulombTileF32AVX2(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), phi)
		}
		yukawaTileF32Loop = func(tx, ty, tz *[TileWidth]float32, sx, sy, sz, q []float64, negKappa float32, phi *[TileWidth]float32) {
			yukawaTileF32FMA(tx, ty, tz, &sx[0], &sy[0], &sz[0], &q[0], len(q), negKappa, phi)
		}
	}
	asmInstall(true)
}
