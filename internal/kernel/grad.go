package kernel

import "math"

// GradKernel is the optional interface for kernels with an analytic
// gradient with respect to the *target* coordinate. The treecode computes
// forces kernel-independently from it: because the barycentric
// approximation interpolates in the source variable only, the field at a
// target is
//
//	grad phi(x) ~= sum_k grad_x G(x, s_k) qhat_k,
//
// a direct sum over the same proxy charges used for the potential — no new
// expansions, just gradient evaluations.
type GradKernel interface {
	Kernel
	// EvalGrad returns G(x, y) and its gradient with respect to x.
	// The self-interaction convention extends to the gradient:
	// EvalGrad(x, x) = (0, 0, 0, 0).
	EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64)
}

// EvalGrad implements GradKernel: grad 1/r = -(x-y)/r^3.
func (Coulomb) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return 0, 0, 0, 0
	}
	r := math.Sqrt(r2)
	inv := 1 / r
	c := -inv * inv * inv
	return inv, c * dx, c * dy, c * dz
}

// EvalGrad implements GradKernel:
// grad e^{-kr}/r = -e^{-kr} (kr + 1)/r^3 * (x-y).
func (k Yukawa) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return 0, 0, 0, 0
	}
	r := math.Sqrt(r2)
	e := math.Exp(-k.Kappa * r)
	g = e / r
	c := -e * (k.Kappa*r + 1) / (r2 * r)
	return g, c * dx, c * dy, c * dz
}

// EvalGrad implements GradKernel:
// grad e^{-r^2/s^2} = -2/s^2 e^{-r^2/s^2} (x-y).
func (gk Gaussian) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	r2 := dx*dx + dy*dy + dz*dz
	s2 := gk.Sigma * gk.Sigma
	g = math.Exp(-r2 / s2)
	c := -2 / s2 * g
	return g, c * dx, c * dy, c * dz
}

// EvalGrad implements GradKernel:
// grad sqrt(r^2+c^2) = (x-y)/sqrt(r^2+c^2).
func (m Multiquadric) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	g = math.Sqrt(dx*dx + dy*dy + dz*dz + m.C*m.C)
	inv := 1 / g
	return g, inv * dx, inv * dy, inv * dz
}

// EvalGrad implements GradKernel:
// grad (r^2+eps^2)^{-1/2} = -(x-y)(r^2+eps^2)^{-3/2}.
func (rk RegularizedCoulomb) EvalGrad(tx, ty, tz, sx, sy, sz float64) (g, gx, gy, gz float64) {
	dx, dy, dz := tx-sx, ty-sy, tz-sz
	d2 := dx*dx + dy*dy + dz*dz + rk.Eps*rk.Eps
	g = 1 / math.Sqrt(d2)
	c := -g / d2
	return g, c * dx, c * dy, c * dz
}

// GradCost returns the modeled flop-equivalents of one EvalGrad call: the
// base kernel cost plus the gradient arithmetic (~6 extra mul-adds and one
// extra divide-class operation).
func GradCost(k Kernel, arch Arch) float64 {
	c := costs(arch)
	return k.Cost(arch) + 6 + c.div
}

// regularizedCoulombGradLoop, when non-nil, evaluates a whole
// RegularizedCoulomb gradient tile with the targets packed across SIMD
// lanes: per-lane IEEE twins of EvalGrad's operations in its expression
// order, with the square root and the two divisions correctly rounded
// (on the divider, or by proven FMA sequences that round the same way),
// and per-lane source-order accumulation, so every output is
// bit-identical to the reference loop of EvalGradTileAccum (see
// tile_amd64.s). e2 is Eps*Eps, hoisted. Nil on architectures without an
// implementation, on x86 CPUs without AVX, and under SetAsmKernels(false).
var regularizedCoulombGradLoop func(tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, e2 float64, phi, gx, gy, gz *[TileWidth]float64)

// EvalGradTileAccum is the gradient counterpart of TileKernel.EvalTileAccum:
// one call evaluates a block of sources against a tile of TileWidth
// targets and adds each target's charge-weighted potential and gradient
// into phi, gx, gy and gz. Its contract is the reference loop below: per
// lane, four chains start at +0, accumulate g*q[j] and (dG/dx_i)*q[j] from
// k.EvalGrad in source order, and each block total is added once into its
// output. RegularizedCoulomb runs the installed assembly tile when there
// is one, bit-identical to that loop; every other kernel runs the loop.
//
//hot:path
func EvalGradTileAccum(k GradKernel, tx, ty, tz *[TileWidth]float64, sx, sy, sz, q []float64, phi, gx, gy, gz *[TileWidth]float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	// An empty block still adds +0 to every output (turning a -0 into +0),
	// so it takes the loop, not the assembly.
	if rk, ok := k.(RegularizedCoulomb); ok && regularizedCoulombGradLoop != nil && len(q) > 0 {
		regularizedCoulombGradLoop(tx, ty, tz, sx, sy, sz, q, rk.Eps*rk.Eps, phi, gx, gy, gz)
		return
	}
	for t := range phi {
		var p, x, y, z float64
		for j := range q {
			g, dx, dy, dz := k.EvalGrad(tx[t], ty[t], tz[t], sx[j], sy[j], sz[j])
			qj := q[j]
			p += g * qj
			x += dx * qj
			y += dy * qj
			z += dz * qj
		}
		phi[t] += p
		gx[t] += x
		gy[t] += y
		gz[t] += z
	}
}
