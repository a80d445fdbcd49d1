package direct

import (
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/pool"
)

// Fields computes potentials and gradients at all targets by direct
// summation, parallelized over targets. The returned slices are indexed by
// target.
func Fields(k kernel.GradKernel, targets, sources *particle.Set) (phi, gx, gy, gz []float64) {
	n := targets.Len()
	phi = make([]float64, n)
	gx = make([]float64, n)
	gy = make([]float64, n)
	gz = make([]float64, n)
	pool.For(n, 0, func(i int) {
		phi[i], gx[i], gy[i], gz[i] = fieldAt(k, targets, i, sources)
	})
	return phi, gx, gy, gz
}

func fieldAt(k kernel.GradKernel, targets *particle.Set, i int, sources *particle.Set) (phi, gx, gy, gz float64) {
	tx, ty, tz := targets.X[i], targets.Y[i], targets.Z[i]
	for j := 0; j < sources.Len(); j++ {
		g, dx, dy, dz := k.EvalGrad(tx, ty, tz, sources.X[j], sources.Y[j], sources.Z[j])
		q := sources.Q[j]
		phi += g * q
		gx += dx * q
		gy += dy * q
		gz += dz * q
	}
	return phi, gx, gy, gz
}
