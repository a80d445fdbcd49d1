package core

import (
	"barytree/internal/kernel"
	"barytree/internal/pool"
)

// FieldResult holds potentials and fields (negative forces per unit
// charge) at every target, in the caller's original target order.
type FieldResult struct {
	Phi        []float64
	GX, GY, GZ []float64 // gradient of phi at each target
}

// SolveFields is Solve for potentials and their gradients, the one
// composition behind Plan.SolveWithField and the one-shot
// barytree.SolveWithField: the same charge state and modified charges (the
// interpolation is in the source variable, so the gradient with respect to
// the target needs no new cluster data), then RunFieldsState and the
// scatter to the caller's target order. Modeled times come from
// ModelCPUFieldsRun.
func SolveFields(pl *Plan, k kernel.GradKernel, q []float64, workers int) (FieldResult, error) {
	st, err := computedState(pl, q, workers)
	if err != nil {
		return FieldResult{}, err
	}
	n := pl.Batches.Targets.Len()
	phi := make([]float64, n)
	gx := make([]float64, n)
	gy := make([]float64, n)
	gz := make([]float64, n)
	RunFieldsState(pl, k, st, phi, gx, gy, gz, workers)
	res := FieldResult{
		Phi: make([]float64, n),
		GX:  make([]float64, n),
		GY:  make([]float64, n),
		GZ:  make([]float64, n),
	}
	perm := pl.Batches.Perm
	perm.ScatterInto(res.Phi, phi)
	perm.ScatterInto(res.GX, gx)
	perm.ScatterInto(res.GY, gy)
	perm.ScatterInto(res.GZ, gz)
	return res, nil
}

// evalBatchFields is the field-path twin of evalBatchLists: it
// accumulates batch bi's full interaction list into phi, gx, gy and gz
// (batch target order) one padded TargetTile at a time. The tile's Acc
// carries phi and the three lanes of grad carry the gradient; all four are
// seeded from the outputs, walk the direct list and then the approx list
// through kernel.EvalGradTileAccum (one block total per entry), and store
// back only the real lanes. Per target that is the "out[ti] += block"
// chain of the per-target reference in list order, so every output is
// bit-identical to it. The padded lanes of grad keep whatever they held;
// they are never stored.
//
// q and qhat supply a ChargeState's source charges (tree order) and
// per-node modified charges. Both are only read, so concurrent calls with
// disjoint outputs are safe.
//
//hot:path
func evalBatchFields(pl *Plan, k kernel.GradKernel, bi int, q []float64, qhat [][]float64, phi, gx, gy, gz []float64) {
	b := &pl.Batches.Batches[bi]
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	direct, approx := pl.Lists.Direct[bi], pl.Lists.Approx[bi]

	var t TargetTile
	var grad [3][kernel.TileWidth]float64 // gx, gy, gz lanes: one array, so one escaping object
	for ti := b.Lo; ti < b.Hi; ti += kernel.TileWidth {
		n := min(kernel.TileWidth, b.Hi-ti)
		t.Load(tg.X, tg.Y, tg.Z, ti, n)
		t.LoadPotentials(phi, ti, n)
		copy(grad[0][:n], gx[ti:ti+n])
		copy(grad[1][:n], gy[ti:ti+n])
		copy(grad[2][:n], gz[ti:ti+n])
		for _, ci := range direct {
			nd := &pl.Sources.Nodes[ci]
			kernel.EvalGradTileAccum(k, &t.TX, &t.TY, &t.TZ,
				src.X[nd.Lo:nd.Hi], src.Y[nd.Lo:nd.Hi], src.Z[nd.Lo:nd.Hi], q[nd.Lo:nd.Hi], &t.Acc, &grad[0], &grad[1], &grad[2])
		}
		for _, ci := range approx {
			kernel.EvalGradTileAccum(k, &t.TX, &t.TY, &t.TZ, cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci], &t.Acc, &grad[0], &grad[1], &grad[2])
		}
		t.Store(phi, ti, n)
		copy(gx[ti:ti+n], grad[0][:n])
		copy(gy[ti:ti+n], grad[1][:n])
		copy(gz[ti:ti+n], grad[2][:n])
	}
}

// RunFieldsState evaluates potentials and gradients against a ChargeState's
// charges into the four caller buffers (batch target order). Every node
// must be computed (call st.Compute first); otherwise it panics. The plan
// is only read, so concurrent calls with distinct (st, buffers) are safe.
func RunFieldsState(pl *Plan, k kernel.GradKernel, st *ChargeState, phi, gx, gy, gz []float64, workers int) {
	st.checkComputed(pl)
	pool.For(len(pl.Batches.Batches), workers, func(bi int) {
		evalBatchFields(pl, k, bi, st.Q, st.Qhat, phi, gx, gy, gz)
	})
}
