package core

import (
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
)

// Solve is the CPU solve, the one composition behind Plan.Solve and the
// one-shot barytree.Solve: a fresh ChargeState with source charges q
// (original source order; nil keeps the charges the sources carried at
// NewPlan), its modified charges, every batch's interaction list
// (direct sums for near-field leaves, barycentric approximations for
// well-separated clusters) parallelized over batches with up to `workers`
// goroutines (<= 0 selects GOMAXPROCS), and the potentials scattered back
// to the caller's target order. The plan is only read, so concurrent calls
// are safe. Modeled times come from ModelCPURun, not from the run.
func Solve(pl *Plan, k kernel.Kernel, q []float64, workers int) ([]float64, error) {
	st, err := computedState(pl, q, workers)
	if err != nil {
		return nil, err
	}
	phi := make([]float64, pl.Batches.Targets.Len())
	RunComputeState(pl, k, st, phi, workers)
	out := make([]float64, len(phi))
	pl.Batches.Perm.ScatterInto(out, phi)
	return out, nil
}

// computedState returns a fresh ChargeState for pl holding charges q
// (original source order, nil for the plan's build-time charges) with
// every node's modified charges computed.
func computedState(pl *Plan, q []float64, workers int) (*ChargeState, error) {
	st := NewChargeState(pl)
	if q != nil {
		if err := st.SetCharges(pl, q); err != nil {
			return nil, err
		}
	}
	st.Compute(pl, workers)
	return st, nil
}

// evalBatchLists accumulates batch bi's full interaction list into phi
// (batch target order) through the tiled fast path: each kernel.TileWidth
// group of targets walks the whole list together so each source block
// streams from memory once per tile instead of once per target, and the
// ragged last group runs as a padded tile (see TargetTile). Per target the
// adds still land in list order — the tile contract adds exactly one block
// total per list entry — and the accumulators are seeded from and stored
// back to phi, so the result is bit-identical to the scalar reference
// path (up to each kernel's documented tile ULP contract).
//
// q and qhat supply a ChargeState's source charges (tree order) and
// per-node modified charges (RunComputeState, RunComputeGroup). The
// geometry always comes from the plan; q/qhat are only ever read, so
// concurrent calls with disjoint phi are safe.
//
//hot:path
func evalBatchLists(pl *Plan, tk kernel.TileKernel, bi int, phi, q []float64, qhat [][]float64) {
	b := &pl.Batches.Batches[bi]
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	direct, approx := pl.Lists.Direct[bi], pl.Lists.Approx[bi]

	var t TargetTile
	for ti := b.Lo; ti < b.Hi; ti += kernel.TileWidth {
		n := min(kernel.TileWidth, b.Hi-ti)
		t.Load(tg.X, tg.Y, tg.Z, ti, n)
		t.LoadPotentials(phi, ti, n)
		for _, ci := range direct {
			nd := &pl.Sources.Nodes[ci]
			tk.EvalTileAccum(&t.TX, &t.TY, &t.TZ,
				src.X[nd.Lo:nd.Hi], src.Y[nd.Lo:nd.Hi], src.Z[nd.Lo:nd.Hi], q[nd.Lo:nd.Hi], &t.Acc)
		}
		for _, ci := range approx {
			tk.EvalTileAccum(&t.TX, &t.TY, &t.TZ, cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci], &t.Acc)
		}
		t.Store(phi, ti, n)
	}
}

// ComputeWork returns the modeled flop-equivalents of one compute phase of
// pl under kernel k on the CPU architecture class — the per-request work
// the serving layer attributes to each solve it coalesces.
func ComputeWork(pl *Plan, k kernel.Kernel) float64 {
	return computeFlops(pl.Lists.Stats, k, kernel.ArchCPU)
}

// computeFlops converts interaction counts into modeled flop-equivalents
// for the given kernel and architecture.
func computeFlops(st interaction.Stats, k kernel.Kernel, arch kernel.Arch) float64 {
	perEval := k.Cost(arch)
	// Each kernel evaluation is followed by a multiply-accumulate with the
	// (modified) charge.
	return float64(st.TotalInteractions()) * (perEval + 2)
}

// ModelCPURun returns the modeled phase times of a CPU treecode run without
// executing any kernels: setup from the plan's construction counters,
// precompute from the modified-charge work, compute from the interaction
// lists. A zero spec selects the paper's 6-core Xeon X5650. These are the
// Times of the one-shot SolveCPU: the precompute term sums the same
// per-node work in the same node order as ChargeState.Compute.
func ModelCPURun(pl *Plan, k kernel.Kernel, spec perfmodel.CPUSpec) perfmodel.PhaseTimes {
	if spec.Cores == 0 {
		spec = perfmodel.XeonX5650()
	}
	rate := spec.ParallelFlopRate()
	var t perfmodel.PhaseTimes
	t[perfmodel.PhaseSetup] = pl.SetupWork(spec)
	t[perfmodel.PhasePrecompute] = pl.Clusters.TotalChargeWork(pl.Sources) / rate
	t[perfmodel.PhaseCompute] = computeFlops(pl.Lists.Stats, k, kernel.ArchCPU) / rate
	return t
}

// ModelCPUFieldsRun is ModelCPURun on the Xeon X5650 for a
// potentials-plus-gradients solve (SolveFields): the same setup and
// precompute, and a compute phase of GradCost + 8 flop-equivalents per
// interaction (the gradient evaluation plus four multiply-accumulates with
// the charge). These are the Times of the one-shot SolveWithField.
func ModelCPUFieldsRun(pl *Plan, k kernel.GradKernel) perfmodel.PhaseTimes {
	spec := perfmodel.XeonX5650()
	t := ModelCPURun(pl, k, spec)
	t[perfmodel.PhaseCompute] =
		float64(pl.Lists.Stats.TotalInteractions()) * (kernel.GradCost(k, kernel.ArchCPU) + 8) / spec.ParallelFlopRate()
	return t
}

// ModelDirectSumCPU returns the modeled seconds for a full direct summation
// of nt targets against ns sources on the given CPU with all cores active
// (the paper's Figure 4 reference line).
func ModelDirectSumCPU(cpu perfmodel.CPUSpec, k kernel.Kernel, nt, ns int) float64 {
	flops := float64(nt) * float64(ns) * (k.Cost(kernel.ArchCPU) + 2)
	return flops / cpu.ParallelFlopRate()
}
