package core

import (
	"time"

	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
)

// Result is the output of a treecode run.
type Result struct {
	// Phi holds the potentials in the caller's original target order.
	Phi []float64
	// Times are the modeled phase durations (the paper's setup /
	// precompute / compute split) on the modeled architecture.
	Times perfmodel.PhaseTimes
	// Wall are the measured wall-clock phase durations of this process
	// (host execution of the functional algorithm), for sanity checking;
	// all reported figures use Times.
	Wall perfmodel.PhaseTimes
	// Interactions are the interaction-list statistics of the run.
	Interactions interaction.Stats
}

// CPUOptions configure the CPU driver.
type CPUOptions struct {
	// Workers is the number of goroutines parallelizing over target
	// batches, the analogue of the paper's OpenMP threads (one batch's
	// interaction list per thread). 0 selects GOMAXPROCS; 1 is serial.
	Workers int
	// Spec is the modeled CPU. Zero value selects the paper's 6-core
	// Xeon X5650.
	Spec perfmodel.CPUSpec
}

func (o *CPUOptions) defaults() {
	if o.Spec.Cores == 0 {
		o.Spec = perfmodel.XeonX5650()
	}
}

// RunCPU evaluates the treecode plan on the CPU: modified charges for every
// source cluster into a fresh ChargeState, then each batch's interaction
// list (direct sums for near-field leaves, barycentric approximations for
// well-separated clusters), parallelized over batches. It is Plan.Solve's
// path — NewChargeState, Compute, RunComputeState, scatter — with modeled
// and measured phase times around it.
func RunCPU(pl *Plan, k kernel.Kernel, opt CPUOptions) *Result {
	opt.defaults()
	res := &Result{Interactions: pl.Lists.Stats}
	rate := opt.Spec.ParallelFlopRate()

	// Setup phase (already executed during NewPlan; modeled from counters).
	res.Times[perfmodel.PhaseSetup] = pl.SetupWork(opt.Spec)

	// Precompute phase: modified charges.
	start := time.Now()
	st := NewChargeState(pl)
	res.Times[perfmodel.PhasePrecompute] = st.Compute(pl, opt.Workers) / rate
	res.Wall[perfmodel.PhasePrecompute] = time.Since(start).Seconds()

	// Compute phase: walk every batch's interaction list.
	start = time.Now()
	phiBatch := make([]float64, pl.Batches.Targets.Len())
	res.Times[perfmodel.PhaseCompute] = RunComputeState(pl, k, st, phiBatch, opt.Workers) / rate
	res.Wall[perfmodel.PhaseCompute] = time.Since(start).Seconds()

	// Map back to the caller's target order.
	res.Phi = make([]float64, len(phiBatch))
	pl.Batches.Perm.ScatterInto(res.Phi, phiBatch)
	return res
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
// lists. It matches RunCPU's Times field exactly.
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

// ModelDirectSumCPU returns the modeled seconds for a full direct summation
// of nt targets against ns sources on the given CPU with all cores active
// (the paper's Figure 4 reference line).
func ModelDirectSumCPU(cpu perfmodel.CPUSpec, k kernel.Kernel, nt, ns int) float64 {
	flops := float64(nt) * float64(ns) * (k.Cost(kernel.ArchCPU) + 2)
	return flops / cpu.ParallelFlopRate()
}
