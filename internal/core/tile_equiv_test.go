package core

import (
	"math"
	"strconv"
	"testing"

	"barytree/internal/device"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
)

// EvalDirectTarget computes the potential at one target due to direct
// summation over source particles [cLo, cHi) — the body of one thread block
// of the batch-cluster direct sum kernel (Figure 3b): the loop over sources
// is what the GPU parallelizes over threads and reduces.
//
// This is the scalar reference path (one interface dispatch per pairwise
// interaction). The drivers run the tiled path (TargetTile through a
// kernel.TileKernel), which is bit-identical to it by the TileKernel
// contract for exact kernels and within kernel.TileMaxULP otherwise; this
// form remains the executable definition of that contract.
func EvalDirectTarget(k kernel.Kernel, tg *particle.Set, ti int, src *particle.Set, cLo, cHi int) float64 {
	tx, ty, tz := tg.X[ti], tg.Y[ti], tg.Z[ti]
	var phi float64
	for j := cLo; j < cHi; j++ {
		phi += k.Eval(tx, ty, tz, src.X[j], src.Y[j], src.Z[j]) * src.Q[j]
	}
	return phi
}

// EvalApproxTarget computes the potential at one target due to the
// barycentric particle-cluster approximation (equation (11)): a direct sum
// over the cluster's Chebyshev points with modified charges. This identical
// direct-sum structure is what makes the BLTC map efficiently onto GPUs.
// Scalar reference path; the drivers run the tiled path.
func EvalApproxTarget(k kernel.Kernel, tg *particle.Set, ti int, px, py, pz, qhat []float64) float64 {
	tx, ty, tz := tg.X[ti], tg.Y[ti], tg.Z[ti]
	var phi float64
	for j := range qhat {
		phi += k.Eval(tx, ty, tz, px[j], py[j], pz[j]) * qhat[j]
	}
	return phi
}

// referenceListPhi evaluates every batch's interaction list through the
// per-source scalar reference path (EvalDirectTarget/EvalApproxTarget) in
// exactly the per-target add order the drivers guarantee, and returns the
// potentials in original target order, for the build-time charges.
func referenceListPhi(pl *Plan, k kernel.Kernel) []float64 {
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	st := NewChargeState(pl)
	st.Compute(pl, 1)
	phi := make([]float64, tg.Len())
	for bi := range pl.Batches.Batches {
		b := &pl.Batches.Batches[bi]
		for _, ci := range pl.Lists.Direct[bi] {
			nd := &pl.Sources.Nodes[ci]
			for ti := b.Lo; ti < b.Hi; ti++ {
				phi[ti] += EvalDirectTarget(k, tg, ti, src, nd.Lo, nd.Hi)
			}
		}
		for _, ci := range pl.Lists.Approx[bi] {
			for ti := b.Lo; ti < b.Hi; ti++ {
				phi[ti] += EvalApproxTarget(k, tg, ti, cd.PX[ci], cd.PY[ci], cd.PZ[ci], st.Qhat[ci])
			}
		}
	}
	out := make([]float64, len(phi))
	pl.Batches.Perm.ScatterInto(out, phi)
	return out
}

// referenceListAbsStats walks the same interaction lists as
// referenceListPhi but returns, per target in original order, the sum of
// |G·q| over every per-source interaction and the interaction count —
// the inputs to the additive tolerance of a tile kernel's measured-ULP
// contract (kernel.TileMaxULP).
func referenceListAbsStats(pl *Plan, k kernel.Kernel) (absSum []float64, count []int) {
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	st := NewChargeState(pl)
	st.Compute(pl, 1)
	sum := make([]float64, tg.Len())
	n := make([]int, tg.Len())
	for bi := range pl.Batches.Batches {
		b := &pl.Batches.Batches[bi]
		for _, ci := range pl.Lists.Direct[bi] {
			nd := &pl.Sources.Nodes[ci]
			for ti := b.Lo; ti < b.Hi; ti++ {
				for j := nd.Lo; j < nd.Hi; j++ {
					sum[ti] += math.Abs(k.Eval(tg.X[ti], tg.Y[ti], tg.Z[ti], src.X[j], src.Y[j], src.Z[j]) * src.Q[j])
					n[ti]++
				}
			}
		}
		for _, ci := range pl.Lists.Approx[bi] {
			px, py, pz, qhat := cd.PX[ci], cd.PY[ci], cd.PZ[ci], st.Qhat[ci]
			for ti := b.Lo; ti < b.Hi; ti++ {
				for j := range qhat {
					sum[ti] += math.Abs(k.Eval(tg.X[ti], tg.Y[ti], tg.Z[ti], px[j], py[j], pz[j]) * qhat[j])
					n[ti]++
				}
			}
		}
	}
	absSum = make([]float64, len(sum))
	count = make([]int, len(n))
	pl.Batches.Perm.ScatterInto(absSum, sum)
	perm := make([]float64, len(n))
	for i, c := range n {
		perm[i] = float64(c)
	}
	out := make([]float64, len(n))
	pl.Batches.Perm.ScatterInto(out, perm)
	for i, c := range out {
		count[i] = int(c)
	}
	return absSum, count
}

// checkSolvePhi compares a full solve against the per-source scalar
// reference under kernel k's tile contract: exact (==) when the resolved
// tile is bit-identical (kernel.TileMaxULP == 0), otherwise within the
// additive tolerance (maxULP+1)·n·ulp(Σ|G·q|) per target — each of the n
// per-source terms may be off by maxULP ulps of the largest magnitude the
// accumulator saw.
func checkSolvePhi(t *testing.T, label string, pl *Plan, k kernel.Kernel, got, want []float64) {
	t.Helper()
	maxULP := kernel.TileMaxULP(k)
	if maxULP == 0 {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s kernel=%s target %d: tiled %v != scalar %v (diff %g)",
					label, k.Name(), i, got[i], want[i], got[i]-want[i])
			}
		}
		return
	}
	absSum, n := referenceListAbsStats(pl, k)
	for i := range want {
		tol := float64(maxULP+1) * float64(n[i]) * (math.Nextafter(absSum[i], math.Inf(1)) - absSum[i])
		if diff := math.Abs(got[i] - want[i]); diff > tol {
			t.Fatalf("%s kernel=%s target %d: tiled %v vs scalar %v, |diff| %g exceeds ULP-contract tolerance %g",
				label, k.Name(), i, got[i], want[i], diff, tol)
		}
	}
}

// TestTiledCPUPathBitIdenticalRagged is the full-solve guarantee for the
// target-tiled compute phase: Solve — which evaluates TileWidth target
// tiles per kernel dispatch and runs ragged batch tails as padded tiles —
// matches the per-source scalar reference for batch sizes covering every
// residue mod TileWidth and for all TileKernel resolutions
// (assembly-backed Coulomb, assembly Yukawa under its measured-ULP
// contract, generic adapter over kernel.Func). The "pure-go" subtest repeats the
// sweep with the assembly kernels switched off, where every kernel —
// Yukawa included — must be bit-identical to the scalar reference.
func TestTiledCPUPathBitIdenticalRagged(t *testing.T) {
	targets := testParticles(t, 2003, 31)
	sources := testParticles(t, 2003, 32)
	kernels := []kernel.Kernel{
		kernel.Coulomb{},
		kernel.Yukawa{Kappa: 0.6},
		kernel.Func{KernelName: "coulomb-func", F: kernel.Coulomb{}.Eval},
	}
	sweep := func(t *testing.T, label string) {
		for _, batch := range []int{57, 58, 59, 60, 61, 62, 63, 64} {
			p := Params{Theta: 0.7, Degree: 3, LeafSize: 90, BatchSize: batch}
			for _, k := range kernels {
				pl, err := NewPlan(targets, sources, p)
				if err != nil {
					t.Fatal(err)
				}
				res := mustSolve(t, pl, k, 0)
				want := referenceListPhi(pl, k)
				checkSolvePhi(t, label+" batch="+strconv.Itoa(batch), pl, k, res, want)
			}
		}
	}
	t.Run("installed", func(t *testing.T) { sweep(t, "installed") })
	t.Run("pure-go", func(t *testing.T) {
		prev := kernel.SetAsmKernels(false)
		defer kernel.SetAsmKernels(prev)
		sweep(t, "pure-go")
	})
}

// TestDeviceTiledBitIdentical pins the two device-path guarantees of the
// target-tiled rewiring. Functionally, the tiled host execution behind
// LaunchBlocks accumulates each target's per-launch block totals in launch
// order, exactly like the CPU driver's list order, so the device result
// equals the CPU result bit for bit even at ragged batch sizes — for
// Yukawa too, since the launcher's padded tail tile takes the same lane
// computation as the CPU driver's. For the model, the launch specs are
// untouched (one modeled thread block per target), so the functional
// run's phase times equal a model-only run's exactly.
func TestDeviceTiledBitIdentical(t *testing.T) {
	pts := testParticles(t, 3001, 33)
	p := Params{Theta: 0.7, Degree: 4, LeafSize: 150, BatchSize: 123}
	for _, k := range []kernel.Kernel{kernel.Coulomb{}, kernel.Yukawa{Kappa: 0.5}} {
		plCPU, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		cpu := mustSolve(t, plCPU, k, 0)

		plDev, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		dev := device.New(perfmodel.TitanV(), 0)
		gpu := RunDevice(plDev, k, dev, DeviceOptions{})
		for i := range cpu {
			if gpu.Phi[i] != cpu[i] {
				t.Fatalf("kernel=%s target %d: device %v != cpu %v (diff %g)",
					k.Name(), i, gpu.Phi[i], cpu[i], gpu.Phi[i]-cpu[i])
			}
		}

		plModel, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		model := RunDevice(plModel, k, device.New(perfmodel.TitanV(), 0), DeviceOptions{ModelOnly: true})
		if model.Times != gpu.Times {
			t.Errorf("kernel=%s: functional tiled run changed modeled times: %v != model-only %v",
				k.Name(), gpu.Times, model.Times)
		}
	}
}
