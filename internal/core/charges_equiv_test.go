package core

import (
	"fmt"
	"math"
	"testing"

	"barytree/internal/chebyshev"
	"barytree/internal/device"
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
	"barytree/internal/tree"
)

// referenceCharges is the textbook implementation of the two charge passes
// (equations (14) and (15)) with per-particle allocations, kept in the test
// as the semantic reference for the allocation-free production pass.
func referenceCharges(cd *ClusterData, t *tree.Tree) [][]float64 {
	m := cd.Degree + 1
	factors1D := func(g chebyshev.Grid1D, x float64) ([]float64, float64) {
		tv := make([]float64, m)
		var d float64
		for k := range tv {
			diff := x - g.Points[k]
			if math.Abs(diff) <= chebyshev.SingularityTol {
				for i := range tv {
					tv[i] = 0
				}
				tv[k] = 1
				return tv, 1
			}
			tv[k] = g.Weights[k] / diff
			d += tv[k]
		}
		return tv, d
	}
	out := make([][]float64, len(t.Nodes))
	src := t.Particles
	for ni := range t.Nodes {
		nd := &t.Nodes[ni]
		g := cd.Grids[ni]
		nc := nd.Count()
		tx := make([][]float64, nc)
		ty := make([][]float64, nc)
		tz := make([][]float64, nc)
		qt := make([]float64, nc)
		for j := 0; j < nc; j++ {
			p := nd.Lo + j
			var dx, dy, dz float64
			tx[j], dx = factors1D(g.Dims[0], src.X[p])
			ty[j], dy = factors1D(g.Dims[1], src.Y[p])
			tz[j], dz = factors1D(g.Dims[2], src.Z[p])
			qt[j] = src.Q[p] / (dx * dy * dz)
		}
		np := g.NumPoints()
		qhat := make([]float64, np)
		for b := 0; b < np; b++ {
			k3 := b % m
			k2 := (b / m) % m
			k1 := b / (m * m)
			var sum float64
			for j := 0; j < nc; j++ {
				sum += tx[j][k1] * ty[j][k2] * tz[j][k3] * qt[j]
			}
			qhat[b] = sum
		}
		out[ni] = qhat
	}
	return out
}

// TestComputeChargesMatchesReference verifies every charge-pass entry point
// is bit-identical to the allocating reference: the host pass
// (ChargeState.Compute) at serial and parallel worker counts — scratch
// reuse across clusters must not leak state between them — the lazy
// subset fill (EvaluateSampled computes only the nodes its samples need,
// and a later Compute fills the rest), and the simulated device's
// functional LaunchChargeKernels at one and several device workers. The
// geometries give clusters of 1 particle, of fewer than, exactly and one
// more than chargeChunk particles, and a multi-level tree whose root holds
// over 2000, so the particle-chunked pass 2 runs with no full chunk,
// exactly one, a one-particle tail and many chunks; the degrees span 1
// through 13. Every value is compared with ==.
func TestComputeChargesMatchesReference(t *testing.T) {
	geoms := []struct {
		name   string
		n      int
		leaf   int
		seed   int64
		minTop int // the root must hold at least this many particles
	}{
		{"single", 1, 1, 11, 1},
		{"below-chunk", chargeChunk - 1, chargeChunk - 1, 12, chargeChunk - 1},
		{"one-chunk", chargeChunk, chargeChunk, 13, chargeChunk},
		{"chunk-plus-one", chargeChunk + 1, chargeChunk + 1, 14, chargeChunk + 1},
		{"tree", 2100, 60, 17, 2000},
	}
	for _, g := range geoms {
		src := testParticles(t, g.n, g.seed)
		for _, degree := range []int{1, 2, 5, 8, 13} {
			t.Run(fmt.Sprintf("%s/n=%d", g.name, degree), func(t *testing.T) {
				p := Params{Theta: 0.8, Degree: degree, LeafSize: g.leaf, BatchSize: g.leaf}
				pl, err := NewPlan(src, src, p)
				if err != nil {
					t.Fatal(err)
				}
				tr := pl.Sources
				if c := tr.Nodes[0].Count(); c < g.minTop {
					t.Fatalf("root holds %d particles, want >= %d", c, g.minTop)
				}
				cd := pl.Clusters
				want := referenceCharges(cd, tr)
				check := func(path string, got [][]float64) {
					t.Helper()
					for ni := range tr.Nodes {
						if len(got[ni]) != len(want[ni]) {
							t.Fatalf("%s node %d: qhat length %d, want %d",
								path, ni, len(got[ni]), len(want[ni]))
						}
						for b, v := range got[ni] {
							if v != want[ni][b] {
								t.Fatalf("%s node %d point %d: qhat = %v, want %v (diff %g)",
									path, ni, b, v, want[ni][b], v-want[ni][b])
							}
						}
					}
				}
				// Poisoning the whole arena with NaN first makes a fill that
				// skips an output fail instead of reading a prior fill's bits.
				poisoned := func() *ChargeState {
					st := NewChargeState(pl)
					arena := st.FlatQhat()
					for b := range arena {
						arena[b] = math.NaN()
					}
					return st
				}
				for _, workers := range []int{1, 3, 0} {
					st := poisoned()
					st.Compute(pl, workers)
					check(fmt.Sprintf("ChargeState.Compute workers=%d", workers), st.Qhat)
				}

				st := poisoned()
				if _, err := EvaluateSampled(pl, kernel.Coulomb{}, st, []int{0, g.n - 1}); err != nil {
					t.Fatal(err)
				}
				for ni, q := range st.Qhat {
					for b, v := range q { // nil: not on a sampled list
						if v != want[ni][b] {
							t.Fatalf("EvaluateSampled lazy node %d point %d: qhat = %v, want %v", ni, b, v, want[ni][b])
						}
					}
				}
				st.Compute(pl, 0)
				check("Compute after lazy fill", st.Qhat)

				for _, devWorkers := range []int{1, 4} {
					st := poisoned()
					var hc perfmodel.Clock
					dev := device.New(perfmodel.TitanV(), devWorkers)
					LaunchChargeKernels(pl, st, dev, &hc, 0, 0, false)
					check(fmt.Sprintf("LaunchChargeKernels device workers=%d", devWorkers), st.Qhat)
				}
			})
		}
	}
}

// TestBlockPathBitIdenticalToScalar is the end-to-end devirtualization
// guarantee: running the full treecode through a built-in kernel (which
// resolves to its specialized tile loops) produces bit-identical
// potentials to the same kernel hidden behind kernel.Func (which resolves
// to the generic adapter, the per-source scalar loop). The one exception
// is a kernel whose installed assembly tile carries a measured-ULP
// contract instead of bit-identity (Yukawa's vectorized exp): there the
// installed run is checked against the contract's tolerance, and an extra
// pass with the assembly kernels switched off pins that the pure-Go
// specialization is still exactly bit-identical.
func TestBlockPathBitIdenticalToScalar(t *testing.T) {
	targets := testParticles(t, 3000, 5)
	sources := testParticles(t, 3000, 6)
	p := Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 64}
	for _, k := range []kernel.Kernel{
		kernel.Coulomb{},
		kernel.Yukawa{Kappa: 0.5},
		kernel.Gaussian{Sigma: 1.1},
		kernel.Multiquadric{C: 0.3},
		kernel.RegularizedCoulomb{Eps: 0.02},
		kernel.InversePower{P: 3},
	} {
		t.Run(k.Name(), func(t *testing.T) {
			run := func() (*Plan, []float64, []float64) {
				pl, err := NewPlan(targets, sources, p)
				if err != nil {
					t.Fatal(err)
				}
				fast := mustSolve(t, pl, k, 0)

				pl2, err := NewPlan(targets, sources, p)
				if err != nil {
					t.Fatal(err)
				}
				wrapped := kernel.Func{KernelName: k.Name() + "-scalar", F: k.Eval}
				slow := mustSolve(t, pl2, wrapped, 0)
				return pl, fast, slow
			}

			pl, fast, slow := run()
			checkSolvePhi(t, "installed", pl, k, fast, slow)

			if kernel.TileMaxULP(k) != 0 {
				// The installed tile is only ULP-close; re-pin exactness
				// on the pure-Go specialization.
				prev := kernel.SetAsmKernels(false)
				defer kernel.SetAsmKernels(prev)
				_, fast, slow = run()
				checkSolvePhi(t, "pure-go", pl, k, fast, slow)
			}
		})
	}
}
