package core

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"barytree/internal/kernel"
	"barytree/internal/particle"
)

// referenceListFields evaluates every batch's interaction list one target
// and one source at a time through k.EvalGrad — per list entry, four sums
// from +0 in source order, each added once into its output, direct list
// before approx list — and returns phi, gx, gy, gz in batch target order.
// It is the per-target reference the tiled field path must reproduce bit
// for bit, written independently of kernel.EvalGradTileAccum.
func referenceListFields(pl *Plan, k kernel.GradKernel, q []float64, qhat [][]float64) (phi, gx, gy, gz []float64) {
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	n := tg.Len()
	phi, gx, gy, gz = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	block := func(ti int, sx, sy, sz, sq []float64) {
		var p, x, y, z float64
		for j := range sq {
			g, dx, dy, dz := k.EvalGrad(tg.X[ti], tg.Y[ti], tg.Z[ti], sx[j], sy[j], sz[j])
			p += g * sq[j]
			x += dx * sq[j]
			y += dy * sq[j]
			z += dz * sq[j]
		}
		phi[ti] += p
		gx[ti] += x
		gy[ti] += y
		gz[ti] += z
	}
	for bi := range pl.Batches.Batches {
		b := &pl.Batches.Batches[bi]
		for _, ci := range pl.Lists.Direct[bi] {
			nd := &pl.Sources.Nodes[ci]
			for ti := b.Lo; ti < b.Hi; ti++ {
				block(ti, src.X[nd.Lo:nd.Hi], src.Y[nd.Lo:nd.Hi], src.Z[nd.Lo:nd.Hi], q[nd.Lo:nd.Hi])
			}
		}
		for _, ci := range pl.Lists.Approx[bi] {
			for ti := b.Lo; ti < b.Hi; ti++ {
				block(ti, cd.PX[ci], cd.PY[ci], cd.PZ[ci], qhat[ci])
			}
		}
	}
	return phi, gx, gy, gz
}

// sameFields requires two field sets to be equal with ==, output by output.
func sameFields(t *testing.T, label string, got, want [4][]float64) {
	t.Helper()
	for o, name := range []string{"phi", "gx", "gy", "gz"} {
		for i := range want[o] {
			if got[o][i] != want[o][i] {
				t.Fatalf("%s: %s[%d] = %v, want %v (diff %g)", label, name, i, got[o][i], want[o][i], got[o][i]-want[o][i])
			}
		}
	}
}

// TestTiledFieldsBitIdentical pins the tiled field path. For every
// built-in gradient kernel, midpoint and Morton plans, a ragged batch size
// (123 = 15 tiles plus a 3-target padded tail) and workers 1 and 3,
// SolveFields and RunFieldsState with the assembly kernels installed must
// equal the same calls with them off, and both must equal the per-target
// scalar reference (referenceListFields) with ==. RegularizedCoulomb also
// runs at small and zero Eps and on the cube scaled by 2^339, where d2
// straddles the upper end (2^680) of the ZMM gradient tile's FMA range.
func TestTiledFieldsBitIdentical(t *testing.T) {
	kernels := []kernel.GradKernel{
		kernel.Coulomb{},
		kernel.Yukawa{Kappa: 0.5},
		kernel.Gaussian{Sigma: 0.7},
		kernel.Multiquadric{C: 0.3},
		kernel.RegularizedCoulomb{Eps: 0.05},
		kernel.RegularizedCoulomb{Eps: 1e-3},
		kernel.RegularizedCoulomb{},
	}
	for _, scale := range []float64{1, 0x1p339} {
		targets := testParticles(t, 1003, 41)
		sources := testParticles(t, 997, 42)
		ks := kernels
		if scale != 1 {
			for _, ps := range []*particle.Set{targets, sources} {
				for i := range ps.X {
					ps.X[i], ps.Y[i], ps.Z[i] = ps.X[i]*scale, ps.Y[i]*scale, ps.Z[i]*scale
				}
			}
			ks = []kernel.GradKernel{kernel.RegularizedCoulomb{Eps: 0.05}, kernel.RegularizedCoulomb{}}
		}
		testTiledFieldsBitIdentical(t, targets, sources, ks, "scale="+strconv.FormatFloat(scale, 'g', -1, 64)+" ")
	}
}

func testTiledFieldsBitIdentical(t *testing.T, targets, sources *particle.Set, kernels []kernel.GradKernel, prefix string) {
	for _, morton := range []bool{false, true} {
		p := Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 123, Morton: morton}
		pl, err := NewPlan(targets, sources, p)
		if err != nil {
			t.Fatal(err)
		}
		st := NewChargeState(pl)
		q := make([]float64, sources.Len())
		for i := range q {
			q[i] = math.Sin(float64(3*i + 1))
		}
		if err := st.SetCharges(pl, q); err != nil {
			t.Fatal(err)
		}
		st.Compute(pl, 1)
		// SolveFields evaluates the build-time charges through its own
		// state; the reference reads an equal one.
		planQ := NewChargeState(pl)
		planQ.Compute(pl, 1)
		nt := pl.Batches.Targets.Len()
		if pl.Lists.Stats.ApproxInteractions == 0 || pl.Lists.Stats.DirectInteractions == 0 {
			t.Fatalf("morton=%v: lists %+v need both direct and approx entries", morton, pl.Lists.Stats)
		}
		for _, k := range kernels {
			want := [4][]float64{make([]float64, nt), make([]float64, nt), make([]float64, nt), make([]float64, nt)}
			phi, gx, gy, gz := referenceListFields(pl, k, planQ.Q, planQ.Qhat)
			for o, v := range [][]float64{phi, gx, gy, gz} {
				pl.Batches.Perm.ScatterInto(want[o], v)
			}
			phi, gx, gy, gz = referenceListFields(pl, k, st.Q, st.Qhat)
			wantState := [4][]float64{phi, gx, gy, gz}
			for _, workers := range []int{1, 3} {
				label := fmt.Sprintf("%s%s %v morton=%v workers=%d", prefix, k.Name(), k, morton, workers)
				run := func() (cpu, state [4][]float64) {
					res := mustSolveFields(t, pl, k, workers)
					cpu = [4][]float64{res.Phi, res.GX, res.GY, res.GZ}
					for o := range state {
						state[o] = make([]float64, nt)
					}
					RunFieldsState(pl, k, st, state[0], state[1], state[2], state[3], workers)
					return cpu, state
				}
				cpu, state := run()
				prev := kernel.SetAsmKernels(false)
				cpuGo, stateGo := run()
				kernel.SetAsmKernels(prev)
				sameFields(t, label+" SolveFields asm vs pure-go", cpu, cpuGo)
				sameFields(t, label+" RunFieldsState asm vs pure-go", state, stateGo)
				sameFields(t, label+" SolveFields vs scalar reference", cpu, want)
				sameFields(t, label+" RunFieldsState vs scalar reference", state, wantState)
			}
		}
	}
}
