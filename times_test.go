package barytree_test

import (
	"fmt"
	"testing"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
)

// TestOneShotTimesMatchModel pins the modeled phase times of the one-shot
// CPU entry points to the closed-form model computed from the plan's
// counters alone: SolveCPU's Times equal core.ModelCPURun, and
// SolveWithField's Times equal the same setup and precompute with a
// compute phase of (GradCost + 8) flop-equivalents per interaction. The
// reference is independent of how the solve is composed, so it holds the
// modeled numbers fixed while the drivers change underneath.
func TestOneShotTimesMatchModel(t *testing.T) {
	pts := barytree.UniformCube(2000, 71)
	for _, k := range []barytree.Kernel{barytree.Coulomb(), barytree.Yukawa(0.5)} {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s/workers=%d", k.Name(), workers)
			p := smallParams()
			p.Workers = workers
			pl, err := core.NewPlan(pts, pts, p)
			if err != nil {
				t.Fatal(err)
			}
			want := core.ModelCPURun(pl, k, perfmodel.CPUSpec{})

			res, err := barytree.SolveCPU(k, pts, pts, p, workers)
			if err != nil {
				t.Fatal(err)
			}
			if res.Times != want {
				t.Errorf("%s: SolveCPU Times %v, want ModelCPURun %v", label, res.Times, want)
			}

			rate := perfmodel.XeonX5650().ParallelFlopRate()
			wantField := want
			wantField[perfmodel.PhaseCompute] = float64(pl.Lists.Stats.TotalInteractions()) *
				(kernel.GradCost(k.(kernel.GradKernel), kernel.ArchCPU) + 8) / rate
			fr, err := barytree.SolveWithField(k, pts, pts, p)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Times != wantField {
				t.Errorf("%s: SolveWithField Times %v, want %v", label, fr.Times, wantField)
			}
		}
	}
}
