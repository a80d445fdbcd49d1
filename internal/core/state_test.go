package core

import (
	"sync"
	"testing"

	"barytree/internal/device"
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
)

// TestUncomputedStatePanics pins the fail-loudly contract of the state
// entry points: evaluating a state with a node whose modified charges are
// not computed for its current charges panics instead of silently dropping
// that far field (a fresh state) or reading the previous charges' q-hat (a
// state after SetCharges).
func TestUncomputedStatePanics(t *testing.T) {
	pts := testParticles(t, 1500, 51)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 3, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	n := pts.Len()
	k := kernel.Coulomb{}
	entries := map[string]func(st *ChargeState){
		"RunComputeState": func(st *ChargeState) { RunComputeState(pl, k, st, make([]float64, n), 1) },
		"RunFieldsState": func(st *ChargeState) {
			RunFieldsState(pl, k, st, make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), 1)
		},
		"RunComputeGroup": func(st *ChargeState) {
			RunComputeGroup(pl, []GroupMember{{Kernel: k, State: st, Phi: make([]float64, n)}}, 1)
		},
	}
	states := map[string]func() *ChargeState{
		"fresh": func() *ChargeState { return NewChargeState(pl) },
		"after SetCharges": func() *ChargeState {
			st := NewChargeState(pl)
			st.Compute(pl, 1)
			if err := st.SetCharges(pl, pts.Q); err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	for sname, mk := range states {
		for ename, run := range entries {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic (%s state)", ename, sname)
					}
				}()
				run(mk())
			}()
		}
	}
}

// TestDriversShareOnePlan runs every driver concurrently on one Plan, each
// goroutine with its own charge state and output: Solve, SolveFields,
// functional RunDevice, EvaluateSampled and RunComputeState. No solve
// writes the plan, so under -race this is the proof that the plan is
// read-only; each result must also equal the same driver run alone.
func TestDriversShareOnePlan(t *testing.T) {
	pts := testParticles(t, 2000, 52)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.Coulomb{}
	sample := []int{0, 17, 999, 1999}
	want := mustSolve(t, pl, k, 1)
	wantFields := mustSolveFields(t, pl, k, 1).Phi

	same := func(name string, got, want []float64) {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: target %d = %v, want %v", name, i, got[i], want[i])
				return
			}
		}
	}
	sampled := make([]float64, len(sample))
	for i, s := range sample {
		sampled[i] = want[s]
	}
	runs := map[string]func() ([]float64, []float64){
		"Solve": func() ([]float64, []float64) {
			phi, err := Solve(pl, k, nil, 2)
			if err != nil {
				t.Error(err)
			}
			return phi, want
		},
		"SolveFields": func() ([]float64, []float64) {
			res, err := SolveFields(pl, k, nil, 2)
			if err != nil {
				t.Error(err)
			}
			return res.Phi, wantFields
		},
		"RunDevice": func() ([]float64, []float64) {
			return RunDevice(pl, k, device.New(perfmodel.TitanV(), 2), DeviceOptions{}).Phi, want
		},
		"EvaluateSampled": func() ([]float64, []float64) {
			phi, err := EvaluateSampled(pl, k, NewChargeState(pl), sample)
			if err != nil {
				t.Error(err)
			}
			return phi, sampled
		},
		"RunComputeState": func() ([]float64, []float64) {
			st := NewChargeState(pl)
			st.Compute(pl, 2)
			phiB := make([]float64, pts.Len())
			RunComputeState(pl, k, st, phiB, 2)
			phi := make([]float64, len(phiB))
			pl.Batches.Perm.ScatterInto(phi, phiB)
			return phi, want
		},
	}
	var wg sync.WaitGroup
	for name, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, want := run()
			same(name, got, want)
		}()
	}
	wg.Wait()
}
