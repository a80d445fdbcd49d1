package core

import (
	"math"
	"testing"

	"barytree/internal/direct"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
	"barytree/internal/perfmodel"
)

func TestFieldsMatchDirectSum(t *testing.T) {
	pts := testParticles(t, 3000, 21)
	k := kernel.Coulomb{}
	refPhi, refGX, refGY, refGZ := direct.Fields(k, pts, pts)

	pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: 7, LeafSize: 150, BatchSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolveFields(t, pl, k, 0)
	if e := metrics.RelErr2(refPhi, res.Phi); e > 1e-5 {
		t.Errorf("potential error %.3g", e)
	}
	for name, pair := range map[string][2][]float64{
		"gx": {refGX, res.GX}, "gy": {refGY, res.GY}, "gz": {refGZ, res.GZ},
	} {
		if e := metrics.RelErr2(pair[0], pair[1]); e > 1e-4 {
			t.Errorf("%s error %.3g", name, e)
		}
	}
}

func TestFieldsYukawa(t *testing.T) {
	pts := testParticles(t, 2000, 22)
	k := kernel.Yukawa{Kappa: 0.5}
	_, refGX, _, _ := direct.Fields(k, pts, pts)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: 8, LeafSize: 120, BatchSize: 120})
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolveFields(t, pl, k, 0)
	if e := metrics.RelErr2(refGX, res.GX); e > 1e-4 {
		t.Errorf("yukawa gx error %.3g", e)
	}
}

func TestFieldPhiMatchesPotentialOnlyPath(t *testing.T) {
	// The field path's potential walks the same lists with the same
	// charges and the same per-target add order as the potential-only
	// path, and EvalGrad's value is Eval's expression, so for the exact
	// tiles the potentials are identical. Yukawa's potential tile runs
	// under the YukawaTileMaxULP contract while its gradient tile runs
	// math.Exp, so it keeps a relative-error bound.
	pts := testParticles(t, 2000, 23)
	p := Params{Theta: 0.7, Degree: 5, LeafSize: 100, BatchSize: 100}
	for _, k := range []kernel.GradKernel{
		kernel.Coulomb{},
		kernel.RegularizedCoulomb{Eps: 0.05},
		kernel.RegularizedCoulomb{Eps: 1e-3},
		kernel.Gaussian{Sigma: 0.7},
		kernel.Multiquadric{C: 0.3},
		kernel.Yukawa{Kappa: 0.5},
	} {
		pl1, err := NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		potOnly := mustSolve(t, pl1, k, 0)
		pl2, _ := NewPlan(pts, pts, p)
		fields := mustSolveFields(t, pl2, k, 0)
		if _, ok := k.(kernel.Yukawa); ok {
			if e := metrics.RelErr2(potOnly, fields.Phi); e > 1e-14 {
				t.Errorf("%s: field-path potential deviates: %.3g", k.Name(), e)
			}
			continue
		}
		for i := range potOnly {
			if fields.Phi[i] != potOnly[i] {
				t.Fatalf("%s target %d: field-path potential %v != potential-only %v", k.Name(), i, fields.Phi[i], potOnly[i])
			}
		}
	}
}

func TestFieldGradientConvergesWithDegree(t *testing.T) {
	pts := testParticles(t, 2000, 24)
	k := kernel.Coulomb{}
	_, refGX, _, _ := direct.Fields(k, pts, pts)
	var prev = math.Inf(1)
	for _, n := range []int{2, 5, 8} {
		pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: n, LeafSize: 100, BatchSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		res := mustSolveFields(t, pl, k, 0)
		e := metrics.RelErr2(refGX, res.GX)
		if e > prev*1.5 && e > 1e-12 {
			t.Errorf("degree %d: gradient error %.3g did not decrease from %.3g", n, e, prev)
		}
		prev = e
	}
	if prev > 1e-5 {
		t.Errorf("degree 8 gradient error %.3g too large", prev)
	}
}

func TestFieldTimesExceedPotentialTimes(t *testing.T) {
	// Gradients cost more per interaction; the model must reflect it.
	pts := testParticles(t, 2000, 25)
	k := kernel.Coulomb{}
	p := Params{Theta: 0.7, Degree: 5, LeafSize: 100, BatchSize: 100}
	pl, _ := NewPlan(pts, pts, p)
	pot := ModelCPURun(pl, k, perfmodel.CPUSpec{})
	fld := ModelCPUFieldsRun(pl, k)
	if fld.Total() <= pot.Total() {
		t.Errorf("field time %.4g not above potential time %.4g", fld.Total(), pot.Total())
	}
}
