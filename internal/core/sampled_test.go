package core

import (
	"testing"

	"barytree/internal/kernel"
	"barytree/internal/particle"
)

func TestEvaluateSampledMatchesFullRun(t *testing.T) {
	pts := testParticles(t, 5000, 31)
	k := kernel.Yukawa{Kappa: 0.5}
	p := Params{Theta: 0.7, Degree: 5, LeafSize: 200, BatchSize: 200}
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	full := mustSolve(t, pl, k, 0)

	pl2, _ := NewPlan(pts, pts, p)
	sample := []int{0, 1, 999, 2500, 4999, 3123}
	phi, err := EvaluateSampled(pl2, k, NewChargeState(pl2), sample)
	if err != nil {
		t.Fatal(err)
	}
	// Every target takes the same padded-tile lane computation in both
	// drivers, so the sampled potentials equal the full run's bit for bit.
	for i, idx := range sample {
		if phi[i] != full[idx] {
			t.Errorf("sample %d (target %d): %.17g != full %.17g", i, idx, phi[i], full[idx])
		}
	}
}

func TestEvaluateSampledLazyCharges(t *testing.T) {
	// Only clusters on sampled batches' lists get charges: the rest of the
	// state's Qhat stays unpublished (nil).
	pts := testParticles(t, 8000, 32)
	p := Params{Theta: 0.5, Degree: 4, LeafSize: 100, BatchSize: 100}
	pl, err := NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	st := NewChargeState(pl)
	if _, err := EvaluateSampled(pl, kernel.Coulomb{}, st, []int{42}); err != nil {
		t.Fatal(err)
	}
	unpublished := 0
	for _, q := range st.Qhat {
		if q == nil {
			unpublished++
		}
	}
	if unpublished == len(st.Qhat) {
		t.Fatal("no charges computed at all")
	}
	if unpublished == 0 {
		t.Error("sampled evaluation computed charges for every cluster; laziness broken")
	}
	t.Logf("charges computed for %d/%d clusters", len(st.Qhat)-unpublished, len(st.Qhat))
}

func TestEvaluateSampledRejectsBadIndices(t *testing.T) {
	pts := testParticles(t, 500, 33)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 3, LeafSize: 50, BatchSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	st := NewChargeState(pl)
	if _, err := EvaluateSampled(pl, kernel.Coulomb{}, st, []int{500}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := EvaluateSampled(pl, kernel.Coulomb{}, st, []int{-1}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestEvaluateSampledRepeatedCallsShareCharges(t *testing.T) {
	pts := testParticles(t, 3000, 34)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 4, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.Coulomb{}
	st := NewChargeState(pl)
	a, err := EvaluateSampled(pl, k, st, []int{7, 2999})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvaluateSampled(pl, k, st, []int{7, 2999})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("repeated sampled evaluation changed results")
	}
}

func TestTinyProblems(t *testing.T) {
	k := kernel.Coulomb{}
	for _, n := range []int{1, 2, 3, 9} {
		pts := testParticles(t, n, int64(40+n))
		pl, err := NewPlan(pts, pts, Params{Theta: 0.5, Degree: 2, LeafSize: 4, BatchSize: 4})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res := mustSolve(t, pl, k, 0)
		// Tiny systems are computed entirely directly: exact.
		var want float64
		for j := 1; j < n; j++ {
			want += k.Eval(pts.X[0], pts.Y[0], pts.Z[0], pts.X[j], pts.Y[j], pts.Z[j]) * pts.Q[j]
		}
		orig0 := res[0]
		if d := orig0 - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("n=%d: phi[0] = %g, want %g", n, orig0, want)
		}
	}
}

func TestSnappedVsUnsnappedAccuracyEquivalent(t *testing.T) {
	// Leaf-size snapping changes performance, never correctness.
	pts := testParticles(t, 5000, 35)
	k := kernel.Coulomb{}
	var errs []float64
	for _, leaf := range []int{150, 200, 380} {
		pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 5, LeafSize: leaf, BatchSize: leaf})
		if err != nil {
			t.Fatal(err)
		}
		res := mustSolve(t, pl, k, 0)
		errs = append(errs, res[0])
	}
	// All leaf sizes approximate the same sum: spot value within treecode
	// tolerance of each other.
	for i := 1; i < len(errs); i++ {
		if d := errs[i] - errs[0]; d > 1e-4 || d < -1e-4 {
			t.Errorf("leaf-size variants disagree: %v", errs)
		}
	}
}

func TestFindBatch(t *testing.T) {
	pts := testParticles(t, 1000, 36)
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 3, LeafSize: 64, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for bi := range pl.Batches.Batches {
		b := &pl.Batches.Batches[bi]
		for ti := b.Lo; ti < b.Hi; ti++ {
			if got := findBatch(pl, ti); got != bi {
				t.Fatalf("findBatch(%d) = %d, want %d", ti, got, bi)
			}
		}
	}
	if findBatch(pl, -1) != -1 || findBatch(pl, pts.Len()) != -1 {
		t.Error("out-of-range target should return -1")
	}
}

// lattice returns particles on a regular m x m x m grid spanning [-1,1]^3
// with unit charges; deterministic, so every run hits the same exact
// coordinate coincidences. The returned set has m^3 particles.
func lattice(m int) *particle.Set {
	s := particle.NewSet(m * m * m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			for k := 0; k < m; k++ {
				coord := func(t int) float64 {
					if m == 1 {
						return 0
					}
					return -1 + 2*float64(t)/float64(m-1)
				}
				s.Append(coord(i), coord(j), coord(k), 1)
			}
		}
	}
	return s
}

func TestLattice(t *testing.T) {
	s := lattice(3)
	if s.Len() != 27 {
		t.Fatalf("lattice has %d particles", s.Len())
	}
	b := s.Bounds()
	if b.Lo.X != -1 || b.Hi.X != 1 {
		t.Errorf("lattice bounds %v", b)
	}
	if s1 := lattice(1); s1.Len() != 1 || s1.At(0) != s1.Bounds().Center() {
		t.Errorf("unit lattice %+v", s1)
	}
}

func TestLatticeParticlesExerciseSingularities(t *testing.T) {
	// A regular lattice guarantees many exact coordinate coincidences
	// between particles and cluster box corners, stressing the removable
	// singularity handling of Section 2.3.
	pts := lattice(12) // 1728 points
	k := kernel.Coulomb{}
	pl, err := NewPlan(pts, pts, Params{Theta: 0.6, Degree: 4, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	res := mustSolve(t, pl, k, 0)
	for i, v := range res {
		if v != v { // NaN check
			t.Fatalf("NaN potential at lattice point %d", i)
		}
	}
	// Compare against direct at a few points.
	for _, i := range []int{0, 100, 863, 1727} {
		var want float64
		for j := 0; j < pts.Len(); j++ {
			want += k.Eval(pts.X[i], pts.Y[i], pts.Z[i], pts.X[j], pts.Y[j], pts.Z[j]) * pts.Q[j]
		}
		rel := (res[i] - want) / want
		if rel > 1e-4 || rel < -1e-4 {
			t.Errorf("lattice point %d: phi %.6g vs direct %.6g", i, res[i], want)
		}
	}
}
