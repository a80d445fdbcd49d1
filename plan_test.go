package barytree_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"barytree"
)

// TestPlanSolveMatchesSolve pins the Plan reuse contract: solving through a
// cached Plan is byte-identical (exact ==) to the one-shot Solve for the
// same geometry, charges and kernel, for several kernels on one plan.
func TestPlanSolveMatchesSolve(t *testing.T) {
	pts := barytree.UniformCube(3000, 61)
	p := smallParams()
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumTargets() != 3000 || pl.NumSources() != 3000 {
		t.Fatalf("counts %d/%d", pl.NumTargets(), pl.NumSources())
	}
	for _, k := range []barytree.Kernel{barytree.Coulomb(), barytree.Yukawa(0.5)} {
		want, err := barytree.Solve(k, pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Solve(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: potential %d: plan %g vs solve %g", k.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestPlanSolveWithCharges pins the charge-replacement path: Plan.Solve
// with explicit charges equals a from-scratch Solve on a particle set
// carrying those charges, exactly.
func TestPlanSolveWithCharges(t *testing.T) {
	pts := barytree.UniformCube(2500, 62)
	p := smallParams()
	k := barytree.Coulomb()
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	q := make([]float64, pts.Len())
	for i := range q {
		q[i] = 2*rng.Float64() - 1
	}
	got, err := pl.Solve(k, q)
	if err != nil {
		t.Fatal(err)
	}
	mod := pts.Clone()
	copy(mod.Q, q)
	want, err := barytree.Solve(k, mod, mod, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("potential %d: plan %g vs solve %g", i, got[i], want[i])
		}
	}
	if _, err := pl.Solve(k, q[:10]); err == nil {
		t.Fatal("wrong charge count accepted")
	}
}

// TestPlanSolveConcurrent shares one Plan across goroutines, each solving
// with its own charge vector, and checks every result bit-for-bit against
// a serial Plan.Solve with the same charges. Run under -race this is the
// immutability proof of the shared plan.
func TestPlanSolveConcurrent(t *testing.T) {
	pts := barytree.UniformCube(2000, 64)
	p := smallParams()
	k := barytree.Yukawa(0.25)
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	charges := make([][]float64, goroutines)
	want := make([][]float64, goroutines)
	for g := range charges {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		q := make([]float64, pts.Len())
		for i := range q {
			q[i] = 2*rng.Float64() - 1
		}
		charges[g] = q
		w, err := pl.Solve(k, q)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = w
	}
	var wg sync.WaitGroup
	errs := make([]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := pl.Solve(k, charges[g])
			if err != nil {
				errs[g] = err.Error()
				return
			}
			for i := range got {
				if got[i] != want[g][i] {
					errs[g] = "mismatch"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d: %s", g, e)
		}
	}
}

// TestSolverLinearity checks Plan.Solve as the matvec of an iterative
// solver: the treecode is linear in the charges,
// G*(a*q1 + q2) = a*G*q1 + G*q2, up to floating-point reassociation. (The
// barycentric compression is itself linear in q, so this holds to near
// machine precision.)
func TestSolverLinearity(t *testing.T) {
	pts := barytree.UniformCube(2000, 44)
	k := barytree.Coulomb()
	pl, err := barytree.NewPlan(pts, pts, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	q1 := make([]float64, pts.Len())
	q2 := make([]float64, pts.Len())
	comb := make([]float64, pts.Len())
	for i := range q1 {
		q1[i] = rng.NormFloat64()
		q2[i] = rng.NormFloat64()
		comb[i] = 3*q1[i] + q2[i]
	}
	var phi [3][]float64
	for i, q := range [][]float64{q1, q2, comb} {
		if phi[i], err = pl.Solve(k, q); err != nil {
			t.Fatal(err)
		}
	}
	for i, got := range phi[2] {
		want := 3*phi[0][i] + phi[1][i]
		if d := (got - want) / (math.Abs(want) + 1); math.Abs(d) > 1e-10 {
			t.Fatalf("linearity violated at %d: %g vs %g", i, got, want)
		}
	}
}

// TestSolverJacobiIterationConverges is a miniature boundary-integral
// workflow: solve (I + c*G) q = b by Jacobi iteration with Plan.Solve as
// the matvec. With small c the iteration contracts; convergence exercises
// repeated charge updates on one plan.
func TestSolverJacobiIterationConverges(t *testing.T) {
	pts := barytree.UniformCube(1500, 46)
	k := barytree.Yukawa(1.0)
	pl, err := barytree.NewPlan(pts, pts, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	const c = 1e-4
	q := make([]float64, pts.Len())
	for i := range q {
		q[i] = 1 // b = 1
	}
	var residual float64
	for iter := 0; iter < 25; iter++ {
		gq, err := pl.Solve(k, q)
		if err != nil {
			t.Fatal(err)
		}
		residual = 0
		for i := range q {
			next := 1 - c*gq[i]
			residual = math.Max(residual, math.Abs(next-q[i]))
			q[i] = next
		}
		if residual < 1e-12 {
			break
		}
	}
	if residual > 1e-10 {
		t.Errorf("Jacobi iteration did not converge: residual %.3g", residual)
	}
}

// TestSolverRejectsWrongChargeCount checks that both plan solve paths
// return an error, not a panic or a silent truncation, for a charge
// vector of the wrong length.
func TestSolverRejectsWrongChargeCount(t *testing.T) {
	pts := barytree.UniformCube(100, 47)
	pl, err := barytree.NewPlan(pts, pts, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{99, 101} {
		if _, err := pl.Solve(barytree.Coulomb(), make([]float64, n)); err == nil {
			t.Errorf("Solve accepted %d charges for 100 sources", n)
		}
		if _, err := pl.SolveWithField(barytree.Coulomb(), make([]float64, n)); err == nil {
			t.Errorf("SolveWithField accepted %d charges for 100 sources", n)
		}
	}
}

// TestPlanSolveWithFieldMatchesOneShot pins the stepping path: potentials
// and gradients through a cached Plan are byte-identical to the one-shot
// SolveWithField, for both the midpoint and the Morton build.
func TestPlanSolveWithFieldMatchesOneShot(t *testing.T) {
	pts := barytree.UniformCube(2500, 64)
	k := barytree.Coulomb()
	for _, morton := range []bool{false, true} {
		p := smallParams()
		p.Morton = morton
		want, err := barytree.SolveWithField(k, pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := barytree.NewPlan(pts, pts, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.SolveWithField(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Phi {
			if got.Phi[i] != want.Phi[i] || got.GX[i] != want.GX[i] ||
				got.GY[i] != want.GY[i] || got.GZ[i] != want.GZ[i] {
				t.Fatalf("morton=%v: field %d differs: plan (%g,%g,%g,%g) vs one-shot (%g,%g,%g,%g)",
					morton, i, got.Phi[i], got.GX[i], got.GY[i], got.GZ[i],
					want.Phi[i], want.GX[i], want.GY[i], want.GZ[i])
			}
		}
	}
}

// TestFieldPathsRequireGradient pins the error path of every field entry
// point: a KernelFunc has no analytic gradient, so SolveWithField,
// Plan.SolveWithField and DirectField refuse it with the same error
// instead of returning results.
func TestFieldPathsRequireGradient(t *testing.T) {
	pts := barytree.UniformCube(200, 66)
	k := barytree.KernelFunc("no-grad", func(tx, ty, tz, sx, sy, sz float64) float64 { return 1 }, 1, 1)
	const want = `barytree: kernel "no-grad" provides no analytic gradient`
	pl, err := barytree.NewPlan(pts, pts, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() (*barytree.FieldResult, error){
		"SolveWithField":      func() (*barytree.FieldResult, error) { return barytree.SolveWithField(k, pts, pts, smallParams()) },
		"Plan.SolveWithField": func() (*barytree.FieldResult, error) { return pl.SolveWithField(k, nil) },
		"DirectField":         func() (*barytree.FieldResult, error) { return barytree.DirectField(k, pts, pts) },
	}
	for name, call := range calls {
		res, err := call()
		if err == nil || err.Error() != want || res != nil {
			t.Errorf("%s: got (%v, %v), want (nil, %q)", name, res, err, want)
		}
	}
}

// TestPlanUpdate pins the public update contract end to end: a zero-drift
// Update refits and solves byte-identically to the pre-update plan, and an
// Update that restructures solves byte-identically to a one-shot Solve at
// the new positions.
func TestPlanUpdate(t *testing.T) {
	pts := barytree.UniformCube(2500, 65)
	p := smallParams()
	p.Morton = true
	p.LeafSize, p.BatchSize = 100, 100
	k := barytree.Coulomb()
	pl, err := barytree.NewPlan(pts, pts, p)
	if err != nil {
		t.Fatal(err)
	}
	pl.SetTracer(barytree.NewTracer())
	before, err := pl.Solve(k, nil)
	if err != nil {
		t.Fatal(err)
	}

	st, err := pl.Update(pts.X, pts.Y, pts.Z)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action != barytree.UpdateRefit {
		t.Fatalf("zero drift took %v, want refit", st.Action)
	}
	after, err := pl.Solve(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("zero-drift update changed potential %d: %g vs %g", i, after[i], before[i])
		}
	}

	// Teleport a block of particles; whichever non-refit path runs, the
	// plan must solve exactly like a one-shot at the new positions.
	rng := rand.New(rand.NewSource(66))
	moved := pts.Clone()
	for m := 0; m < 100; m++ {
		i := rng.Intn(pts.Len())
		moved.X[i] = 1.8*rng.Float64() - 0.9
		moved.Y[i] = 1.8*rng.Float64() - 0.9
		moved.Z[i] = 1.8*rng.Float64() - 0.9
	}
	st, err = pl.Update(moved.X, moved.Y, moved.Z)
	if err != nil {
		t.Fatal(err)
	}
	if st.Action == barytree.UpdateRefit {
		t.Fatalf("teleported block still refit: %+v", st)
	}
	got, err := pl.Solve(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := barytree.Solve(k, moved, moved, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-%v potential %d: plan %g vs one-shot %g", st.Action, i, got[i], want[i])
		}
	}
}
