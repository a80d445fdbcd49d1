package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/kernel"
)

// refSolve computes the reference potentials through the one-shot library
// path (fresh setup per call — the baseline every served result must match
// byte-for-byte).
func refSolve(t *testing.T, k kernel.Kernel, s *barytree.Particles, q []float64, p core.Params) []float64 {
	t.Helper()
	set := withCharges(s, q)
	phi, err := barytree.Solve(k, set, set, p)
	if err != nil {
		t.Fatal(err)
	}
	return phi
}

// TestGroupMatchesSolo pins the coalescing invariant: a request's
// potentials are byte-identical whether its compute pass ran alone or
// shared with any mix of other requests (other charges, other kernels).
func TestGroupMatchesSolo(t *testing.T) {
	s, _ := testSet(300, 21)
	p := testParams()
	pl, err := core.NewPlan(s, s, p)
	if err != nil {
		t.Fatal(err)
	}

	kernels := []kernel.Kernel{kernel.Coulomb{}, kernel.Yukawa{Kappa: 0.5}, kernel.Coulomb{}, kernel.Gaussian{Sigma: 1.2}}
	const jobs = 4
	charges := make([][]float64, jobs)
	for i := range charges {
		_, q := testSet(300, 100+int64(i))
		charges[i] = q
	}

	newJob := func(i int) *solveJob {
		return &solveJob{kernel: kernels[i], charges: charges[i], done: make(chan struct{})}
	}

	// Solo: each job in its own group pass.
	var q planQueue
	solo := make([][]float64, jobs)
	for i := 0; i < jobs; i++ {
		j := newJob(i)
		q.runGroup(pl, []*solveJob{j}, 0, nil)
		if j.err != nil {
			t.Fatalf("solo job %d: %v", i, j.err)
		}
		if j.groupSize != 1 {
			t.Fatalf("solo job %d reports group size %d", i, j.groupSize)
		}
		solo[i] = j.phi
	}

	// Grouped: all jobs in one pass.
	grouped := make([]*solveJob, jobs)
	for i := range grouped {
		grouped[i] = newJob(i)
	}
	var rep groupReport
	q.runGroup(pl, grouped, 0, func(r groupReport) { rep = r })
	if rep.Size != jobs {
		t.Fatalf("group pass reports size %d, want %d", rep.Size, jobs)
	}

	for i, j := range grouped {
		if j.err != nil {
			t.Fatalf("grouped job %d: %v", i, j.err)
		}
		if j.groupSize != jobs {
			t.Fatalf("grouped job %d reports group size %d, want %d", i, j.groupSize, jobs)
		}
		want := refSolve(t, kernels[i], s, charges[i], p)
		for n := range want {
			if j.phi[n] != solo[i][n] {
				t.Fatalf("job %d phi[%d]: grouped %v != solo %v", i, n, j.phi[n], solo[i][n])
			}
			if j.phi[n] != want[n] {
				t.Fatalf("job %d phi[%d]: served %v != library %v", i, n, j.phi[n], want[n])
			}
		}
	}
}

// TestGroupBadChargesFailFast pins that an invalid request drops out of
// its group before compute without poisoning the other members.
func TestGroupBadChargesFailFast(t *testing.T) {
	s, q0 := testSet(200, 23)
	p := testParams()
	pl, err := core.NewPlan(s, s, p)
	if err != nil {
		t.Fatal(err)
	}

	good := &solveJob{kernel: kernel.Coulomb{}, charges: q0, done: make(chan struct{})}
	bad := &solveJob{kernel: kernel.Coulomb{}, charges: q0[:50], done: make(chan struct{})}
	var q planQueue
	q.runGroup(pl, []*solveJob{bad, good}, 0, nil)

	if bad.err == nil {
		t.Fatal("short charge vector accepted")
	}
	if good.err != nil {
		t.Fatalf("good job failed alongside a bad one: %v", good.err)
	}
	if good.groupSize != 1 {
		t.Fatalf("good job reports group size %d, want 1 (bad job dropped before compute)", good.groupSize)
	}
	want := refSolve(t, kernel.Coulomb{}, s, q0, p)
	for n := range want {
		if good.phi[n] != want[n] {
			t.Fatalf("phi[%d]: %v != library %v", n, good.phi[n], want[n])
		}
	}
}

// TestQueueConcurrentSubmit hammers one plan queue from many goroutines
// under -race: every result must be byte-identical to the library path no
// matter how the group-commit batching slices the arrivals.
func TestQueueConcurrentSubmit(t *testing.T) {
	s, _ := testSet(200, 29)
	p := testParams()
	pl, err := core.NewPlan(s, s, p)
	if err != nil {
		t.Fatal(err)
	}

	const vectors = 6
	charges := make([][]float64, vectors)
	want := make([][]float64, vectors)
	for i := range charges {
		_, q := testSet(200, 200+int64(i))
		charges[i] = q
		want[i] = refSolve(t, kernel.Coulomb{}, s, q, p)
	}

	var q planQueue
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				i := (g + r) % vectors
				job := &solveJob{kernel: kernel.Coulomb{}, charges: charges[i]}
				q.submit(pl, 0, job, nil)
				if job.err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, job.err)
					return
				}
				for n := range want[i] {
					if job.phi[n] != want[i][n] {
						errs <- fmt.Errorf("goroutine %d vector %d phi[%d]: %v != %v", g, i, n, job.phi[n], want[i][n])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueueSurvivesPanickingPass pins that a group pass whose kernel
// panics, on a pool worker goroutine or inline, fails every waiter of
// that pass with errGroupPanic instead of killing the process, and that
// the queue keeps serving: the next solve on the same plan still matches
// the library path byte for byte.
func TestQueueSurvivesPanickingPass(t *testing.T) {
	s, q0 := testSet(200, 31)
	p := testParams()
	pl, err := core.NewPlan(s, s, p)
	if err != nil {
		t.Fatal(err)
	}
	boom := kernel.Func{KernelName: "boom", F: func(tx, ty, tz, sx, sy, sz float64) float64 { panic("boom") }}
	want := refSolve(t, kernel.Coulomb{}, s, q0, p)
	for _, workers := range []int{1, 3} {
		var q planQueue
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				job := &solveJob{kernel: boom, charges: q0}
				q.submit(pl, workers, job, nil)
				if !errors.Is(job.err, errGroupPanic) {
					errs <- fmt.Errorf("workers=%d: waiter got err %v, want errGroupPanic", workers, job.err)
				}
			}(workers)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		job := &solveJob{kernel: kernel.Coulomb{}, charges: q0}
		q.submit(pl, workers, job, nil)
		if job.err != nil {
			t.Fatalf("workers=%d: solve after the panicking pass: %v", workers, job.err)
		}
		for n := range want {
			if job.phi[n] != want[n] {
				t.Fatalf("workers=%d phi[%d]: %v != library %v", workers, n, job.phi[n], want[n])
			}
		}
	}
}
