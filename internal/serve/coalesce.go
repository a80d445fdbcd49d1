package serve

import (
	"errors"
	"fmt"
	"sync"

	"barytree/internal/core"
	"barytree/internal/kernel"
)

// solveJob is one solve request in flight against a cached plan: inputs
// (kernel, charges in the caller's source order), output (potentials in
// the caller's target order) and completion signalling. A job belongs to
// exactly one group pass; done is closed when phi/err are final.
type solveJob struct {
	kernel  kernel.Kernel
	charges []float64 // original source order; nil = the plan's build charges

	phi       []float64
	err       error
	groupSize int // how many requests shared the job's compute pass

	phiBatch []float64 // batch target order, scratch until scatter
	done     chan struct{}
}

// groupReport carries one coalesced pass's accounting to the server:
// requests served and modeled flop-equivalents of the two phases (for the
// modeled-time trace spans).
type groupReport struct {
	Size         int
	ChargeFlops  float64
	ComputeFlops float64
}

// planQueue coalesces concurrent solve requests against one plan into
// shared compute passes. Arrival batching, no timers: while a group pass
// runs, newly arriving requests accumulate in pending; when the pass
// finishes, the drainer takes the whole accumulation as the next group.
// Under load this converges to group-per-pass sizes matching the arrival
// rate (the group-commit pattern); an idle queue runs a request alone
// immediately, adding no latency.
//
// Correctness: each request keeps its own ChargeState and output buffer,
// and core.RunComputeGroup evaluates each (request, batch) pair exactly as
// a solo solve would — so a request's potentials are byte-identical
// whether it ran alone or in a group of any size (pinned by
// TestGroupMatchesSolo and the handler identity tests).
type planQueue struct {
	mu      sync.Mutex
	pending []*solveJob
	running bool

	// states recycles ChargeStates across requests on this plan; every
	// recycled state is fully reset (SetCharges or ResetToPlan overwrite
	// all charges) before reuse.
	states sync.Pool
}

// submit enqueues job and blocks until its group pass completes. workers
// bounds the host goroutines of each pass; onGroup (may be nil) is called
// once per group pass with its accounting, after results are final.
func (q *planQueue) submit(pl *core.Plan, workers int, job *solveJob, onGroup func(groupReport)) {
	job.done = make(chan struct{})
	q.mu.Lock()
	q.pending = append(q.pending, job)
	start := !q.running
	if start {
		q.running = true
	}
	q.mu.Unlock()
	if start {
		go q.drain(pl, workers, onGroup)
	}
	<-job.done
}

// drain runs group passes until the queue is empty, then retires. Exactly
// one drainer runs per queue at a time (the running flag).
func (q *planQueue) drain(pl *core.Plan, workers int, onGroup func(groupReport)) {
	for {
		q.mu.Lock()
		batch := q.pending
		q.pending = nil
		if len(batch) == 0 {
			q.running = false
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
		q.runGroup(pl, batch, workers, onGroup)
	}
}

// errGroupPanic marks a job failed because its group pass panicked: a
// server fault, not a bad request.
var errGroupPanic = errors.New("solve pass failed")

// runGroup executes one coalesced pass: per-request modified charges
// (each internally parallel), then a single tiled compute pass spanning
// every (request, batch) pair, then per-request scatter back to original
// target order. Requests with invalid charges fail fast and drop out of
// the group before any compute. A panic in the pass fails every job it
// has not answered yet with errGroupPanic and returns, so the drainer
// keeps serving; the pass's charge states are dropped, not recycled.
func (q *planQueue) runGroup(pl *core.Plan, jobs []*solveJob, workers int, onGroup func(groupReport)) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		err := fmt.Errorf("%w: %v", errGroupPanic, v)
		for _, j := range jobs {
			select {
			case <-j.done:
			default:
				j.phi, j.err = nil, err
				close(j.done)
			}
		}
	}()
	var rep groupReport
	live := make([]*solveJob, 0, len(jobs))
	members := make([]core.GroupMember, 0, len(jobs))
	for _, j := range jobs {
		st, _ := q.states.Get().(*core.ChargeState)
		if st == nil {
			st = core.NewChargeState(pl)
		}
		if j.charges != nil {
			if err := st.SetCharges(pl, j.charges); err != nil {
				q.states.Put(st)
				j.err = err
				close(j.done)
				continue
			}
		} else {
			st.ResetToPlan(pl)
		}
		rep.ChargeFlops += st.Compute(pl, workers)
		rep.ComputeFlops += core.ComputeWork(pl, j.kernel)
		j.phiBatch = make([]float64, pl.Batches.Targets.Len())
		members = append(members, core.GroupMember{Kernel: j.kernel, State: st, Phi: j.phiBatch})
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	core.RunComputeGroup(pl, members, workers)
	rep.Size = len(live)
	for i, j := range live {
		j.phi = make([]float64, len(j.phiBatch))
		pl.Batches.Perm.ScatterInto(j.phi, j.phiBatch)
		j.phiBatch = nil
		j.groupSize = len(live)
		q.states.Put(members[i].State)
	}
	if onGroup != nil {
		onGroup(rep)
	}
	for _, j := range live {
		close(j.done)
	}
}
