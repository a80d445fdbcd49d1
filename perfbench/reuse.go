package main

import (
	"fmt"
	"runtime"
	"time"

	"barytree"
	"barytree/internal/core"
)

// runReuse is reuse-cube-coulomb: one plan over a uniform cube, then
// closed-loop Plan.Solve calls with fresh charges on fixed positions.
func runReuse(cfg config) (*result, error) {
	n, leaf, reps, nSample := 50000, 2000, 9, 1000
	if cfg.tiny {
		n, leaf, reps, nSample = 4000, 300, 2, 50
	}
	p := barytree.Params{Theta: 0.8, Degree: 8, LeafSize: leaf, BatchSize: leaf, Workers: workers}
	pts := barytree.UniformCube(n, subSeed(cfg.seed, 1))
	k := barytree.Coulomb()
	res := newResult()
	if cfg.trace {
		res.rec = newRecorder()
	}

	var (
		pl        *barytree.Plan
		cp        *core.Plan // the traced composition's plan
		gridBytes float64
		setup     []float64
	)
	for i := 0; i < reps; i++ {
		var err error
		setup = append(setup, timed(func() { pl, err = barytree.NewPlan(pts, pts, p) }).Seconds())
		if err != nil {
			return nil, err
		}
		if cfg.trace {
			if cp, gridBytes, err = tracedNewPlan(res.rec, -1-i, pts, pts, p); err != nil {
				return nil, err
			}
		}
	}
	res.e2e["setup_s"] = median(setup)

	rng := newRand(cfg.seed, 2)
	q := make([]float64, n)
	uniformCharges(q, rng)
	if _, err := pl.Solve(k, q); err != nil { // warm-up: pool scratch, page faults
		return nil, err
	}

	// Every measured op's charges and potentials, for rel_err after the
	// window: the error varies by tens of percent between charge draws, so
	// it is pooled over all of them.
	var kept []struct{ q, phi []float64 }
	keep := func(phi []float64) {
		kept = append(kept, struct{ q, phi []float64 }{append([]float64(nil), q...), phi})
	}
	solve := func() ([]float64, time.Duration, error) {
		var phi []float64
		var err error
		d := timed(func() { phi, err = pl.Solve(k, q) })
		return phi, d, err
	}

	if !cfg.trace {
		lat, failed, elapsed := closedLoop(cfg.seconds, func(i int) (time.Duration, error) {
			uniformCharges(q, rng)
			phi, d, err := solve()
			if err == nil {
				keep(phi)
			}
			return d, err
		})
		res.attempted, res.failed = len(lat)+failed, failed
		latencyMetrics(res.e2e, lat, elapsed)
	} else {
		var latU, latT []float64
		rec := res.rec
		traced := func(i int) ([]float64, time.Duration, error) {
			var phi []float64
			var err error
			d := rec.do(i, 0, "op", "", func() {
				var st *core.ChargeState
				rec.do(i, 0, "charges", "op", func() {
					st = core.NewChargeState(cp)
					if err = st.SetCharges(cp, q); err == nil {
						st.Compute(cp, workers)
					}
				})
				if err != nil {
					return
				}
				var phiB []float64
				rec.do(i, 0, "compute", "op", func() {
					phiB = make([]float64, cp.Batches.Targets.Len())
					core.RunComputeState(cp, k, st, phiB, workers)
				})
				rec.do(i, 0, "scatter", "op", func() {
					phi = make([]float64, len(phiB))
					cp.Batches.Perm.ScatterInto(phi, phiB)
				})
			})
			return phi, d, err
		}
		// Alternate which side runs first so drift in the machine's speed
		// lands on both equally.
		lat, failed, _ := closedLoop(cfg.seconds, func(i int) (time.Duration, error) {
			uniformCharges(q, rng)
			var phiU, phiT []float64
			var dU, dT time.Duration
			var errU, errT error
			if i%2 == 0 {
				phiU, dU, errU = solve()
				phiT, dT, errT = traced(i)
			} else {
				phiT, dT, errT = traced(i)
				phiU, dU, errU = solve()
			}
			if errU != nil || errT != nil {
				return 0, fmt.Errorf("untraced: %v, traced: %v", errU, errT)
			}
			if !sameBits(phiU, phiT) {
				res.gate("op %d: traced composition's potentials differ from Plan.Solve", i)
			}
			keep(phiU)
			latU, latT = append(latU, dU.Seconds()), append(latT, dT.Seconds())
			return dU + dT, nil
		})
		res.attempted, res.failed = 2*(len(lat)+failed), failed
		self := rec.selfTimes(median)
		l := res.layer
		setupLayerMetrics(l, self, cp, gridBytes)
		l["charges.s"] = self["charges"]
		l["charges.ns_per_point"] = self["charges"] / chargePoints(cp) * 1e9
		l["compute.s"] = self["compute"]
		l["compute.ns_per_interaction"] = self["compute"] / float64(cp.Lists.Stats.TotalInteractions()) * 1e9
		l["scatter.s"] = self["scatter"]
		closeLedger(l, self["charges"]+self["compute"]+self["scatter"], median(latU), median(latT))
	}

	var errs errSample
	idx := barytree.SampleIndices(n, nSample, subSeed(cfg.seed, 3))
	for _, kp := range kept {
		errs.add(k, pts, kp.q, kp.phi, idx)
	}
	kept = nil
	errs.gate(res, 1e-5)
	res.e2e["heap_bytes_per_particle"] = heapInUse() / float64(n)
	runtime.KeepAlive(pts)
	runtime.KeepAlive(pl)
	runtime.KeepAlive(cp)
	return res, nil
}
