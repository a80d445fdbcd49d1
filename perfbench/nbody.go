package main

import (
	"fmt"
	"runtime"
	"time"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/kernel"
)

// runNbody is nbody-plummer-step: a Morton plan over a Plummer sphere,
// then closed-loop simulation steps, each drift → Plan.Update →
// Plan.SolveWithField. Velocities are drawn from the seed and never
// updated, so step s always sees the same positions whatever the outputs.
func runNbody(cfg config) (*result, error) {
	n, leaf, nSample := 10000, 300, 400
	if cfg.tiny {
		n, leaf, nSample = 1500, 100, 50
	}
	const dt, eps, sigmaV = 0.002, 0.05, 0.3
	p := barytree.Params{Theta: 0.6, Degree: 6, LeafSize: leaf, BatchSize: leaf, Morton: true, Workers: workers}
	stars := barytree.PlummerSphere(n, 1.0, subSeed(cfg.seed, 1))
	k := barytree.RegularizedCoulomb(eps)
	gk := k.(kernel.GradKernel)
	rng := newRand(cfg.seed, 2)
	vx, vy, vz := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range vx {
		vx[i], vy[i], vz[i] = sigmaV*rng.NormFloat64(), sigmaV*rng.NormFloat64(), sigmaV*rng.NormFloat64()
	}
	drift := func(s int, x, y, z []float64) {
		t := float64(s) * dt
		for i := range x {
			x[i] = stars.X[i] + t*vx[i]
			y[i] = stars.Y[i] + t*vy[i]
			z[i] = stars.Z[i] + t*vz[i]
		}
	}
	res := newResult()
	pl, err := barytree.NewPlan(stars, stars, p)
	if err != nil {
		return nil, err
	}

	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	var upd []float64 // Plan.Update wall time per step: this workload's set-up
	step := func(s int) (*barytree.FieldResult, time.Duration, error) {
		var f *barytree.FieldResult
		var err error
		d := timed(func() {
			drift(s, x, y, z)
			var du time.Duration
			du = timed(func() { _, err = pl.Update(x, y, z) })
			upd = append(upd, du.Seconds())
			if err == nil {
				f, err = pl.SolveWithField(k, nil)
			}
		})
		return f, d, err
	}

	// Traced side: its own core plan, stepped in lockstep.
	var (
		cp         *core.Plan
		xt, yt, zt []float64
		gridBytes  float64
		actions    [3]int
		drifters   int
	)
	if cfg.trace {
		res.rec = newRecorder()
		if cp, err = core.NewPlan(stars, stars, p); err != nil {
			return nil, err
		}
		xt, yt, zt = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	traced := func(i, s int) (*barytree.FieldResult, time.Duration, error) {
		rec := res.rec
		f := &barytree.FieldResult{}
		var err error
		d := rec.do(i, 0, "op", "", func() {
			rec.do(i, 0, "drift", "op", func() { drift(s, xt, yt, zt) })
			var us core.UpdateStats
			rec.do(i, 0, "update", "op", func() { us, err = cp.Update(xt, yt, zt, nil) })
			if err != nil {
				return
			}
			actions[us.Action]++
			drifters += us.Drifters
			var st *core.ChargeState
			rec.do(i, 0, "charges", "op", func() {
				st = core.NewChargeState(cp)
				st.Compute(cp, workers)
			})
			nt := cp.Batches.Targets.Len()
			var phi, gx, gy, gz []float64
			rec.do(i, 0, "fields", "op", func() {
				phi, gx, gy, gz = make([]float64, nt), make([]float64, nt), make([]float64, nt), make([]float64, nt)
				core.RunFieldsState(cp, gk, st, phi, gx, gy, gz, workers)
			})
			rec.do(i, 0, "scatter", "op", func() {
				f.Phi, f.GX, f.GY, f.GZ = make([]float64, nt), make([]float64, nt), make([]float64, nt), make([]float64, nt)
				perm := cp.Batches.Perm
				perm.ScatterInto(f.Phi, phi)
				perm.ScatterInto(f.GX, gx)
				perm.ScatterInto(f.GY, gy)
				perm.ScatterInto(f.GZ, gz)
			})
		})
		return f, d, err
	}

	// Warm-up: step 1 on every plan, outside the measured window.
	if _, _, err := step(1); err != nil {
		return nil, err
	}
	if cfg.trace {
		if _, _, err := traced(0, 1); err != nil {
			return nil, err
		}
		res.rec = newRecorder() // keep only the measured steps' spans
		actions, drifters = [3]int{}, 0
		for i := 0; i < 3; i++ {
			gridBytes = tracedMortonSetup(res.rec, -1-i, stars, stars, p)
		}
	}
	upd = upd[:0]

	// Every measured step's potentials, for rel_err after the window (the
	// error varies several-fold between steps, so it is pooled).
	type stepPhi struct {
		s   int
		phi []float64
	}
	var kept []stepPhi
	if !cfg.trace {
		lat, failed, elapsed := closedLoop(cfg.seconds, func(i int) (time.Duration, error) {
			f, d, err := step(i + 2)
			if err == nil {
				kept = append(kept, stepPhi{i + 2, f.Phi})
			}
			return d, err
		})
		res.attempted, res.failed = len(lat)+failed, failed
		latencyMetrics(res.e2e, lat, elapsed)
		res.e2e["setup_s"] = median(upd)
	} else {
		var latU, latT []float64
		lat, failed, _ := closedLoop(cfg.seconds, func(i int) (time.Duration, error) {
			s := i + 2
			var fU, fT *barytree.FieldResult
			var dU, dT time.Duration
			var errU, errT error
			if i%2 == 0 {
				fU, dU, errU = step(s)
				fT, dT, errT = traced(i, s)
			} else {
				fT, dT, errT = traced(i, s)
				fU, dU, errU = step(s)
			}
			if errU != nil || errT != nil {
				return 0, fmt.Errorf("untraced: %v, traced: %v", errU, errT)
			}
			if !sameBits(fU.Phi, fT.Phi) || !sameBits(fU.GX, fT.GX) || !sameBits(fU.GY, fT.GY) || !sameBits(fU.GZ, fT.GZ) {
				res.gate("step %d: traced composition's potentials or fields differ from Plan.SolveWithField", s)
			}
			kept = append(kept, stepPhi{s, fU.Phi})
			latU, latT = append(latU, dU.Seconds()), append(latT, dT.Seconds())
			return dU + dT, nil
		})
		res.attempted, res.failed = 2*(len(lat)+failed), failed
		self := res.rec.selfTimes(median)
		l := res.layer
		setupLayerMetrics(l, self, cp, gridBytes)
		steps := float64(len(lat))
		l["update.s"] = self["update"]
		l["update.refit"] = float64(actions[core.UpdateRefit]) / steps
		l["update.repair"] = float64(actions[core.UpdateRepair]) / steps
		l["update.rebuild"] = float64(actions[core.UpdateRebuild]) / steps
		l["update.drifters"] = float64(drifters) / steps
		l["charges.s"] = self["charges"]
		l["charges.ns_per_point"] = self["charges"] / chargePoints(cp) * 1e9
		l["fields.s"] = self["fields"]
		l["fields.ns_per_interaction"] = self["fields"] / float64(cp.Lists.Stats.TotalInteractions()) * 1e9
		l["scatter.s"] = self["scatter"]
		closeLedger(l, self["drift"]+self["update"]+self["charges"]+self["fields"]+self["scatter"], median(latU), median(latT))
	}

	var errs errSample
	idx := barytree.SampleIndices(n, nSample, subSeed(cfg.seed, 3))
	for _, kp := range kept {
		drift(kp.s, x, y, z)
		errs.add(k, &barytree.Particles{X: x, Y: y, Z: z}, stars.Q, kp.phi, idx)
	}
	kept = nil
	errs.gate(res, 1e-5)
	res.e2e["heap_bytes_per_particle"] = heapInUse() / float64(n)
	runtime.KeepAlive(stars)
	runtime.KeepAlive(pl)
	runtime.KeepAlive(cp)
	return res, nil
}
