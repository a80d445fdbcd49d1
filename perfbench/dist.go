package main

import (
	"fmt"
	"runtime"
	"time"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/dist"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/perfmodel"
	"barytree/internal/rcb"
)

// runDist is dist4-plummer-yukawa: closed-loop dist.Run calls, 4 simulated
// ranks with overlapped LET communication, on a Plummer sphere. dist.Run
// pays its set-up (RCB, trees, LET) on every op.
func runDist(cfg config) (*result, error) {
	n, leaf, reps, nSample := 20000, 500, 9, 1000
	if cfg.tiny {
		n, leaf, reps, nSample = 3000, 100, 3, 50
	}
	const ranks = 4
	pts := barytree.PlummerSphere(n, 1.0, subSeed(cfg.seed, 1))
	k := kernel.Yukawa{Kappa: 0.5}
	dc := dist.Config{
		Ranks:          ranks,
		Params:         core.Params{Theta: 0.8, Degree: 5, LeafSize: leaf, BatchSize: leaf, Workers: 1},
		GPU:            perfmodel.P100(),
		OverlapComm:    true,
		WorkersPerRank: 1,
	}
	res := newResult()

	// setup_s: the domain decomposition dist.Run starts with, the one
	// set-up step separable from outside it.
	var setup []float64
	for i := 0; i < reps; i++ {
		setup = append(setup, timed(func() { partition(pts, ranks) }).Seconds())
	}
	res.e2e["setup_s"] = median(setup)

	var first, last *dist.Result
	op := func() (time.Duration, error) {
		var r *dist.Result
		var err error
		d := timed(func() { r, err = dist.Run(dc, k, pts) })
		if err != nil {
			return d, err
		}
		if first == nil {
			first = r
		} else if r.Times != first.Times {
			res.gate("modeled times changed between ops: %v vs %v", r.Times, first.Times)
		}
		last = r
		return d, nil
	}
	if _, err := op(); err != nil { // warm-up
		return nil, err
	}

	if !cfg.trace {
		lat, failed, elapsed := closedLoop(cfg.seconds, func(int) (time.Duration, error) { return op() })
		res.attempted, res.failed = len(lat)+failed, failed
		latencyMetrics(res.e2e, lat, elapsed)
	} else {
		// From outside dist.Run only the RCB partition separates; the rest
		// of each op is reported as the ledger's gap.
		rec := newRecorder()
		res.rec = rec
		var latU, latT []float64
		lat, failed, _ := closedLoop(cfg.seconds, func(i int) (time.Duration, error) {
			dU, errU := op()
			var errT error
			dT := rec.do(i, 0, "op", "", func() {
				rec.do(i, 0, "dist.Run", "op", func() { _, errT = op() })
			})
			rec.do(-1-i, 0, "rcb", "", func() { partition(pts, ranks) })
			if errU != nil || errT != nil {
				return 0, fmt.Errorf("untraced: %v, traced: %v", errU, errT)
			}
			latU, latT = append(latU, dU.Seconds()), append(latT, dT.Seconds())
			return dU + dT, nil
		})
		res.attempted, res.failed = 2*(len(lat)+failed), failed
		self := rec.selfTimes(median)
		distLayerMetrics(res.layer, last, self["rcb"])
		closeLedger(res.layer, self["rcb"], median(latU), median(latT))
	}

	var errs errSample
	idx := barytree.SampleIndices(n, nSample, subSeed(cfg.seed, 3))
	errs.add(k, pts, pts.Q, last.Phi, idx)
	errs.gate(res, 1e-4)
	// dist.Run keeps nothing between ops: the resident state is the input
	// and the last result.
	res.e2e["heap_bytes_per_particle"] = heapInUse() / float64(n)
	runtime.KeepAlive(pts)
	runtime.KeepAlive(last)
	return res, nil
}

// partition is dist.Run's domain decomposition: RCB over the particles'
// bounds, then each rank's particles extracted.
func partition(pts *barytree.Particles, ranks int) {
	dec := rcb.Partition(pts, ranks, pts.Bounds())
	for r := 0; r < ranks; r++ {
		dec.Extract(pts, r)
	}
}

// distLayerMetrics reports a distributed solve's modeled phases and its
// communication and work counts, summed over ranks.
func distLayerMetrics(l map[string]float64, r *dist.Result, rcbSeconds float64) {
	l["rcb.partition_s"] = rcbSeconds
	l["dist.modeled_setup_s"] = r.Times[perfmodel.PhaseSetup]
	l["dist.modeled_precompute_s"] = r.Times[perfmodel.PhasePrecompute]
	l["dist.modeled_compute_s"] = r.Times[perfmodel.PhaseCompute]
	l["dist.modeled_total_s"] = r.Times.Total()
	var sumT, maxT float64
	var st interaction.Stats
	for i := range r.Ranks {
		rk := &r.Ranks[i]
		l["mpisim.comm_s"] += rk.CommTime
		l["mpisim.get_bytes"] += float64(rk.Comm.GetBytes)
		l["mpisim.gets"] += float64(rk.Comm.Gets)
		l["let.bytes"] += float64(rk.LETBytes)
		l["dist.overlap_saved_s"] += rk.OverlapSaved
		for _, s := range []interaction.Stats{rk.Local, rk.Remote} {
			st.MACTests += s.MACTests
			st.ApproxInteractions += s.ApproxInteractions
			st.DirectInteractions += s.DirectInteractions
		}
		t := rk.Times.Total()
		sumT += t
		maxT = max(maxT, t)
	}
	l["dist.rank_imbalance"] = maxT / (sumT / float64(len(r.Ranks)))
	listCounts(l, st)
}
