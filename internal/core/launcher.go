package core

import (
	"math"

	"barytree/internal/device"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/perfmodel"
)

// Launcher queues batch/cluster potential kernels on a simulated device,
// cycling asynchronous streams and advancing the host clock by the launch
// overhead, exactly as the paper's CPU loop over the interaction lists
// does. Both the single-device driver and the distributed driver (which
// additionally launches kernels against LET data) are built on it.
type Launcher struct {
	Dev       *device.Device
	Host      *perfmodel.Clock
	Kernel    kernel.Kernel
	Streams   int
	Sync      bool
	Precision device.Precision
	ModelOnly bool
	// DataReady is the completion time of the HtD transfer the kernels
	// depend on.
	DataReady float64

	tk        kernel.TileKernel
	f32t      kernel.F32TileKernel
	rate      float64
	capacity  float64
	perEval   float64
	syncReady float64
	launch    int
}

// NewLauncher prepares a launcher for the compute phase. streams <= 0
// selects the device default.
func NewLauncher(dev *device.Device, host *perfmodel.Clock, k kernel.Kernel,
	streams int, sync bool, prec device.Precision, modelOnly bool, dataReady float64) *Launcher {

	if streams <= 0 {
		streams = dev.Spec.Streams
	}
	l := &Launcher{
		Dev:       dev,
		Host:      host,
		Kernel:    k,
		Streams:   streams,
		Sync:      sync,
		Precision: prec,
		ModelOnly: modelOnly,
		DataReady: dataReady,
		rate:      dev.Spec.EffectiveFlopRate(),
		capacity:  float64(dev.Spec.ThreadCapacity()),
		perEval:   k.Cost(kernel.ArchGPU) + 2,
	}
	// Resolve the tiled fast path once for the whole compute phase; every
	// kernel body launched below dispatches once per source block, not per
	// source, and the host executes TileWidth targets per dispatch.
	l.tk = kernel.AsTile(k)
	if prec == device.FP32 {
		l.rate *= dev.Spec.FP32Speedup
		f32, ok := k.(kernel.F32Kernel)
		if !ok && !modelOnly {
			panic("core: FP32 requested but kernel does not implement kernel.F32Kernel")
		}
		if ok {
			l.f32t = kernel.AsF32Tile(f32)
		}
	}
	return l
}

// queue advances the host clock for one launch and returns the kernel's
// earliest device-side start; in Sync mode the host also waits for the
// kernel itself. label names the kernel in the trace.
func (l *Launcher) queue(label string, work float64, grid, block int) (device.LaunchSpec, float64) {
	spec := device.LaunchSpec{
		Stream: l.launch % l.Streams,
		Grid:   grid,
		Block:  block,
		FlopEq: work,
		Label:  label,
	}
	l.launch++
	l.Host.Advance(l.Dev.Spec.LaunchOverheadHost)
	submit := math.Max(l.Host.Now(), l.DataReady)
	if l.Sync {
		submit = math.Max(submit, l.syncReady)
		u := float64(grid*block) / l.capacity
		if u > 1 {
			u = 1
		}
		if u <= 0 {
			u = 1 / l.capacity
		}
		done := submit + l.Dev.Spec.LaunchLatencyDevice + work/(l.rate*u)
		l.syncReady = done
		l.Host.AdvanceTo(done)
	}
	return spec, submit
}

// LaunchDirect queues one batch-cluster direct sum kernel: targets
// [bLo, bLo+nb) of tg against source particles [cLo, cHi) of src, with one
// modeled thread block per target and atomic accumulation into phi (batch
// target order).
func (l *Launcher) LaunchDirect(tg *particle.Set, bLo, nb int, src *particle.Set, cLo, cHi int, phi *device.AccumBuffer) {
	work := float64(nb) * float64(cHi-cLo) * l.perEval
	spec, submit := l.queue("direct", work, nb, min(cHi-cLo, 1024))
	l.launchTiles(spec, submit, tg, bLo, nb, src.X[cLo:cHi], src.Y[cLo:cHi], src.Z[cLo:cHi], src.Q[cLo:cHi], phi)
}

// LaunchApprox queues one batch-cluster approximation kernel: targets
// [bLo, bLo+nb) against a cluster's Chebyshev points px/py/pz with modified
// charges qhat.
func (l *Launcher) LaunchApprox(tg *particle.Set, bLo, nb int, px, py, pz, qhat []float64, phi *device.AccumBuffer) {
	np := len(px)
	work := float64(nb) * float64(np) * l.perEval
	spec, submit := l.queue("approx", work, nb, min(np, 1024))
	l.launchTiles(spec, submit, tg, bLo, nb, px, py, pz, qhat, phi)
}

// launchTiles records a queued launch on the device and, unless the run
// is model-only, executes it on the host tiled: one host block per
// kernel.TileWidth targets of [bLo, bLo+nb), the last one padded (see
// TargetTile), adding each real target's block total into phi once. The
// tile's accumulators start at zero, and a sum accumulated from +0 under
// round-to-nearest can never be -0, so the per-lane 0 + total add is
// bit-exact against the CPU driver's add into phi. The modeled spec
// (grid nb) is unchanged.
func (l *Launcher) launchTiles(spec device.LaunchSpec, submit float64, tg *particle.Set, bLo, nb int,
	sx, sy, sz, q []float64, phi *device.AccumBuffer) {

	if l.ModelOnly {
		l.Dev.LaunchBlocks(spec, submit, nb, nil)
		return
	}
	tk, f32t := l.tk, l.f32t
	fp32 := l.Precision == device.FP32
	nTiles := (nb + kernel.TileWidth - 1) / kernel.TileWidth
	l.Dev.LaunchBlocks(spec, submit, nTiles, func(block int) {
		lo := bLo + block*kernel.TileWidth
		n := min(kernel.TileWidth, bLo+nb-lo)
		if fp32 {
			var t TargetTileF32
			t.Load(tg.X, tg.Y, tg.Z, lo, n)
			f32t.EvalTileAccumF32(&t.TX, &t.TY, &t.TZ, sx, sy, sz, q, &t.Acc)
			for lane := 0; lane < n; lane++ {
				phi.Add(lo+lane, float64(t.Acc[lane]))
			}
			return
		}
		var t TargetTile
		t.Load(tg.X, tg.Y, tg.Z, lo, n)
		tk.EvalTileAccum(&t.TX, &t.TY, &t.TZ, sx, sy, sz, q, &t.Acc)
		for lane := 0; lane < n; lane++ {
			phi.Add(lo+lane, t.Acc[lane])
		}
	})
}

// LaunchChargeKernels queues the two preprocessing kernels for every node
// of the source tree (Section 3.2): kernel 1 computes the intermediate
// quantities with one block per particle and threads over the degree;
// kernel 2 computes each modified charge with one block per Chebyshev
// point and threads over the particles. That is the modeled geometry of
// both launches. Kernel 2's functional grid is coarser: its m = n+1
// host blocks each fill one k1-slab of q-hat with pass2Slabs, the same
// particle-chunked body as the host pass, so device and host q-hat are
// bit-identical. The charges come from st.Q and every node's q-hat is
// published into st.Qhat. In model-only mode the launches are recorded for
// timing but st.Qhat stays nil.
func LaunchChargeKernels(pl *Plan, st *ChargeState, dev *device.Device,
	hc *perfmodel.Clock, dataReady float64, streams int, modelOnly bool) {

	st.checkGen(pl)
	cd, t := pl.Clusters, pl.Sources
	if streams <= 0 {
		streams = dev.Spec.Streams
	}
	n := cd.Degree
	m := n + 1
	launch := 0
	// One flat scratch serves every node: functional execution of a launch
	// is synchronous, so pass 1 and pass 2 of a node complete before the
	// next node's launches reuse the buffers. Concurrent blocks of one
	// pass-1 launch write disjoint scratch rows; concurrent slab blocks of
	// one pass-2 launch write disjoint q-hat ranges.
	scratch := scratchPool.Get().(*chargeScratch)
	defer scratchPool.Put(scratch)
	for ni := range t.Nodes {
		nd := &t.Nodes[ni]
		nc := nd.Count()
		p1, p2 := chargeWork(n, nc)

		var fn1, fn2 func(int)
		var qhat []float64
		if !modelOnly {
			scratch.Reserve(nc, m)
			qhat = st.slot(ni)
			ni := ni
			nd := nd
			fn1 = func(block int) {
				cd.pass1Particle(t.Particles, st.Q, nd, ni, block, scratch)
			}
			fn2 = func(k1 int) {
				cd.pass2Slabs(scratch, k1, k1+1, qhat)
			}
		}

		hc.Advance(dev.Spec.LaunchOverheadHost)
		dev.Launch(device.LaunchSpec{
			Stream: launch % streams,
			Grid:   nc,
			Block:  m,
			FlopEq: p1,
			Label:  "charges.pass1",
		}, math.Max(hc.Now(), dataReady), fn1)
		launch++

		np := cd.Grids[ni].NumPoints()
		hc.Advance(dev.Spec.LaunchOverheadHost)
		dev.LaunchBlocks(device.LaunchSpec{
			Stream: launch % streams,
			Grid:   np,
			Block:  min(nc, 1024),
			FlopEq: p2,
			Label:  "charges.pass2",
		}, math.Max(hc.Now(), dataReady), m, fn2)
		launch++
		if !modelOnly {
			st.Qhat[ni] = qhat
		}
	}
}
