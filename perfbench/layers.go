package main

import (
	"fmt"

	"barytree/internal/core"
	"barytree/internal/interaction"
	"barytree/internal/particle"
	"barytree/internal/tree"
)

// Span names of the set-up layers; their parent span is "setup".
const (
	spanTree    = "tree"
	spanBatches = "batches"
	spanLists   = "lists"
	spanGrids   = "grids"
)

// tracedNewPlan makes the calls core.NewPlan makes for a midpoint-split
// plan, one at a time, each inside a span, and assembles the same Plan. It
// returns the bytes the grid layout allocated.
func tracedNewPlan(rec *recorder, op int, targets, sources *particle.Set, p core.Params) (*core.Plan, float64, error) {
	var (
		pl        *core.Plan
		gridBytes float64
		err       error
	)
	rec.do(op, 0, "setup", "", func() {
		if err = p.Validate(); err != nil {
			return
		}
		if err = sources.Validate(); err != nil {
			return
		}
		if err = targets.Validate(); err != nil {
			return
		}
		var (
			t  *tree.Tree
			b  *tree.BatchSet
			l  *interaction.Lists
			cd *core.ClusterData
		)
		rec.do(op, 0, spanTree, "setup", func() { t = tree.BuildWorkers(sources, p.LeafSize, p.Workers) })
		rec.do(op, 0, spanBatches, "setup", func() { b = tree.BuildBatchesWorkers(targets, p.BatchSize, p.Workers) })
		rec.do(op, 0, spanLists, "setup", func() { l = interaction.BuildListsWorkers(b, t, p.MAC(), p.Workers) })
		rec.do(op, 0, spanGrids, "setup", func() {
			gridBytes = allocated(func() { cd = core.NewClusterDataWorkers(t, p.Degree, p.Workers) })
		})
		pl = &core.Plan{Params: p, Sources: t, Batches: b, Lists: l, Clusters: cd}
	})
	if err != nil {
		return nil, 0, fmt.Errorf("traced set-up: %w", err)
	}
	return pl, gridBytes, nil
}

// tracedMortonSetup makes the calls core.NewPlan makes for a Morton plan,
// one at a time, each inside a span. The Morton plan's update state is
// private to core, so the caller builds the plan it steps with
// core.NewPlan; this only measures the layers. It returns the bytes the
// grid layout allocated.
func tracedMortonSetup(rec *recorder, op int, targets, sources *particle.Set, p core.Params) float64 {
	var gridBytes float64
	rec.do(op, 0, "setup", "", func() {
		var (
			st *tree.Tree
			b  *tree.BatchSet
		)
		rec.do(op, 0, spanTree, "setup", func() { st, _ = tree.BuildMortonWorkers(sources, p.LeafSize, p.Workers) })
		rec.do(op, 0, spanBatches, "setup", func() {
			tt, _ := tree.BuildMortonWorkers(targets, p.BatchSize, p.Workers)
			b = tree.BatchSetFromTree(tt)
		})
		rec.do(op, 0, spanLists, "setup", func() { interaction.BuildListsWorkers(b, st, p.MAC(), p.Workers) })
		rec.do(op, 0, spanGrids, "setup", func() {
			gridBytes = allocated(func() { core.NewClusterDataWorkers(st, p.Degree, p.Workers) })
		})
	})
	return gridBytes
}

// setupLayerMetrics reports the set-up layers' self times per plan build
// and the plan's interaction counts.
func setupLayerMetrics(layer, self map[string]float64, pl *core.Plan, gridBytes float64) {
	n := float64(pl.Sources.Particles.Len())
	layer["tree.build_s"] = self[spanTree]
	layer["tree.ns_per_particle"] = self[spanTree] / n * 1e9
	layer["batches.build_s"] = self[spanBatches]
	layer["interaction.lists_s"] = self[spanLists]
	layer["grids.build_s"] = self[spanGrids]
	layer["grids.bytes"] = gridBytes
	listCounts(layer, pl.Lists.Stats)
}

// listCounts reports the interaction-list work counts of one solve.
func listCounts(layer map[string]float64, st interaction.Stats) {
	layer["interaction.mac_tests"] = float64(st.MACTests)
	layer["interaction.approx_interactions"] = float64(st.ApproxInteractions)
	layer["interaction.direct_interactions"] = float64(st.DirectInteractions)
}

// chargePoints is the charge pass's work in particle·Chebyshev-point
// products: every node scatters each of its particles onto its (n+1)^3
// interpolation points.
func chargePoints(pl *core.Plan) float64 {
	m := pl.Clusters.Degree + 1
	var c float64
	for i := range pl.Sources.Nodes {
		c += float64(pl.Sources.Nodes[i].Count())
	}
	return c * float64(m*m*m)
}
