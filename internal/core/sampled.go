package core

import (
	"fmt"
	"sort"

	"barytree/internal/kernel"
	"barytree/internal/pool"
)

// EvaluateSampled functionally evaluates the treecode potential only at the
// given target indices (in the caller's original target ordering) against
// the charge state st and returns the potentials in sample order.
//
// This is the mechanism that lets the benchmark harness reproduce the
// paper's experiments at full problem size on a laptop: the tree, batches
// and interaction lists are built for the complete system (so every work
// counter feeding the performance model is exact), while kernel evaluations
// — the O(N log N) bulk — run only for a sampled subset of targets, exactly
// mirroring how the paper samples its error measurement for systems of 8M
// particles and more. Modified charges are computed lazily, only for the
// not yet computed clusters on a sampled batch's interaction list, and are
// published into st, so calls sharing a state (several kernels or MAC
// parameters over one source tree and degree) compute each cluster once.
func EvaluateSampled(pl *Plan, k kernel.Kernel, st *ChargeState, sample []int) ([]float64, error) {
	st.checkGen(pl)
	nTargets := pl.Batches.Targets.Len()
	inv := pl.Batches.Perm.Inverse() // original index -> batch order index
	// Locate the batch of every sampled target.
	batchOf := make([]int, len(sample))
	needBatch := map[int]struct{}{}
	for i, orig := range sample {
		if orig < 0 || orig >= nTargets {
			return nil, fmt.Errorf("core: sample index %d out of range [0,%d)", orig, nTargets)
		}
		bi := findBatch(pl, inv[orig])
		if bi < 0 {
			return nil, fmt.Errorf("core: no batch contains target %d", orig)
		}
		batchOf[i] = bi
		needBatch[bi] = struct{}{}
	}
	// Compute charges for clusters on the needed batches' approx lists.
	needCluster := map[int32]struct{}{}
	for bi := range needBatch {
		for _, ci := range pl.Lists.Approx[bi] {
			needCluster[ci] = struct{}{}
		}
	}
	clusters := make([]int32, 0, len(needCluster))
	for ci := range needCluster {
		if st.Qhat[ci] == nil {
			clusters = append(clusters, ci)
		}
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
	pool.Blocks(len(clusters), 0, func(_, lo, hi int) {
		s := scratchPool.Get().(*chargeScratch)
		for _, ci := range clusters[lo:hi] {
			st.computeNode(pl, int(ci), s)
		}
		scratchPool.Put(s)
	})

	// Evaluate the sampled targets through the tiled fast path (resolved
	// once). Samples are grouped by batch so that up to TileWidth targets
	// sharing an interaction list walk it together, streaming each source
	// block once per group; a short group runs as a padded tile. Every
	// sample's potential is accumulated from zero in list order on the
	// same lane computation as the full run, so the grouping — and where
	// the worker split cuts a group — cannot change bits.
	tk := kernel.AsTile(k)
	phi := make([]float64, len(sample))
	tg := pl.Batches.Targets
	src := pl.Sources.Particles
	cd := pl.Clusters
	q := st.Q
	order := make([]int, len(sample))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return batchOf[order[a]] < batchOf[order[b]] })
	pool.Blocks(len(order), 0, func(_, lo, hi int) {
		var t TargetTile
		var idx [kernel.TileWidth]int
		for i := lo; i < hi; {
			bi := batchOf[order[i]]
			n := 0
			for i+n < hi && n < kernel.TileWidth && batchOf[order[i+n]] == bi {
				idx[n] = inv[sample[order[i+n]]]
				n++
			}
			t.LoadAt(tg.X, tg.Y, tg.Z, idx[:n])
			for _, ci := range pl.Lists.Direct[bi] {
				nd := &pl.Sources.Nodes[ci]
				tk.EvalTileAccum(&t.TX, &t.TY, &t.TZ,
					src.X[nd.Lo:nd.Hi], src.Y[nd.Lo:nd.Hi], src.Z[nd.Lo:nd.Hi], q[nd.Lo:nd.Hi], &t.Acc)
			}
			for _, ci := range pl.Lists.Approx[bi] {
				tk.EvalTileAccum(&t.TX, &t.TY, &t.TZ, cd.PX[ci], cd.PY[ci], cd.PZ[ci], st.Qhat[ci], &t.Acc)
			}
			for l := 0; l < n; l++ {
				phi[order[i+l]] = t.Acc[l]
			}
			i += n
		}
	})
	return phi, nil
}

// findBatch returns the index of the batch whose [Lo, Hi) range contains
// batch-order target index ti, using binary search over the (sorted,
// contiguous) batch ranges.
func findBatch(pl *Plan, ti int) int {
	bs := pl.Batches.Batches
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ti < bs[mid].Lo:
			hi = mid
		case ti >= bs[mid].Hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}
