package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"barytree/internal/chebyshev"
	"barytree/internal/particle"
	"barytree/internal/tree"
)

// TestNewClusterDataWorkersDeterministic pins the arena rebuild: grids,
// flattened points and the modified charges a charge pass computes from
// them must be value-identical for every worker count.
func TestNewClusterDataWorkersDeterministic(t *testing.T) {
	pts := particle.UniformCube(5000, rand.New(rand.NewSource(6)))
	tr := tree.BuildWorkers(pts, 200, 0)
	charges := func(cd *ClusterData, workers int) [][]float64 {
		pl := &Plan{Sources: tr, Clusters: cd}
		st := NewChargeState(pl)
		st.Compute(pl, workers)
		return st.Qhat
	}
	want := NewClusterDataWorkers(tr, 4, 1)
	wantQ := charges(want, 1)
	for _, w := range []int{2, 3, 7, runtime.GOMAXPROCS(0)} {
		got := NewClusterDataWorkers(tr, 4, w)
		if !reflect.DeepEqual(want.Grids, got.Grids) {
			t.Fatalf("workers=%d: grids differ", w)
		}
		if !reflect.DeepEqual(want.PX, got.PX) || !reflect.DeepEqual(want.PY, got.PY) ||
			!reflect.DeepEqual(want.PZ, got.PZ) {
			t.Fatalf("workers=%d: flattened points differ", w)
		}
		if !reflect.DeepEqual(wantQ, charges(got, w)) {
			t.Fatalf("workers=%d: modified charges differ", w)
		}
	}
}

// TestNewClusterDataMatchesLegacyLayout pins the arena layout against the
// reference per-node construction chebyshev.NewGrid3D + FlattenedPoints.
func TestNewClusterDataMatchesLegacyLayout(t *testing.T) {
	pts := particle.GaussianBlob(3000, 0.4, rand.New(rand.NewSource(8)))
	tr := tree.BuildWorkers(pts, 150, 0)
	cd := NewClusterDataWorkers(tr, 5, 0)
	for i := range tr.Nodes {
		g := chebyshev.NewGrid3D(5, tr.Nodes[i].Box)
		px, py, pz := g.FlattenedPoints()
		if !reflect.DeepEqual(cd.PX[i], px) || !reflect.DeepEqual(cd.PY[i], py) ||
			!reflect.DeepEqual(cd.PZ[i], pz) {
			t.Fatalf("node %d: arena points differ from per-node layout", i)
		}
		for d := 0; d < 3; d++ {
			if !reflect.DeepEqual(cd.Grids[i].Dims[d].Points, g.Dims[d].Points) {
				t.Fatalf("node %d dim %d: grid points differ", i, d)
			}
		}
	}
}

// TestChargeStateArenaReuse pins the steady-state allocation contract:
// unpublishing a state's modified charges (SetCharges, as the serving
// layer does to each pooled state per request) and recomputing must land
// every node back on its arena slot, not a fresh allocation.
func TestChargeStateArenaReuse(t *testing.T) {
	pts := particle.UniformCube(2000, rand.New(rand.NewSource(12)))
	pl, err := NewPlan(pts, pts, Params{Theta: 0.7, Degree: 3, LeafSize: 100, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	st := NewChargeState(pl)
	st.Compute(pl, 0)
	first := make([]*float64, len(st.Qhat))
	for i, q := range st.Qhat {
		first[i] = &q[0]
	}
	if err := st.SetCharges(pl, pts.Q); err != nil {
		t.Fatal(err)
	}
	st.Compute(pl, 0)
	for i, q := range st.Qhat {
		if &q[0] != first[i] {
			t.Fatalf("node %d: recompute allocated a new qhat buffer", i)
		}
	}
}

// TestNewClusterDataEmptyTree pins the empty-input behavior: no nodes, no
// arenas, no panic regardless of degree (the old per-node path never
// validated degree on an empty tree).
func TestNewClusterDataEmptyTree(t *testing.T) {
	tr := tree.BuildWorkers(particle.NewSet(0), 10, 0)
	cd := NewClusterDataWorkers(tr, 0, 0) // degree 0 must not panic with zero nodes
	if len(cd.Grids) != 0 {
		t.Fatalf("empty tree produced %d grids", len(cd.Grids))
	}
}
