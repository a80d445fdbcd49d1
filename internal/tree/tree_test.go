package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"barytree/internal/geom"
	"barytree/internal/particle"
)

func uniform(n int, seed int64) *particle.Set {
	return particle.UniformCube(n, rand.New(rand.NewSource(seed)))
}

func TestBuildInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100, 5000} {
		for _, leaf := range []int{1, 8, 64, 500} {
			tr := BuildWorkers(uniform(n, int64(n)), leaf, 0)
			if err := tr.Validate(); err != nil {
				t.Fatalf("n=%d leaf=%d: %v", n, leaf, err)
			}
		}
	}
}

func TestBuildInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw, leafRaw uint8) bool {
		n := 1 + int(nRaw)%400
		leaf := 1 + int(leafRaw)%50
		tr := BuildWorkers(uniform(n, seed), leaf, 0)
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLeafSizeRespected(t *testing.T) {
	tr := BuildWorkers(uniform(5000, 1), 100, 0)
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		if nd.IsLeaf() {
			if nd.Count() > 100 {
				t.Fatalf("leaf %d holds %d > 100 particles", i, nd.Count())
			}
		} else if nd.Count() <= 100 {
			t.Fatalf("internal node %d holds only %d particles", i, nd.Count())
		}
	}
}

func TestEveryParticleInExactlyOneLeaf(t *testing.T) {
	tr := BuildWorkers(uniform(3000, 2), 50, 0)
	covered := make([]int, tr.Particles.Len())
	for _, li := range tr.Leaves() {
		nd := &tr.Nodes[li]
		for j := nd.Lo; j < nd.Hi; j++ {
			covered[j]++
		}
	}
	for j, c := range covered {
		if c != 1 {
			t.Fatalf("particle %d covered by %d leaves", j, c)
		}
	}
}

func TestPermutationMapsBack(t *testing.T) {
	src := uniform(1000, 3)
	tr := BuildWorkers(src, 32, 0)
	for newIdx, oldIdx := range tr.Perm {
		if tr.Particles.X[newIdx] != src.X[oldIdx] ||
			tr.Particles.Y[newIdx] != src.Y[oldIdx] ||
			tr.Particles.Z[newIdx] != src.Z[oldIdx] ||
			tr.Particles.Q[newIdx] != src.Q[oldIdx] {
			t.Fatalf("perm[%d]=%d maps to different particle", newIdx, oldIdx)
		}
	}
}

func TestInputNotModified(t *testing.T) {
	src := uniform(500, 4)
	orig := src.Clone()
	BuildWorkers(src, 16, 0)
	for i := 0; i < src.Len(); i++ {
		if src.X[i] != orig.X[i] || src.Q[i] != orig.Q[i] {
			t.Fatal("Build modified its input")
		}
	}
}

func TestShrunkenBoxesTouchParticles(t *testing.T) {
	// Minimal bounding boxes: some particle coordinate must coincide with
	// each box face (Section 2.3 relies on this).
	tr := BuildWorkers(uniform(2000, 5), 100, 0)
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		var loX, hiX, loY, hiY, loZ, hiZ bool
		for j := nd.Lo; j < nd.Hi; j++ {
			p := tr.Particles.At(j)
			loX = loX || p.X == nd.Box.Lo.X
			hiX = hiX || p.X == nd.Box.Hi.X
			loY = loY || p.Y == nd.Box.Lo.Y
			hiY = hiY || p.Y == nd.Box.Hi.Y
			loZ = loZ || p.Z == nd.Box.Lo.Z
			hiZ = hiZ || p.Z == nd.Box.Hi.Z
		}
		if !(loX && hiX && loY && hiY && loZ && hiZ) {
			t.Fatalf("node %d box %v not minimal", i, nd.Box)
		}
	}
}

func TestAspectRatioRule(t *testing.T) {
	// Build over a flat slab: splits must avoid creating needle-shaped
	// children. Every split dimension's side must be within the sqrt(2)
	// rule relative to the longest side of its parent.
	rng := rand.New(rand.NewSource(6))
	s := particle.NewSet(4000)
	for i := 0; i < 4000; i++ {
		s.Append(4*rng.Float64(), 4*rng.Float64(), 0.1*rng.Float64(), 1)
	}
	tr := BuildWorkers(s, 50, 0)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		if nd.IsLeaf() {
			continue
		}
		// A node of the slab should never be split in z while z is tiny:
		// check children count is 2 or 4 near the root where the slab is
		// very flat.
		if nd.Level == 0 && len(nd.Children) == 8 {
			t.Fatalf("root of flat slab split 8 ways")
		}
	}
}

func TestSplitDims(t *testing.T) {
	cube := boxFromSides(1, 1, 1)
	if got := splitDims(cube); len(got) != 3 {
		t.Errorf("cube split dims = %v, want all three", got)
	}
	slab := boxFromSides(1, 1, 0.1)
	if got := splitDims(slab); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("slab split dims = %v, want [0 1]", got)
	}
	needle := boxFromSides(0.1, 1, 0.1)
	if got := splitDims(needle); len(got) != 1 || got[0] != 1 {
		t.Errorf("needle split dims = %v, want [1]", got)
	}
	// Exactly at the threshold: side = long/sqrt(2) is included.
	edge := boxFromSides(1, 1/math.Sqrt2, 0.1)
	if got := splitDims(edge); len(got) != 2 {
		t.Errorf("edge split dims = %v, want 2 dims", got)
	}
	degenerate := boxFromSides(0, 0, 0)
	if got := splitDims(degenerate); got != nil {
		t.Errorf("degenerate split dims = %v, want nil", got)
	}
}

func TestCoincidentParticlesTerminate(t *testing.T) {
	// All particles at the same point: must terminate as a single leaf.
	s := particle.NewSet(100)
	for i := 0; i < 100; i++ {
		s.Append(0.5, 0.5, 0.5, 1)
	}
	tr := BuildWorkers(s, 10, 0)
	if len(tr.Nodes) != 1 || !tr.Nodes[0].IsLeaf() {
		t.Fatalf("coincident particles produced %d nodes", len(tr.Nodes))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyInput(t *testing.T) {
	tr := BuildWorkers(particle.NewSet(0), 10, 0)
	if len(tr.Nodes) != 0 {
		t.Fatalf("empty input produced %d nodes", len(tr.Nodes))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPanicsOnBadLeafSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildWorkers(uniform(10, 7), 0, 0)
}

func TestStatsPopulated(t *testing.T) {
	tr := BuildWorkers(uniform(5000, 8), 100, 0)
	st := tr.Stats
	if st.Nodes != len(tr.Nodes) {
		t.Errorf("stats nodes %d != %d", st.Nodes, len(tr.Nodes))
	}
	if st.Leaves != len(tr.Leaves()) {
		t.Errorf("stats leaves %d != %d", st.Leaves, len(tr.Leaves()))
	}
	if st.ParticleScans == 0 || st.MaxDepth == 0 {
		t.Errorf("stats suspiciously empty: %+v", st)
	}
}

func TestRadiusIsHalfDiagonal(t *testing.T) {
	tr := BuildWorkers(uniform(100, 9), 10, 0)
	for i := range tr.Nodes {
		nd := &tr.Nodes[i]
		want := nd.Box.Size().Norm() / 2
		if math.Abs(nd.Radius-want) > 1e-15 {
			t.Fatalf("node %d radius %g, want %g", i, nd.Radius, want)
		}
		if nd.Center != nd.Box.Center() {
			t.Fatalf("node %d center mismatch", i)
		}
	}
}

func TestBatchesEquivalentToLeavesWhenSameSize(t *testing.T) {
	// With targets == sources and NB == NL, batches coincide with the
	// source-tree leaves (as in all the paper's experiments).
	src := uniform(3000, 10)
	tr := BuildWorkers(src, 128, 0)
	bs := BuildBatchesWorkers(src, 128, 0)
	leaves := tr.Leaves()
	if len(bs.Batches) != len(leaves) {
		t.Fatalf("%d batches vs %d leaves", len(bs.Batches), len(leaves))
	}
	for i, li := range leaves {
		nd := &tr.Nodes[li]
		b := &bs.Batches[i]
		if b.Lo != nd.Lo || b.Hi != nd.Hi || b.Center != nd.Center || b.Radius != nd.Radius {
			t.Fatalf("batch %d differs from leaf %d", i, li)
		}
	}
}

func TestBatchSizesRespected(t *testing.T) {
	bs := BuildBatchesWorkers(uniform(5000, 11), 200, 0)
	total := 0
	for i := range bs.Batches {
		c := bs.Batches[i].Count()
		if c < 1 || c > 200 {
			t.Fatalf("batch %d has %d targets", i, c)
		}
		total += c
	}
	if total != 5000 {
		t.Fatalf("batches cover %d targets, want 5000", total)
	}
}

// boxFromSides builds a box at the origin with the given side lengths.
func boxFromSides(x, y, z float64) geom.Box {
	return geom.Box{Hi: geom.Vec3{X: x, Y: y, Z: z}}
}
