package interaction

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"barytree/internal/particle"
	"barytree/internal/tree"
)

func TestMACString(t *testing.T) {
	for d, want := range map[Decision]string{Approximate: "approximate", Direct: "direct", Recurse: "recurse", Decision(9): "unknown"} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}

func TestMACInterpPoints(t *testing.T) {
	if got := (MAC{Degree: 8}).InterpPoints(); got != 729 {
		t.Errorf("degree 8 -> %d points, want 729", got)
	}
	if got := (MAC{Degree: 1}).InterpPoints(); got != 8 {
		t.Errorf("degree 1 -> %d points, want 8", got)
	}
}

func TestMACDecisionTable(t *testing.T) {
	// theta=0.5, degree=2 => 27 interpolation points.
	mac := MAC{Theta: 0.5, Degree: 2}
	cases := []struct {
		name   string
		dist   float64
		rB, rC float64
		count  int
		leaf   bool
		want   Decision
	}{
		// (rB+rC)/R = 0.2/1 < 0.5 and 27 < 100 -> approximate.
		{"well separated large cluster", 1, 0.1, 0.1, 100, false, Approximate},
		// Geometric passes but cluster smaller than grid -> direct.
		{"well separated small cluster", 1, 0.1, 0.1, 20, false, Direct},
		{"small cluster boundary", 1, 0.1, 0.1, 27, false, Direct}, // 27 < 27 false
		{"small cluster above boundary", 1, 0.1, 0.1, 28, false, Approximate},
		// Geometric fails on a leaf -> direct.
		{"too close leaf", 1, 0.4, 0.4, 100, true, Direct},
		// Geometric fails on an internal node -> recurse.
		{"too close internal", 1, 0.4, 0.4, 100, false, Recurse},
		// Exactly at the threshold: (rB+rC)/R == theta fails the strict
		// inequality.
		{"exactly at theta leaf", 1, 0.25, 0.25, 100, true, Direct},
		{"exactly at theta internal", 1, 0.25, 0.25, 100, false, Recurse},
	}
	for _, c := range cases {
		if got := mac.Test(c.dist, c.rB, c.rC, c.count, c.leaf); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func buildCase(n int, seed int64, leaf int) (*tree.BatchSet, *tree.Tree) {
	pts := particle.UniformCube(n, rand.New(rand.NewSource(seed)))
	return tree.BuildBatchesWorkers(pts, leaf, 0), tree.BuildWorkers(pts, leaf, 0)
}

func TestListsCoverAllSources(t *testing.T) {
	// For every batch, the union of direct-leaf particles and approximated
	// clusters' particles must cover every source exactly once.
	batches, tr := buildCase(3000, 1, 100)
	mac := MAC{Theta: 0.7, Degree: 3}
	ls := BuildListsWorkers(batches, tr, mac, 0)
	for bi := range batches.Batches {
		covered := make([]int, tr.Particles.Len())
		for _, ci := range ls.Direct[bi] {
			nd := &tr.Nodes[ci]
			for j := nd.Lo; j < nd.Hi; j++ {
				covered[j]++
			}
		}
		for _, ci := range ls.Approx[bi] {
			nd := &tr.Nodes[ci]
			for j := nd.Lo; j < nd.Hi; j++ {
				covered[j]++
			}
		}
		for j, c := range covered {
			if c != 1 {
				t.Fatalf("batch %d: source %d covered %d times", bi, j, c)
			}
		}
	}
}

func TestApproxClustersSatisfyMAC(t *testing.T) {
	batches, tr := buildCase(3000, 2, 100)
	mac := MAC{Theta: 0.6, Degree: 2}
	ls := BuildListsWorkers(batches, tr, mac, 0)
	for bi := range batches.Batches {
		b := &batches.Batches[bi]
		for _, ci := range ls.Approx[bi] {
			nd := &tr.Nodes[ci]
			dist := b.Center.Dist(nd.Center)
			if (b.Radius + nd.Radius) >= mac.Theta*dist {
				t.Fatalf("batch %d approximates cluster %d violating the geometric MAC", bi, ci)
			}
			if mac.InterpPoints() >= nd.Count() {
				t.Fatalf("batch %d approximates cluster %d with %d <= %d particles",
					bi, ci, nd.Count(), mac.InterpPoints())
			}
		}
	}
}

func TestStatsConsistent(t *testing.T) {
	batches, tr := buildCase(2000, 3, 64)
	mac := MAC{Theta: 0.8, Degree: 2}
	ls := BuildListsWorkers(batches, tr, mac, 0)
	var approxPairs, directPairs int
	var approxInter, directInter int64
	np := int64(mac.InterpPoints())
	for bi := range batches.Batches {
		nb := int64(batches.Batches[bi].Count())
		approxPairs += len(ls.Approx[bi])
		directPairs += len(ls.Direct[bi])
		approxInter += nb * np * int64(len(ls.Approx[bi]))
		for _, ci := range ls.Direct[bi] {
			directInter += nb * int64(tr.Nodes[ci].Count())
		}
	}
	st := ls.Stats
	if st.ApproxPairs != approxPairs || st.DirectPairs != directPairs {
		t.Errorf("pair stats %+v, recount %d/%d", st, approxPairs, directPairs)
	}
	if st.ApproxInteractions != approxInter || st.DirectInteractions != directInter {
		t.Errorf("interaction stats %+v, recount %d/%d", st, approxInter, directInter)
	}
	if st.TotalInteractions() != approxInter+directInter {
		t.Errorf("total mismatch")
	}
	if st.MACTests <= st.ApproxPairs+st.DirectPairs {
		t.Errorf("MAC tests %d should exceed list entries", st.MACTests)
	}
}

func TestLowerThetaMeansMoreDirectWork(t *testing.T) {
	batches, tr := buildCase(4000, 4, 100)
	tight := BuildListsWorkers(batches, tr, MAC{Theta: 0.3, Degree: 4}, 0)
	loose := BuildListsWorkers(batches, tr, MAC{Theta: 0.9, Degree: 4}, 0)
	if tight.Stats.DirectInteractions <= loose.Stats.DirectInteractions {
		t.Errorf("theta=0.3 direct work %d should exceed theta=0.9's %d",
			tight.Stats.DirectInteractions, loose.Stats.DirectInteractions)
	}
	if tight.Stats.TotalInteractions() <= loose.Stats.TotalInteractions() {
		t.Errorf("tighter MAC should cost more total work")
	}
}

func TestTreecodeBeatsDirectSum(t *testing.T) {
	// The whole point: total interactions well below N^2 (the advantage
	// grows with N; this is already visible at 50k).
	n := 50000
	batches, tr := buildCase(n, 5, 200)
	ls := BuildListsWorkers(batches, tr, MAC{Theta: 0.8, Degree: 3}, 0)
	n2 := int64(n) * int64(n)
	if ls.Stats.TotalInteractions() >= n2/5 {
		t.Errorf("treecode interactions %d not much below N^2 = %d", ls.Stats.TotalInteractions(), n2)
	}
}

func TestPerTargetAdmitsNoMoreWork(t *testing.T) {
	// Per-target MACs are at least as sharp as batch MACs (radius 0 <=
	// rB), so they admit at most the batched interaction count. This is
	// the trade-off of Section 3.2: batching wastes a little work to
	// avoid thread divergence.
	batches, tr := buildCase(4000, 6, 100)
	mac := MAC{Theta: 0.7, Degree: 3}
	batched := BuildListsWorkers(batches, tr, mac, 0).Stats
	perTarget := PerTargetStats(batches, tr, mac)
	if perTarget.TotalInteractions() > batched.TotalInteractions() {
		t.Errorf("per-target work %d exceeds batched %d",
			perTarget.TotalInteractions(), batched.TotalInteractions())
	}
	if perTarget.MACTests <= batched.MACTests {
		t.Errorf("per-target should need far more MAC tests (%d vs %d)",
			perTarget.MACTests, batched.MACTests)
	}
}

func TestEmptyTree(t *testing.T) {
	pts := particle.UniformCube(100, rand.New(rand.NewSource(7)))
	batches := tree.BuildBatchesWorkers(pts, 10, 0)
	empty := tree.BuildWorkers(particle.NewSet(0), 10, 0)
	ls := BuildListsWorkers(batches, empty, MAC{Theta: 0.5, Degree: 2}, 0)
	if ls.Stats.TotalInteractions() != 0 {
		t.Error("empty tree produced interactions")
	}
	st := PerTargetStats(batches, empty, MAC{Theta: 0.5, Degree: 2})
	if st.TotalInteractions() != 0 {
		t.Error("empty tree produced per-target interactions")
	}
}

// TestBuildListsWorkersDeterministic verifies the parallel traversal's core
// guarantee: the lists and stats are byte-identical to the serial build for
// every worker count, because each batch's traversal is independent and the
// merged stats are order-independent sums.
func TestBuildListsWorkersDeterministic(t *testing.T) {
	batches, tr := buildCase(5000, 7, 64)
	mac := MAC{Theta: 0.6, Degree: 3}
	serial := BuildListsWorkers(batches, tr, mac, 1)
	for _, workers := range []int{1, 2, 4, 7, runtime.GOMAXPROCS(0), 0} {
		par := BuildListsWorkers(batches, tr, mac, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: lists differ from serial build", workers)
		}
	}
}

// TestBuildListsMoreWorkersThanBatches covers the clamp: worker counts far
// beyond the batch count must neither deadlock nor change the result.
func TestBuildListsMoreWorkersThanBatches(t *testing.T) {
	batches, tr := buildCase(300, 11, 200)
	mac := MAC{Theta: 0.8, Degree: 2}
	serial := BuildListsWorkers(batches, tr, mac, 1)
	par := BuildListsWorkers(batches, tr, mac, 64)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("oversubscribed build differs from serial")
	}
}
