package sweep

import (
	"math/rand"
	"testing"

	"barytree/internal/particle"
	"barytree/internal/tree"
)

func TestSnapLeafSizeSmallInputs(t *testing.T) {
	if got := SnapLeafSize(100, 2000); got != 2000 {
		t.Errorf("n below target: got %d, want 2000", got)
	}
	if got := SnapLeafSize(2000, 2000); got != 2000 {
		t.Errorf("n equal target: got %d", got)
	}
}

func TestSnapLeafSizeProducesNearTargetLeaves(t *testing.T) {
	// The whole point of snapping: actual octree leaf populations land
	// within a factor ~2 of the requested target instead of falling into
	// the N/8^d sawtooth troughs.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{30_000, 100_000, 200_000, 500_000} {
		leaf := SnapLeafSize(n, 2000)
		pts := particle.UniformCube(n, rng)
		tr := tree.BuildWorkers(pts, leaf, 0)
		var total, count int
		for _, li := range tr.Leaves() {
			total += tr.Nodes[li].Count()
			count++
		}
		mean := float64(total) / float64(count)
		if mean < 900 || mean > 4800 {
			t.Errorf("n=%d leaf=%d: mean leaf population %.0f far from target 2000", n, leaf, mean)
		}
	}
}

func TestSnapLeafSizePaperSetting(t *testing.T) {
	// At the paper's N = 1M the snapped bound must keep the ~1953-particle
	// depth-3 leaves the paper's NL = 2000 produces.
	leaf := SnapLeafSize(1_000_000, 2000)
	if leaf < 1953 || leaf > 4*1953 {
		t.Errorf("snapped leaf %d incompatible with 1953-particle depth-3 leaves", leaf)
	}
}
