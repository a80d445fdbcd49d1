package core

import (
	"math"
	"sync"

	"barytree/internal/chebyshev"
	"barytree/internal/particle"
	"barytree/internal/pool"
	"barytree/internal/tree"
)

// ClusterData holds, for every node of a source tree, the tensor-product
// Chebyshev grid over the node's (minimal) bounding box and the flattened
// interpolation-point coordinates. It is read-only geometry: no solve
// writes it, and only Plan.Update re-lays it. The modified charges q-hat of
// equation (12) depend on the source charges, so they live in a
// ChargeState, which every driver fills from these grids.
type ClusterData struct {
	Degree int
	Grids  []chebyshev.Grid3D
	// PX/PY/PZ[i] are the flattened coordinates of node i's (n+1)^3
	// interpolation points in chebyshev.Grid3D flat-index order. Every
	// per-node slice is a view into one flat arena (ptArena), so the whole
	// layout costs a handful of allocations rather than ~4 per node.
	PX, PY, PZ [][]float64

	cache     *chebyshev.DegreeCache // degree-dependent cos/weights tables
	gridArena []float64              // 1D grid points, 3*(degree+1) per node
	ptArena   []float64              // flattened coords, 3*(n+1)^3 per node
}

// NewClusterDataWorkers lays out degree-n interpolation grids for every
// node of t with up to `workers` goroutines (<= 0 selects GOMAXPROCS).
// Grids for independent nodes are filled in parallel; the coordinate
// values are bit-identical to the serial chebyshev.NewGrid3D +
// FlattenedPoints layout for every worker count — each grid is an affine
// map of one cached cos(pi*k/n) table, the same expression NewGrid1D
// evaluates per node.
func NewClusterDataWorkers(t *tree.Tree, degree, workers int) *ClusterData {
	n := len(t.Nodes)
	cd := &ClusterData{
		Degree: degree,
		Grids:  make([]chebyshev.Grid3D, n),
		PX:     make([][]float64, n),
		PY:     make([][]float64, n),
		PZ:     make([][]float64, n),
	}
	if n == 0 {
		return cd
	}
	// Degree validity is checked by NewDegreeCache exactly as the per-node
	// NewGrid1D used to (only reachable with nodes present, as before).
	cd.cache = chebyshev.NewDegreeCache(degree)
	m := degree + 1
	np := m * m * m
	cd.gridArena = make([]float64, n*3*m)
	cd.ptArena = make([]float64, n*3*np)
	pool.For(n, workers, func(i int) {
		g := cd.cache.Grid3DInto(t.Nodes[i].Box, cd.gridArena[i*3*m:(i+1)*3*m])
		cd.Grids[i] = g
		base := i * 3 * np
		px := cd.ptArena[base : base+np : base+np]
		py := cd.ptArena[base+np : base+2*np : base+2*np]
		pz := cd.ptArena[base+2*np : base+3*np : base+3*np]
		g.FlattenedPointsInto(px, py, pz)
		cd.PX[i], cd.PY[i], cd.PZ[i] = px, py, pz
	})
	return cd
}

// RefitGridsWorkers re-lays the interpolation grid of every node over the
// tree's current (refit) boxes, reusing the grid and point arenas. This is
// Plan.Update's refit fast path for the cluster data: the node count is
// unchanged by construction, so no allocation or re-slicing is needed, and
// the cluster data is indistinguishable from a fresh NewClusterDataWorkers
// over the refit tree — same arena layout, same bits. Update bumps the
// plan generation, so charge states filled against the old grids are
// rejected rather than re-read.
func (cd *ClusterData) RefitGridsWorkers(t *tree.Tree, workers int) {
	n := len(t.Nodes)
	if n != len(cd.Grids) {
		panic("core: RefitGridsWorkers on a tree with a different node count")
	}
	if n == 0 {
		return
	}
	m := cd.Degree + 1
	np := m * m * m
	pool.For(n, workers, func(i int) {
		g := cd.cache.Grid3DInto(t.Nodes[i].Box, cd.gridArena[i*3*m:(i+1)*3*m])
		cd.Grids[i] = g
		base := i * 3 * np
		px := cd.ptArena[base : base+np : base+np]
		py := cd.ptArena[base+np : base+2*np : base+2*np]
		pz := cd.ptArena[base+2*np : base+3*np : base+3*np]
		g.FlattenedPointsInto(px, py, pz)
		cd.PX[i], cd.PY[i], cd.PZ[i] = px, py, pz
	})
}

// chargeWork returns the modeled flop-equivalents of the two preprocessing
// kernels for a cluster of nc particles at degree n: the first kernel is
// O((n+1)*nc) (three denominator sums per particle), the second is
// O((n+1)^3*nc) (one product term per particle per interpolation point).
func chargeWork(n, nc int) (pass1, pass2 float64) {
	m := float64(n + 1)
	pass1 = float64(nc) * (6*m + 12)
	pass2 = float64(nc) * 4 * m * m * m
	return pass1, pass2
}

// chargeScratch holds the per-particle intermediates of the first
// preprocessing kernel for one cluster: the barycentric factors
// t*[j*m+k] = w_k/(y_j - s_k) per dimension (with removable singularities
// resolved to Kronecker deltas) and the intermediate charges q-tilde of
// equation (14).
//
// The buffers are flat (row j of tx is tx[j*m:(j+1)*m]) and grown
// monotonically by Reserve, so one scratch value per worker serves every
// cluster that worker processes without allocating in the hot loop. Rows
// are fully overwritten by pass 1 before pass 2 reads them, so no clearing
// between clusters is needed. Distinct particles touch disjoint rows, which
// keeps concurrent pass-1 block functions of one device launch race-free;
// concurrent pass-2 slab blocks only read the scratch and write disjoint
// q-hat ranges, so they are race-free too.
type chargeScratch struct {
	tx, ty, tz []float64
	qt         []float64
}

// scratchPool recycles charge scratch across charge passes. The root
// cluster's scratch alone is nc*m floats per dimension — ~11 MB for 50k
// particles at degree 8 — so letting each pass allocate fresh buffers
// dominates the pass's B/op; pooling amortizes it to zero in steady state.
// Safe for determinism: Reserve sizes every row and pass 1 fully
// overwrites it before pass 2 reads, so results never depend on what a
// recycled buffer held.
var scratchPool = sync.Pool{New: func() any { return new(chargeScratch) }}

// Reserve sizes the scratch for a cluster of nc particles at m = degree+1
// points per dimension, reusing prior capacity.
func (s *chargeScratch) Reserve(nc, m int) {
	if n := nc * m; cap(s.tx) < n {
		s.tx = make([]float64, n)
		s.ty = make([]float64, n)
		s.tz = make([]float64, n)
	} else {
		s.tx = s.tx[:n]
		s.ty = s.ty[:n]
		s.tz = s.tz[:n]
	}
	if cap(s.qt) < nc {
		s.qt = make([]float64, nc)
	} else {
		s.qt = s.qt[:nc]
	}
}

// pass1Particle computes the intermediate quantity q-tilde (equation (14))
// and the barycentric factors for the j-th particle of node nd, mirroring
// one thread block of the first preprocessing kernel. q supplies the source
// charges in tree order (a ChargeState's Q).
//
//hot:path
func (cd *ClusterData) pass1Particle(src *particle.Set, q []float64, nd *tree.Node, ni, j int, s *chargeScratch) {
	g := cd.Grids[ni]
	m := cd.Degree + 1
	p := nd.Lo + j
	row := j * m
	dx := barycentricFactorsInto(g.Dims[0], src.X[p], s.tx[row:row+m])
	dy := barycentricFactorsInto(g.Dims[1], src.Y[p], s.ty[row:row+m])
	dz := barycentricFactorsInto(g.Dims[2], src.Z[p], s.tz[row:row+m])
	s.qt[j] = q[p] / (dx * dy * dz)
}

// barycentricFactorsInto fills t[k] = w_k/(x - s_k) for a 1D grid and
// returns the sum d. If x coincides with a node within the singularity
// tolerance, t becomes the Kronecker delta at that node and d = 1, which
// enforces L_k(x) = delta exactly (Section 2.3 of the paper). len(t) is the
// number of grid points m.
//
//hot:path
func barycentricFactorsInto(g chebyshev.Grid1D, x float64, t []float64) (d float64) {
	for k := range t {
		diff := x - g.Points[k]
		if math.Abs(diff) <= chebyshev.SingularityTol {
			for i := range t {
				t[i] = 0
			}
			t[k] = 1
			return 1
		}
		t[k] = g.Weights[k] / diff
		d += t[k]
	}
	return d
}

// chargeChunk is the number of particles pass 2 streams per chunk: 64
// scratch rows of tx/ty/tz plus the node's q-hat stay L1-resident at the
// paper's degrees, so each chunk is read from beyond L1 once per pass
// instead of once per Chebyshev point.
const chargeChunk = 64

// pass2Slabs computes the modified charges q-hat (equation (15)) of the
// k1-slabs [k1lo, k1hi) of node's Chebyshev grid — flat indices
// [k1lo*m*m, k1hi*m*m) of qhat — from the intermediate quantities in s.
// The host pass runs it over [0, m); the simulated device runs one slab per
// functional block.
//
// The loop is particle-chunked: for each chunk, every (k1, k2) row of the
// slab accumulates the chunk's particles in ascending j, hoisting tx*ty
// out of the k3 loop. Each output still starts from +0 and adds the same
// left-associated term ((tx*ty)*tz)*qt for ascending j as a per-point
// reduction would, so q-hat is bit-identical to it; only the order in
// which different outputs advance changes.
//
//hot:path
func (cd *ClusterData) pass2Slabs(s *chargeScratch, k1lo, k1hi int, qhat []float64) {
	m := cd.Degree + 1
	clear(qhat[k1lo*m*m : k1hi*m*m])
	nc := len(s.qt)
	for j0 := 0; j0 < nc; j0 += chargeChunk {
		j1 := min(j0+chargeChunk, nc)
		for k1 := k1lo; k1 < k1hi; k1++ {
			for k2 := 0; k2 < m; k2++ {
				out := qhat[(k1*m+k2)*m : (k1*m+k2+1)*m]
				for j := j0; j < j1; j++ {
					row := j * m
					a := s.tx[row+k1] * s.ty[row+k2]
					qt := s.qt[j]
					tz := s.tz[row : row+m]
					for k3 := range out {
						out[k3] += a * tz[k3] * qt
					}
				}
			}
		}
	}
}

// computeChargesNodeInto runs both host passes for node ni with charges q
// (tree order) into the caller-provided qhat buffer, using the caller's
// scratch — the pass itself allocates nothing. It is the one host body of
// the charge pass: ChargeState.Compute and EvaluateSampled's lazy fill both
// run it, and the device's functional blocks run its two halves.
func (cd *ClusterData) computeChargesNodeInto(src *particle.Set, q []float64, nd *tree.Node, ni int, s *chargeScratch, qhat []float64) {
	nc := nd.Count()
	s.Reserve(nc, cd.Degree+1)
	for j := 0; j < nc; j++ {
		cd.pass1Particle(src, q, nd, ni, j, s)
	}
	cd.pass2Slabs(s, 0, cd.Degree+1, qhat)
}

// TotalChargeWork returns the modeled flop-equivalents of a full charge
// pass over tree t without executing it.
func (cd *ClusterData) TotalChargeWork(t *tree.Tree) float64 {
	var flops float64
	for i := range t.Nodes {
		flops += cd.nodeChargeWork(t, i)
	}
	return flops
}

// nodeChargeWork returns the modeled flop-equivalents of node i's charge
// pass (both kernels).
func (cd *ClusterData) nodeChargeWork(t *tree.Tree, i int) float64 {
	p1, p2 := chargeWork(cd.Degree, t.Nodes[i].Count())
	return p1 + p2
}

// ChargesBytes returns the total size in bytes of all modified-charge
// arrays (the DtH traffic after the precompute phase).
func (cd *ClusterData) ChargesBytes() int64 {
	var n int64
	for _, g := range cd.Grids {
		n += int64(g.NumPoints()) * 8
	}
	return n
}
