package core

import (
	"fmt"

	"barytree/internal/kernel"
	"barytree/internal/pool"
)

// ChargeState is the mutable half of a solve and the only holder of the
// modified charges: the source charges (in tree order) and the q-hat they
// induce. Everything else a solve reads — tree, batches, interaction lists,
// Chebyshev grids — lives in the Plan, which no solve writes (only
// Plan.Update does), so any number of ChargeStates can evaluate against
// one shared Plan concurrently. Every driver fills one: Solve and
// SolveFields (behind Plan.Solve and Plan.SolveWithField), RunDevice, the
// distributed ranks, EvaluateSampled and the serving layer, which keeps
// one cached Plan per geometry and one ChargeState per in-flight request.
//
// A ChargeState must not be shared between concurrent solves; it is the
// mutable state. Sequential reuse (an iterative solver calling
// SetCharges/Compute per iteration) is the intended pattern and allocates
// nothing after construction.
type ChargeState struct {
	// Q are the source charges in tree (leaf-contiguous) order.
	Q []float64
	// Qhat[i] are node i's modified charges for the current Q, or nil
	// while node i is not computed. A computed Qhat[i] is node i's slot of
	// one flat node-major arena, (n+1)^3 values per node.
	Qhat [][]float64

	arena []float64
	gen   uint64 // plan generation the state was created against
}

// checkGen panics if the plan has been Updated since the state was
// created: the state's charges are permuted for the old tree order and
// its arena may be sized for the old topology, so running it would
// silently evaluate stale geometry. Create a fresh state (or use
// Plan.Solve, which always does) after an Update.
func (st *ChargeState) checkGen(pl *Plan) {
	if st.gen != pl.gen {
		panic(fmt.Sprintf("core: charge state from plan generation %d used after Update (plan generation %d); create a new state",
			st.gen, pl.gen))
	}
}

// checkComputed panics unless the state belongs to pl's generation and
// every node's modified charges are computed for the current Q: an
// evaluation on a missing node would silently drop that far field, and
// one after SetCharges would read the previous charges' q-hat.
func (st *ChargeState) checkComputed(pl *Plan) {
	st.checkGen(pl)
	for i, q := range st.Qhat {
		if q == nil {
			panic(fmt.Sprintf("core: charge state node %d has no modified charges for its current charges; call Compute first", i))
		}
	}
}

// NewChargeState returns charge state sized for pl, initialized with the
// charges the sources carried when the plan was built. No node is
// computed yet; Compute (or a driver) fills Qhat.
func NewChargeState(pl *Plan) *ChargeState {
	m := pl.Clusters.Degree + 1
	n := len(pl.Sources.Nodes)
	st := &ChargeState{
		Q:     make([]float64, pl.Sources.Particles.Len()),
		Qhat:  make([][]float64, n),
		arena: make([]float64, n*m*m*m),
		gen:   pl.gen,
	}
	copy(st.Q, pl.Sources.Particles.Q)
	return st
}

// FlatQhat returns the node-major arena behind Qhat: node i's modified
// charges are FlatQhat()[i*(n+1)^3 : (i+1)*(n+1)^3] once node i is
// computed (zero before its first fill). The distributed driver exposes it
// as the LET charge window without copying.
func (st *ChargeState) FlatQhat() []float64 { return st.arena }

// slot returns node i's arena slot, the buffer a charge pass fills and
// publishes as Qhat[i].
func (st *ChargeState) slot(i int) []float64 {
	np := len(st.arena) / len(st.Qhat)
	return st.arena[i*np : (i+1)*np : (i+1)*np]
}

// computeNode runs the host charge pass for node i into its arena slot and
// publishes it.
func (st *ChargeState) computeNode(pl *Plan, i int, s *chargeScratch) {
	q := st.slot(i)
	pl.Clusters.computeChargesNodeInto(pl.Sources.Particles, st.Q, &pl.Sources.Nodes[i], i, s, q)
	st.Qhat[i] = q
}

// SetCharges replaces the source charges. q is given in the order the
// sources were passed to NewPlan (original order); the state stores them
// permuted into tree order and marks every node not computed. The next
// Compute recomputes the modified charges; the plan itself is not touched.
func (st *ChargeState) SetCharges(pl *Plan, q []float64) error {
	st.checkGen(pl)
	src := pl.Sources
	if len(q) != src.Particles.Len() {
		return fmt.Errorf("core: SetCharges got %d charges for %d sources", len(q), src.Particles.Len())
	}
	src.Perm.GatherInto(st.Q, q) // Perm maps tree order -> original order
	clear(st.Qhat)
	return nil
}

// Compute fills the modified charges of every node not yet computed for
// the current Q, using up to `workers` goroutines (<= 0 selects
// GOMAXPROCS). Each worker reuses one pooled scratch across its nodes and
// writes into the state's arena, so a steady-state pass allocates nothing,
// and the per-node operation order is fixed, so q-hat is bit-identical for
// every worker count. It returns the modeled flop-equivalents of the nodes
// it filled: 0 if every node was already computed.
func (st *ChargeState) Compute(pl *Plan, workers int) float64 {
	st.checkGen(pl)
	var flops float64
	for i, q := range st.Qhat {
		if q == nil {
			flops += pl.Clusters.nodeChargeWork(pl.Sources, i)
		}
	}
	pool.Blocks(len(st.Qhat), workers, func(_, lo, hi int) {
		s := scratchPool.Get().(*chargeScratch)
		for i := lo; i < hi; i++ {
			if st.Qhat[i] == nil {
				st.computeNode(pl, i, s)
			}
		}
		scratchPool.Put(s)
	})
	return flops
}

// ResetToPlan restores the charges the sources carried when the plan was
// built and marks every node not computed. It makes a recycled state (e.g.
// from a serving-layer pool) indistinguishable from a fresh NewChargeState:
// both SetCharges and ResetToPlan overwrite every charge, so no prior
// request's values can leak into the next solve.
func (st *ChargeState) ResetToPlan(pl *Plan) {
	st.checkGen(pl)
	copy(st.Q, pl.Sources.Particles.Q)
	clear(st.Qhat)
}

// RunComputeState evaluates every batch's interaction list against the
// state's charges into phi (batch target order, length = number of
// targets), parallelized over batches with up to `workers` goroutines. The
// plan is only read; all mutable inputs come from st and all output goes to
// phi, so concurrent calls with distinct (st, phi) pairs are safe. Every
// node must be computed (call st.Compute first); otherwise it panics.
// Returns the modeled compute-phase flop count.
func RunComputeState(pl *Plan, k kernel.Kernel, st *ChargeState, phi []float64, workers int) float64 {
	st.checkComputed(pl)
	tk := kernel.AsTile(k)
	pool.For(len(pl.Batches.Batches), workers, func(bi int) {
		evalBatchLists(pl, tk, bi, phi, st.Q, st.Qhat)
	})
	return computeFlops(pl.Lists.Stats, k, kernel.ArchCPU)
}

// GroupMember is one request of a coalesced compute pass: a kernel, its
// charge state (already Computed; RunComputeGroup panics otherwise) and
// its output buffer (batch target order).
type GroupMember struct {
	Kernel kernel.Kernel
	State  *ChargeState
	Phi    []float64
}

// RunComputeGroup evaluates several requests against one shared plan in a
// single tiled parallel pass: the work items are all (member, batch) pairs,
// so one worker pool spans the whole group instead of one pool per request.
// Each item writes only its own member's Phi range and walks its batch's
// interaction list in list order, exactly as RunComputeState does — so each
// member's output is bit-identical to a solo RunComputeState with the same
// state, regardless of how many requests share the pass or how items are
// scheduled. This is the batching path of the serving layer's request
// coalescing.
func RunComputeGroup(pl *Plan, members []GroupMember, workers int) {
	nb := len(pl.Batches.Batches)
	tks := make([]kernel.TileKernel, len(members))
	for i := range members {
		members[i].State.checkComputed(pl)
		tks[i] = kernel.AsTile(members[i].Kernel)
	}
	pool.For(len(members)*nb, workers, func(idx int) {
		mi, bi := idx/nb, idx%nb
		m := &members[mi]
		evalBatchLists(pl, tks[mi], bi, m.Phi, m.State.Q, m.State.Qhat)
	})
}
