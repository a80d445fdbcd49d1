package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"barytree"
	"barytree/internal/core"
	"barytree/internal/interaction"
	"barytree/internal/kernel"
	"barytree/internal/particle"
	"barytree/internal/serve"
)

// Request kinds of the serve-small-mixed traffic mix.
const (
	kindKey    = iota // solve by plan key
	kindInline        // solve with inline geometry of a hot plan (cache hit)
	kindPlan          // POST /v1/plans with a new geometry (cache write, LRU eviction)
	numKinds
)

var kindNames = [numKinds]string{"solve-by-key", "solve-inline", "new-plan"}

// pickKind draws the 70/25/5 mix.
func pickKind(rng *rand.Rand) int {
	switch u := rng.Float64(); {
	case u < 0.70:
		return kindKey
	case u < 0.95:
		return kindInline
	}
	return kindPlan
}

// request is one encoded request body and what it asks for.
type request struct {
	kind, geo int
	k         kernel.Kernel
	q         []float64
	data      []byte
}

// opRecord is one request as the client saw it. The response body is kept
// only for the bodies the checks and the traced re-run use (keepPerKind).
type opRecord struct {
	req    *request
	id     int
	traced bool
	ok     bool
	sec    float64
	resp   []byte
}

// keepPerKind bounds the traced ops per kind whose layers are re-run.
const keepPerKind = 16

// serveBench holds one serve-small-mixed run's inputs and in-process server.
type serveBench struct {
	cfg    config
	n      int
	params core.Params
	spec   *serve.ParamsSpec
	geos   []*particle.Set
	pools  [2][]request // kindKey and kindInline bodies
	srv    *httptest.Server
	client *http.Client
	rec    *recorder
}

// runServe is serve-small-mixed: an in-process bltcd handler on loopback
// HTTP, driven by `workers` closed-loop clients over as many keep-alive
// connections.
func runServe(cfg config) (*result, error) {
	n, leaf, perGeo := 2000, 200, 10
	if cfg.tiny {
		n, leaf, perGeo = 400, 50, 4
	}
	const hot = 4
	b := &serveBench{
		cfg:    cfg,
		n:      n,
		params: core.Params{Theta: 0.8, Degree: 4, LeafSize: leaf, BatchSize: leaf, Workers: workers},
		spec:   &serve.ParamsSpec{Theta: 0.8, Degree: 4, LeafSize: leaf, BatchSize: leaf},
	}
	res := newResult()
	// The daemon's default LRU bound (16 plans) keeps the 4 hot plans
	// resident: evicting one takes 12 new-plan posts between two uses of it.
	srv := serve.New(serve.Config{MaxPlans: serve.DefaultMaxPlans, Workers: workers})
	var h http.Handler = srv.Handler()
	if cfg.trace {
		b.rec = newRecorder()
		res.rec = b.rec
		h = b.timeHandler(h)
	}
	b.srv = httptest.NewServer(h)
	defer b.srv.Close()
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	defer b.client.CloseIdleConnections()

	// Set-up, outside the window: create the hot plans, encode the pools.
	keys := make([]string, hot)
	for g := 0; g < hot; g++ {
		geo := barytree.UniformCube(n, subSeed(cfg.seed, uint64(10+g)))
		b.geos = append(b.geos, geo)
		_, data, err := b.do(&request{kind: kindPlan, data: b.planBody(geo)}, 0, false)
		if err != nil {
			return nil, err
		}
		var pr serve.PlanResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			return nil, err
		}
		keys[g] = pr.Plan
	}
	rng := newRand(cfg.seed, 2)
	for kind := kindKey; kind <= kindInline; kind++ {
		for j := 0; j < hot*perGeo; j++ {
			r := request{kind: kind, geo: j % hot, q: make([]float64, n)}
			uniformCharges(r.q, rng)
			ks := &serve.KernelSpec{Name: "coulomb"}
			r.k = kernel.Coulomb{}
			if j%10 >= 7 { // Coulomb and Yukawa 7:3
				ks = &serve.KernelSpec{Name: "yukawa", Kappa: 0.5}
				r.k = kernel.Yukawa{Kappa: 0.5}
			}
			sr := serve.SolveRequest{Kernel: ks, Charges: r.q}
			if kind == kindKey {
				sr.Plan = keys[r.geo]
			} else {
				sr.GeometrySpec = b.geometry(b.geos[r.geo])
			}
			var err error
			if r.data, err = json.Marshal(sr); err != nil {
				return nil, err
			}
			b.pools[kind] = append(b.pools[kind], r)
		}
	}
	// Warm-up: every pooled body once (pool scratch, connections, JSON).
	for kind := range b.pools {
		for j := range b.pools[kind] {
			if _, _, err := b.do(&b.pools[kind][j], 0, false); err != nil {
				return nil, err
			}
		}
	}

	ops, elapsed := b.drive()
	res.attempted = len(ops)
	var lat, latU, latT, setup []float64
	for _, o := range ops {
		if !o.ok {
			res.failed++
			continue
		}
		lat = append(lat, o.sec)
		if o.req.kind == kindPlan {
			setup = append(setup, o.sec)
		}
		if o.traced {
			latT = append(latT, o.sec)
		} else {
			latU = append(latU, o.sec)
		}
	}
	latencyMetrics(res.e2e, lat, elapsed)
	res.e2e["setup_s"] = median(setup)
	if err := b.check(res, ops); err != nil {
		return nil, err
	}
	m, err := b.metrics()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := b.ledger(res, ops, latU, latT, m); err != nil {
			return nil, err
		}
	}
	// Resident state: the server's cached plans; drop the client's pools.
	ops, b.pools = nil, [2][]request{}
	res.e2e["heap_bytes_per_particle"] = heapInUse() / (m["bltcd_plan_cache_size"] * float64(n))
	runtime.KeepAlive(srv)
	return res, nil
}

func (b *serveBench) geometry(geo *particle.Set) serve.GeometrySpec {
	return serve.GeometrySpec{Targets: &serve.PointsSpec{X: geo.X, Y: geo.Y, Z: geo.Z}, Params: b.spec}
}

func (b *serveBench) planBody(geo *particle.Set) []byte {
	data, err := json.Marshal(serve.PlanRequest{GeometrySpec: b.geometry(geo)})
	if err != nil {
		panic(err) // finite floats always encode
	}
	return data
}

// timeHandler wraps the daemon's handler with a span around ServeHTTP for
// requests that carry an op id.
func (b *serveBench) timeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get("X-Bench-Op"))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		b.rec.do(id, id%workers, "handler", "op", func() { h.ServeHTTP(w, r) })
	})
}

// do sends one request and returns its round trip and response body; a
// non-200 status is an error.
func (b *serveBench) do(r *request, id int, traced bool) (time.Duration, []byte, error) {
	path := "/v1/solve"
	if r.kind == kindPlan {
		path = "/v1/plans"
	}
	req, err := http.NewRequest(http.MethodPost, b.srv.URL+path, bytes.NewReader(r.data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var data []byte
	send := func() {
		var resp *http.Response
		if resp, err = b.client.Do(req); err != nil {
			return
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: %s", path, resp.Status, bytes.TrimSpace(data))
		}
	}
	var d time.Duration
	if traced {
		req.Header.Set("X-Bench-Op", strconv.Itoa(id))
		d = b.rec.do(id, id%workers, "op", "", send)
	} else {
		d = timed(send)
	}
	return d, data, err
}

// drive runs the closed-loop clients for the window and returns every op.
// In the traced run, ops alternate between untraced and traced every
// 250 ms, so both halves see the same machine.
func (b *serveBench) drive() ([]opRecord, float64) {
	window := time.Duration(b.cfg.seconds * float64(time.Second))
	per := make([][]opRecord, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := newRand(b.cfg.seed, uint64(100+c))
			var kept [numKinds]int
			seen := map[*request]bool{}
			for i := 0; ; i++ {
				since := time.Since(start)
				if since >= window {
					return
				}
				var r *request
				if kind := pickKind(rng); kind == kindPlan {
					geo := barytree.UniformCube(b.n, rng.Int63())
					r = &request{kind: kind, data: b.planBody(geo)}
				} else {
					pool := b.pools[kind]
					r = &pool[rng.Intn(len(pool))]
				}
				o := opRecord{req: r, id: c + workers*i, traced: b.cfg.trace && since/(250*time.Millisecond)%2 == 1}
				d, data, err := b.do(r, o.id, o.traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", kindNames[r.kind], err)
					per[c] = append(per[c], o)
					continue
				}
				o.ok, o.sec = true, d.Seconds()
				keep := false
				if o.traced && kept[r.kind] < keepPerKind {
					kept[r.kind]++
					keep = true
				}
				if r.kind != kindPlan && !seen[r] {
					seen[r] = true
					keep = true
				}
				if keep {
					o.resp = data
				} else if r.kind == kindPlan {
					r.data = nil
				}
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var ops []opRecord
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops, elapsed
}

// check compares served potentials with library Plan.Solve, byte for byte,
// on up to 8 sampled bodies per solve kind, and pools their sampled Eq. 16
// errors against direct sums.
func (b *serveBench) check(res *result, ops []opRecord) error {
	lib := make([]*barytree.Plan, len(b.geos))
	for g, geo := range b.geos {
		var err error
		if lib[g], err = barytree.NewPlan(geo, geo, b.params); err != nil {
			return err
		}
	}
	const perKind = 8
	checked := map[*request]bool{}
	var count [numKinds]int
	var errs errSample
	for _, o := range ops {
		r := o.req
		if o.resp == nil || r.kind == kindPlan || checked[r] || count[r.kind] == perKind {
			continue
		}
		checked[r] = true
		count[r.kind]++
		var sr serve.SolveResponse
		if err := json.Unmarshal(o.resp, &sr); err != nil {
			return err
		}
		want, err := lib[r.geo].Solve(r.k, r.q)
		if err != nil {
			return err
		}
		if !sameBits(sr.Phi, want) {
			res.gate("%s: served potentials differ from Plan.Solve", kindNames[r.kind])
		}
		errs.add(r.k, b.geos[r.geo], r.q, sr.Phi, barytree.SampleIndices(b.n, 200, subSeed(b.cfg.seed, uint64(1000+len(checked)))))
	}
	if count[kindKey] == 0 || count[kindInline] == 0 {
		res.gate("too few served solves to check: %v", count)
	}
	errs.gate(res, 1e-3)
	return nil
}

// metrics scrapes GET /metrics into name → value.
func (b *serveBench) metrics() (map[string]float64, error) {
	resp, err := b.client.Get(b.srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// ledger splits the traced ops' round trips into transport and handler,
// then re-runs the handler's layers one at a time on up to 16 traced
// bodies per kind: decode, geometry hash, plan set-up or charges →
// compute → scatter, encode. Whatever handler time those layers do not
// cover is queue wait (admission, cache lookup, coalescing).
func (b *serveBench) ledger(res *result, ops []opRecord, latU, latT []float64, m map[string]float64) error {
	l := res.layer
	l["serve.cache_hit_ratio"] = m["bltcd_plan_cache_hits_total"] / (m["bltcd_plan_cache_hits_total"] + m["bltcd_plan_cache_misses_total"])
	l["serve.group_size_mean"] = m["bltcd_coalesce_jobs_total"] / m["bltcd_coalesce_groups_total"]
	l["serve.rejected"] = m["bltcd_rejected_total"]

	self := b.rec.selfTimes(mean) // only the client op and handler spans so far
	l["serve.transport_s"] = self["op"]
	l["serve.handler_s"] = self["handler"]

	// The re-run solves against plans equal to the daemon's hot plans.
	plans := make([]*core.Plan, len(b.geos))
	var lists interaction.Stats // summed over the hot plans
	for g, geo := range b.geos {
		var err error
		if plans[g], err = core.NewPlan(geo, geo, b.params); err != nil {
			return err
		}
		st := plans[g].Lists.Stats
		lists.MACTests += st.MACTests
		lists.ApproxInteractions += st.ApproxInteractions
		lists.DirectInteractions += st.DirectInteractions
	}
	hot := float64(len(b.geos))

	var traced, rerun [numKinds]int
	var layerSum [numKinds]map[string]float64
	var gridBytes []float64
	for i, o := range ops {
		if !o.traced || !o.ok {
			continue
		}
		r := o.req
		traced[r.kind]++
		if o.resp == nil || rerun[r.kind] == keepPerKind {
			continue
		}
		rerun[r.kind]++
		if layerSum[r.kind] == nil {
			layerSum[r.kind] = map[string]float64{}
		}
		gb, err := b.rerun(res, -1-i, o, plans, layerSum[r.kind])
		if err != nil {
			return err
		}
		if r.kind == kindPlan {
			gridBytes = append(gridBytes, gb)
		}
	}

	// Per-op means: each kind's per-body mean weighted by its share of the
	// traced ops.
	total := float64(traced[kindKey] + traced[kindInline] + traced[kindPlan])
	if total == 0 || len(latU) == 0 {
		return fmt.Errorf("window too short for both untraced and traced ops")
	}
	perOp := map[string]float64{}
	for kind, sum := range layerSum {
		for name, s := range sum {
			perOp[name] += s / float64(rerun[kind]) * float64(traced[kind]) / total
		}
	}
	self = b.rec.selfTimes(mean)
	setupLayerMetrics(l, self, plans[0], mean(gridBytes))
	l["interaction.mac_tests"] = float64(lists.MACTests) / hot
	l["interaction.approx_interactions"] = float64(lists.ApproxInteractions) / hot
	l["interaction.direct_interactions"] = float64(lists.DirectInteractions) / hot
	build := self["setup"] + self[spanTree] + self[spanBatches] + self[spanLists] + self[spanGrids]
	perOp["setup"] = build * float64(traced[kindPlan]) / total
	l["serve.decode_s"] = perOp["decode"]
	l["serve.hash_s"] = perOp["hash"]
	l["serve.encode_s"] = perOp["encode"]
	l["charges.s"] = self["charges"]
	l["charges.ns_per_point"] = self["charges"] / chargePoints(plans[0]) * 1e9
	l["compute.s"] = self["compute"]
	l["compute.ns_per_interaction"] = self["compute"] / (float64(lists.TotalInteractions()) / hot) * 1e9
	l["scatter.s"] = self["scatter"]
	inHandler := perOp["decode"] + perOp["hash"] + perOp["setup"] + perOp["charges"] + perOp["compute"] + perOp["scatter"] + perOp["encode"]
	l["serve.queue_wait_s"] = l["serve.handler_s"] - inHandler
	closeLedger(l, l["serve.transport_s"]+inHandler, mean(latU), mean(latT))
	return nil
}

// rerun makes the handler's layer calls for one traced op's body, one at a
// time under op id id, and adds each layer's seconds to sum. A solve runs
// against plans (equal to the daemon's hot plans) and its potentials must
// equal the served ones. It returns the bytes a new plan's grids allocate.
func (b *serveBench) rerun(res *result, id int, o opRecord, plans []*core.Plan, sum map[string]float64) (float64, error) {
	rec, r := b.rec, o.req
	var (
		err       error
		sr        serve.SolveRequest
		pr        serve.PlanRequest
		gridBytes float64
	)
	sum["decode"] += rec.do(id, 0, "decode", "", func() {
		if r.kind == kindPlan {
			err = json.NewDecoder(bytes.NewReader(r.data)).Decode(&pr)
		} else {
			err = json.NewDecoder(bytes.NewReader(r.data)).Decode(&sr)
		}
	}).Seconds()
	if err != nil {
		return 0, err
	}
	var out any
	switch r.kind {
	case kindKey, kindInline:
		if r.kind == kindInline {
			set := pointSet(sr.Targets)
			sum["hash"] += rec.do(id, 0, "hash", "", func() { serve.GeometryKey(set, set, b.params) }).Seconds()
		}
		pl := plans[r.geo]
		var st *core.ChargeState
		sum["charges"] += rec.do(id, 0, "charges", "", func() {
			st = core.NewChargeState(pl)
			if err = st.SetCharges(pl, sr.Charges); err == nil {
				st.Compute(pl, workers)
			}
		}).Seconds()
		if err != nil {
			return 0, err
		}
		var phiB, phi []float64
		sum["compute"] += rec.do(id, 0, "compute", "", func() {
			phiB = make([]float64, pl.Batches.Targets.Len())
			core.RunComputeState(pl, r.k, st, phiB, workers)
		}).Seconds()
		sum["scatter"] += rec.do(id, 0, "scatter", "", func() {
			phi = make([]float64, len(phiB))
			pl.Batches.Perm.ScatterInto(phi, phiB)
		}).Seconds()
		var resp serve.SolveResponse
		if err := json.Unmarshal(o.resp, &resp); err != nil {
			return 0, err
		}
		if !sameBits(phi, resp.Phi) {
			res.gate("%s: re-run layers' potentials differ from the served ones", kindNames[r.kind])
		}
		out = &resp
	case kindPlan:
		set := pointSet(pr.Targets)
		sum["hash"] += rec.do(id, 0, "hash", "", func() { serve.GeometryKey(set, set, b.params) }).Seconds()
		if _, gridBytes, err = tracedNewPlan(rec, id, set, set, b.params); err != nil {
			return 0, err
		}
		var resp serve.PlanResponse
		if err := json.Unmarshal(o.resp, &resp); err != nil {
			return 0, err
		}
		out = &resp
	}
	sum["encode"] += rec.do(id, 0, "encode", "", func() { err = json.NewEncoder(io.Discard).Encode(out) }).Seconds()
	return gridBytes, err
}

// pointSet is the particle set the daemon resolves a request's points to.
func pointSet(ps *serve.PointsSpec) *particle.Set {
	return &particle.Set{X: ps.X, Y: ps.Y, Z: ps.Z, Q: make([]float64, len(ps.X))}
}
