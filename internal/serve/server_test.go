package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"barytree/internal/kernel"
)

// newTestServer starts an httptest server around a fresh daemon.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON posts body and decodes the response into out (if non-nil),
// returning the status code and raw body.
func doJSON(t *testing.T, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

func TestServerPlanLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, _ := testSet(150, 31)
	req := PlanRequest{GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(testParams())}}

	var created PlanResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/plans", req, &created); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	if !created.Created || created.Targets != 150 || created.Plan == "" {
		t.Fatalf("create response %+v, want created=true targets=150", created)
	}

	// Same geometry again: cache hit, no new build.
	var again PlanResponse
	doJSON(t, "POST", ts.URL+"/v1/plans", req, &again)
	if again.Created || again.Plan != created.Plan {
		t.Fatalf("repeat create %+v, want created=false same key %s", again, created.Plan)
	}

	var list PlanListResponse
	doJSON(t, "GET", ts.URL+"/v1/plans", nil, &list)
	if len(list.Plans) != 1 || list.Plans[0].Plan != created.Plan || list.Stats.Builds != 1 {
		t.Fatalf("list %+v, want the one plan with one build", list)
	}

	var info PlanInfo
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/plans/"+created.Plan, nil, &info); code != http.StatusOK {
		t.Fatalf("get: %d %s", code, raw)
	}
	if info.Plan != created.Plan || info.Sources != 150 {
		t.Fatalf("get %+v", info)
	}

	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/plans/"+created.Plan, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/plans/"+created.Plan, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/plans/"+created.Plan, nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", code)
	}
}

// TestServerSolveMatchesLibrary pins the end-to-end identity: potentials
// served over HTTP — by plan key or inline geometry, any kernel — are
// byte-identical to barytree.Solve (JSON float64 encoding is shortest-
// round-trip, so the bits survive the wire).
func TestServerSolveMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, q := testSet(200, 37)
	p := testParams()

	var plan PlanResponse
	doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
	}, &plan)

	cases := []struct {
		name string
		spec *KernelSpec
		k    kernel.Kernel
	}{
		{"coulomb by key", &KernelSpec{Name: "coulomb"}, kernel.Coulomb{}},
		{"yukawa by key", &KernelSpec{Name: "yukawa", Kappa: 0.5}, kernel.Yukawa{Kappa: 0.5}},
		{"default kernel", nil, kernel.Coulomb{}},
	}
	for _, tc := range cases {
		var sol SolveResponse
		code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{
			Plan: plan.Plan, Kernel: tc.spec, Charges: q,
		}, &sol)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, code, raw)
		}
		if sol.Cache != "hit" || sol.Coalesced < 1 {
			t.Fatalf("%s: response %+v, want a cache hit", tc.name, sol)
		}
		want := refSolve(t, tc.k, s, q, p)
		for i := range want {
			if sol.Phi[i] != want[i] {
				t.Fatalf("%s: phi[%d] served %v != library %v", tc.name, i, sol.Phi[i], want[i])
			}
		}
	}

	// Inline geometry: first solve builds (cache miss), repeat hits, both
	// identical to the library.
	s2, q2 := testSet(180, 41)
	inline := SolveRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s2), Params: paramsSpec(p)},
		Charges:      q2,
	}
	var first, second SolveResponse
	doJSON(t, "POST", ts.URL+"/v1/solve", inline, &first)
	doJSON(t, "POST", ts.URL+"/v1/solve", inline, &second)
	if first.Cache != "miss" || second.Cache != "hit" {
		t.Fatalf("inline cache states %q then %q, want miss then hit", first.Cache, second.Cache)
	}
	want := refSolve(t, kernel.Coulomb{}, s2, q2, p)
	for i := range want {
		if first.Phi[i] != want[i] || second.Phi[i] != want[i] {
			t.Fatalf("inline phi[%d]: %v / %v != library %v", i, first.Phi[i], second.Phi[i], want[i])
		}
	}
}

func TestServerSolveErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, q := testSet(120, 43)
	p := testParams()
	var plan PlanResponse
	doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
	}, &plan)

	cases := []struct {
		name string
		req  SolveRequest
		code int
		msg  string
	}{
		{"no charges", SolveRequest{Plan: plan.Plan}, http.StatusBadRequest, "charges required"},
		{"unknown plan", SolveRequest{Plan: "deadbeef", Charges: q}, http.StatusNotFound, "unknown plan"},
		{"no plan or geometry", SolveRequest{Charges: q}, http.StatusBadRequest, "either plan key or inline geometry"},
		{"bad kernel", SolveRequest{Plan: plan.Plan, Kernel: &KernelSpec{Name: "nope"}, Charges: q}, http.StatusBadRequest, "unknown kernel"},
		{"short charges", SolveRequest{Plan: plan.Plan, Charges: q[:7]}, http.StatusBadRequest, "120"},
	}
	for _, tc := range cases {
		code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", tc.req, nil)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.code, raw)
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || !strings.Contains(er.Error, tc.msg) {
			t.Errorf("%s: body %s, want error containing %q", tc.name, raw, tc.msg)
		}
	}

	// Ragged geometry on the plan path.
	code, raw := doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
		GeometrySpec: GeometrySpec{Targets: &PointsSpec{X: s.X, Y: s.Y[:50], Z: s.Z}},
	}, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "ragged") {
		t.Errorf("ragged geometry: %d %s, want 400 mentioning ragged arrays", code, raw)
	}
}

// TestServerBackpressure fills the admission semaphore directly and checks
// the deterministic 429 + Retry-After path, then drains it and checks
// recovery.
func TestServerBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 2})
	s, q := testSet(120, 47)
	p := testParams()
	var plan PlanResponse
	doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
	}, &plan)

	// Occupy both slots as if two solves were in flight.
	srv.admit <- struct{}{}
	srv.admit <- struct{}{}

	req, _ := json.Marshal(SolveRequest{Plan: plan.Plan, Charges: q})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: %d %s, want 429", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// Drain one slot: the next request is admitted and solves.
	<-srv.admit
	var sol SolveResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{Plan: plan.Plan, Charges: q}, &sol); code != http.StatusOK {
		t.Fatalf("solve after drain: %d %s", code, raw)
	}
	<-srv.admit // release the remaining held slot

	// The rejection is visible on /metrics.
	if !strings.Contains(scrape(t, ts), "bltcd_rejected_total 1") {
		t.Error("rejection not counted on /metrics")
	}
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

func TestServerMetricsAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	s, q := testSet(120, 53)
	p := testParams()
	var sol SolveResponse
	doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{
		GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
		Charges:      q,
	}, &sol)

	metrics := scrape(t, ts)
	for _, want := range []string{
		"bltcd_solve_requests_total 1",
		"bltcd_solve_ok_total 1",
		"bltcd_solve_plan_misses_total 1",
		"bltcd_plan_cache_size 1",
		"bltcd_coalesce_groups_total 1",
		"bltcd_solve_latency_seconds_count 1",
		`bltcd_trace{counter="serve.plan.builds"} 1`,
		`bltcd_trace{counter="serve.solves"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/trace is not Chrome trace JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	for _, want := range []string{"serve.plan.build", "serve.precompute", "serve.compute"} {
		if !names[want] {
			t.Errorf("/trace missing span %q (have %v)", want, names)
		}
	}

	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

// TestServerConcurrentSolves is the -race plan-cache stress: goroutines
// hammer one daemon across two shared plans with distinct charge vectors;
// every response must be byte-identical to the library path.
func TestServerConcurrentSolves(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 64})
	p := testParams()

	type geom struct {
		s    *PointsSpec
		key  string
		want [][]float64 // per charge vector
		q    [][]float64
	}
	geoms := make([]*geom, 2)
	for gi := range geoms {
		s, _ := testSet(160, 59+int64(gi))
		g := &geom{s: pointsSpec(s)}
		var plan PlanResponse
		doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
			GeometrySpec: GeometrySpec{Targets: g.s, Params: paramsSpec(p)},
		}, &plan)
		g.key = plan.Plan
		for v := 0; v < 3; v++ {
			_, q := testSet(160, 300+int64(10*gi+v))
			g.q = append(g.q, q)
			g.want = append(g.want, refSolve(t, kernel.Coulomb{}, s, q, p))
		}
		geoms[gi] = g
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				g := geoms[(w+r)%len(geoms)]
				v := (w * r) % len(g.q)
				var sol SolveResponse
				code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{Plan: g.key, Charges: g.q[v]}, &sol)
				if code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: %d %s", w, code, raw)
					return
				}
				for i := range g.want[v] {
					if sol.Phi[i] != g.want[v][i] {
						errs <- fmt.Errorf("worker %d phi[%d]: %v != %v", w, i, sol.Phi[i], g.want[v][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerSurvivesPanickingPass drives a panicking compute pass through
// the HTTP path: a plan whose interaction list names a cluster that does
// not exist panics inside the group pass. The solve must answer 500 and
// count as a server error, and the daemon must keep serving other plans
// with library-identical potentials.
func TestServerSurvivesPanickingPass(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	p := testParams()
	create := func(seed int64) (string, []float64, []float64) {
		s, q := testSet(200, seed)
		var plan PlanResponse
		if code, raw := doJSON(t, "POST", ts.URL+"/v1/plans", PlanRequest{
			GeometrySpec: GeometrySpec{Targets: pointsSpec(s), Params: paramsSpec(p)},
		}, &plan); code != http.StatusOK {
			t.Fatalf("create: %d %s", code, raw)
		}
		return plan.Plan, q, refSolve(t, kernel.Coulomb{}, s, q, p)
	}
	broken, qBroken, _ := create(41)
	good, qGood, want := create(43)

	pl := srv.cache.Get(broken).Plan()
	pl.Lists.Direct[0] = append(pl.Lists.Direct[0], int32(len(pl.Sources.Nodes)))
	code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{Plan: broken, Charges: qBroken}, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("solve on the broken plan: %d %s, want 500", code, raw)
	}
	if !strings.Contains(string(raw), errGroupPanic.Error()) {
		t.Fatalf("500 body %s does not name the failed pass", raw)
	}

	var sol SolveResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/solve", SolveRequest{Plan: good, Charges: qGood}, &sol); code != http.StatusOK {
		t.Fatalf("solve after the panicking pass: %d %s", code, raw)
	}
	for i := range want {
		if sol.Phi[i] != want[i] {
			t.Fatalf("phi[%d]: served %v != library %v", i, sol.Phi[i], want[i])
		}
	}
	_, metrics := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if !strings.Contains(string(metrics), "bltcd_solve_server_errors_total 1") {
		t.Fatalf("metrics do not count one server error:\n%s", metrics)
	}
}
