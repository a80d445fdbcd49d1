package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"barytree/internal/direct"
	"barytree/internal/kernel"
	"barytree/internal/metrics"
	"barytree/internal/particle"
	"barytree/internal/serve"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric names and units, in the order
// BENCHMARK.json lists them and README.md defines them.
var endToEnd = []metricDef{
	{"op_p50_s", "s"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"accuracy_digits", "digits"},
	{"heap_bytes_per_particle", "bytes"},
}

var perLayer = []metricDef{
	{"tree.build_s", "s"},
	{"tree.ns_per_particle", "ns"},
	{"batches.build_s", "s"},
	{"interaction.lists_s", "s"},
	{"interaction.mac_tests", "count"},
	{"interaction.approx_interactions", "count"},
	{"interaction.direct_interactions", "count"},
	{"grids.build_s", "s"},
	{"grids.bytes", "bytes"},
	{"charges.s", "s"},
	{"charges.ns_per_point", "ns"},
	{"compute.s", "s"},
	{"compute.ns_per_interaction", "ns"},
	{"fields.s", "s"},
	{"fields.ns_per_interaction", "ns"},
	{"scatter.s", "s"},
	{"update.s", "s"},
	{"update.refit", "share"},
	{"update.repair", "share"},
	{"update.rebuild", "share"},
	{"update.drifters", "count"},
	{"serve.transport_s", "s"},
	{"serve.handler_s", "s"},
	{"serve.decode_s", "s"},
	{"serve.hash_s", "s"},
	{"serve.encode_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.group_size_mean", "count"},
	{"serve.rejected", "count"},
	{"rcb.partition_s", "s"},
	{"dist.modeled_setup_s", "s"},
	{"dist.modeled_precompute_s", "s"},
	{"dist.modeled_compute_s", "s"},
	{"dist.modeled_total_s", "s"},
	{"mpisim.comm_s", "s"},
	{"mpisim.get_bytes", "bytes"},
	{"mpisim.gets", "count"},
	{"let.bytes", "bytes"},
	{"dist.overlap_saved_s", "s"},
	{"dist.rank_imbalance", "ratio"},
	{"ledger.closure", "ratio"},
	{"ledger.gap_s", "s"},
	{"trace.overhead", "ratio"},
}

// subSeed derives an independent stream seed from the run seed (splitmix64),
// so each input of a workload changes with --seed but not with the others.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream)))
}

// uniformCharges fills q with charges uniform on [-1, 1].
func uniformCharges(q []float64, rng *rand.Rand) {
	for i := range q {
		q[i] = 2*rng.Float64() - 1
	}
}

func quantile(xs []float64, q float64) float64 { return serve.Quantile(xs, q) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencyMetrics fills the timing end-to-end metrics from a closed loop's
// per-op wall times and the loop's elapsed seconds. It prints the 99th
// percentile too; that is not a metric, because host hiccups move it by
// more than any bound (README.md, Run-to-run spread).
func latencyMetrics(m map[string]float64, lat []float64, elapsed float64) {
	m["op_p50_s"] = median(lat)
	m["ops_per_s"] = float64(len(lat)) / elapsed
	fmt.Printf("op_p99_s %.4g s over %d ops\n", quantile(lat, 0.99), len(lat))
}

// closedLoop calls op back to back until seconds have elapsed and at least
// three ops ran. op returns the wall time of its measured part (inputs it
// prepares are not timed) and whether it failed. It returns the measured
// times of the successful ops, the failure count and the elapsed seconds.
func closedLoop(seconds float64, op func(i int) (time.Duration, error)) (lat []float64, failed int, elapsed float64) {
	start := time.Now()
	for i := 0; i < 3 || time.Since(start).Seconds() < seconds; i++ {
		d, err := op(i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			failed++
			continue
		}
		lat = append(lat, d.Seconds())
	}
	return lat, failed, time.Since(start).Seconds()
}

func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// heapInUse returns the live heap after two full collections: objects
// parked in sync.Pool victim caches survive the first.
func heapInUse() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// allocated returns the bytes f allocates.
func allocated(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc)
}

// errSample pools sampled direct-sum references and the matching treecode
// values of several solves, for one Eq. 16 error over all of them.
type errSample struct{ ref, got []float64 }

// add samples phi (caller order) at idx against a direct sum over pos with
// charges q.
func (e *errSample) add(k kernel.Kernel, pos *particle.Set, q, phi []float64, idx []int) {
	set := &particle.Set{X: pos.X, Y: pos.Y, Z: pos.Z, Q: q}
	e.ref = append(e.ref, direct.SumAt(k, set, idx, set)...)
	for _, i := range idx {
		e.got = append(e.got, phi[i])
	}
}

// gate reports the pooled Eq. 16 error as accuracy_digits (-log10) and
// fails the run if it exceeds tol, the error class of the workload's (θ, n).
func (e *errSample) gate(res *result, tol float64) {
	err := metrics.RelErr2(e.ref, e.got)
	fmt.Printf("rel_err %.4g (gate %.0e, %d sampled targets)\n", err, tol, len(e.ref))
	res.e2e["accuracy_digits"] = metrics.Digits(err)
	if !(err <= tol) {
		res.gate("rel_err %.3g exceeds %.0e", err, tol)
	}
}

// sameBits reports whether a and b are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// span is one traced interval: a layer call made by the benchmark. Spans
// of one op share its id; parent names the enclosing span ("" for an op).
type span struct {
	name, parent string
	op, lane     int
	start, end   time.Duration
}

// recorder keeps the traced run's spans in memory; they are written once,
// at exit, as Chrome trace-event JSON.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs f inside a span and returns its duration.
func (r *recorder) do(op, lane int, name, parent string, f func()) time.Duration {
	s := time.Since(r.t0)
	f()
	e := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, parent: parent, op: op, lane: lane, start: s, end: e})
	r.mu.Unlock()
	return e - s
}

// selfTimes reduces each span name's self times over its occurrences with
// stat (median or mean). A span's self time is its duration minus the time
// its child spans of the same op cover (children never overlap here).
func (r *recorder) selfTimes(stat func([]float64) float64) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct {
		op   int
		name string
	}
	child := map[key]time.Duration{}
	for _, s := range r.spans {
		if s.parent != "" {
			child[key{s.op, s.parent}] += s.end - s.start
		}
	}
	all := map[string][]float64{}
	for _, s := range r.spans {
		all[s.name] = append(all[s.name], (s.end - s.start - child[key{s.op, s.name}]).Seconds())
	}
	out := make(map[string]float64, len(all))
	for name, xs := range all {
		out[name] = stat(xs)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev → Open trace file) and chrome://tracing load.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.op, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// closeLedger reports how the attributed layers' self times add up to the
// untraced op time measured in the same run: closure is their sum over it,
// gap the remainder, overhead the traced op's time over the untraced one,
// less 1.
func closeLedger(layer map[string]float64, attributed, untraced, traced float64) {
	layer["ledger.closure"] = attributed / untraced
	layer["ledger.gap_s"] = untraced - attributed
	layer["trace.overhead"] = traced/untraced - 1
}
