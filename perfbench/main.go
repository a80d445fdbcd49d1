// Command perfbench is the repository's benchmark: four seeded workloads
// driven through the layers' exported functions, end-to-end metrics from an
// untraced run, per-layer metrics from a traced run, and correctness gates
// that fail the run loudly. See README.md for the workloads, the metrics and
// the layer → end-to-end map.
//
//	perfbench --workload reuse-cube-coulomb --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness gate prints
// that object with "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"barytree/internal/kernel"
)

// workers is the pinned host parallelism: GOMAXPROCS, Params.Workers,
// serve.Config.Workers and the number of serving clients. dist.Run's
// WorkersPerRank is 1 (four ranks on two cores). Pinning it keeps the
// load identical across machines; the workload sizes were chosen for two
// cores.
const workers = 2

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes (tests only)
	out      string // directory for the Chrome trace; "" writes none
	commit   string
}

// result is what a workload reports.
type result struct {
	attempted, failed int
	e2e, layer        map[string]float64
	gateErrs          []string
	rec               *recorder // spans of the traced run, nil untraced
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// gate records a failed correctness check.
func (r *result) gate(format string, args ...any) {
	r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*result, error){
	"reuse-cube-coulomb":   runReuse,
	"serve-small-mixed":    runServe,
	"nbody-plummer-step":   runNbody,
	"dist4-plummer-yukawa": runDist,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced ledger run and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for the Chrome trace of a traced run")
	flag.StringVar(&cfg.commit, "commit", "", "source commit recorded in the provenance line")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || flag.NArg() != 0 || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments; workloads: %v\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	printProvenance(cfg)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if res.rec != nil && cfg.out != "" {
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := res.rec.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s\n", path)
	}
	metrics := report(cfg, res)
	for _, e := range res.gateErrs {
		fmt.Fprintf(os.Stderr, "perfbench: GATE FAILED: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{len(res.gateErrs) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(res.gateErrs) > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the run's metrics one per line (name, value, unit) and
// returns them in the result line's format: every end-to-end metric
// untraced, every per-layer metric traced. A per-layer metric whose layer
// is not on the workload's path reads 0 (README.md lists which apply).
func report(cfg config, res *result) map[string]json.RawMessage {
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer, res.layer
	}
	out := make(map[string]json.RawMessage, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		fmt.Printf("metric %-34s %-14.6g %s\n", d.name, v, d.unit)
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, d.unit})
		if err != nil {
			panic(err) // a NaN or Inf metric is a bug in the workload
		}
		out[d.name] = raw
	}
	fmt.Printf("ops attempted %d failed %d\n", res.attempted, res.failed)
	return out
}

// printProvenance stamps the run with the fields of the scripts/benchjson
// machine record plus nproc, GOMAXPROCS, commit and seed: absolute numbers
// drift between machines and over time, so a result is only comparable with
// one carrying the same stamp.
func printProvenance(cfg config) {
	commit := cfg.commit
	if commit == "" {
		commit = "unknown"
	}
	line, _ := json.Marshal(map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"simd_level": kernel.CPUFeatures(),
		"goamd64":    os.Getenv("GOAMD64"),
		"goarch":     runtime.GOARCH,
		"go_version": runtime.Version(),
		"commit":     commit,
	})
	fmt.Printf("provenance %s\n", line)
}
