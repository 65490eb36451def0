// Command bench is the repository's performance ledger: one seeded bank
// workload driven through every stack the system offers, with end-to-end
// metrics from untraced runs and per-layer metrics from a traced twin of the
// same stack. See README.md.
//
//	ledger --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the driver's contract)
//	ledger -seed N                                         every workload, both ways, one document
//	ledger -seed N -repeat 10 -check                       ten seeds per workload, spreads against the bounds
//
// Every run of a workload happens in a process of its own, so the document's
// numbers are the ones the driver's runs produce.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// contractSeconds is the run_seconds of BENCHMARK.json.
const contractSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload and print one result line (default: all, as a document)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", contractSeconds, "measured time per run")
		trace   = flag.Int("trace", 0, "with -workload: 0 end-to-end metrics, 1 per-layer metrics")
		out     = flag.String("out", defaultOut(), "directory for the document, the trace files and scratch data")
		repeat  = flag.Int("repeat", 1, "measure this many seeds (seed, seed+1, ...) per workload")
		check   = flag.Bool("check", false, "with -repeat: fail if an end-to-end metric's spread between seeds exceeds its bound")
		detail  = flag.Bool("detail", false, "with -workload: keep how each value was arrived at in the result line")
		desc    = flag.Bool("describe", false, "print BENCHMARK.json as the code defines it and exit")
	)
	flag.Parse()
	if *desc {
		describe()
		return
	}
	outDir, err := scratchDir(*out)
	if err != nil {
		fatal(err)
	}
	measure := time.Duration(*seconds * float64(time.Second))
	if *name == "" {
		if err := runSets(*repeat, *check, *seed, measure, outDir); err != nil {
			fatal(err)
		}
		return
	}
	wl := workloadByName(*name)
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runOne(wl, *seed, measure, *trace == 1, outDir)
	if err != nil {
		fatal(err)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "bench:", p)
	}
	var line []byte
	if *detail {
		line, err = json.Marshal(res)
	} else {
		line, err = json.Marshal(contractResult(res))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// defaultOut is bench/out from the repository root and out from inside
// bench/.
func defaultOut() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// describe prints BENCHMARK.json: the one place the names, units and bounds
// are written down is the code, and the tests hold the file to it.
func describe() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	var layers []layer
	for _, m := range perLayer {
		layers = append(layers, layer{m.Name, m.Unit, m.Better})
	}
	raw, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": contractSeconds,
		"workloads":   wls,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	}, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

// runOne runs one workload one way, in this process.
func runOne(wl *workload, seed int64, measure time.Duration, traced bool, outDir string) (*result, error) {
	// Pinning the collector's target keeps a GOGC in the caller's
	// environment from changing the numbers.
	debug.SetGCPercent(100)
	rc := &runCtx{seed: seed, outDir: outDir, extra: map[string]float64{}}
	defer rc.cleanup()
	if !traced {
		return runEndToEnd(wl, rc, measure)
	}
	res, spans, err := runTraced(wl, rc, measure)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace-"+wl.name+".json"), raw, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// contractResult strips a result to the keys the driver's contract allows.
func contractResult(res *result) map[string]any {
	metrics := map[string]map[string]any{}
	for name, v := range res.Metrics {
		metrics[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

// runChild runs one workload one way in a fresh process of this binary and
// reads its result line back.
func runChild(wl *workload, seed int64, measure time.Duration, traced bool, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(measure.Seconds()), "-trace", trace, "-out", outDir, "-detail")
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		// No result line: the child failed before it had one.
		return nil, errors.Join(runErr, fmt.Errorf("%s: no result line", wl.name))
	}
	return &res, nil // a failed oracle is in res as well as in the exit code
}

// environment says where a set was measured, so that drift between two sets
// can be told from a regression.
type environment struct {
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Windows    int     `json:"windows"`
	WarmupS    float64 `json:"warmup_s"`
	Workers    int     `json:"workers"`
	Network    string  `json:"network"`
	Flush      string  `json:"flush"`
	Started    string  `json:"started"`
}

func readEnvironment(seed int64, measure time.Duration) environment {
	env := environment{
		GitCommit:  "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Seed:       seed,
		Seconds:    measure.Seconds(),
		Windows:    measureWindows,
		WarmupS:    warmup(measure).Seconds(),
		Workers:    numWorkers,
		Network:    "dist.NewNetwork delay 0/0, RPC timeout 300us x 7 retransmissions: cluster latency is processor time only",
		Flush:      "file WAL default policy: one fsync per group-commit batch, page cache warm",
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// workloadDoc is one workload's rows of the document.
type workloadDoc struct {
	Why      string             `json:"why"`
	Correct  bool               `json:"correct"`
	EndToEnd map[string]reading `json:"end_to_end"`
	Tail     map[string]reading `json:"tail"`
	PerLayer map[string]reading `json:"per_layer,omitempty"`
	Counts   map[string]int64   `json:"counts"`
	Problems []string           `json:"problems,omitempty"`
}

type document struct {
	Environment environment             `json:"environment"`
	EndToEnd    []metricDef             `json:"end_to_end_metrics"`
	PerLayer    []metricDef             `json:"per_layer_metrics"`
	Workloads   map[string]*workloadDoc `json:"workloads"`
}

// runSet measures every workload with one seed: untraced, and traced as
// well if layers is set. It prints every metric by name and unit.
func runSet(seed int64, measure time.Duration, layers bool, outDir string) (*document, error) {
	d := &document{
		Environment: readEnvironment(seed, measure),
		EndToEnd:    endToEnd,
		PerLayer:    perLayer,
		Workloads:   map[string]*workloadDoc{},
	}
	for _, wl := range workloads {
		e2e, err := runChild(wl, seed, measure, false, outDir)
		if err != nil {
			return nil, err
		}
		wd := &workloadDoc{
			Why:      wl.why,
			Correct:  e2e.Correct,
			EndToEnd: e2e.Metrics,
			Tail:     e2e.Tail,
			Counts:   map[string]int64{"attempted": e2e.Attempted, "failed": e2e.Failed},
			Problems: e2e.Problems,
		}
		if layers {
			traced, err := runChild(wl, seed, measure, true, outDir)
			if err != nil {
				return nil, err
			}
			wd.Correct = wd.Correct && traced.Correct
			wd.PerLayer = traced.Metrics
			wd.Counts["traced_attempted"], wd.Counts["traced_failed"] = traced.Attempted, traced.Failed
			wd.Problems = append(wd.Problems, traced.Problems...)
		}
		d.Workloads[wl.name] = wd
		printWorkload(wl, wd)
	}
	return d, nil
}

func printWorkload(wl *workload, wd *workloadDoc) {
	fmt.Printf("\n== %s  (correct=%v, attempted=%d, failed=%d)\n", wl.name, wd.Correct, wd.Counts["attempted"], wd.Counts["failed"])
	for _, p := range wd.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	row := func(name string, v reading) {
		fmt.Printf("   %-38s %14.4f %-6s", name, v.Value, v.Unit)
		if v.Detail != nil {
			fmt.Printf(" from %d (median %.4f, min %.4f, max %.4f, %d samples)", len(v.Detail.Values), v.Detail.Median, v.Detail.Min, v.Detail.Max, v.Detail.Samples)
		}
		fmt.Println()
	}
	for _, m := range endToEnd {
		row(m.Name, wd.EndToEnd[m.Name])
	}
	for _, m := range tailMetrics {
		row(m.Name+" (ungated)", wd.Tail[m.Name])
	}
	if wd.PerLayer == nil {
		return
	}
	for _, m := range perLayer {
		v := wd.PerLayer[m.Name]
		fmt.Printf("   %-38s %14.4f %-6s\n", m.Name, v.Value, v.Unit)
	}
}

// calibrationRow is one end-to-end metric of one workload over the seeds of
// a -repeat run.
type calibrationRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"` // 0: ungated
	Within   bool      `json:"within_bound"`
}

// runSets measures sets seeds per workload (the first one traced as well),
// writes the first set's document and, for more than one set, the spread of
// every end-to-end metric over the seeds: the interquartile range as a share
// of the median, which is what the driver holds against the metric's bound.
// It fails if an oracle did, or with check if a spread exceeds its bound.
func runSets(sets int, check bool, seed int64, measure time.Duration, outDir string) error {
	var docs []*document
	correct := true
	for i := 0; i < sets; i++ {
		d, err := runSet(seed+int64(i), measure, i == 0, outDir)
		if err != nil {
			return err
		}
		for _, wd := range d.Workloads {
			correct = correct && wd.Correct
		}
		docs = append(docs, d)
		if i == 0 {
			if err := writeJSON(filepath.Join(outDir, "ledger.json"), d); err != nil {
				return err
			}
		}
	}
	wide := 0
	if sets > 1 {
		var rows []calibrationRow
		fmt.Printf("\nspread over %d seeds (interquartile range / median)\n", sets)
		for _, wl := range workloads {
			row := func(m metricDef, pick func(*workloadDoc) map[string]reading) {
				r := calibrationRow{Workload: wl.name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
				for _, d := range docs {
					r.Values = append(r.Values, pick(d.Workloads[wl.name])[m.Name].Value)
				}
				s := summarize(r.Values, len(r.Values))
				r.Median, r.Min, r.Max, r.Spread = s.Median, s.Min, s.Max, spread(r.Values)
				// An ungated metric has no bound to exceed; setup_s is held
				// to its bound between sets of runs, not within one (the
				// driver's rule).
				r.Within = m.Bound == 0 || r.Spread <= m.Bound || m.Name == "setup_s"
				mark := ""
				switch {
				case m.Bound == 0:
					mark = "  (ungated)"
				case !r.Within:
					wide++
					mark = "  EXCEEDS BOUND"
				}
				fmt.Printf("%-18s %-14s median %14.4f  min %14.4f  max %14.4f  spread %6.3f%s\n", wl.name, m.Name, r.Median, r.Min, r.Max, r.Spread, mark)
				rows = append(rows, r)
			}
			for _, m := range endToEnd {
				row(m, func(wd *workloadDoc) map[string]reading { return wd.EndToEnd })
			}
			for _, m := range tailMetrics {
				row(m, func(wd *workloadDoc) map[string]reading { return wd.Tail })
			}
		}
		if err := writeJSON(filepath.Join(outDir, "calibration.json"), map[string]any{
			"environment": docs[0].Environment,
			"seeds":       sets,
			"rows":        rows,
		}); err != nil {
			return err
		}
	}
	switch {
	case !correct:
		return errors.New("an oracle failed; see the problems above")
	case check && wide > 0:
		return fmt.Errorf("%d end-to-end metrics spread wider than their bounds", wide)
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
