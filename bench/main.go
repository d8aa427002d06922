// Command bench is the repository's one benchmark: seeded end-to-end
// workloads against a real node on a modelled flush device, with a
// per-layer budget from a separate traced pass. README.md has the metric
// and workload definitions; BENCHMARK.json at the repository root has the
// contract the driver runs it by (through run.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envelope records where and on what a result file was measured.
type envelope struct {
	GitCommit   string    `json:"git_commit"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	NProc       int       `json:"nproc"`
	CPUModel    string    `json:"cpu_model"`
	DeviceModel string    `json:"device_model"`
	Started     time.Time `json:"started"`
}

// resultFile is what a run of the command leaves in the output directory
// and what -compare reads.
type resultFile struct {
	Envelope envelope  `json:"envelope"`
	Runs     []*report `json:"runs"`
}

func newEnvelope() envelope {
	env := envelope{GitCommit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", DeviceModel: deviceModel, Started: time.Now().UTC()}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

func main() { os.Exit(realMain()) }

// realMain is main with deferred clean-up: it returns the exit code.
func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
		seed         = flag.Uint64("seed", 1, "seed of the input generators; run i of -runs uses seed+i")
		seconds      = flag.Int("seconds", 10, "length of the measured window of one run")
		trace        = flag.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both: one of each")
		runs         = flag.Int("runs", 1, "runs per workload, each with the next seed")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result files and traces")
		dataDir      = flag.String("data", "", "directory for the nodes' data (default: <out>/data)")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return 0
	}
	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		selected = []*workload{w}
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace must be 0, 1 or both"))
	}
	if *seconds < 1 || *runs < 1 {
		fatal(fmt.Errorf("-seconds and -runs must be at least 1"))
	}
	if *dataDir == "" {
		*dataDir = filepath.Join(*outDir, "data")
	}
	dataRoot := filepath.Join(*dataDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)

	file := resultFile{Envelope: newEnvelope()}
	ok := true
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			for _, traced := range passes {
				rep, err := runWorkload(w, *seed+uint64(i), *seconds, traced, dataRoot, *outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 2
				}
				printReport(rep)
				file.Runs = append(file.Runs, rep)
				ok = ok && rep.Correct
			}
		}
	}
	name := fmt.Sprintf("results-%s-seed%d-trace%s.json", orAll(*workloadName), *seed, *trace)
	if err := writeResultFile(filepath.Join(*outDir, name), &file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if len(file.Runs) == 1 {
		printDriverLine(file.Runs[0])
	}
	if !ok {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func orAll(s string) string {
	if s == "" {
		return "all"
	}
	return s
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func writeResultFile(path string, f *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints every metric of a run by name and unit.
func printReport(r *report) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT: " + r.Detail
	}
	fmt.Printf("== %s  seed %d  %d s  %s  (%d inputs attempted, %d failed, %.1f s wall) %s\n",
		r.Workload, r.Seed, r.Seconds, pass, r.Attempted, r.Failed, r.WallS, verdict)
	for _, m := range endToEnd {
		fmt.Printf("  %-36s %14.4f %-9s repeats %s\n", m.name, r.EndToEnd[m.name].Value, m.unit, fmtRepeats(r.Repeats[m.name]))
	}
	for _, name := range sortedKeys(r.Ungated) {
		fmt.Printf("  %-36s %14.4f (not gated)\n", name, r.Ungated[name])
	}
	fmt.Printf("  %-36s %v\n", "latency samples per repeat", r.Samples)
	if !r.Traced {
		return
	}
	for _, m := range perLayer {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, r.PerLayer[m.name].Value, m.unit)
	}
	if e2e := r.BudgetUs["e2e"]; e2e > 0 {
		fmt.Printf("  where a message's time goes: mean self time per span, as a share of the traced inputs' mean end-to-end time of %.0f us\n", e2e)
		for _, s := range budgetRows {
			fmt.Printf("    %-34s %10.1f us %6.1f %%\n", s, r.BudgetUs[s], 100*r.BudgetUs[s]/e2e)
		}
	}
}

// budgetRows are the spans of an input in the order it passes them.
var budgetRows = []string{"client.send", "gateway.admit_handler", "engine.pipeline_gap", "gateway.out_send", "sink.recv", "unaccounted"}

// fmtRepeats prints the first twelve values; the result file has them all.
func fmtRepeats(v []float64) string {
	parts := make([]string, 0, 13)
	for _, x := range v[:min(len(v), 12)] {
		parts = append(parts, fmt.Sprintf("%.4g", x))
	}
	if len(v) > 12 {
		parts = append(parts, fmt.Sprintf("... %d values", len(v)))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printDriverLine prints the one JSON object the driver reads from the
// last line of standard output.
func printDriverLine(r *report) {
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
