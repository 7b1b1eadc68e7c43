// Command nfvbench runs the repository's performance-trajectory benchmarks
// and writes the results as machine-readable JSON, so successive changes
// can compare ns/op and allocs/op on the same scenarios.
//
// Usage:
//
//	nfvbench                      # run all scenarios, write BENCH.json
//	nfvbench -out results/BENCH.json
//	nfvbench -run Simulator       # only scenarios whose name contains the substring
//	nfvbench -compare results/BENCH.json   # gate against a baseline instead
//
// The scenarios are internal/benchsuite's list (its package comment says
// what they cover), the same one `go test -bench Scenarios
// ./internal/benchsuite` runs. This command holds only the driver: flags,
// the run loop, BENCH.json I/O and the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"nfvchain/internal/benchsuite"
	"nfvchain/internal/profiling"
)

// benchResult is one scenario's measurement in BENCH.json.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// GOMAXPROCS pins the parallelism the scenario ran under. Parallel
	// scenarios (the windowed cluster driver) scale with it, so -compare
	// refuses to diff entries whose GOMAXPROCS differ. 0 in old baselines
	// means unrecorded and compares permissively.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
}

// benchEnv pins the machine state a measurement was taken under, so a
// trajectory diff can tell an optimization from a toolchain or host change.
type benchEnv struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"git_commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// benchFile is the top-level BENCH.json document. The legacy top-level
// go_version/goos/goarch fields stay for older tooling; Environment is the
// richer header new consumers should read.
type benchFile struct {
	GeneratedBy string        `json:"generated_by"`
	Date        string        `json:"date"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	Environment benchEnv      `json:"environment"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

// gitCommit resolves the short commit hash of the working tree: git first,
// then the binary's embedded VCS stamp, then "unknown" (e.g. a bare tarball).
func gitCommit() string {
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			return s
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	return "unknown"
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nfvbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nfvbench", flag.ContinueOnError)
	var (
		out       = fs.String("out", "BENCH.json", "output path for the JSON report")
		runFilter = fs.String("run", "", "only run scenarios whose name contains this substring")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		mutexProf = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blockProf = fs.String("blockprofile", "", "write a blocking profile to this file on exit")
		compare   = fs.String("compare", "", "compare against a baseline BENCH.json instead of writing a report; exits non-zero on regression")
		nsTol     = fs.Float64("ns-tolerance", 0.15, "fractional ns/op regression tolerated by -compare (allocs/op is always strict)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(profiling.Profiles{
		CPU: *cpuProf, Mem: *memProf, Mutex: *mutexProf, Block: *blockProf,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "nfvbench:", perr)
		}
	}()

	doc := benchFile{
		GeneratedBy: "nfvbench",
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Environment: benchEnv{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GitCommit:  gitCommit(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
	}
	doc.Benchmarks, err = measure(benchsuite.Scenarios(), *runFilter)
	if err != nil {
		return err
	}
	if *compare != "" {
		return compareBaseline(*compare, doc.Benchmarks, *nsTol, *runFilter != "")
	}

	if dir := filepath.Dir(*out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

// compareBaseline diffs the fresh measurements against a recorded baseline
// file, printing one line per scenario, and fails on any allocs/op increase
// or an ns/op regression beyond tol (a fraction, e.g. 0.15 = +15%).
// A scenario missing from the baseline is reported but never fails the
// gate, so adding a scenario does not require regenerating the baseline
// first. A baseline row the run did not produce is reported as "(not run)";
// when filtered is false (no -run filter) it also fails the gate, so a
// deleted or renamed scenario cannot slip out of the comparison unnoticed.
func compareBaseline(path string, got []benchResult, tol float64, filtered bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	baseline := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		if _, dup := baseline[b.Name]; dup {
			return fmt.Errorf("baseline %s: scenario %q has more than one row", path, b.Name)
		}
		baseline[b.Name] = b
	}
	var regressions []string
	compared := 0
	ran := make(map[string]bool, len(got))
	for _, g := range got {
		ran[g.Name] = true
		b, ok := baseline[g.Name]
		if !ok {
			fmt.Printf("%-34s %14.0f ns/op %8d allocs/op   (no baseline entry)\n",
				g.Name, g.NsPerOp, g.AllocsPerOp)
			continue
		}
		// ns/op of parallel scenarios scales with the core count they ran
		// under; diffing across machines with different GOMAXPROCS would
		// flag phantom regressions. 0 means an old baseline that never
		// recorded it — compare permissively.
		if b.GOMAXPROCS != 0 && g.GOMAXPROCS != 0 && b.GOMAXPROCS != g.GOMAXPROCS {
			fmt.Printf("%-34s skipped: GOMAXPROCS %d (baseline) vs %d (now)\n",
				g.Name, b.GOMAXPROCS, g.GOMAXPROCS)
			continue
		}
		compared++
		dNs := (g.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if g.AllocsPerOp > b.AllocsPerOp {
			verdict = "FAIL allocs/op"
			regressions = append(regressions, fmt.Sprintf(
				"%s: allocs/op %d -> %d", g.Name, b.AllocsPerOp, g.AllocsPerOp))
		}
		if dNs > tol {
			verdict = "FAIL ns/op"
			regressions = append(regressions, fmt.Sprintf(
				"%s: ns/op %.0f -> %.0f (%+.1f%%, tolerance %+.0f%%)",
				g.Name, b.NsPerOp, g.NsPerOp, 100*dNs, 100*tol))
		}
		fmt.Printf("%-34s ns/op %12.0f -> %12.0f (%+6.1f%%)   allocs/op %6d -> %6d   %s\n",
			g.Name, b.NsPerOp, g.NsPerOp, 100*dNs, b.AllocsPerOp, g.AllocsPerOp, verdict)
	}
	for _, b := range base.Benchmarks {
		if ran[b.Name] {
			continue
		}
		fmt.Printf("%-34s %14.0f ns/op %8d allocs/op   (not run)\n",
			b.Name, b.NsPerOp, b.AllocsPerOp)
		if !filtered {
			regressions = append(regressions, fmt.Sprintf(
				"%s: in the baseline but not run (deleted or renamed scenario?)", b.Name))
		}
	}
	if compared == 0 {
		return fmt.Errorf("no scenario in common with baseline %s", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchmark gate failed against %s:\n  %s",
			path, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("compared %d scenarios against %s: no regressions (ns/op tolerance %+.0f%%, allocs/op strict)\n",
		compared, path, 100*tol)
	return nil
}

// measure runs every scenario whose name contains filter under the testing
// benchmark driver (the standard ~1s budget) with allocation tracking. A
// scenario that fails (b.Fatal and friends) ends the run with an error
// naming it: testing.Benchmark discards the failure message and reports
// zero iterations, so the error says how to rerun the scenario under
// `go test`, which prints the message.
func measure(scs []benchsuite.Scenario, filter string) ([]benchResult, error) {
	// Outside a test binary the testing flags are unregistered, and a
	// failing benchmark dereferences them while formatting its message.
	testing.Init()
	var out []benchResult
	for _, sc := range scs {
		if filter != "" && !strings.Contains(sc.Name, filter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %-40s", sc.Name)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			sc.Run(b)
		})
		if r.N == 0 {
			fmt.Fprintln(os.Stderr, " FAILED")
			return nil, fmt.Errorf("scenario %s failed; see its message with\n  go test -run xxx -bench 'Scenarios/%s$' ./internal/benchsuite",
				sc.Name, sc.Name)
		}
		res := benchResult{
			Name:        sc.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
		}
		fmt.Fprintf(os.Stderr, " %12.0f ns/op %8d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
		out = append(out, res)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenario matches -run %q", filter)
	}
	return out, nil
}
