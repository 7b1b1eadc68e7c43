// Command nfvbench runs the repository's performance-trajectory benchmarks
// and writes the results as machine-readable JSON, so successive PRs can
// compare ns/op and allocs/op on the same scenarios.
//
// Usage:
//
//	nfvbench                      # run all scenarios, write BENCH.json
//	nfvbench -out results/BENCH.json
//	nfvbench -run Simulator       # only scenarios whose name contains the substring
//
// The scenario set mirrors the hot paths of the pipeline: the discrete-event
// simulator at small and large horizons (with and without drop-retransmit
// loss feedback), the KK-family partitioners at growing request counts, and
// the Solution document codec every solve job runs.
package main

import (
	"bytes"
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

	"context"

	"nfvchain/internal/cluster"
	"nfvchain/internal/control"
	"nfvchain/internal/core"
	"nfvchain/internal/dynamic"
	"nfvchain/internal/model"
	"nfvchain/internal/profiling"
	"nfvchain/internal/repair"
	"nfvchain/internal/rng"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/workload"
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
	for _, sc := range scenarios() {
		if *runFilter != "" && !strings.Contains(sc.name, *runFilter) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %-40s", sc.name)
		r := benchmarkFor(sc.fn)
		res := benchResult{
			Name:        sc.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
		}
		fmt.Fprintf(os.Stderr, " %12.0f ns/op %8d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no scenario matches -run %q", *runFilter)
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

// benchmarkFor runs fn under the testing benchmark driver (the standard ~1s
// budget) with allocation tracking.
func benchmarkFor(fn func(b *testing.B)) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
}

type scenario struct {
	name string
	fn   func(b *testing.B)
}

// scenarios returns the fixed trajectory suite. Names are stable across PRs
// — comparisons depend on them.
func scenarios() []scenario {
	out := []scenario{
		{"Simulator/second", simulatorSecond},
		{"Simulator/large-horizon", simulatorLargeHorizon},
		{"Simulator/large-horizon-reuse", simulatorLargeHorizonReuse},
		{"Simulator/deep-horizon", simulatorDeepHorizon},
		{"Simulator/stream-replay", simulatorStreamReplay},
		{"Simulator/bursty-classes", simulatorBurstyClasses},
		{"Simulator/drop-retransmit", simulatorDropRetransmit},
		{"Simulator/failure-churn", simulatorFailureChurn},
		{"Simulator/preemption-churn", simulatorPreemptionChurn},
		{"Simulator/cluster", simulatorCluster},
		{"Simulator/cluster-sequential", func(b *testing.B) { simulatorClusterWindowAB(b, 0) }},
		{"Simulator/cluster-parallel", func(b *testing.B) { simulatorClusterWindowAB(b, runtime.GOMAXPROCS(0)) }},
	}
	for _, n := range []int{250, 1000, 2000} {
		n := n
		out = append(out, scenario{
			fmt.Sprintf("RCKK/n=%d", n),
			func(b *testing.B) { partitionBench(b, scheduling.RCKK{}, n, 5) },
		})
	}
	out = append(out,
		scenario{"KKForward/n=250", func(b *testing.B) { partitionBench(b, scheduling.KKForward{}, 250, 5) }},
		scenario{"CKK/n=40", func(b *testing.B) { partitionBench(b, scheduling.CKK{MaxNodes: 20_000}, 40, 4) }},
		scenario{"Portfolio/anytime-race", portfolioAnytimeRace},
		scenario{"Codec/solution-encode", codecSolutionEncode},
		scenario{"Codec/solution-decode", codecSolutionDecode},
	)
	return out
}

// codecSolution solves a 500-request §V-A instance (demand scaled to 60% of
// capacity) with the default pipeline: the Solution document nfvd serves for
// a typical solve job.
func codecSolution(b *testing.B) *core.Solution {
	cfg := workload.DefaultConfig()
	cfg.Seed = 21
	cfg.NumRequests = 500
	prob, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scale := 0.6 * prob.TotalCapacity() / prob.TotalDemand()
	for i := range prob.VNFs {
		prob.VNFs[i].Demand *= scale
	}
	sol, err := core.Optimize(prob, core.Options{Seed: 21, LinkDelay: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	return sol
}

// codecSolutionEncode measures Solution.WriteJSON, the indented document
// every solve job returns.
func codecSolutionEncode(b *testing.B) {
	sol := codecSolution(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sol.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// codecSolutionDecode measures core.ReadSolutionJSON, validation included,
// as a client decodes a served solve result.
func codecSolutionDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := codecSolution(b).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReadSolutionJSON(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// portfolioAnytimeRace measures the full anytime-racing path (compile, the
// baseline + metaheuristic solvers at fixed iteration budgets, winner
// finalization with admission control) on a mid-size generated workload. One
// worker and a fixed seed make every iteration bit-identical, so allocs/op
// holds exactly under the strict comparison gate.
func portfolioAnytimeRace(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.NumVNFs = 8
	cfg.NumRequests = 60
	cfg.NumNodes = 6
	prob, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if total := prob.TotalDemand(); total > 0 {
		scale := 0.6 * prob.TotalCapacity() / total
		for i := range prob.VNFs {
			prob.VNFs[i].Demand *= scale
		}
	}
	lineup := []string{"greedy", "ffd", "sa:iters=1500;polish=500", "lns:iters=30", "pso:iters=10;particles=6"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveRace(context.Background(), prob, core.RaceOptions{
			Portfolio: lineup,
			Workers:   1,
			Seed:      7,
			LinkDelay: 0.001,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scenario bodies (mirroring bench_test.go fixtures) ---------------------

func threeStageFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 500},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 400},
			{ID: "f3", Instances: 1, Demand: 1, ServiceRate: 600},
		},
		Requests: []model.Request{
			{ID: "r", Chain: []model.VNFID{"f1", "f2", "f3"}, Rate: 200, DeliveryProb: 0.98},
		},
	}
	sched := model.NewSchedule()
	for _, f := range prob.VNFs {
		sched.Assign("r", f.ID, 0)
	}
	return prob, sched
}

// fleetFixture mirrors bench_test.go's largeHorizonFixture: 1500 pps over a
// 4-stage chain with every instance stable (ρ ≈ 0.75 at the hottest one).
func fleetFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 10000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f2", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f3", Instances: 1, Demand: 1, ServiceRate: 2000},
			{ID: "f4", Instances: 1, Demand: 1, ServiceRate: 2000},
		},
	}
	for i := 0; i < 5; i++ {
		prob.Requests = append(prob.Requests, model.Request{
			ID:    model.RequestID(fmt.Sprintf("r%d", i)),
			Chain: []model.VNFID{"f1", "f2", "f3", "f4"}, Rate: 300, DeliveryProb: 0.98,
		})
	}
	sched := model.NewSchedule()
	for i, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, i%f.Instances)
		}
	}
	return prob, sched
}

func simulatorSecond(b *testing.B) {
	prob, sched := threeStageFixture()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 1, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func simulatorLargeHorizon(b *testing.B) {
	prob, sched := fleetFixture()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// warmed runs one unmeasured iteration before the timed loop. Reuse-style
// scenarios grow the shared Simulator's arenas on their first run; folding
// that one-time growth into allocs/op makes the number depend on whatever
// iteration count the benchmark driver picked (flaky against the strict
// allocs gate). Warm first, then measure the deterministic steady state.
func warmed(b *testing.B, iter func(seed uint64)) {
	iter(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter(uint64(i))
	}
}

// simulatorLargeHorizonReuse is large-horizon through the Reset path: one
// Simulator serves every iteration, so the gap to Simulator/large-horizon is
// exactly the per-trial allocation cost sweeps save by reusing run state.
func simulatorLargeHorizonReuse(b *testing.B) {
	prob, sched := fleetFixture()
	sim := simulate.NewSimulator()
	warmed(b, func(seed uint64) {
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: seed,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// simulatorDeepHorizon stretches the fleet workload to a 300 s horizon —
// about 4.5M events, ten times the large-horizon run. Reuses one Simulator
// so allocs/op reflects steady-state sweeps.
func simulatorDeepHorizon(b *testing.B) {
	prob, sched := fleetFixture()
	sim := simulate.NewSimulator()
	warmed(b, func(seed uint64) {
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 300, Warmup: 2, Seed: seed,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// simulatorStreamReplay is the large-horizon fleet workload arriving through
// the streaming trace cursor: per-request Poisson sources superposed by a
// MergedStream feed Config.TraceStream one row at a time, with the
// ExpectedArrivals hint standing in for the exact trace length a CSV replay
// would have learned from its analysis pass. Measures the pull-based arrival
// path (one staged event per cursor) against the push-everything baseline of
// Simulator/large-horizon-reuse.
func simulatorStreamReplay(b *testing.B) {
	prob, sched := fleetFixture()
	sim := simulate.NewSimulator()
	warmed(b, func(seed uint64) {
		srcs, err := workload.TraceSources(prob, workload.InterArrivalExponential, seed)
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: seed,
			TraceStream:      workload.NewMergedStream(srcs),
			ExpectedArrivals: 45_000, // ~1500 pps × 30 s
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// simulatorBurstyClasses drives the fleet with the heavy-traffic client-class
// mix (steady/diurnal/bursty) through Config.Sources — the generator tier's
// hot path: NHPP thinning and MMPP epoch-walking inside the event loop.
func simulatorBurstyClasses(b *testing.B) {
	prob, sched := fleetFixture()
	sim := simulate.NewSimulator()
	warmed(b, func(seed uint64) {
		cw, err := workload.BuildSources(prob, workload.DefaultClasses(), seed)
		if err != nil {
			b.Fatal(err)
		}
		srcs := make(map[model.RequestID]simulate.ArrivalSource, len(cw.Sources))
		for id, s := range cw.Sources {
			srcs[id] = s
		}
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: seed,
			Sources: srcs,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// clusterFixture is a compact two-stage datacenter: one request generating
// local traffic plus one cluster-routed global flow sharing the same chain.
func clusterFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 500},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 600},
		},
		Requests: []model.Request{
			{ID: "local", Chain: []model.VNFID{"f1", "f2"}, Rate: 150, DeliveryProb: 0.98},
			{ID: "global", Chain: []model.VNFID{"f1", "f2"}, Rate: 150, DeliveryProb: 0.98},
		},
	}
	sched := model.NewSchedule()
	for _, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, 0)
		}
	}
	return prob, sched
}

// simulatorCluster composes 8 datacenter simulators under one global clock:
// each runs its own local Poisson traffic while a shared global flow is
// least-loaded-routed across them with a 5 ms WAN entry hop. Exercises the
// stepping primitives (peek/process), Inject, and the routing hot path.
func simulatorCluster(b *testing.B) {
	prob, sched := clusterFixture()
	const dcs = 8
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{
			WANLatency: 0.005,
			Router:     cluster.LeastLoaded{},
			Global:     []cluster.GlobalRequest{{ID: "global", Rate: 300, Home: 0}},
			Seed:       uint64(i),
		}
		for d := 0; d < dcs; d++ {
			cfg.Datacenters = append(cfg.Datacenters, cluster.Datacenter{
				Name: fmt.Sprintf("dc%d", d),
				Sim: simulate.Config{
					Problem: prob, Schedule: sched, Horizon: 10, Warmup: 1,
					Seed: uint64(i)*dcs + uint64(d),
				},
			})
		}
		c, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// simulatorClusterWindowAB is the sequential-vs-windowed A/B behind the
// Config.Workers knob: the same 8-datacenter composition as
// Simulator/cluster but with sparse global traffic (4 arrivals/s against
// ~300 pps of local load per datacenter), so each conservative window
// carries thousands of drainable events. workers = 0 measures the
// event-interleaved sequential driver, workers = GOMAXPROCS the windowed
// driver with the pool sized to the machine. Results are bit-identical; the
// scenarios differ only in driver overhead.
func simulatorClusterWindowAB(b *testing.B, workers int) {
	prob, sched := clusterFixture()
	const dcs = 8
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{
			WANLatency: 0.005,
			Router:     cluster.LeastLoaded{},
			Global:     []cluster.GlobalRequest{{ID: "global", Rate: 4, Home: 0}},
			Seed:       uint64(i),
			Workers:    workers,
		}
		for d := 0; d < dcs; d++ {
			cfg.Datacenters = append(cfg.Datacenters, cluster.Datacenter{
				Name: fmt.Sprintf("dc%d", d),
				Sim: simulate.Config{
					Problem: prob, Schedule: sched, Horizon: 25, Warmup: 1,
					Seed: uint64(i)*dcs + uint64(d),
				},
			})
		}
		c, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// simulatorDropRetransmit: a stable M/M/1/4 queue (ρ = 0.8) whose blocking
// losses are re-injected from the source (NACK loss feedback).
func simulatorDropRetransmit(b *testing.B) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f", Instances: 1, Demand: 1, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "r", Chain: []model.VNFID{"f"}, Rate: 80, DeliveryProb: 0.98},
		},
	}
	sched := model.NewSchedule()
	sched.Assign("r", "f", 0)
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: uint64(i),
			BufferSize: 3, DropPolicy: simulate.DropRetransmit, RetransmitDelay: 0.005,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// churnFixture spreads the fleet's chain over three nodes so a node failure
// takes out a whole VNF (the co-located worst case the repair controller is
// built for), with headroom left for replacement instances.
func churnFixture() (*model.Problem, *model.Schedule, *model.Placement) {
	prob := &model.Problem{
		Nodes: []model.Node{
			{ID: "a", Capacity: 6}, {ID: "b", Capacity: 6}, {ID: "c", Capacity: 6},
		},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f2", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f3", Instances: 1, Demand: 1, ServiceRate: 2000},
			{ID: "f4", Instances: 1, Demand: 1, ServiceRate: 2000},
		},
	}
	for i := 0; i < 5; i++ {
		prob.Requests = append(prob.Requests, model.Request{
			ID:    model.RequestID(fmt.Sprintf("r%d", i)),
			Chain: []model.VNFID{"f1", "f2", "f3", "f4"}, Rate: 300, DeliveryProb: 0.98,
		})
	}
	sched := model.NewSchedule()
	for i, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, i%f.Instances)
		}
	}
	pl := model.NewPlacement()
	pl.Assign("f1", "a")
	pl.Assign("f2", "b")
	pl.Assign("f3", "c")
	pl.Assign("f4", "c")
	return prob, sched, pl
}

// simulatorFailureChurn: the fleet workload under sustained node churn (MTBF
// = horizon/3, so roughly three outages per run) with failed packets
// retransmitted and a reschedule+replace repair controller booting ClickOS
// replacements mid-run. Measures the full self-healing path: fault events,
// epoch-guarded completions, RCKK rebalancing and BFDSU re-placement.
func simulatorFailureChurn(b *testing.B) {
	prob, sched, pl := churnFixture()
	const horizon = 30.0
	ctrl, err := repair.New(repair.Config{
		Problem:   prob,
		Placement: pl,
		Schedule:  sched,
		Mode:      repair.ModeRescheduleReplace,
		SetupCost: dynamic.SetupCostClickOS,
	})
	if err != nil {
		b.Fatal(err)
	}
	sim := simulate.NewSimulator()
	plan := &simulate.FaultPlan{MTBF: horizon / 3, MTTR: 2}
	warmed(b, func(seed uint64) {
		ctrl.Reset(seed)
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Placement: pl, LinkDelay: 0.001,
			Horizon: horizon, Warmup: 2, Seed: seed,
			FaultPlan:       plan,
			FailurePolicy:   simulate.FailRetransmit,
			RetransmitDelay: 0.01,
			FaultHook:       ctrl,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// simulatorPreemptionChurn: the churn fixture under correlated preemption —
// two-node groups lost together about four times per run, each announced
// 0.4 s ahead — managed by the autoscale+migrate control plane ticking every
// 0.5 s. Measures the full online-control path: preemption notices and
// ahead-of-loss evacuations, windowed utilization observation, autoscaling
// with ClickOS boot costs, live migration and deterministic admission
// shedding, all on top of the repair controller's fault handling.
func simulatorPreemptionChurn(b *testing.B) {
	prob, sched, pl := churnFixture()
	const horizon = 30.0
	ctrl, err := control.New(control.Config{
		Problem:       prob,
		Placement:     pl,
		Schedule:      sched,
		Policy:        control.PolicyAutoscaleMigrate,
		SetupCost:     dynamic.SetupCostClickOS,
		MigrationCost: dynamic.SetupCostClickOS,
	})
	if err != nil {
		b.Fatal(err)
	}
	sim := simulate.NewSimulator()
	plan := &simulate.FaultPlan{Preemption: &simulate.PreemptionPlan{
		MeanInterval: horizon / 4, GroupSize: 2, Recovery: 2, LeadTime: 0.4,
	}}
	warmed(b, func(seed uint64) {
		ctrl.Reset(seed)
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Placement: pl, LinkDelay: 0.001,
			Horizon: horizon, Warmup: 2, Seed: seed,
			FaultPlan:       plan,
			FailurePolicy:   simulate.FailRetransmit,
			RetransmitDelay: 0.01,
			FaultHook:       ctrl,
			Control:         ctrl,
			ControlInterval: 0.5,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

func partitionBench(b *testing.B, alg scheduling.Partitioner, n, m int) {
	s := rng.New(7)
	items := make([]scheduling.Item, n)
	for i := range items {
		items[i] = scheduling.Item{
			ID:     model.RequestID(fmt.Sprintf("r%04d", i)),
			Weight: s.Uniform(1, 100),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Partition(items, m); err != nil {
			b.Fatal(err)
		}
	}
}
