// Command nfvsim runs the nfvchain pipeline and regenerates the evaluation
// figures of the ICDCS'17 paper "Joint Optimization of Chain Placement and
// Request Scheduling for Network Function Virtualization".
//
// Usage:
//
//	nfvsim -list                       # list available experiments
//	nfvsim -fig fig5                   # regenerate one figure
//	nfvsim -fig all -fast              # all figures with reduced averaging
//	nfvsim -fig fig11 -csv out/        # also write CSV series
//	nfvsim -demo                       # run the pipeline on one workload
//	nfvsim -demo -simulate             # … and validate with the simulator
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nfvchain/internal/experiment"
	"nfvchain/internal/model"
	"nfvchain/internal/profiling"
	"nfvchain/internal/stats"

	nfvchain "nfvchain"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nfvsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	return runTo(args, os.Stdout)
}

// runTo is run with an explicit stdout, so tests can capture machine-readable
// output (-json) without redirecting the process's file descriptors.
func runTo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nfvsim", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list available experiments and exit")
		fig        = fs.String("fig", "", `experiment to run ("fig5"…"fig16", "tail", or "all")`)
		fast       = fs.Bool("fast", false, "reduced averaging (quick, noisier curves)")
		seed       = fs.Uint64("seed", 1, "random seed")
		placeTr    = fs.Int("placement-trials", 0, "override placement trials per point")
		schedTr    = fs.Int("scheduling-trials", 0, "override scheduling trials per point")
		csvDir     = fs.String("csv", "", "directory to write per-figure CSV files")
		plot       = fs.Bool("plot", false, "render each figure as an ASCII chart instead of a table")
		demo       = fs.Bool("demo", false, "run the joint pipeline on a generated workload")
		solve      = fs.String("solve", "", "run the joint pipeline on a problem JSON file (see cmd/tracegen)")
		solOut     = fs.String("out", "", "with -demo/-solve: write the solution (problem+placement+schedule) as JSON")
		simulateIt = fs.Bool("simulate", false, "with -demo: also run the discrete-event simulator")
		jsonOut    = fs.Bool("json", false, "with -simulate: write the simulation Results JSON to stdout (the nfvd wire format) instead of the text report; progress goes to stderr")
		placer     = fs.String("placer", "bfdsu", "placement algorithm: bfdsu|ffd|bfd|wfd|nah|exact")
		scheduler  = fs.String("scheduler", "rckk", "scheduling algorithm: rckk|cga|ckk|roundrobin|exact")
		solver     = fs.String("solver", "", `with -demo/-solve: race a solver portfolio instead of one placer+scheduler pair: "portfolio" (default lineup) or "portfolio:spec,spec,..." — e.g. "portfolio:greedy,sa:iters=20000;t0=2.0,lns" (commas separate specs, semicolons separate a spec's parameters)`)
		deadline   = fs.Int("deadline-ms", 0, "with -solver portfolio: wall-clock deadline in milliseconds; the race returns its best-so-far incumbent when it expires (0 = run every solver to its iteration budget)")
		improve    = fs.Bool("improve", false, "polish placement and schedule with local search")
		requests   = fs.Int("requests", 200, "with -demo: number of requests")
		vnfs       = fs.Int("vnfs", 15, "with -demo: number of VNFs")
		nodes      = fs.Int("nodes", 10, "with -demo: number of nodes")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file on exit")
		mutexProf  = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		blockProf  = fs.String("blockprofile", "", "write a blocking profile to this file on exit")

		datacenters = fs.Int("datacenters", 1, "with -demo: partition the workload across N datacenters and co-simulate them under one global clock")
		wanLatency  = fs.Float64("wan-latency", 0.005, "with -datacenters: inter-datacenter entry-hop latency in seconds")
		routeStr    = fs.String("route", "locality", "with -datacenters: cross-datacenter routing policy: locality|least-loaded|weighted")
		globalFrac  = fs.Float64("global-fraction", 0.25, "with -datacenters: fraction of requests promoted to cluster-level flows routed across datacenters")
		clusterWork = fs.Int("cluster-workers", 0, "with -datacenters: cluster execution driver: 0 = sequential event interleaving, >= 1 = conservative-window driver draining datacenters between routing barriers (in parallel on that many goroutines when > 1); results are bit-identical")

		workloadStr = fs.String("workload", "flat", "with -simulate: arrival workload: flat (homogeneous Poisson), classes (heterogeneous client classes: steady/diurnal/bursty), trace-stream (constant-memory CSV replay via -trace-file)")
		traceFile   = fs.String("trace-file", "", "with -workload trace-stream: trace CSV to replay (as written by cmd/tracegen)")

		mtbf       = fs.Float64("mtbf", 0, "with -simulate: mean time between node failures in seconds (0 disables fault injection)")
		mttr       = fs.Float64("mttr", 5, "with -simulate -mtbf: mean time to repair a failed node in seconds")
		failPolicy = fs.String("failurepolicy", "drop", "with -simulate -mtbf: fate of packets on failed nodes: drop|retransmit")
		repairMode = fs.String("repair", "none", "with -simulate -mtbf: self-healing mode: none|reschedule|replace")
		retrDelay  = fs.Float64("retransmit-delay", 0.005, "NACK round-trip before a dropped/failed packet is re-injected (seconds)")

		controlStr   = fs.String("control", "none", "with -simulate: online control plane policy: none|repair|autoscale|autoscale+migrate (subsumes -repair)")
		controlInt   = fs.Float64("control-interval", 1, "with -control: controller tick period in simulated seconds")
		preemptInt   = fs.Float64("preempt-interval", 0, "with -simulate: mean time between correlated preemption events in seconds (0 disables preemption)")
		preemptGroup = fs.Int("preempt-group", 2, "with -preempt-interval: nodes taken down together per preemption event")
		preemptRec   = fs.Float64("preempt-recovery", 5, "with -preempt-interval: seconds until a preempted group returns to service")
		preemptLead  = fs.Float64("preempt-lead", 0, "with -preempt-interval: advance-notice window before each preemption (0 disables notices)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && !*simulateIt {
		return fmt.Errorf("-json requires -simulate (it emits the simulation Results document)")
	}
	wl := workloadOptions{mode: *workloadStr, traceFile: *traceFile}
	if err := wl.validate(*simulateIt); err != nil {
		return err
	}
	out := output{stdout: stdout, json: *jsonOut}
	stopProf, err := profiling.Start(profiling.Profiles{
		CPU: *cpuProf, Mem: *memProf, Mutex: *mutexProf, Block: *blockProf,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "nfvsim:", perr)
		}
	}()

	pf, err := choosePortfolio(*solver, *deadline, *improve)
	if err != nil {
		return err
	}

	switch {
	case *list:
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return nil
	case *solve != "":
		algs, err := chooseAlgorithms(*placer, *scheduler, *seed)
		if err != nil {
			return err
		}
		faults, err := chooseFaults(*mtbf, *mttr, *failPolicy, *repairMode, *retrDelay)
		if err != nil {
			return err
		}
		ctrl, err := chooseControl(*controlStr, *controlInt, *preemptInt, *preemptGroup, *preemptRec, *preemptLead, faults)
		if err != nil {
			return err
		}
		return runSolve(*solve, *seed, *simulateIt, *solOut, algs, *improve, pf, faults, ctrl, wl, out)
	case *demo:
		algs, err := chooseAlgorithms(*placer, *scheduler, *seed)
		if err != nil {
			return err
		}
		faults, err := chooseFaults(*mtbf, *mttr, *failPolicy, *repairMode, *retrDelay)
		if err != nil {
			return err
		}
		ctrl, err := chooseControl(*controlStr, *controlInt, *preemptInt, *preemptGroup, *preemptRec, *preemptLead, faults)
		if err != nil {
			return err
		}
		if *datacenters > 1 {
			if *jsonOut {
				return fmt.Errorf("-json is not supported with -datacenters (cluster results are text-report only)")
			}
			if pf.enabled {
				return fmt.Errorf("-solver portfolio is not wired into cluster mode; drop -datacenters")
			}
			if wl.mode != "flat" {
				return fmt.Errorf("-workload %s is not wired into cluster mode from the CLI; drop -datacenters (the library supports per-flow sources via GlobalRequest.Source)", wl.mode)
			}
			if faults.mtbf > 0 {
				return fmt.Errorf("-mtbf fault injection is not wired into cluster mode; drop -datacenters or -mtbf")
			}
			if ctrl.enabled() {
				return fmt.Errorf("-control/-preempt-interval are not wired into cluster mode from the CLI; drop -datacenters (the library supports per-region hooks via ClusterSimConfig.FaultPlans/FaultHooks)")
			}
			router, err := nfvchain.NewClusterRouter(*routeStr)
			if err != nil {
				return err
			}
			if *clusterWork < 0 {
				return fmt.Errorf("-cluster-workers %d must be >= 0", *clusterWork)
			}
			cc := clusterOptions{
				datacenters: *datacenters,
				wanLatency:  *wanLatency,
				globalFrac:  *globalFrac,
				router:      router,
				workers:     *clusterWork,
			}
			return runClusterDemo(*seed, *vnfs, *requests, *nodes, *simulateIt, algs, cc, out)
		}
		return runDemo(*seed, *vnfs, *requests, *nodes, *simulateIt, *solOut, algs, *improve, pf, faults, ctrl, wl, out)
	case *fig != "":
		cfg := experiment.DefaultConfig()
		if *fast {
			cfg = experiment.FastConfig()
		}
		cfg.Seed = *seed
		if *placeTr > 0 {
			cfg.PlacementTrials = *placeTr
		}
		if *schedTr > 0 {
			cfg.SchedulingTrials = *schedTr
		}
		ids := []string{*fig}
		if *fig == "all" {
			ids = experiment.IDs()
			sort.Strings(ids)
		}
		for _, id := range ids {
			tab, err := experiment.Run(id, cfg)
			if err != nil {
				return err
			}
			if *plot {
				fmt.Println(tab.Plot(64, 16))
			} else {
				fmt.Println(tab)
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, tab); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -fig or -demo")
	}
}

func writeCSV(dir string, tab *experiment.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create csv dir: %w", err)
	}
	path := filepath.Join(dir, tab.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		_ = f.Close()
	}()
	if err := tab.WriteCSV(f); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Println("wrote", path)
	return nil
}

// output bundles where solveAndReport writes. In -json mode the Results
// document owns stdout and the human report moves to stderr, so the JSON can
// be piped or captured cleanly.
type output struct {
	stdout io.Writer
	json   bool
}

// report returns the destination for the human-readable lines.
func (o output) report() io.Writer {
	if o.json {
		return os.Stderr
	}
	return o.stdout
}

// faultOptions bundles the fault-injection flags; mtbf == 0 disables them.
type faultOptions struct {
	mtbf, mttr      float64
	policy          nfvchain.FailurePolicy
	repair          nfvchain.RepairMode
	retransmitDelay float64
}

func chooseFaults(mtbf, mttr float64, policy, repairMode string, retransmitDelay float64) (faultOptions, error) {
	out := faultOptions{mtbf: mtbf, mttr: mttr, retransmitDelay: retransmitDelay}
	switch policy {
	case "drop":
		out.policy = nfvchain.FailDrop
	case "retransmit":
		out.policy = nfvchain.FailRetransmit
	default:
		return out, fmt.Errorf("unknown failure policy %q (want drop|retransmit)", policy)
	}
	mode, err := nfvchain.ParseRepairMode(repairMode)
	if err != nil {
		return out, err
	}
	out.repair = mode
	return out, nil
}

// controlOptions bundles the online-control-plane flags: the -control policy
// plus the correlated-preemption knobs. policy == ControlNone and preempt ==
// nil leave the simulation exactly as before.
type controlOptions struct {
	policy   nfvchain.ControlPolicy
	interval float64
	preempt  *nfvchain.PreemptionPlan
}

// enabled reports whether any control-plane or preemption machinery is on.
func (c controlOptions) enabled() bool {
	return c.policy != nfvchain.ControlNone || c.preempt != nil
}

func chooseControl(policyStr string, interval, preemptInterval float64, group int, recovery, lead float64, faults faultOptions) (controlOptions, error) {
	out := controlOptions{interval: interval}
	policy, err := nfvchain.ParseControlPolicy(policyStr)
	if err != nil {
		return out, err
	}
	out.policy = policy
	if policy != nfvchain.ControlNone && faults.repair != nfvchain.RepairNone {
		return out, fmt.Errorf("-control %s subsumes -repair %s; drop one of them", policy, faults.repair)
	}
	if preemptInterval > 0 {
		out.preempt = &nfvchain.PreemptionPlan{
			MeanInterval: preemptInterval,
			GroupSize:    group,
			Recovery:     recovery,
			LeadTime:     lead,
		}
	}
	return out, nil
}

// workloadOptions bundles the -workload/-trace-file arrival-process flags;
// mode "flat" keeps the homogeneous-Poisson default.
type workloadOptions struct {
	mode      string
	traceFile string
}

func (w workloadOptions) validate(simulateIt bool) error {
	switch w.mode {
	case "flat", "classes", "trace-stream":
	default:
		return fmt.Errorf("unknown workload %q (want flat|classes|trace-stream)", w.mode)
	}
	if w.mode != "flat" && !simulateIt {
		return fmt.Errorf("-workload %s requires -simulate (it shapes the simulated arrival process)", w.mode)
	}
	if w.mode == "trace-stream" && w.traceFile == "" {
		return fmt.Errorf("-workload trace-stream requires -trace-file")
	}
	if w.mode != "trace-stream" && w.traceFile != "" {
		return fmt.Errorf("-trace-file requires -workload trace-stream")
	}
	return nil
}

// applyWorkload wires the -workload selection into the simulation config.
// classes installs per-request generator sources (reporting the class mix);
// trace-stream first makes a one-pass streaming analysis over the CSV —
// reporting workload-realism KPIs and learning the exact arrival count for
// the ExpectedArrivals hint, which sizes the latency-sample reservation —
// then attaches a fresh cursor for constant-memory replay. The returned cleanup closes any file the replay cursor holds open.
func applyWorkload(simCfg *nfvchain.SimulationConfig, wl workloadOptions, sol *nfvchain.Solution, seed uint64, rep io.Writer) (func(), error) {
	noop := func() {}
	switch wl.mode {
	case "classes":
		cw, err := nfvchain.BuildClassSources(sol.Problem, nfvchain.DefaultClientClasses(), seed)
		if err != nil {
			return noop, err
		}
		srcs := make(map[nfvchain.RequestID]nfvchain.ArrivalSource, len(cw.Sources))
		counts := map[string]int{}
		for id, s := range cw.Sources {
			srcs[id] = s
			counts[cw.Assignments[id].Class]++
		}
		simCfg.Sources = srcs
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(rep, "workload classes:")
		for _, name := range names {
			fmt.Fprintf(rep, " %s=%d", name, counts[name])
		}
		fmt.Fprintln(rep)
	case "trace-stream":
		// Analysis pass: one streaming read computes per-flow realism KPIs
		// and the exact arrival count, without materializing the trace.
		f, err := os.Open(wl.traceFile)
		if err != nil {
			return noop, fmt.Errorf("open %s: %w", wl.traceFile, err)
		}
		tstats, err := nfvchain.AnalyzeTraceCSV(f)
		_ = f.Close()
		if err != nil {
			return noop, err
		}
		arrivals, poissonLike := 0, 0
		var meanCV stats.Summary
		for _, st := range tstats {
			arrivals += st.Count
			if st.PoissonLike {
				poissonLike++
			}
			if st.Count >= 3 {
				meanCV.Add(st.CVGap)
			}
		}
		fmt.Fprintf(rep, "trace analysis (streaming): %d flows, %d arrivals, mean inter-arrival CV %.3f, %d/%d Poisson-like\n",
			len(tstats), arrivals, meanCV.Mean(), poissonLike, len(tstats))
		// Replay pass: a fresh cursor feeds the simulator one row at a time.
		f2, err := os.Open(wl.traceFile)
		if err != nil {
			return noop, fmt.Errorf("open %s: %w", wl.traceFile, err)
		}
		ts, err := nfvchain.NewTraceStream(f2)
		if err != nil {
			_ = f2.Close()
			return noop, err
		}
		simCfg.TraceStream = ts
		simCfg.ExpectedArrivals = arrivals
		return func() { _ = f2.Close() }, nil
	}
	return noop, nil
}

func runSolve(path string, seed uint64, simulate bool, solOut string, algs algorithms, improve bool, pf portfolioOptions, faults faultOptions, ctrl controlOptions, wl workloadOptions, out output) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	defer func() {
		_ = f.Close()
	}()
	p, err := model.ReadJSON(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(out.report(), "problem: %d VNFs, %d requests, %d nodes (from %s)\n",
		len(p.VNFs), len(p.Requests), len(p.Nodes), path)
	return solveAndReport(p, seed, simulate, solOut, algs, improve, pf, faults, ctrl, wl, out)
}

func runDemo(seed uint64, vnfs, requests, nodes int, simulate bool, solOut string, algs algorithms, improve bool, pf portfolioOptions, faults faultOptions, ctrl controlOptions, wl workloadOptions, out output) error {
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.Seed = seed
	cfg.NumVNFs = vnfs
	cfg.NumRequests = requests
	cfg.NumNodes = nodes
	p, err := nfvchain.GenerateWorkload(cfg)
	if err != nil {
		return err
	}
	// Rescale VNF demands to fill ~60% of the fleet so placement quality is
	// visible (the generator's catalog demands are sized for single-node
	// fits at these scales).
	if total := p.TotalDemand(); total > 0 {
		scale := 0.6 * p.TotalCapacity() / total
		for i := range p.VNFs {
			p.VNFs[i].Demand *= scale
		}
	}
	fmt.Fprintf(out.report(), "workload: %d VNFs, %d requests, %d nodes (seed %d)\n",
		len(p.VNFs), len(p.Requests), len(p.Nodes), seed)
	return solveAndReport(p, seed, simulate, solOut, algs, improve, pf, faults, ctrl, wl, out)
}

// clusterOptions bundles the -datacenters/-wan-latency/-route/-global-fraction
// flags for the multi-datacenter demo path.
type clusterOptions struct {
	datacenters int
	wanLatency  float64
	globalFrac  float64
	router      nfvchain.ClusterRouter
	workers     int
}

// runClusterDemo partitions a generated workload across N datacenters, solves
// each region with the two-phase pipeline, and (with -simulate) composes the
// per-region simulators under one global clock with WAN entry-hop latency.
func runClusterDemo(seed uint64, vnfs, requests, nodes int, simulate bool, algs algorithms, cc clusterOptions, out output) error {
	rep := out.report()
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.Seed = seed
	cfg.NumVNFs = vnfs
	cfg.NumRequests = requests
	cfg.NumNodes = nodes
	p, err := nfvchain.GenerateWorkload(cfg)
	if err != nil {
		return err
	}
	// Same demand rescale as runDemo so placement quality is visible.
	if total := p.TotalDemand(); total > 0 {
		scale := 0.6 * p.TotalCapacity() / total
		for i := range p.VNFs {
			p.VNFs[i].Demand *= scale
		}
	}
	fmt.Fprintf(rep, "workload: %d VNFs, %d requests, %d nodes per region, %d datacenters (seed %d)\n",
		len(p.VNFs), len(p.Requests), len(p.Nodes), cc.datacenters, seed)
	cs, err := nfvchain.OptimizeCluster(p, nfvchain.ClusterOptions{
		Datacenters:    cc.datacenters,
		GlobalFraction: cc.globalFrac,
		Options: nfvchain.Options{
			Seed:      seed,
			LinkDelay: 0.001,
			Placer:    algs.placer,
			Scheduler: algs.scheduler,
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(rep, "cluster: %d regions, %d global flows (%.0f%% promoted), routing %s, WAN hop %.1fms\n",
		len(cs.Regions), len(cs.Global), cc.globalFrac*100, cc.router.Name(), cc.wanLatency*1e3)
	for d, sol := range cs.Regions {
		ev, err := nfvchain.Evaluate(sol)
		if err != nil {
			return err
		}
		fmt.Fprintf(rep, "  %s: %d requests, %d nodes in service, avg utilization %.2f%%, rejected %d\n",
			cs.Names[d], len(sol.Problem.Requests), ev.NodesInService, ev.AvgUtilization*100, len(sol.Rejected))
	}
	if !simulate {
		return nil
	}
	res, err := nfvchain.SimulateCluster(cs, nfvchain.ClusterSimConfig{
		Sim:        nfvchain.SimulationConfig{Horizon: 60, Warmup: 10, Seed: seed},
		WANLatency: cc.wanLatency,
		Router:     cc.router,
		Seed:       seed,
		Workers:    cc.workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(rep, "simulated cluster: %d packets delivered, %d retransmitted, mean latency %.6fs, availability %.4f\n",
		res.Delivered, res.Retransmissions, res.Latency.Mean(), res.Availability)
	fmt.Fprintf(rep, "routing (%s): %d global arrivals served locally, %d WAN hops, %d rejected, %d truncated at horizon\n",
		res.Router, res.RoutedLocal, res.WANHops, res.Rejected, res.Truncated)
	for d, n := range res.RoutedByDC {
		fmt.Fprintf(rep, "  %s: %d global arrivals, %d packets delivered\n",
			res.Datacenters[d].Name, n, res.Datacenters[d].Results.Delivered)
	}
	return nil
}

// portfolioOptions bundles the -solver/-deadline-ms anytime-racing flags;
// enabled == false keeps the classic one-placer-one-scheduler pipeline.
type portfolioOptions struct {
	enabled    bool
	specs      []string
	deadlineMS int
}

// choosePortfolio parses "-solver portfolio" / "-solver portfolio:spec,...",
// validating the specs up front so bad spellings fail before any solving.
func choosePortfolio(solver string, deadlineMS int, improve bool) (portfolioOptions, error) {
	out := portfolioOptions{deadlineMS: deadlineMS}
	if solver == "" {
		if deadlineMS != 0 {
			return out, fmt.Errorf("-deadline-ms requires -solver portfolio")
		}
		return out, nil
	}
	if deadlineMS < 0 {
		return out, fmt.Errorf("-deadline-ms %d must be >= 0", deadlineMS)
	}
	if improve {
		return out, fmt.Errorf("-improve is built into the portfolio solvers; drop one of -improve/-solver")
	}
	switch {
	case solver == "portfolio":
		out.specs = nfvchain.DefaultPortfolio()
	case strings.HasPrefix(solver, "portfolio:"):
		out.specs = strings.Split(strings.TrimPrefix(solver, "portfolio:"), ",")
	default:
		return out, fmt.Errorf("unknown solver %q (want portfolio or portfolio:spec,spec,...)", solver)
	}
	if _, err := nfvchain.ParsePortfolioSpecs(out.specs); err != nil {
		return out, err
	}
	out.enabled = true
	return out, nil
}

// raceAndReport runs the anytime portfolio race and prints the incumbent
// trajectory plus each racer's final standing, returning the finalized
// winner for the usual evaluation/simulation path.
func raceAndReport(p *model.Problem, seed uint64, pf portfolioOptions, rep io.Writer) (*nfvchain.Solution, error) {
	ctx := context.Background()
	if pf.deadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(pf.deadlineMS)*time.Millisecond)
		defer cancel()
	}
	fmt.Fprintf(rep, "racing portfolio [%s], deadline %s\n",
		strings.Join(pf.specs, " "), deadlineLabel(pf.deadlineMS))
	sol, res, err := nfvchain.SolveRace(ctx, p, nfvchain.RaceOptions{
		Portfolio: pf.specs,
		Seed:      seed,
		LinkDelay: 0.001,
		OnIncumbent: func(inc nfvchain.PortfolioIncumbent) {
			fmt.Fprintf(rep, "  incumbent %-10s objective %.6f  iter %-7d %8.1fms\n",
				inc.Solver, inc.Objective, inc.Iteration, float64(inc.Elapsed.Microseconds())/1e3)
		},
	})
	if err != nil {
		return nil, err
	}
	for _, oc := range res.Outcomes {
		if oc.Err != "" {
			fmt.Fprintf(rep, "  solver %-10s failed: %s\n", oc.Solver, oc.Err)
			continue
		}
		fmt.Fprintf(rep, "  solver %-10s final objective %.6f after %d iterations\n",
			oc.Solver, oc.Objective, oc.Iterations)
	}
	status := "all solvers finished"
	if res.DeadlineExpired {
		status = "deadline expired, best-so-far returned"
	}
	fmt.Fprintf(rep, "race: winner %s (objective %.6f), %d incumbents published, %s\n",
		res.Best.Solver, res.Best.Objective, res.Published, status)
	return sol, nil
}

func deadlineLabel(ms int) string {
	if ms <= 0 {
		return "none (iteration budgets)"
	}
	return fmt.Sprintf("%dms", ms)
}

// algorithms bundles the user-selected pipeline strategies.
type algorithms struct {
	placer    nfvchain.PlacementAlgorithm
	scheduler nfvchain.SchedulingAlgorithm
}

func chooseAlgorithms(placer, scheduler string, seed uint64) (algorithms, error) {
	var out algorithms
	switch placer {
	case "bfdsu":
		out.placer = nfvchain.NewBFDSU(seed)
	case "ffd":
		out.placer = nfvchain.NewFFD()
	case "bfd":
		out.placer = nfvchain.NewBFD()
	case "wfd":
		out.placer = nfvchain.NewWFD()
	case "nah":
		out.placer = nfvchain.NewNAH()
	case "exact":
		out.placer = nfvchain.NewExactPlacer()
	default:
		return out, fmt.Errorf("unknown placer %q", placer)
	}
	switch scheduler {
	case "rckk":
		out.scheduler = nfvchain.NewRCKK()
	case "cga":
		out.scheduler = nfvchain.NewCGA()
	case "ckk":
		out.scheduler = nfvchain.NewCKK()
	case "roundrobin":
		out.scheduler = nfvchain.NewRoundRobin()
	case "exact":
		out.scheduler = nfvchain.NewExactScheduler()
	default:
		return out, fmt.Errorf("unknown scheduler %q", scheduler)
	}
	return out, nil
}

func solveAndReport(p *model.Problem, seed uint64, simulate bool, solOut string, algs algorithms, improve bool, pf portfolioOptions, faults faultOptions, ctrl controlOptions, wl workloadOptions, out output) error {
	rep := out.report()
	var sol *nfvchain.Solution
	var err error
	placerName, schedulerName := algs.placer.Name(), algs.scheduler.Name()
	if pf.enabled {
		placerName, schedulerName = "portfolio", "portfolio"
		sol, err = raceAndReport(p, seed, pf, rep)
	} else {
		sol, err = nfvchain.Optimize(p, nfvchain.Options{
			Seed:      seed,
			LinkDelay: 0.001,
			Placer:    algs.placer,
			Scheduler: algs.scheduler,
		})
	}
	if err != nil {
		return err
	}
	if improve {
		pl, err := nfvchain.ImprovePlacement(p, sol.Placement)
		if err != nil {
			return err
		}
		sol.Placement = pl
		// Improve only full schedules; post-admission schedules with
		// rejected requests are already per-instance stable.
		if len(sol.Rejected) == 0 {
			sched, err := nfvchain.ImproveSchedule(p, sol.Schedule)
			if err != nil {
				return err
			}
			sol.Schedule = sched
		}
		fmt.Fprintln(rep, "applied local-search polish (placement + schedule)")
	}
	ev, err := nfvchain.Evaluate(sol)
	if err != nil {
		return err
	}
	fmt.Fprintf(rep, "placement (%s): %d nodes in service, avg utilization %.2f%%, %d iterations\n",
		placerName, ev.NodesInService, ev.AvgUtilization*100, sol.PlacementIterations)
	fmt.Fprintf(rep, "scheduling (%s): mean W per instance %.6fs, rejected %d/%d requests (%.2f%%)\n",
		schedulerName, ev.AvgResponseTime, len(sol.Rejected), len(p.Requests), sol.RejectionRate*100)
	fmt.Fprintf(rep, "analytic mean request latency (Eq. 16): %.6fs\n", ev.MeanRequestLatency())

	if solOut != "" {
		f, err := os.Create(solOut)
		if err != nil {
			return fmt.Errorf("create %s: %w", solOut, err)
		}
		defer func() {
			_ = f.Close()
		}()
		if err := sol.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintln(rep, "wrote", solOut)
	}

	if !simulate {
		return nil
	}
	simCfg := nfvchain.SimulationConfig{Horizon: 60, Warmup: 10, Seed: seed}
	closeWorkload, err := applyWorkload(&simCfg, wl, sol, seed, rep)
	if err != nil {
		return err
	}
	defer closeWorkload()
	var repairCtrl *nfvchain.RepairController
	if faults.mtbf > 0 {
		simCfg.FaultPlan = &nfvchain.FaultPlan{MTBF: faults.mtbf, MTTR: faults.mttr}
		simCfg.FailurePolicy = faults.policy
		simCfg.RetransmitDelay = faults.retransmitDelay
		if faults.repair != nfvchain.RepairNone {
			repairCtrl, err = nfvchain.NewRepairController(nfvchain.RepairConfig{
				Problem:   sol.Problem,
				Placement: sol.Placement,
				Schedule:  sol.Schedule,
				Mode:      faults.repair,
				Seed:      seed,
			})
			if err != nil {
				return err
			}
			simCfg.FaultHook = repairCtrl
		}
	}
	if ctrl.preempt != nil {
		if simCfg.FaultPlan == nil {
			simCfg.FaultPlan = &nfvchain.FaultPlan{}
		}
		simCfg.FaultPlan.Preemption = ctrl.preempt
		simCfg.FailurePolicy = faults.policy
		simCfg.RetransmitDelay = faults.retransmitDelay
	}
	var poolCtrl *nfvchain.Controller
	if ctrl.policy != nfvchain.ControlNone {
		poolCtrl, err = nfvchain.NewController(nfvchain.ControlConfig{
			Problem:   sol.Problem,
			Placement: sol.Placement,
			Schedule:  sol.Schedule,
			Policy:    ctrl.policy,
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		// The controller owns both hook slots: node transitions (FaultHook)
		// and the periodic tick loop (Control).
		simCfg.FaultHook = poolCtrl
		simCfg.Control = poolCtrl
		simCfg.ControlInterval = ctrl.interval
	}
	res, err := nfvchain.Simulate(sol, simCfg)
	if err != nil {
		return err
	}
	if out.json {
		// Machine-readable mode: stdout carries exactly the Results document
		// the nfvd daemon serves (simulate.WriteJSON), nothing else.
		return res.WriteJSON(out.stdout)
	}
	// No packet may complete inside [warmup, horizon] (short horizon, long
	// warmup, or total buffer loss) — report "n/a" instead of panicking. One
	// PercentilesOK call sorts the sample set once for all three quantiles.
	tail := "p50/p95/p99 n/a"
	if qs, ok := stats.PercentilesOK(res.LatencySamples, 50, 95, 99); ok {
		tail = fmt.Sprintf("p50 %.6fs, p95 %.6fs, p99 %.6fs", qs[0], qs[1], qs[2])
	}
	fmt.Fprintf(rep, "simulated: %d packets delivered, %d retransmitted, mean latency %.6fs, %s\n",
		res.Delivered, res.Retransmissions, res.Latency.Mean(), tail)
	if faults.mtbf > 0 || ctrl.preempt != nil {
		var downtime float64
		for _, dt := range res.Downtime {
			downtime += dt
		}
		fmt.Fprintf(rep, "faults: availability %.4f, %d failure drops, %d failure retransmits, %.1f node-seconds of downtime across %d nodes\n",
			res.Availability, res.FailureDrops, res.FailRetransmits, downtime, len(res.Downtime))
		if repairCtrl != nil {
			st := repairCtrl.Stats()
			fmt.Fprintf(rep, "repair (%s): %d failures handled, %d reschedules, %d replacements booted (%d infeasible, %.1fs setup paid)\n",
				faults.repair, st.NodeFailures, st.Reschedules, st.Replacements, st.ReplacementsFailed, st.SetupSecs)
		}
	}
	if poolCtrl != nil {
		st := poolCtrl.StatsAt(simCfg.Horizon)
		fmt.Fprintf(rep, "control (%s): %d ticks, %d scale-ups, %d scale-downs, %d migrations, %d evacuations, %d admissions shed, %.1f node-seconds in service\n",
			ctrl.policy, st.Ticks, st.ScaleUps, st.ScaleDowns, st.Migrations, st.Evacuations, res.Shed, st.NodeSeconds)
	}
	return nil
}
