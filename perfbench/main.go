// Command perfbench is the repository's end-to-end benchmark. It starts nfvd
// in process on loopback (service.New behind an httptest server), drives it
// with a closed-loop client, checks every served document against the
// direct library call, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload solve|simulate|race|cluster --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// reports the per-layer metrics: it runs the workload with client-side
// spans, then replays the same inputs through the layers' public functions
// with a span around each call, and writes a Chrome trace-event file. See
// README.md for the workloads, the metrics and what each layer moves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nfvchain/internal/service"
)

// spec is a workload's fixed shape.
type spec struct {
	name string
	// http sends jobs to nfvd; otherwise a job is a library call.
	http bool
	// poll is the client's status poll interval, well below the median job.
	poll time.Duration
	// warmup is the number of set-up jobs.
	warmup int
	// fixedJobs is the job count at which peak memory is read and over which
	// the quality guards average, so neither depends on throughput.
	fixedJobs int
	newLoad   func() load
}

var specs = []spec{
	{name: "solve", http: true, poll: 250 * time.Microsecond, warmup: 20, fixedJobs: 400, newLoad: func() load { return &solveLoad{} }},
	{name: "simulate", http: true, poll: 2 * time.Millisecond, warmup: 4, fixedJobs: 100, newLoad: func() load { return &simulateLoad{} }},
	{name: "race", http: true, poll: 5 * time.Millisecond, warmup: 4, fixedJobs: 40, newLoad: func() load { return &raceLoad{} }},
	{name: "cluster", warmup: 2, fixedJobs: 50, newLoad: func() load { return &clusterLoad{} }},
}

const (
	setupRepeats = 5
	// traceDir receives the Chrome trace files; run.sh builds there too.
	traceDir = ".bench_build/perfbench"
	// runBudget bounds a whole run, set-up and verification included.
	runBudget = 170 * time.Second
	// benchWorkers is the nfvd and cluster worker count. Set-up and
	// measurement run on one core (GOMAXPROCS 1) with one client: on a
	// shared machine a second core comes and goes, and work spread over two
	// cores waits for it.
	benchWorkers = 1
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: solve|simulate|race|cluster")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	spinMS := fs.Float64("spin-ms", 0, "sensitivity check: CPU spin added to every nfvd request, in ms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	switch {
	case sp == nil:
		return fmt.Errorf("unknown workload %q (want solve|simulate|race|cluster)", *name)
	case !(*seconds > 0 && *seconds <= 60):
		return fmt.Errorf("--seconds %v outside (0,60]", *seconds)
	case *traceFlag != 0 && *traceFlag != 1:
		return fmt.Errorf("--trace %d: want 0 or 1", *traceFlag)
	case *spinMS < 0:
		return fmt.Errorf("--spin-ms %v is negative", *spinMS)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	window := time.Duration(*seconds * float64(time.Second))
	spin := time.Duration(*spinMS * float64(time.Millisecond))

	// One core until the measurement ends; verification uses them all.
	runtime.GOMAXPROCS(1)
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d spin_ms=%g\n", sp.name, *seed, *seconds, *traceFlag, *spinMS)
	fmt.Fprintf(out, "# go=%s GOMAXPROCS=%d nproc=%d workers=%d clients=1 poll=%v commit=%s source=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), benchWorkers, sp.poll, gitCommit(), sourceDigest())

	// Set-up (input generation, daemon boot, warm-up), repeated; the last
	// environment serves the measured jobs.
	var (
		e      *env
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if e != nil {
			e.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		kernel := kernelSamples(setupKernels)
		c0 := cpuTime()
		var err error
		if e, err = setup(ctx, sp, *seed, spin); err != nil {
			return err
		}
		raw := (cpuTime() - c0).Seconds()
		setups = append(setups, raw*refKernelMS/median(append(kernel, kernelSamples(setupKernels)...)))
	}
	defer e.close()
	runtime.GC()

	m := metrics{}
	if *traceFlag == 0 {
		lr := closedLoop(ctx, e, sp, window, nil)
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("measurement: %w", err)
		}
		runtime.GOMAXPROCS(runtime.NumCPU())
		attempted, failed, q := verifyAll(ctx, e.load, lr.recs, sp.fixedJobs)
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("verification: %w", err)
		}
		endToEnd(out, m, sp, lr, setups, q)
		return report(out, m, endToEndMetrics, attempted, failed)
	}

	// Traced: half the window through nfvd with client spans, half replaying
	// the same inputs through the layers with a span around each call.
	httpTr := newTracer()
	lr := closedLoop(ctx, e, sp, window/2, httpTr)
	var sm *service.Metrics
	if sp.http {
		sm = &service.Metrics{}
		if err := e.client.getJSON(ctx, "/metrics", sm); err != nil {
			return err
		}
	}
	rp, err := replayLoop(ctx, e.load, window/2, lr.recs)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	attempted, failed, q := verifyAll(ctx, e.load, lr.recs, sp.fixedJobs)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	endToEnd(out, metrics{}, sp, lr, setups, q)
	perLayer(out, m, sp, lr, sm, rp)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.json", sp.name, *seed))
	if err := writeChrome(path, httpTr, rp.tr); err != nil {
		return err
	}
	fmt.Fprintf(out, "# chrome trace: %s (pid 1: jobs through nfvd, pid 2: layer replay)\n", path)
	return report(out, m, perLayerMetrics, attempted, failed)
}

// env is one set-up: the workload's inputs and, for HTTP workloads, a
// running daemon with its client.
type env struct {
	load   load
	srv    *service.Server
	ts     *httptest.Server
	client *client
}

func setup(ctx context.Context, sp *spec, seed uint64, spin time.Duration) (*env, error) {
	e := &env{load: sp.newLoad()}
	if err := e.load.generate(seed); err != nil {
		return nil, fmt.Errorf("generate %s inputs: %w", sp.name, err)
	}
	if sp.http {
		e.srv = service.New(service.Config{Workers: benchWorkers})
		var h http.Handler = e.srv.Handler()
		if spin > 0 {
			h = spinning(h, spin)
		}
		e.ts = httptest.NewServer(h)
		e.client = &client{base: e.ts.URL, hc: &http.Client{Transport: &http.Transport{}}, poll: sp.poll}
	}
	// Warm-up: sp.warmup jobs on inputs the measured jobs never use.
	for k := 0; k < sp.warmup; k++ {
		if err := e.load.run(ctx, e.client, -1-k, nil, -1, &jobRecord{}); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *env) close() {
	if e.ts == nil {
		return
	}
	e.ts.Close()
	e.client.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // every job has finished; a timeout only cancels stragglers
}

// spinning adds a fixed CPU spin in front of every request, the
// benchmark's own sensitivity check.
func spinning(next http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
		next.ServeHTTP(w, r)
	})
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	recs    []*jobRecord // indexed by job
	elapsed time.Duration
	peakRSS float64   // MiB
	kernel  []float64 // ms, the kernel sample taken before each job
}

// The end-to-end timings are CPU time at a reference machine speed. The
// benchmark's machine is shared. Other tenants take turns on its cores,
// which stretches wall time but not the CPU time the process uses; with one
// client on one core, a job's CPU time is its latency on an idle machine.
// The speed of a core drifts too: a fixed compute kernel took from 0.60 to
// 0.86 ms in runs a few minutes apart, and job times moved with it. So
// before every timed piece of work the benchmark times a fixed kernel, and
// it scales the work's CPU time by refKernelMS over the median kernel time
// around it. A change to the program cannot change what the kernel
// measures: the kernel is the benchmark's own code, allocates nothing and
// stays in the L1 cache.
const (
	kernelIters = 280_000
	// refKernelMS defines the reference speed: the kernel's time there.
	refKernelMS = 0.5
	// kernelSpan is how many kernel samples on either side of a job join
	// the median that scales the job.
	kernelSpan = 4
	// setupKernels kernel samples are taken before and after each set-up.
	setupKernels = 5
)

var (
	kernelTable [1 << 11]uint64 // 16 KiB
	kernelSink  uint64
)

// kernelMS runs the fixed kernel once and returns its CPU time in ms.
func kernelMS() float64 {
	c0 := cpuTime()
	x := uint64(1)
	for i := 0; i < kernelIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		kernelTable[x>>53] += x
	}
	kernelSink += x
	return ms(cpuTime() - c0)
}

// kernelSamples runs the kernel n times.
func kernelSamples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = kernelMS()
	}
	return s
}

// atReference scales the raw times, kernel[k] having been taken just before
// raw[k], to the reference speed: each by refKernelMS over the median of
// the kernel samples of the kernelSpan jobs on either side of it.
func atReference(raw, kernel []float64) []float64 {
	out := make([]float64, len(raw))
	for k := range raw {
		lo, hi := max(0, k-kernelSpan), min(len(kernel), k+kernelSpan+1)
		out[k] = raw[k] * refKernelMS / median(kernel[lo:hi])
	}
	return out
}

// closedLoop runs one client that sends its next job only after the previous
// one completed, until window has passed. The job running at the end of the
// window runs to completion.
func closedLoop(ctx context.Context, e *env, sp *spec, window time.Duration, tr *tracer) loopResult {
	var lr loopResult
	start := time.Now()
	for i := 0; ctx.Err() == nil && time.Since(start) < window; i++ {
		lr.kernel = append(lr.kernel, kernelMS())

		rec := &jobRecord{}
		t0, c0 := time.Now(), cpuTime()
		root := tr.begin("job", -1, i)
		rec.err = e.load.run(ctx, e.client, i, tr, root, rec)
		tr.end(root)
		rec.latency, rec.cpu = time.Since(t0), cpuTime()-c0
		lr.recs = append(lr.recs, rec)
		if len(lr.recs) == sp.fixedJobs {
			lr.peakRSS = peakRSSMiB()
		}
	}
	lr.elapsed = time.Since(start)
	if lr.peakRSS == 0 {
		lr.peakRSS = peakRSSMiB()
	}
	return lr
}

// verifyAll checks every job: a job fails when it returned an error (a
// non-2xx answer, a failed job, a broken ledger) or its served output
// differs from the direct library call. It returns the attempted and
// failed counts and the quality of the solutions of the first qualityJobs
// jobs.
func verifyAll(ctx context.Context, l load, recs []*jobRecord, qualityJobs int) (attempted, failed int, q quality) {
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) || ctx.Err() != nil {
					return
				}
				err := recs[i].err
				var jq quality
				if err == nil {
					jq, err = l.verify(ctx, i, recs[i])
				}
				mu.Lock()
				if err != nil {
					if failed < 5 {
						fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", i, err)
					}
					failed++
				} else if i < qualityJobs {
					q.add(jq)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return len(recs), failed, q
}

// replayResult is the traced replay of a workload's inputs.
type replayResult struct {
	tr       *tracer
	stats    replayStats
	traced   []float64 // job milliseconds with spans recorded
	untraced []float64 // job milliseconds with the recorder off
	mismatch int       // replayed outputs that differ from the served ones
}

// replayLoop replays jobs 0, 1, ... until window has passed. Each input runs
// twice, traced and untraced, in alternating order, so the difference of the
// two medians is the tracing overhead.
func replayLoop(ctx context.Context, l load, window time.Duration, served []*jobRecord) (replayResult, error) {
	rp := replayResult{tr: newTracer()}
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		for pass := 0; pass < 2; pass++ {
			traced := (pass == 0) == (i%2 == 1)
			var tr *tracer
			if traced {
				tr = rp.tr
			}
			t0 := time.Now()
			st, err := l.replay(ctx, i, tr)
			elapsed := float64(time.Since(t0)) / float64(time.Millisecond)
			if err != nil {
				return rp, fmt.Errorf("job %d: %w", i, err)
			}
			if !traced {
				rp.untraced = append(rp.untraced, elapsed)
				continue
			}
			rp.traced = append(rp.traced, elapsed)
			rp.stats.add(st)
			if i < len(served) && served[i].err == nil && served[i].digest != st.digest {
				rp.mismatch++
			}
		}
	}
	return rp, nil
}

// metrics maps a metric name to its value.
type metrics map[string]float64

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"nodes_in_service", "count"},
	{"race_objective", "score"},
}

var perLayerMetrics = []metricDef{
	{"placement.bfdsu_ms", "ms"},
	{"placement.iterations", "count"},
	{"scheduling.rckk_ms", "ms"},
	{"scheduling.admission_ms", "ms"},
	{"scheduling.rejection_rate", "ratio"},
	{"model.problem_decode_ms", "ms"},
	{"model.validate_ms", "ms"},
	{"core.solution_encode_ms", "ms"},
	{"core.solution_decode_ms", "ms"},
	{"core.evaluate_ms", "ms"},
	{"simulate.reset_ms", "ms"},
	{"simulate.run_ms", "ms"},
	{"simulate.ns_per_pkt", "ns"},
	{"simulate.results_encode_ms", "ms"},
	{"simulate.results_decode_ms", "ms"},
	{"sim_pkts_per_s", "1/s"},
	{"portfolio.greedy.ms", "ms"},
	{"portfolio.ffd.ms", "ms"},
	{"portfolio.nah.ms", "ms"},
	{"portfolio.sa.ms", "ms"},
	{"portfolio.lns.ms", "ms"},
	{"portfolio.pso.ms", "ms"},
	{"portfolio.sa.iters_per_s", "1/s"},
	{"portfolio.lns.iters_per_s", "1/s"},
	{"portfolio.pso.iters_per_s", "1/s"},
	{"cluster.optimize_ms", "ms"},
	{"cluster.run_ms", "ms"},
	{"cluster.ns_per_pkt", "ns"},
	{"cluster.wan_hop_frac", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.polls_per_job", "count"},
	{"service.cache_hit_frac", "ratio"},
	{"service.server_p50_ms", "ms"},
	{"service.retained_jobs", "count"},
	{"service.result_kb", "KiB"},
	{"trace.uncovered_frac", "ratio"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
}

// tailBeyond is the number of samples tail_ms leaves beyond it.
const tailBeyond = 10

// tail returns the highest percentile with tailBeyond samples beyond it: the
// (tailBeyond+1)-th slowest sample, and that percentile. The percentile moves
// smoothly with the sample count, so runs of slightly different length
// measure the same point of the distribution. Below 2*tailBeyond samples it
// is the median.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n < 2*tailBeyond {
		return percentile(sorted, 50), 50
	}
	return sorted[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

// percentile interpolates linearly between closest ranks of sorted data.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd fills the end-to-end metrics of a closed-loop run and prints
// their context lines.
func endToEnd(out io.Writer, m metrics, sp *spec, lr loopResult, setups []float64, q quality) {
	cpu := make([]float64, len(lr.recs))
	for k, r := range lr.recs {
		cpu[k] = ms(r.cpu)
	}
	scaled := atReference(cpu, lr.kernel)
	var lat, wall []float64
	busy := 0.0 // ms at the reference speed
	fails := 0
	for k, r := range lr.recs {
		busy += scaled[k]
		if r.err != nil {
			fails++
			continue
		}
		lat = append(lat, scaled[k])
		wall = append(wall, ms(r.latency))
	}
	sort.Float64s(lat)
	sort.Float64s(wall)
	tv, tp := tail(lat)
	wallTail, _ := tail(wall)
	m["setup_s"] = median(setups)
	m["p50_ms"] = percentile(lat, 50)
	m["tail_ms"] = tv
	m["jobs_per_s"] = float64(len(lat)) / (busy / 1000)
	m["peak_rss_mb"] = lr.peakRSS
	if q.solutions > 0 {
		m["nodes_in_service"] = q.nodes / float64(q.solutions)
		m["race_objective"] = q.objective / float64(q.solutions)
	}
	fmt.Fprintf(out, "# jobs=%d failed=%d fail_frac=%.4f window=%.3fs setups_s=%v\n",
		len(lr.recs), fails, float64(fails)/math.Max(1, float64(len(lr.recs))), lr.elapsed.Seconds(), setups)
	fmt.Fprintf(out, "# timings are CPU time at the reference speed (kernel %.2f ms); kernel median here %.4f ms; wall clock: p50 %.4f ms, tail %.4f ms, %.4f jobs/s\n",
		refKernelMS, median(lr.kernel), percentile(wall, 50), wallTail, float64(len(lat))/lr.elapsed.Seconds())
	fmt.Fprintf(out, "# tail_ms is p%.2f with %d of %d samples beyond it; peak_rss_mb read after %d jobs\n",
		tp, min(tailBeyond, len(lat)/2), len(lat), min(sp.fixedJobs, len(lr.recs)))
	fmt.Fprintf(out, "# quality over %d served solutions: nodes_in_service %.4f, race_objective %.6f\n",
		q.solutions, m["nodes_in_service"], m["race_objective"])
	for _, d := range endToEndMetrics {
		fmt.Fprintf(out, "end_to_end %-18s %14.6f %s\n", d.name, m[d.name], d.unit)
	}
}

// perLayer fills the per-layer metrics from a traced run.
func perLayer(out io.Writer, m metrics, sp *spec, lr loopResult, sm *service.Metrics, rp replayResult) {
	lt := rp.tr.aggregate()
	jobs := float64(len(rp.traced))
	perJob := func(span string) float64 { return ms(lt.self[span]) / jobs }
	for _, name := range []string{
		"placement.bfdsu", "scheduling.rckk", "scheduling.admission", "model.problem_decode", "model.validate",
		"core.solution_encode", "core.solution_decode", "core.evaluate", "simulate.reset", "simulate.run",
		"simulate.results_encode", "simulate.results_decode", "cluster.run",
	} {
		m[name+"_ms"] = perJob(name)
	}
	if n := rp.stats.solutions; n > 0 {
		m["placement.iterations"] = float64(rp.stats.placementIters) / jobs
		m["scheduling.rejection_rate"] = rp.stats.rejectionRate / float64(n)
	}
	if rp.stats.generated > 0 {
		if lt.count["simulate.run"] > 0 {
			m["simulate.ns_per_pkt"] = float64(lt.self["simulate.run"]) / float64(rp.stats.generated)
		}
		if lt.count["cluster.run"] > 0 {
			m["cluster.ns_per_pkt"] = float64(lt.self["cluster.run"]) / float64(rp.stats.generated)
		}
	}
	for _, s := range []string{"greedy", "ffd", "nah", "sa", "lns", "pso"} {
		m["portfolio."+s+".ms"] = perJob("portfolio." + s)
		if busy := lt.self["portfolio."+s]; busy > 0 && (s == "sa" || s == "lns" || s == "pso") {
			m["portfolio."+s+".iters_per_s"] = float64(rp.stats.solverIters[s]) / busy.Seconds()
		}
	}
	if lt.count["cluster.optimize"] > 0 {
		m["cluster.optimize_ms"] = ms(lt.total["cluster.optimize"]) / jobs
	}
	if hops := rp.stats.wanHops + rp.stats.routedLocal; hops > 0 {
		m["cluster.wan_hop_frac"] = float64(rp.stats.wanHops) / float64(hops)
	}

	var ok, generated, polls, size float64
	var submit, wait, result time.Duration
	for _, r := range lr.recs {
		if r.err != nil {
			continue
		}
		ok++
		generated += float64(r.generated)
		polls += float64(r.polls)
		size += float64(r.size)
		submit += r.submit
		wait += r.wait
		result += r.result
	}
	m["sim_pkts_per_s"] = generated / lr.elapsed.Seconds()
	if sp.http && ok > 0 {
		m["service.submit_ms"] = ms(submit) / ok
		m["service.wait_ms"] = ms(wait) / ok
		m["service.result_ms"] = ms(result) / ok
		m["service.polls_per_job"] = polls / ok
		m["service.result_kb"] = size / ok / 1024
		m["service.cache_hit_frac"] = sm.Cache.HitRate
		m["service.server_p50_ms"] = sm.JobLatency.P50 * 1000
		for _, n := range sm.JobsByState {
			m["service.retained_jobs"] += float64(n)
		}
	}

	if lt.total["job"] > 0 {
		m["trace.uncovered_frac"] = float64(lt.self["job"]) / float64(lt.total["job"])
	}
	m["trace.traced_p50_ms"] = median(rp.traced)
	m["trace.untraced_p50_ms"] = median(rp.untraced)

	if sp.http && ok > 0 {
		fmt.Fprintf(out, "# served jobs: mean %.4f ms = submit %.4f + wait %.4f + result %.4f (client spans); replayed job p50 %.4f ms runs the same layers in one goroutine without HTTP\n",
			ms(submit+wait+result)/ok, ms(submit)/ok, ms(wait)/ok, ms(result)/ok, m["trace.untraced_p50_ms"])
	}
	fmt.Fprintf(out, "# replay: %d jobs traced, %d untraced; tracing overhead %+.2f%% of the untraced p50; %d replayed outputs differ from the served ones\n",
		len(rp.traced), len(rp.untraced), 100*(m["trace.traced_p50_ms"]/m["trace.untraced_p50_ms"]-1), rp.mismatch)
	fmt.Fprintf(out, "# self time per replayed job (ms), by span:\n")
	names := make([]string, 0, len(lt.self))
	for n := range lt.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt.self[names[i]] > lt.self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(out, "#   %-26s %10.4f  (%d spans)\n", n, ms(lt.self[n])/jobs, lt.count[n])
	}
	for _, d := range perLayerMetrics {
		fmt.Fprintf(out, "per_layer %-28s %14.6f %s\n", d.name, m[d.name], d.unit)
	}
}

// report prints the result line: the given metrics, all of them, with units.
func report(out io.Writer, m metrics, defs []metricDef, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(defs))
	for _, d := range defs {
		vals[d.name] = value{m[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
