package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"nfvchain/internal/cluster"
	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
	"nfvchain/internal/workload"
)

// Exact rate scaling. Eq. 11's W = 1/(P·µ − Σλ) is homogeneous of degree −1
// in the rates, and scaling by a power of two is exact in IEEE-754. So
// doubling every λ_r and µ_f while halving every absolute time (link delay,
// horizon, warmup, WAN latency) must leave every decision unchanged and
// halve every latency bit for bit. A mismatch is a program bug — an absolute
// time constant or an order dependence — never a reason to drop the path.

// doubleRates returns a copy of p with every request rate λ_r and every
// service rate µ_f doubled.
func doubleRates(p *model.Problem) *model.Problem {
	q := &model.Problem{
		Nodes:    slices.Clone(p.Nodes),
		VNFs:     slices.Clone(p.VNFs),
		Requests: slices.Clone(p.Requests),
	}
	for i := range q.VNFs {
		q.VNFs[i].ServiceRate *= 2
	}
	for i := range q.Requests {
		q.Requests[i].Rate *= 2
	}
	return q
}

// halved reports whether got is exactly want/2.
func halved(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want/2)
}

// TestRateScalingSolve checks the solve path (Optimize + Evaluate) on 100
// seeds of the default workload: identical rejections and nodes in service,
// exactly halved total latency and mean response time.
func TestRateScalingSolve(t *testing.T) {
	const linkDelay = 0.001
	for seed := uint64(1); seed <= 100; seed++ {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		base, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		evaluate := func(p *model.Problem, link float64) (*Solution, *Evaluation) {
			t.Helper()
			sol, err := Optimize(p, Options{Seed: seed, LinkDelay: link})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ev, err := Evaluate(sol)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return sol, ev
		}
		sol, ev := evaluate(base, linkDelay)
		sol2, ev2 := evaluate(doubleRates(base), linkDelay/2)
		if !slices.Equal(sol2.Rejected, sol.Rejected) {
			t.Errorf("seed %d: rejected %v, want %v", seed, sol2.Rejected, sol.Rejected)
		}
		if ev2.NodesInService != ev.NodesInService {
			t.Errorf("seed %d: %d nodes in service, want %d", seed, ev2.NodesInService, ev.NodesInService)
		}
		if !halved(ev2.TotalLatency, ev.TotalLatency) {
			t.Errorf("seed %d: total latency %v, want exactly %v/2", seed, ev2.TotalLatency, ev.TotalLatency)
		}
		if !halved(ev2.AvgResponseTime, ev.AvgResponseTime) {
			t.Errorf("seed %d: mean response time %v, want exactly %v/2", seed, ev2.AvgResponseTime, ev.AvgResponseTime)
		}
	}
}

// TestRateScalingCluster checks the cluster path (OptimizeCluster +
// SimulateCluster over 4 regions) on 20 seeds, for every built-in router and
// both drivers: identical packet and WAN-hop counts, exactly halved mean
// latency.
func TestRateScalingCluster(t *testing.T) {
	const (
		linkDelay = 0.001
		horizon   = 1.0
		warmup    = 0.25
		wan       = 0.005
	)
	routers := []cluster.Router{cluster.LocalityFirst{}, cluster.LeastLoaded{}, cluster.Weighted{}}
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		base, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		optimize := func(p *model.Problem, scale float64) *ClusterSolution {
			t.Helper()
			cs, err := OptimizeCluster(p, ClusterOptions{
				Datacenters:    4,
				GlobalFraction: 0.25,
				Options:        Options{Seed: seed, LinkDelay: linkDelay * scale},
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return cs
		}
		cs, cs2 := optimize(base, 1), optimize(doubleRates(base), 0.5)
		for _, router := range routers {
			for _, workers := range []int{0, 1} {
				simulate := func(cs *ClusterSolution, scale float64) *cluster.Results {
					t.Helper()
					res, err := SimulateCluster(cs, ClusterSimConfig{
						Sim:        SimulationConfig{Horizon: horizon * scale, Warmup: warmup * scale, Seed: seed},
						WANLatency: wan * scale,
						Router:     router,
						Seed:       seed,
						Workers:    workers,
					})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					return res
				}
				res, res2 := simulate(cs, 1), simulate(cs2, 0.5)
				where := fmt.Sprintf("seed %d, %s, workers=%d", seed, router.Name(), workers)
				if res2.Generated != res.Generated || res2.Delivered != res.Delivered || res2.WANHops != res.WANHops {
					t.Errorf("%s: generated/delivered/WAN hops %d/%d/%d, want %d/%d/%d", where,
						res2.Generated, res2.Delivered, res2.WANHops, res.Generated, res.Delivered, res.WANHops)
				}
				if !halved(res2.Latency.Mean(), res.Latency.Mean()) {
					t.Errorf("%s: mean latency %v, want exactly %v/2", where, res2.Latency.Mean(), res.Latency.Mean())
				}
			}
		}
	}
}

// TestRateScalingReplay checks trace replay, the one arrival path of the
// DES: a trace drawn through a MergedStream is replayed on the solved
// problem, and again with every row time halved on the doubled-rate problem
// with link delay, horizon and warm-up halved. Every latency sample must be
// exactly halved, in the same order.
func TestRateScalingReplay(t *testing.T) {
	const (
		seed      = 5
		linkDelay = 0.001
		horizon   = 2.0
		warmup    = 0.25
	)
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.NumRequests = 60
	base, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := workload.TraceSources(base, workload.InterArrivalExponential, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, tr2 := &workload.Trace{Horizon: horizon}, &workload.Trace{Horizon: horizon / 2}
	for ms := workload.NewMergedStream(srcs); ; {
		at, id, _ := ms.NextArrival()
		if at >= horizon {
			break
		}
		tr.Arrivals = append(tr.Arrivals, workload.Arrival{Time: at, Request: id})
		tr2.Arrivals = append(tr2.Arrivals, workload.Arrival{Time: at / 2, Request: id})
	}
	replay := func(p *model.Problem, tr *workload.Trace, scale float64) *simulate.Results {
		t.Helper()
		sol, err := Optimize(p, Options{Seed: seed, LinkDelay: linkDelay * scale})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(sol, SimulationConfig{
			Horizon: horizon * scale, Warmup: warmup * scale, Seed: seed, Arrivals: tr.Cursor(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res, res2 := replay(base, tr, 1), replay(doubleRates(base), tr2, 0.5)
	if res.Delivered == 0 || len(res.LatencySamples) == 0 {
		t.Fatal("the replay measured nothing")
	}
	if res2.Generated != res.Generated || res2.Delivered != res.Delivered || len(res2.LatencySamples) != len(res.LatencySamples) {
		t.Fatalf("generated/delivered/samples %d/%d/%d, want %d/%d/%d",
			res2.Generated, res2.Delivered, len(res2.LatencySamples), res.Generated, res.Delivered, len(res.LatencySamples))
	}
	for i, lat := range res.LatencySamples {
		if !halved(res2.LatencySamples[i], lat) {
			t.Fatalf("latency sample %d: %v, want exactly %v/2", i, res2.LatencySamples[i], lat)
		}
	}
}

// TestRateScalingFaults checks the DES with finite buffers, faults and
// retransmission but no controller: BufferSize with DropRetransmit,
// FailRetransmit, an MTBF/MTTR chain on every node and one scheduled outage
// of a busy node. On the doubled-rate problem, with link delay, horizon,
// warm-up, RetransmitDelay, MTBF, MTTR and the outage times all halved,
// every ledger count must be identical and every latency sample and node
// downtime exactly halved.
func TestRateScalingFaults(t *testing.T) {
	const (
		seed      = 3
		linkDelay = 0.001
		horizon   = 3.0
		warmup    = 0.25
	)
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.NumRequests = 40
	base, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *model.Problem, s float64) *simulate.Results {
		t.Helper()
		sol, err := Optimize(p, Options{Seed: seed, LinkDelay: linkDelay * s})
		if err != nil {
			t.Fatal(err)
		}
		// The outage takes down the node of the first chain's first VNF.
		busy := sol.Placement.NodeOf[sol.Problem.Requests[0].Chain[0]]
		res, err := Simulate(sol, SimulationConfig{
			Horizon: horizon * s, Warmup: warmup * s, Seed: seed,
			BufferSize: 5, DropPolicy: simulate.DropRetransmit,
			FailurePolicy: simulate.FailRetransmit, RetransmitDelay: 0.05 * s,
			FaultPlan: &simulate.FaultPlan{
				MTBF: 6 * s, MTTR: 0.2 * s,
				Outages: []simulate.Outage{{Node: busy, DownAt: 1 * s, UpAt: 1.5 * s}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res, res2 := run(base, 1), run(doubleRates(base), 0.5)
	if res.Dropped == 0 || res.DropRetransmits == 0 || res.FailRetransmits == 0 || res.Retransmissions == 0 ||
		len(res.Downtime) < 2 || len(res.LatencySamples) == 0 {
		t.Fatalf("vacuous path: %d drops, %d drop and %d failure retransmits, %d NACKs, %d nodes down, %d samples",
			res.Dropped, res.DropRetransmits, res.FailRetransmits, res.Retransmissions, len(res.Downtime), len(res.LatencySamples))
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"generated", res2.Generated, res.Generated},
		{"delivered", res2.Delivered, res.Delivered},
		{"in flight", res2.InFlight, res.InFlight},
		{"dropped", res2.Dropped, res.Dropped},
		{"drop retransmits", res2.DropRetransmits, res.DropRetransmits},
		{"failure drops", res2.FailureDrops, res.FailureDrops},
		{"fail retransmits", res2.FailRetransmits, res.FailRetransmits},
		{"retransmissions", res2.Retransmissions, res.Retransmissions},
		{"latency samples", len(res2.LatencySamples), len(res.LatencySamples)},
		{"nodes with downtime", len(res2.Downtime), len(res.Downtime)},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d, want %d", c.name, c.got, c.want)
		}
	}
	for i, lat := range res.LatencySamples {
		if i < len(res2.LatencySamples) && !halved(res2.LatencySamples[i], lat) {
			t.Fatalf("latency sample %d: %v, want exactly %v/2", i, res2.LatencySamples[i], lat)
		}
	}
	for n, d := range res.Downtime {
		if !halved(res2.Downtime[n], d) {
			t.Errorf("node %s downtime %v, want exactly %v/2", n, res2.Downtime[n], d)
		}
	}
}

// Relabeling. Prefixing every node, VNF and request ID with one common
// prefix keeps their order, and the solve path depends on IDs only through
// that order (index layout, tie-breaks, JSON key order). So the relabeled
// problem must solve to the same objective bits and to the same solution
// document once the prefix is stripped. The DES is not relabel-invariant by
// design: rng.Derive keys each of its streams by an ID.

// relabelPrefix is prepended to every ID; it occurs nowhere else in a
// solution document.
const relabelPrefix = "~rl~"

// relabeled returns a copy of p with relabelPrefix before every ID.
func relabeled(p *model.Problem) *model.Problem {
	q := &model.Problem{
		Nodes:    slices.Clone(p.Nodes),
		VNFs:     slices.Clone(p.VNFs),
		Requests: slices.Clone(p.Requests),
	}
	for i := range q.Nodes {
		q.Nodes[i].ID = relabelPrefix + q.Nodes[i].ID
	}
	for i := range q.VNFs {
		q.VNFs[i].ID = relabelPrefix + q.VNFs[i].ID
	}
	for i := range q.Requests {
		r := &q.Requests[i]
		r.ID = relabelPrefix + r.ID
		r.Chain = slices.Clone(r.Chain)
		for j := range r.Chain {
			r.Chain[j] = relabelPrefix + r.Chain[j]
		}
	}
	return q
}

// TestRelabelSolve checks the solve path (Optimize + Evaluate + WriteJSON)
// on 100 seeds of the default workload: identical objective bits, and the
// relabeled solution document equals the original with the prefix removed.
func TestRelabelSolve(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		base, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		solve := func(p *model.Problem) (*Evaluation, []byte) {
			t.Helper()
			sol, err := Optimize(p, Options{Seed: seed, LinkDelay: 0.001})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ev, err := Evaluate(sol)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var doc bytes.Buffer
			if err := sol.WriteJSON(&doc); err != nil {
				t.Fatal(err)
			}
			return ev, doc.Bytes()
		}
		ev, doc := solve(base)
		ev2, doc2 := solve(relabeled(base))
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"total latency", ev2.TotalLatency, ev.TotalLatency},
			{"mean response time", ev2.AvgResponseTime, ev.AvgResponseTime},
			{"mean utilization", ev2.AvgUtilization, ev.AvgUtilization},
			{"resource occupation", ev2.ResourceOccupation, ev.ResourceOccupation},
			{"nodes in service", float64(ev2.NodesInService), float64(ev.NodesInService)},
		} {
			if math.Float64bits(m.got) != math.Float64bits(m.want) {
				t.Errorf("seed %d: relabeled %s %v, want %v", seed, m.name, m.got, m.want)
			}
		}
		if stripped := bytes.ReplaceAll(doc2, []byte(`"`+relabelPrefix), []byte(`"`)); !bytes.Equal(stripped, doc) {
			t.Errorf("seed %d: relabeled solution document differs once the prefix is stripped", seed)
		}
	}
}
