package control

import (
	"math"
	"slices"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
)

// Exact rate scaling of the controlled DES. Doubling every λ_r and µ_f while
// halving every absolute time (link delay, horizon, warm-up, tick interval,
// setup and migration costs, MTBF/MTTR, outage times, preemption interval,
// recovery and lead time, retransmit delay) halves every exponential draw
// bit for bit, since rng.Stream.Exp is ExpFloat64()/rate, and scaling by a
// power of two is exact in IEEE-754. Utilizations, coverage and RCKK's
// weight order are ratios or comparisons of equally scaled values, so every
// controller decision must replay and every time must halve exactly. A
// mismatch is a program bug — an absolute time constant or an order
// dependence — never a reason to drop a path from the property.

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

// scaledRun is one controlled path of the property: a fixture, a rung, and
// a simulation config whose every absolute time is multiplied by scale.
type scaledRun struct {
	name     string
	fixture  func(*testing.T) (*model.Problem, *model.Schedule, *model.Placement)
	policy   Policy
	horizon  float64
	interval float64 // tick period; 0 runs on node transitions alone
	plan     func(scale float64) *simulate.FaultPlan
}

// TestRateScalingControl checks the controller on two paths: the repair
// rung under random MTBF/MTTR faults and scheduled outages, with no ticks,
// and autoscale+migrate under announced preemptions with 0.5 s ticks. Both
// retransmit failed packets. The doubled-rate, half-time run must keep every
// packet count and controller count, and halve every latency sample, node
// downtime, and the setup, migration and node-seconds totals exactly.
func TestRateScalingControl(t *testing.T) {
	paths := []scaledRun{
		{"repair", outageFixture, PolicyRepair, 10, 0, func(s float64) *simulate.FaultPlan {
			return &simulate.FaultPlan{
				MTBF: 4 * s, MTTR: 1 * s,
				Outages: []simulate.Outage{{Node: "a", DownAt: 1 * s, UpAt: 4 * s}, {Node: "b", DownAt: 5 * s, UpAt: 8 * s}},
			}
		}},
		{"autoscale+migrate", hotFixture, PolicyAutoscaleMigrate, 12, 0.5, func(s float64) *simulate.FaultPlan {
			return &simulate.FaultPlan{Preemption: &simulate.PreemptionPlan{
				MeanInterval: 2.5 * s, GroupSize: 2, Recovery: 2 * s, LeadTime: 0.4 * s,
			}}
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			base, sched, pl := path.fixture(t)
			run := func(p *model.Problem, s float64) (*simulate.Results, Stats) {
				t.Helper()
				ctrl, err := New(Config{
					Problem: p, Placement: pl, Schedule: sched, Policy: path.policy,
					SetupCost: 0.05 * s, MigrationCost: 0.03 * s, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg := simulate.Config{
					Problem: p, Schedule: sched.For(p), Placement: pl,
					LinkDelay: 0.001 * s, Horizon: path.horizon * s, Warmup: 1 * s, Seed: 7,
					FaultPlan:     path.plan(s),
					FailurePolicy: simulate.FailRetransmit, RetransmitDelay: 0.01 * s,
					Controller: ctrl, ControlInterval: path.interval * s,
				}
				res, err := simulate.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, ctrl.StatsAt(cfg.Horizon)
			}
			res, st := run(base, 1)
			res2, st2 := run(doubleRates(base), 0.5)

			if res.FailRetransmits == 0 || st.Replacements+st.ScaleUps == 0 || len(res.LatencySamples) == 0 {
				t.Fatalf("vacuous path: %d fail retransmits, stats %+v, %d samples", res.FailRetransmits, st, len(res.LatencySamples))
			}
			type count struct {
				name      string
				got, want int
			}
			for _, c := range []count{
				{"generated", res2.Generated, res.Generated},
				{"delivered", res2.Delivered, res.Delivered},
				{"dropped", res2.Dropped, res.Dropped},
				{"failure drops", res2.FailureDrops, res.FailureDrops},
				{"shed", res2.Shed, res.Shed},
				{"in flight", res2.InFlight, res.InFlight},
				{"retransmissions", res2.Retransmissions, res.Retransmissions},
				{"fail retransmits", res2.FailRetransmits, res.FailRetransmits},
				{"latency samples", len(res2.LatencySamples), len(res.LatencySamples)},
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
			if len(res2.Downtime) != len(res.Downtime) {
				t.Errorf("%d nodes with downtime, want %d", len(res2.Downtime), len(res.Downtime))
			}
			secs, secs2 := st, st2
			secs.SetupSecs, secs.MigrationSecs, secs.NodeSeconds = 0, 0, 0
			secs2.SetupSecs, secs2.MigrationSecs, secs2.NodeSeconds = 0, 0, 0
			if secs2 != secs {
				t.Errorf("controller counts %+v, want %+v", secs2, secs)
			}
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{"setup seconds", st2.SetupSecs, st.SetupSecs},
				{"migration seconds", st2.MigrationSecs, st.MigrationSecs},
				{"node seconds", st2.NodeSeconds, st.NodeSeconds},
			} {
				if !halved(m.got, m.want) {
					t.Errorf("%s %v, want exactly %v/2", m.name, m.got, m.want)
				}
			}
		})
	}
}
