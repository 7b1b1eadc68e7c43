package simulate

import (
	"math"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/queueing"
	"nfvchain/internal/stats"
	"nfvchain/internal/workload"
)

// singleQueueProblem is one request through one single-instance VNF.
func singleQueueProblem(lambda, mu, p float64) (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes:    []model.Node{{ID: "n", Capacity: 1000}},
		VNFs:     []model.VNF{{ID: "f", Instances: 1, Demand: 1, ServiceRate: mu}},
		Requests: []model.Request{{ID: "r", Chain: []model.VNFID{"f"}, Rate: lambda, DeliveryProb: p}},
	}
	sched := model.NewSchedule(model.Compile(prob))
	sched.Assign("r", "f", 0)
	return prob, sched
}

func TestRunValidation(t *testing.T) {
	prob, sched := singleQueueProblem(10, 100, 1)
	cases := map[string]Config{
		"nil problem":     {Schedule: sched, Horizon: 1},
		"nil schedule":    {Problem: prob, Horizon: 1},
		"zero horizon":    {Problem: prob, Schedule: sched},
		"warmup >= hz":    {Problem: prob, Schedule: sched, Horizon: 1, Warmup: 1},
		"negative warmup": {Problem: prob, Schedule: sched, Horizon: 1, Warmup: -0.1},
		"negative link":   {Problem: prob, Schedule: sched, Horizon: 1, LinkDelay: -1},
		"negative buffer": {Problem: prob, Schedule: sched, Horizon: 1, BufferSize: -1},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	t.Run("invalid schedule", func(t *testing.T) {
		bad := model.NewSchedule(model.Compile(prob))
		bad.Assign("ghost", "f", 0)
		if _, err := Run(Config{Problem: prob, Schedule: bad, Horizon: 1}); err == nil {
			t.Error("invalid schedule accepted")
		}
	})
}

func TestMM1AgreementWithTheory(t *testing.T) {
	lambda, mu := 50.0, 100.0
	prob, sched := singleQueueProblem(lambda, mu, 1)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 2000, Warmup: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want, err := (queueing.MM1{Lambda: lambda, Mu: mu}).MeanResponseTime()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Latency.Mean()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("simulated mean latency %v vs M/M/1 %v (>5%% off)", got, want)
	}
	// Utilization ≈ ρ = 0.5.
	util := res.Utilization[InstanceKey{VNF: "f", Instance: 0}]
	if math.Abs(util-0.5) > 0.03 {
		t.Errorf("utilization %v, want ≈0.5", util)
	}
	if res.Delivered == 0 || len(res.LatencySamples) != res.Latency.N() {
		t.Error("sample bookkeeping inconsistent")
	}
	if res.Retransmissions != 0 {
		t.Errorf("P=1 but %d retransmissions", res.Retransmissions)
	}
}

func TestLossFeedbackMatchesEffectiveRateTheory(t *testing.T) {
	// Paper Fig. 3 with one station: E[T] = 1/(Pµ − λ0).
	lambda, mu, p := 50.0, 100.0, 0.9
	prob, sched := singleQueueProblem(lambda, mu, p)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 3000, Warmup: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (p*mu - lambda)
	got := res.Latency.Mean()
	if math.Abs(got-want)/want > 0.06 {
		t.Errorf("mean latency %v vs theory %v", got, want)
	}
	if res.Retransmissions == 0 {
		t.Error("no retransmissions despite 10% loss")
	}
	// Utilization ≈ ρ = (λ/P)/µ.
	util := res.Utilization[InstanceKey{VNF: "f", Instance: 0}]
	wantUtil := lambda / p / mu
	if math.Abs(util-wantUtil) > 0.03 {
		t.Errorf("utilization %v, want ≈%v", util, wantUtil)
	}
}

func TestTandemChainMatchesJackson(t *testing.T) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 120},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 90},
		},
		Requests: []model.Request{{ID: "r", Chain: []model.VNFID{"f1", "f2"}, Rate: 40, DeliveryProb: 1}},
	}
	sched := model.NewSchedule(model.Compile(prob))
	sched.Assign("r", "f1", 0)
	sched.Assign("r", "f2", 0)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 2000, Warmup: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0/(120-40) + 1.0/(90-40)
	got := res.Latency.Mean()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("tandem latency %v vs Jackson %v", got, want)
	}
}

func TestLinkDelayAddsPerHop(t *testing.T) {
	prob := &model.Problem{
		Nodes: []model.Node{
			{ID: "n1", Capacity: 100},
			{ID: "n2", Capacity: 100},
		},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 200},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 200},
		},
		Requests: []model.Request{{ID: "r", Chain: []model.VNFID{"f1", "f2"}, Rate: 20, DeliveryProb: 1}},
	}
	sched := model.NewSchedule(model.Compile(prob))
	sched.Assign("r", "f1", 0)
	sched.Assign("r", "f2", 0)

	split := model.NewPlacement()
	split.Assign("f1", "n1")
	split.Assign("f2", "n2")
	const linkDelay = 0.5

	together := model.NewPlacement()
	together.Assign("f1", "n1")
	together.Assign("f2", "n1")

	resSplit, err := Run(Config{Problem: prob, Schedule: sched, Placement: split,
		LinkDelay: linkDelay, Horizon: 1000, Warmup: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	resTogether, err := Run(Config{Problem: prob, Schedule: sched, Placement: together,
		LinkDelay: linkDelay, Horizon: 1000, Warmup: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gap := resSplit.Latency.Mean() - resTogether.Latency.Mean()
	if math.Abs(gap-linkDelay) > 0.05 {
		t.Errorf("inter-node hop cost %v, want ≈%v (Eq. 16's L)", gap, linkDelay)
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	prob, sched := singleQueueProblem(30, 80, 0.95)
	cfg := Config{Problem: prob, Schedule: sched, Horizon: 200, Warmup: 10, Seed: 5}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Delivered != b.Delivered || a.Retransmissions != b.Retransmissions {
		t.Fatal("same seed, different counts")
	}
	if a.Latency.Mean() != b.Latency.Mean() {
		t.Fatal("same seed, different latency")
	}
	cfg.Seed = 6
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Delivered == a.Delivered && c.Latency.Mean() == a.Latency.Mean() {
		t.Error("different seeds produced identical runs")
	}
}

func TestFiniteBufferDrops(t *testing.T) {
	// Overloaded queue (λ > µ) with a tiny buffer must drop.
	prob, sched := singleQueueProblem(200, 100, 1)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 50, BufferSize: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("overloaded finite buffer dropped nothing")
	}
	// Unbounded buffer on the same overload drops nothing (queues grow).
	res2, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Dropped != 0 {
		t.Errorf("unbounded buffer dropped %d", res2.Dropped)
	}
	// The unstable queue must still stay ~fully utilized.
	if u := res2.Utilization[InstanceKey{VNF: "f", Instance: 0}]; u < 0.9 {
		t.Errorf("overloaded utilization %v, want ≈1", u)
	}
}

func TestFiniteBufferMatchesMM1K(t *testing.T) {
	// BufferSize B gives system capacity K = B+1 (waiting room + server).
	// The measured drop fraction must match the analytic blocking
	// probability of the M/M/1/K queue.
	lambda, mu := 80.0, 100.0
	const buffer = 4
	prob, sched := singleQueueProblem(lambda, mu, 1)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 3000, Warmup: 100,
		BufferSize: buffer, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := res.Delivered + res.Dropped
	if arrivals == 0 {
		t.Fatal("no arrivals")
	}
	dropFrac := float64(res.Dropped) / float64(arrivals)
	want, err := (MM1K{Lambda: lambda, Mu: mu, K: buffer + 1}).BlockingProb()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dropFrac-want) > 0.02 {
		t.Errorf("drop fraction %v vs M/M/1/K blocking %v", dropFrac, want)
	}
	// Mean sojourn of accepted packets matches too.
	wantT, err := (MM1K{Lambda: lambda, Mu: mu, K: buffer + 1}).MeanResponseTime()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Latency.Mean(); math.Abs(got-wantT)/wantT > 0.06 {
		t.Errorf("accepted-packet latency %v vs M/M/1/K %v", got, wantT)
	}
}

func TestTraceDrivenMode(t *testing.T) {
	prob, sched := singleQueueProblem(50, 150, 1)
	tr, err := workload.GenerateTrace(prob, 500, workload.InterArrivalExponential, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 500, Warmup: 25, Arrivals: tr.Cursor(), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (queueing.MM1{Lambda: 50, Mu: 150}).MeanResponseTime()
	if math.Abs(res.Latency.Mean()-want)/want > 0.1 {
		t.Errorf("trace-driven latency %v vs theory %v", res.Latency.Mean(), want)
	}
	// Same trace twice → identical arrival process.
	res2, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 500, Warmup: 25, Arrivals: tr.Cursor(), Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res2.Delivered {
		t.Error("trace-driven runs not reproducible")
	}
}

func TestSkipsUnscheduledRequests(t *testing.T) {
	// A request removed by admission control (absent from the schedule) must
	// generate no traffic.
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 100}},
		VNFs:  []model.VNF{{ID: "f", Instances: 1, Demand: 1, ServiceRate: 100}},
		Requests: []model.Request{
			{ID: "kept", Chain: []model.VNFID{"f"}, Rate: 20, DeliveryProb: 1},
			{ID: "rejected", Chain: []model.VNFID{"f"}, Rate: 20, DeliveryProb: 1},
		},
	}
	sched := model.NewSchedule(model.Compile(prob))
	sched.Assign("kept", "f", 0)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.PerRequest["rejected"]; ok {
		t.Error("rejected request has samples")
	}
	if res.PerRequest["kept"].N() == 0 {
		t.Error("kept request has no samples")
	}
}

func TestServiceDistributions(t *testing.T) {
	// Same load, three service distributions. Kingman's VUT formula ranks
	// them: deterministic < exponential < lognormal response time.
	lambda, mu := 70.0, 100.0
	results := map[ServiceDist]float64{}
	for _, dist := range []ServiceDist{ServiceDeterministic, ServiceExponential, ServiceLogNormal} {
		prob, sched := singleQueueProblem(lambda, mu, 1)
		res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 2000, Warmup: 100,
			ServiceDist: dist, Seed: 29})
		if err != nil {
			t.Fatal(err)
		}
		results[dist] = res.Latency.Mean()
		// Kingman prediction within 12% for each distribution.
		want, err := (queueing.Kingman{Lambda: lambda, Mu: mu, CA: 1, CS: dist.CV()}).MeanResponseTime()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Latency.Mean()-want)/want > 0.12 {
			t.Errorf("dist %d: simulated %v vs Kingman %v", dist, res.Latency.Mean(), want)
		}
		// Mean service rate preserved: utilization ≈ ρ regardless of shape.
		util := res.Utilization[InstanceKey{VNF: "f", Instance: 0}]
		if math.Abs(util-lambda/mu) > 0.03 {
			t.Errorf("dist %d: utilization %v, want ≈0.7", dist, util)
		}
	}
	if !(results[ServiceDeterministic] < results[ServiceExponential] &&
		results[ServiceExponential] < results[ServiceLogNormal]) {
		t.Errorf("latency ordering violated: %v", results)
	}
}

func TestServiceDistValidation(t *testing.T) {
	prob, sched := singleQueueProblem(10, 100, 1)
	if _, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 1, ServiceDist: ServiceDist(9)}); err == nil {
		t.Error("unknown service distribution accepted")
	}
	if ServiceExponential.CV() != 1 || ServiceDeterministic.CV() != 0 {
		t.Error("CV values wrong")
	}
	if cv := ServiceLogNormal.CV(); math.Abs(cv-math.Sqrt(math.E-1)) > 1e-12 {
		t.Errorf("lognormal CV = %v", cv)
	}
}

func TestMeanJobsMatchesEq10(t *testing.T) {
	// Paper Eq. 10: E[N] = ρ/(1−ρ). ρ = 0.6 → E[N] = 1.5.
	lambda, mu := 60.0, 100.0
	prob, sched := singleQueueProblem(lambda, mu, 1)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 3000, Warmup: 100, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	want, err := (queueing.MM1{Lambda: lambda, Mu: mu}).MeanJobs()
	if err != nil {
		t.Fatal(err)
	}
	got := res.MeanJobs[InstanceKey{VNF: "f", Instance: 0}]
	if math.Abs(got-want)/want > 0.06 {
		t.Errorf("time-averaged population %v vs E[N] = %v", got, want)
	}
	// Little's law on measured quantities: N̄ ≈ λ_eff · W̄.
	if math.Abs(got-lambda*res.Latency.Mean())/got > 0.06 {
		t.Errorf("Little's law violated: N̄=%v, λ·W̄=%v", got, lambda*res.Latency.Mean())
	}
}

func TestPacketConservation(t *testing.T) {
	// In a stable lossless system every generated packet is eventually
	// delivered; the ones still in flight at the horizon are the only gap.
	prob, sched := singleQueueProblem(50, 200, 1)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 500, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated == 0 {
		t.Fatal("no packets generated")
	}
	if res.Delivered > res.Generated {
		t.Errorf("delivered %d > generated %d", res.Delivered, res.Generated)
	}
	inFlight := res.Generated - res.Delivered - res.Dropped
	if inFlight < 0 {
		t.Errorf("negative in-flight count: %d", inFlight)
	}
	// ρ = 0.25, horizon 500s: at most a handful still queued at the end.
	if inFlight > 20 {
		t.Errorf("%d packets unaccounted for in a lightly loaded system", inFlight)
	}
	// Poisson arrival count sanity: λ·T = 25000 ± 5σ.
	if math.Abs(float64(res.Generated)-25000) > 5*math.Sqrt(25000) {
		t.Errorf("generated %d, want ≈25000", res.Generated)
	}
}

func TestPacketConservationWithDrops(t *testing.T) {
	prob, sched := singleQueueProblem(150, 100, 1)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 100, BufferSize: 2, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("expected drops")
	}
	inFlight := res.Generated - res.Delivered - res.Dropped
	if inFlight < 0 || inFlight > 4 { // at most buffer+in-service remain
		t.Errorf("in-flight = %d, want within [0, buffer+service]", inFlight)
	}
}

func TestPercentileTailFromSamples(t *testing.T) {
	prob, sched := singleQueueProblem(60, 100, 1)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 1000, Warmup: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	p99 := stats.Percentile(res.LatencySamples, 99)
	// Analytic p99 of M/M/1 sojourn: −ln(0.01)/(µ−λ).
	want, _ := (queueing.MM1{Lambda: 60, Mu: 100}).ResponseTimeQuantile(0.99)
	if math.Abs(p99-want)/want > 0.15 {
		t.Errorf("p99 %v vs theory %v", p99, want)
	}
	if p99 <= res.Latency.Mean() {
		t.Error("p99 below mean")
	}
}

func TestKleinrockMergeAtSharedInstance(t *testing.T) {
	// Two requests share one instance (the paper's Fig. 4 situation): the
	// merged stream must behave as one Poisson flow with the summed rate,
	// so the shared instance's response time follows M/M/1 at λ1+λ2.
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 100}},
		VNFs:  []model.VNF{{ID: "f", Instances: 1, Demand: 1, ServiceRate: 150}},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"f"}, Rate: 40, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"f"}, Rate: 50, DeliveryProb: 1},
		},
	}
	sched := model.NewSchedule(model.Compile(prob))
	sched.Assign("r1", "f", 0)
	sched.Assign("r2", "f", 0)
	res, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 2000, Warmup: 100, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	want, err := (queueing.MM1{Lambda: queueing.MergeRates(40, 50), Mu: 150}).MeanResponseTime()
	if err != nil {
		t.Fatal(err)
	}
	// Both requests see the same merged-queue latency.
	for _, id := range []model.RequestID{"r1", "r2"} {
		got := res.PerRequest[id].Mean()
		if math.Abs(got-want)/want > 0.06 {
			t.Errorf("%s latency %v vs merged M/M/1 %v", id, got, want)
		}
	}
	// Utilization reflects the merged rate.
	util := res.Utilization[InstanceKey{VNF: "f", Instance: 0}]
	if math.Abs(util-0.6) > 0.03 {
		t.Errorf("utilization %v, want ≈0.6", util)
	}
}
