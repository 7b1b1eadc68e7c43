package scheduling

import (
	"bytes"
	"slices"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/workload"
)

// overloadProblem builds one VNF with two instances where instance 0 is
// overloaded (Λ ≥ µ) under the given schedule.
func overloadProblem() (*model.Problem, *model.Schedule) {
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f", Instances: 2, Demand: 10, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"f"}, Rate: 60, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"f"}, Rate: 50, DeliveryProb: 1},
			{ID: "r3", Chain: []model.VNFID{"f"}, Rate: 30, DeliveryProb: 1},
		},
	}
	s := model.NewSchedule(model.Compile(p))
	s.Assign("r1", "f", 0)
	s.Assign("r2", "f", 0) // instance 0: 110 ≥ 100 → overloaded
	s.Assign("r3", "f", 1)
	return p, s
}

func TestAdmissionControlDropsLightest(t *testing.T) {
	p, s := overloadProblem()
	res, err := ApplyAdmissionControl(p, s)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 0 carries r1 (60) and r2 (50): dropping the lightest request
	// (r2) restores Λ = 60 < 100 while shedding the least traffic.
	if len(res.Rejected) != 1 || res.Rejected[0] != "r2" {
		t.Fatalf("Rejected = %v, want [r2] (lightest on overloaded instance)", res.Rejected)
	}
	loads := res.Admitted.InstanceLoads(p, "f")
	if loads[0] >= 100 {
		t.Errorf("instance 0 still overloaded: %v", loads[0])
	}
	if _, ok := res.Admitted.Instance("r2", "f"); ok {
		t.Error("rejected request still scheduled")
	}
	if got := res.RejectionRate; got != 1.0/3 {
		t.Errorf("RejectionRate = %v, want 1/3", got)
	}
}

func TestAdmissionControlNoOpWhenStable(t *testing.T) {
	p, s := overloadProblem()
	s.Assign("r1", "f", 1) // move r1: loads 50 and 90, both stable
	res, err := ApplyAdmissionControl(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 0 || res.RejectionRate != 0 {
		t.Errorf("stable schedule rejected %v", res.Rejected)
	}
}

func TestAdmissionControlCascade(t *testing.T) {
	// A single instance so overloaded that several requests must go.
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs:  []model.VNF{{ID: "f", Instances: 1, Demand: 1, ServiceRate: 100}},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"f"}, Rate: 80, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"f"}, Rate: 70, DeliveryProb: 1},
			{ID: "r3", Chain: []model.VNFID{"f"}, Rate: 60, DeliveryProb: 1},
		},
	}
	s := model.NewSchedule(model.Compile(p))
	for _, r := range p.Requests {
		s.Assign(r.ID, "f", 0)
	}
	res, err := ApplyAdmissionControl(p, s)
	if err != nil {
		t.Fatal(err)
	}
	// 210 → drop r3 (150 left) → drop r2 (80 left) → stable.
	if len(res.Rejected) != 2 {
		t.Fatalf("Rejected = %v, want 2 drops", res.Rejected)
	}
	if res.Rejected[0] != "r2" || res.Rejected[1] != "r3" {
		t.Errorf("Rejected = %v, want lightest-first [r2 r3]", res.Rejected)
	}
	loads := res.Admitted.InstanceLoads(p, "f")
	if loads[0] >= 100 {
		t.Errorf("still overloaded: %v", loads[0])
	}
}

func TestAdmissionControlWholeChainRemoved(t *testing.T) {
	// Rejecting a request must remove it from every VNF in its chain.
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f", Instances: 1, Demand: 1, ServiceRate: 50},
			{ID: "g", Instances: 1, Demand: 1, ServiceRate: 500},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"f", "g"}, Rate: 60, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"g"}, Rate: 10, DeliveryProb: 1},
		},
	}
	s := model.NewSchedule(model.Compile(p))
	s.Assign("r1", "f", 0)
	s.Assign("r1", "g", 0)
	s.Assign("r2", "g", 0)
	res, err := ApplyAdmissionControl(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 1 || res.Rejected[0] != "r1" {
		t.Fatalf("Rejected = %v", res.Rejected)
	}
	if _, ok := res.Admitted.Instance("r1", "g"); ok {
		t.Error("rejected request survives on downstream VNF g")
	}
	if _, ok := res.Admitted.Instance("r2", "g"); !ok {
		t.Error("innocent request r2 was dropped")
	}
}

func TestAdmissionControlLossFeedbackPushesOverload(t *testing.T) {
	// λ = 95 stable at µ=100 with P=1, but λ/P ≈ 101 at P=0.94 → rejected.
	p := &model.Problem{
		Nodes:    []model.Node{{ID: "n", Capacity: 1000}},
		VNFs:     []model.VNF{{ID: "f", Instances: 1, Demand: 1, ServiceRate: 100}},
		Requests: []model.Request{{ID: "r", Chain: []model.VNFID{"f"}, Rate: 95, DeliveryProb: 0.94}},
	}
	s := model.NewSchedule(model.Compile(p))
	s.Assign("r", "f", 0)
	res, err := ApplyAdmissionControl(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 1 {
		t.Errorf("loss-inflated overload not rejected: %v", res.Rejected)
	}
}

func TestAdmissionControlInvalidSchedule(t *testing.T) {
	p, _ := overloadProblem()
	bad := model.NewSchedule(model.Compile(p))
	bad.Assign("ghost", "f", 0)
	if _, err := ApplyAdmissionControl(p, bad); err == nil {
		t.Error("invalid schedule accepted")
	}
}

// walkAdmission is admission control as it was written before the schedule
// had an index: Λ from InstanceLoads and victims found by walking every
// request with Instance lookups. ApplyAdmissionControl must reject exactly
// the same requests.
func walkAdmission(p *model.Problem, s *model.Schedule) ([]model.RequestID, *model.Schedule) {
	admitted := s.For(p).Clone()
	var rejected []model.RequestID
	for changed := true; changed; {
		changed = false
		for _, f := range p.VNFs {
			for k, load := range admitted.InstanceLoads(p, f.ID) {
				if load < f.ServiceRate {
					continue
				}
				victim := -1
				for ri, r := range p.Requests {
					kk, ok := admitted.Instance(r.ID, f.ID)
					if !ok || kk != k {
						continue
					}
					if v := victim; v < 0 || r.EffectiveRate() < p.Requests[v].EffectiveRate() ||
						r.EffectiveRate() == p.Requests[v].EffectiveRate() && r.ID < p.Requests[v].ID {
						victim = ri
					}
				}
				if victim >= 0 {
					admitted.Remove(victim)
					rejected = append(rejected, p.Requests[victim].ID)
					changed = true
				}
			}
		}
	}
	slices.Sort(rejected)
	return rejected, admitted
}

// TestAdmissionMatchesRequestWalk runs admission on 200 overloaded random
// problems and requires the request-walking version's rejections, rate and
// admitted schedule.
func TestAdmissionMatchesRequestWalk(t *testing.T) {
	rejections := 0
	for seed := uint64(1); seed <= 200; seed++ {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		cfg.NumRequests = 20 + int(seed%5)*20
		p, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.VNFs {
			p.VNFs[i].ServiceRate *= 0.3 + 0.1*float64(seed%7)
		}
		s, err := ScheduleAll(p, RCKK{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ApplyAdmissionControl(p, s)
		if err != nil {
			t.Fatal(err)
		}
		want, admitted := walkAdmission(p, s)
		if !slices.Equal(res.Rejected, want) {
			t.Fatalf("seed %d: rejected %v, want %v", seed, res.Rejected, want)
		}
		got, err := res.Admitted.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		wantDoc, err := admitted.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantDoc) {
			t.Fatalf("seed %d: admitted schedule differs", seed)
		}
		if want := float64(len(want)) / float64(len(p.Requests)); res.RejectionRate != want {
			t.Fatalf("seed %d: rejection rate %v, want %v", seed, res.RejectionRate, want)
		}
		rejections += len(want)
	}
	if rejections == 0 {
		t.Fatal("no problem was overloaded")
	}
	t.Logf("%d rejections over 200 problems", rejections)
}
