package workload

import (
	"math"
	"testing"

	"nfvchain/internal/model"
)

func TestCatalog(t *testing.T) {
	entries := Catalog()
	if len(entries) != CatalogSize {
		t.Fatalf("catalog size = %d, want %d", len(entries), CatalogSize)
	}
	names := make(map[string]bool)
	for _, e := range entries {
		if names[e.Name] {
			t.Errorf("duplicate catalog name %s", e.Name)
		}
		names[e.Name] = true
		if e.Demand <= 0 || e.ServiceRate <= 0 {
			t.Errorf("catalog entry %s has non-positive sizing", e.Name)
		}
		if e.Category == "" {
			t.Errorf("catalog entry %s missing category", e.Name)
		}
	}
	// The paper's six core VNFs come first.
	wantFirst := []string{"NAT", "Firewall", "IDS", "LoadBalancer", "WANOptimizer", "FlowMonitor"}
	for i, w := range wantFirst {
		if entries[i].Name != w {
			t.Errorf("catalog[%d] = %s, want %s", i, entries[i].Name, w)
		}
	}
	categories := make(map[string]bool)
	for _, e := range entries {
		categories[e.Category] = true
	}
	if got := len(categories); got != 9 {
		t.Errorf("categories = %d, want 9 (Li & Chen survey)", got)
	}
	// Catalog() returns a copy.
	entries[0].Name = "mutated"
	if Catalog()[0].Name != "NAT" {
		t.Error("Catalog returns shared slice")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero vnfs":          func(c *Config) { c.NumVNFs = 0 },
		"negative requests":  func(c *Config) { c.NumRequests = -1 },
		"zero nodes":         func(c *Config) { c.NumNodes = 0 },
		"zero min chain":     func(c *Config) { c.MinChainLength = 0 },
		"max below min":      func(c *Config) { c.MaxChainLength = 0 },
		"chain beyond vnfs":  func(c *Config) { c.MaxChainLength = c.NumVNFs + 1 },
		"zero rate":          func(c *Config) { c.RateMin = 0 },
		"inverted rates":     func(c *Config) { c.RateMax = c.RateMin - 1 },
		"bad delivery prob":  func(c *Config) { c.DeliveryProb = 0 },
		"p above one":        func(c *Config) { c.DeliveryProb = 1.2 },
		"zero per instance":  func(c *Config) { c.RequestsPerInstance = 0 },
		"headroom too small": func(c *Config) { c.ServiceHeadroom = 1 },
		"zero capacity":      func(c *Config) { c.CapacityMin = 0 },
		"inverted capacity":  func(c *Config) { c.CapacityMax = 1; c.CapacityMin = 2 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestGenerateProducesValidProblem(t *testing.T) {
	cfg := DefaultConfig()
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("generated problem invalid: %v", err)
	}
	if len(p.Nodes) != cfg.NumNodes || len(p.VNFs) != cfg.NumVNFs || len(p.Requests) != cfg.NumRequests {
		t.Errorf("sizes: %d nodes, %d vnfs, %d requests", len(p.Nodes), len(p.VNFs), len(p.Requests))
	}
	for _, r := range p.Requests {
		if len(r.Chain) < cfg.MinChainLength || len(r.Chain) > cfg.MaxChainLength {
			t.Errorf("request %s chain length %d outside [%d,%d]", r.ID, len(r.Chain), cfg.MinChainLength, cfg.MaxChainLength)
		}
		if r.Rate < cfg.RateMin || r.Rate > cfg.RateMax {
			t.Errorf("request %s rate %v outside range", r.ID, r.Rate)
		}
		if r.DeliveryProb != cfg.DeliveryProb {
			t.Errorf("request %s P = %v", r.ID, r.DeliveryProb)
		}
	}
	for _, n := range p.Nodes {
		if n.Capacity < cfg.CapacityMin || n.Capacity > cfg.CapacityMax {
			t.Errorf("node %s capacity %v outside range", n.ID, n.Capacity)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Requests {
		if a.Requests[i].Rate != b.Requests[i].Rate || len(a.Requests[i].Chain) != len(b.Requests[i].Chain) {
			t.Fatal("same seed produced different requests")
		}
	}
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range a.Requests {
		if a.Requests[i].Rate != c.Requests[i].Rate {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical requests")
	}
}

func TestGenerateInstanceSizing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RequestsPerInstance = 10
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := model.Compile(p)
	for fi, f := range p.VNFs {
		users := len(ix.Users(fi))
		if users == 0 {
			if f.Instances != 1 {
				t.Errorf("unused vnf %s has %d instances", f.ID, f.Instances)
			}
			continue
		}
		want := (users + 9) / 10
		if f.Instances != want {
			t.Errorf("vnf %s: %d users → %d instances, want %d", f.ID, users, f.Instances, want)
		}
		// Paper Eq. 3: M_f ≤ Σ_r U_r^f.
		if f.Instances > users {
			t.Errorf("vnf %s violates Eq. 3: %d instances > %d users", f.ID, f.Instances, users)
		}
	}
}

func TestGenerateStabilityHeadroom(t *testing.T) {
	cfg := DefaultConfig()
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A perfectly balanced split must be stable: Σ effective rates over
	// M_f·µ_f below 1.
	ix := model.Compile(p)
	for fi, f := range p.VNFs {
		var sum float64
		for _, r := range ix.Users(fi) {
			sum += p.Requests[r].EffectiveRate()
		}
		if sum >= float64(f.Instances)*f.ServiceRate {
			t.Errorf("vnf %s: aggregate load %v >= capacity %v", f.ID, sum, float64(f.Instances)*f.ServiceRate)
		}
	}
}

func TestGenerateTemplateChains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChainMode = ChainModeTemplates
	cfg.NumRequests = 600
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every chain must be one of the templates.
	valid := make(map[string]int)
	for _, tpl := range ChainTemplates() {
		key := ""
		for _, f := range tpl.VNFs {
			key += string(f) + "/"
		}
		valid[key] = 0
	}
	for _, r := range p.Requests {
		key := ""
		for _, f := range r.Chain {
			key += string(f) + "/"
		}
		if _, ok := valid[key]; !ok {
			t.Fatalf("request %s chain %v is not a template", r.ID, r.Chain)
		}
		valid[key]++
	}
	// Zipf popularity: the rank-1 template must be the most common.
	first := ""
	for _, f := range ChainTemplates()[0].VNFs {
		first += string(f) + "/"
	}
	for key, count := range valid {
		if key != first && count > valid[first] {
			t.Errorf("template %q (%d) more popular than rank-1 (%d)", key, count, valid[first])
		}
	}
	if valid[first] < cfg.NumRequests/4 {
		t.Errorf("rank-1 template drew only %d of %d requests; expected Zipf head", valid[first], cfg.NumRequests)
	}
}

func TestGenerateTemplateChainsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChainMode = ChainModeTemplates
	cfg.NumVNFs = 5 // templates need the 6 core VNFs
	if _, err := Generate(cfg); err == nil {
		t.Error("template mode with 5 VNFs accepted")
	}
	cfg.ChainMode = ChainMode(99)
	cfg.NumVNFs = 15
	if _, err := Generate(cfg); err == nil {
		t.Error("unknown chain mode accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumVNFs = CatalogSize + 1
	cfg.MaxChainLength = 6
	if _, err := Generate(cfg); err == nil {
		t.Error("NumVNFs beyond catalog accepted")
	}
	bad := DefaultConfig()
	bad.NumNodes = 0
	if _, err := Generate(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGenerateUniformCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UniformCapacity = true
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range p.Nodes {
		if n.Capacity != cfg.CapacityMax {
			t.Errorf("node %s capacity %v, want uniform %v", n.ID, n.Capacity, cfg.CapacityMax)
		}
	}
}

func TestChainTemplates(t *testing.T) {
	ts := ChainTemplates()
	if len(ts) < 3 {
		t.Fatalf("only %d templates", len(ts))
	}
	for _, tpl := range ts {
		if len(tpl.VNFs) == 0 || len(tpl.VNFs) > model.MaxChainLength {
			t.Errorf("template %s has %d VNFs", tpl.Name, len(tpl.VNFs))
		}
	}
	// Returned slice is a copy.
	ts[0].Name = "mutated"
	if ChainTemplates()[0].Name == "mutated" {
		t.Error("ChainTemplates returns shared slice")
	}
}

// traceProblem generates a problem whose requests all arrive at rate λ
// with certain delivery, so a trace's empirical rates have a known target.
func traceProblem(t *testing.T, requests int, rate float64) *model.Problem {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumRequests = requests
	cfg.RateMin, cfg.RateMax = rate, rate
	cfg.DeliveryProb = 1
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// empiricalRate is request r's arrival rate in tr, as AnalyzeTrace reports it.
func empiricalRate(t *testing.T, tr *Trace, r model.RequestID) float64 {
	t.Helper()
	for _, st := range AnalyzeTrace(tr) {
		if st.Request == r {
			return st.Rate
		}
	}
	t.Fatalf("request %s has no arrivals in the trace", r)
	return 0
}

func TestTraceGeneration(t *testing.T) {
	p := traceProblem(t, 6, 50)
	tr, err := GenerateTrace(p, 10, InterArrivalExponential, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	// Sorted by time.
	for i := 1; i < tr.Len(); i++ {
		if tr.Arrivals[i].Time < tr.Arrivals[i-1].Time {
			t.Fatal("trace not sorted")
		}
	}
	// Empirical rate ≈ λ within 20% for λ·horizon = 500 samples.
	r := p.Requests[0]
	got := empiricalRate(t, tr, r.ID)
	if math.Abs(got-r.Rate)/r.Rate > 0.2 {
		t.Errorf("empirical rate %v vs λ=%v", got, r.Rate)
	}
}

func TestTraceLogNormalMeanRate(t *testing.T) {
	p := traceProblem(t, 6, 50)
	tr, err := GenerateTrace(p, 50, InterArrivalLogNormal, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Requests[0]
	got := empiricalRate(t, tr, r.ID)
	if math.Abs(got-r.Rate)/r.Rate > 0.35 { // heavy tail → wider tolerance
		t.Errorf("lognormal empirical rate %v vs λ=%v", got, r.Rate)
	}
}

func TestTraceErrors(t *testing.T) {
	p := traceProblem(t, 6, 10)
	if _, err := GenerateTrace(p, 0, InterArrivalExponential, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := GenerateTrace(p, 1, InterArrival(99), 1); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestTraceDeterministicPerRequest(t *testing.T) {
	p := traceProblem(t, 6, 10)
	a, _ := GenerateTrace(p, 5, InterArrivalExponential, 9)
	b, _ := GenerateTrace(p, 5, InterArrivalExponential, 9)
	if a.Len() != b.Len() {
		t.Fatal("same seed, different trace length")
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatal("same seed, different arrivals")
		}
	}
}
