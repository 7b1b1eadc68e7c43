package portfolio

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
)

// Spec selects and parameterizes one portfolio solver. The textual form is
// "name" or "name:key=value;key=value" — parameters are semicolon-
// separated so comma can separate specs in CLI lists, e.g.
// "portfolio:greedy,sa:iters=5000;seed=7,lns,pso".
type Spec struct {
	// Name is one of SolverNames.
	Name string
	// Seed overrides the racer-assigned seed when SeedSet is true.
	Seed    uint64
	SeedSet bool
	// Iters is the iteration budget; 0 means run until ctx is done (only
	// valid when the race has a deadline).
	Iters int
	// InitialTemp and Cooling parameterize sa (Metropolis temperature
	// schedule T_i = t0·cooling^i); PolishEvery is its large-move period.
	InitialTemp float64
	Cooling     float64
	PolishEvery int
	// DestroyFraction is lns's shake intensity in (0,1].
	DestroyFraction float64
	// Particles, Inertia, Cognitive, Social parameterize pso.
	Particles int
	Inertia   float64
	Cognitive float64
	Social    float64
}

// SolverNames lists the accepted Spec names: baselines wrapping the
// existing two-phase pipelines, then the metaheuristic tier.
func SolverNames() []string {
	return []string{"greedy", "bfd", "ffd", "nah", "exact", "sa", "lns", "pso"}
}

// DefaultPortfolio is the spec list raced when a request names none.
func DefaultPortfolio() []string {
	return []string{"greedy", "ffd", "nah", "sa", "lns", "pso"}
}

// MaxPortfolioSize bounds K, the number of specs in one race.
const MaxPortfolioSize = 64

// ParseSpec parses one solver spec string.
func ParseSpec(text string) (Spec, error) {
	name, params, _ := strings.Cut(strings.TrimSpace(text), ":")
	s := defaultSpec(strings.ToLower(strings.TrimSpace(name)))
	if s.Name == "" {
		return Spec{}, fmt.Errorf("portfolio: unknown solver %q (want one of %s)",
			name, strings.Join(SolverNames(), ", "))
	}
	if params != "" {
		for _, kv := range strings.Split(params, ";") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Spec{}, fmt.Errorf("portfolio: spec %q: parameter %q is not key=value", text, kv)
			}
			if err := s.setParam(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
				return Spec{}, fmt.Errorf("portfolio: spec %q: %w", text, err)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ParseSpecs parses a full portfolio; it rejects empty lists (K=0) and
// lists beyond MaxPortfolioSize.
func ParseSpecs(texts []string) ([]Spec, error) {
	if len(texts) == 0 {
		return nil, fmt.Errorf("portfolio: empty portfolio (need at least one solver spec)")
	}
	if len(texts) > MaxPortfolioSize {
		return nil, fmt.Errorf("portfolio: %d specs exceeds the maximum of %d", len(texts), MaxPortfolioSize)
	}
	specs := make([]Spec, 0, len(texts))
	for _, t := range texts {
		s, err := ParseSpec(t)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// defaultSpec returns the named solver's default parameters, or a zero
// Spec for unknown names.
func defaultSpec(name string) Spec {
	switch name {
	case "greedy", "bfd", "ffd", "nah", "exact":
		return Spec{Name: name, Iters: 1}
	case "sa":
		return Spec{Name: name, Iters: 20000, InitialTemp: 2.0, Cooling: 0.9997, PolishEvery: 2000}
	case "lns":
		return Spec{Name: name, Iters: 400, DestroyFraction: 0.3}
	case "pso":
		return Spec{Name: name, Iters: 150, Particles: 16, Inertia: 0.72, Cognitive: 1.49, Social: 1.49}
	default:
		return Spec{}
	}
}

func (s *Spec) setParam(key, val string) error {
	switch key {
	case "seed":
		u, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q: %v", val, err)
		}
		s.Seed, s.SeedSet = u, true
	case "iters":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("iters %q: %v", val, err)
		}
		s.Iters = n
	case "polish":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("polish %q: %v", val, err)
		}
		s.PolishEvery = n
	case "particles":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("particles %q: %v", val, err)
		}
		s.Particles = n
	case "t0":
		return parseFinite(val, &s.InitialTemp)
	case "cooling":
		return parseFinite(val, &s.Cooling)
	case "destroy":
		return parseFinite(val, &s.DestroyFraction)
	case "inertia":
		return parseFinite(val, &s.Inertia)
	case "cognitive":
		return parseFinite(val, &s.Cognitive)
	case "social":
		return parseFinite(val, &s.Social)
	default:
		return fmt.Errorf("unknown parameter %q", key)
	}
	return nil
}

func parseFinite(val string, dst *float64) error {
	x, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("value %q: %v", val, err)
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("value %q is not finite", val)
	}
	*dst = x
	return nil
}

// Validate checks a Spec's fields, including specs constructed directly
// rather than parsed.
func (s Spec) Validate() error {
	valid := false
	for _, n := range SolverNames() {
		if s.Name == n {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("portfolio: unknown solver %q (want one of %s)",
			s.Name, strings.Join(SolverNames(), ", "))
	}
	if s.Iters < 0 {
		return fmt.Errorf("portfolio: %s: iters %d must be >= 0", s.Name, s.Iters)
	}
	if s.PolishEvery < 0 {
		return fmt.Errorf("portfolio: %s: polish %d must be >= 0", s.Name, s.PolishEvery)
	}
	switch s.Name {
	case "sa":
		if math.IsNaN(s.InitialTemp) || math.IsInf(s.InitialTemp, 0) || s.InitialTemp <= 0 {
			return fmt.Errorf("portfolio: sa: t0 %v must be a positive finite number", s.InitialTemp)
		}
		if math.IsNaN(s.Cooling) || !(s.Cooling > 0 && s.Cooling < 1) {
			return fmt.Errorf("portfolio: sa: cooling %v must be in (0,1)", s.Cooling)
		}
	case "lns":
		if math.IsNaN(s.DestroyFraction) || !(s.DestroyFraction > 0 && s.DestroyFraction <= 1) {
			return fmt.Errorf("portfolio: lns: destroy %v must be in (0,1]", s.DestroyFraction)
		}
	case "pso":
		if s.Particles < 1 || s.Particles > 4096 {
			return fmt.Errorf("portfolio: pso: particles %d must be in [1,4096]", s.Particles)
		}
		for _, c := range []struct {
			name string
			v    float64
		}{{"inertia", s.Inertia}, {"cognitive", s.Cognitive}, {"social", s.Social}} {
			if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 || c.v > 10 {
				return fmt.Errorf("portfolio: pso: %s %v must be finite in [0,10]", c.name, c.v)
			}
		}
	}
	return nil
}

// String renders the spec back into its canonical textual form: the name
// followed by every parameter that differs from the solver's defaults,
// using setParam's key names so the output re-parses to an equal Spec.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	sep := byte(':')
	add := func(key, val string) {
		b.WriteByte(sep)
		sep = ';'
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
	}
	ftoa := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := defaultSpec(s.Name)
	if s.SeedSet {
		add("seed", strconv.FormatUint(s.Seed, 10))
	}
	if s.Iters != d.Iters {
		add("iters", strconv.Itoa(s.Iters))
	}
	if s.InitialTemp != d.InitialTemp {
		add("t0", ftoa(s.InitialTemp))
	}
	if s.Cooling != d.Cooling {
		add("cooling", ftoa(s.Cooling))
	}
	if s.PolishEvery != d.PolishEvery {
		add("polish", strconv.Itoa(s.PolishEvery))
	}
	if s.DestroyFraction != d.DestroyFraction {
		add("destroy", ftoa(s.DestroyFraction))
	}
	if s.Particles != d.Particles {
		add("particles", strconv.Itoa(s.Particles))
	}
	if s.Inertia != d.Inertia {
		add("inertia", ftoa(s.Inertia))
	}
	if s.Cognitive != d.Cognitive {
		add("cognitive", ftoa(s.Cognitive))
	}
	if s.Social != d.Social {
		add("social", ftoa(s.Social))
	}
	return b.String()
}

// Build constructs the solver a Spec describes. seed is the effective seed
// (racer-assigned unless the spec pinned one); obj is the shared
// objective.
func (s Spec) Build(obj Objective, seed uint64) (Solver, error) {
	return s.build(obj, seed)
}

func (s Spec) build(obj Objective, seed uint64) (racer, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.SeedSet {
		seed = s.Seed
	}
	// A nil scheduler is RCKK, computed once per compiled problem.
	switch s.Name {
	case "greedy":
		return &baseline{name: s.Name, placer: &placement.BFDSU{Seed: seed}, polish: true, obj: obj}, nil
	case "bfd":
		return &baseline{name: s.Name, placer: placement.BFD{}, obj: obj}, nil
	case "ffd":
		return &baseline{name: s.Name, placer: placement.FFD{}, obj: obj}, nil
	case "nah":
		return &baseline{name: s.Name, placer: placement.NAH{}, obj: obj}, nil
	case "exact":
		return &baseline{name: s.Name, placer: &placement.Exact{}, scheduler: &scheduling.Exact{}, obj: obj}, nil
	case "sa":
		return &annealer{name: s.Name, seed: seed, iters: s.Iters, t0: s.InitialTemp,
			cooling: s.Cooling, polishEvery: s.PolishEvery, obj: obj}, nil
	case "lns":
		return &lns{name: s.Name, seed: seed, iters: s.Iters, destroy: s.DestroyFraction, obj: obj}, nil
	case "pso":
		return &pso{name: s.Name, seed: seed, iters: s.Iters, particles: s.Particles,
			inertia: s.Inertia, cognitive: s.Cognitive, social: s.Social, obj: obj}, nil
	}
	return nil, fmt.Errorf("portfolio: unknown solver %q", s.Name)
}
