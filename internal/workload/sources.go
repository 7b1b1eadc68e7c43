package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// Source is a pull-based arrival process: Next returns the first arrival
// strictly after `after`, or ok=false when the process is exhausted. Every
// generator here reaches the simulator through a MergedStream
// (simulate.Config.Arrivals) or as a cluster flow's source
// (cluster.GlobalRequest.Source). Sources are deterministic — all
// randomness comes from the rng.Stream they are built over — and must be
// pulled with non-decreasing `after` values (the simulator always does).
type Source interface {
	Next(after float64) (t float64, ok bool)
}

// PoissonSource is the homogeneous Poisson process: exponential inter-
// arrival gaps with mean 1/rate. On the stream "arrivals/<id>" it is draw-
// for-draw identical to the simulator's built-in default.
type PoissonSource struct {
	rate float64
	s    *rng.Stream
}

// NewPoisson builds a Poisson source. rate must be positive and finite.
func NewPoisson(rate float64, s *rng.Stream) *PoissonSource {
	return &PoissonSource{rate: rate, s: s}
}

// Next draws the next arrival after the given time.
func (p *PoissonSource) Next(after float64) (float64, bool) {
	return after + p.s.Exp(p.rate), true
}

// LogNormalSource is a renewal process with log-normal inter-arrival gaps of
// mean 1/rate and log-scale sigma — the heavy-tailed flow inter-arrivals of
// measured datacenter traces. With sigma = 1 on the stream "trace/<id>" it
// reproduces GenerateTrace's InterArrivalLogNormal draws exactly.
type LogNormalSource struct {
	mu, sigma float64
	s         *rng.Stream
}

// NewLogNormalRenewal builds a log-normal renewal source with mean rate
// `rate` (E[gap] = 1/rate via µ = ln(1/rate) − σ²/2). rate and sigma must be
// positive and finite.
func NewLogNormalRenewal(rate, sigma float64, s *rng.Stream) *LogNormalSource {
	return &LogNormalSource{mu: math.Log(1/rate) - sigma*sigma/2, sigma: sigma, s: s}
}

// Next draws the next arrival after the given time.
func (l *LogNormalSource) Next(after float64) (float64, bool) {
	return after + l.s.LogNormal(l.mu, l.sigma), true
}

// RateFunc is a time-varying arrival intensity λ(t) for non-homogeneous
// Poisson processes.
type RateFunc func(t float64) float64

// Diurnal returns the sinusoidal day-shaped intensity
//
//	λ(t) = base · (1 + amplitude · sin(2π(t/period + phase)))
//
// together with its peak base·(1+amplitude), the thinning bound NewNHPP
// needs. The time-average over any whole number of periods is exactly base,
// so diurnal sources preserve the mean load of the flat process they
// replace. amplitude must lie in [0, 1) — the intensity stays strictly
// positive — and period must be positive.
func Diurnal(base, amplitude, period, phase float64) (RateFunc, float64) {
	return func(t float64) float64 {
		return base * (1 + amplitude*math.Sin(2*math.Pi*(t/period+phase)))
	}, base * (1 + amplitude)
}

// NHPPSource is a non-homogeneous Poisson process sampled by Lewis–Shedler
// thinning: candidate arrivals are drawn from a homogeneous process at the
// peak intensity and accepted with probability λ(t)/peak, which yields
// exactly the target NHPP. The rate function must satisfy
// 0 < λ(t) <= peak for all t the source will be pulled over (a vanishing
// intensity would make a pull spin without ever accepting).
type NHPPSource struct {
	rate RateFunc
	peak float64
	s    *rng.Stream
}

// NewNHPP builds a thinning sampler for the intensity function with the
// given peak bound. peak must be positive and finite.
func NewNHPP(rate RateFunc, peak float64, s *rng.Stream) *NHPPSource {
	return &NHPPSource{rate: rate, peak: peak, s: s}
}

// Next thins candidates from the peak-rate homogeneous process until one is
// accepted.
func (n *NHPPSource) Next(after float64) (float64, bool) {
	t := after
	for {
		t += n.s.Exp(n.peak)
		if n.s.Float64()*n.peak < n.rate(t) {
			return t, true
		}
	}
}

// MMPPSource is a two-state Markov-modulated Poisson process: the source
// alternates between exponentially distributed on-periods (mean meanOn),
// during which arrivals are Poisson at onRate, and silent off-periods (mean
// meanOff). The long-run mean rate is onRate·meanOn/(meanOn+meanOff) and the
// inter-arrival CV exceeds 1 — the canonical bursty traffic model. The
// process starts at the beginning of an on-period, so bursts are observable
// from t = 0.
type MMPPSource struct {
	onRate, meanOn, meanOff float64
	s                       *rng.Stream
	on                      bool
	stateEnd                float64
}

// NewMMPP builds an on/off burst source. All three parameters must be
// positive and finite.
func NewMMPP(onRate, meanOn, meanOff float64, s *rng.Stream) *MMPPSource {
	m := &MMPPSource{onRate: onRate, meanOn: meanOn, meanOff: meanOff, s: s, on: true}
	m.stateEnd = s.Exp(1 / meanOn)
	return m
}

// Next advances through on/off epochs until an arrival lands inside an
// on-period. State sojourns are drawn lazily in epoch order, so the draw
// sequence — and therefore the process — is deterministic.
func (m *MMPPSource) Next(after float64) (float64, bool) {
	t := after
	for {
		if t >= m.stateEnd {
			m.on = !m.on
			mean := m.meanOff
			if m.on {
				mean = m.meanOn
			}
			m.stateEnd += m.s.Exp(1 / mean)
			continue
		}
		if !m.on {
			t = m.stateEnd
			continue
		}
		gap := m.s.Exp(m.onRate)
		if t+gap < m.stateEnd {
			return t + gap, true
		}
		t = m.stateEnd
	}
}

// TraceSources builds the per-request renewal sources GenerateTrace draws
// from — Poisson for InterArrivalExponential, log-normal (σ = 1) for
// InterArrivalLogNormal — each on its own stream "trace/<id>" derived from
// seed. Pulling each source to the horizon and merging by (time, request)
// yields GenerateTrace's trace draw-for-draw, which is how cmd/tracegen
// writes CSV incrementally without materializing a Trace.
func TraceSources(p *model.Problem, dist InterArrival, seed uint64) (map[model.RequestID]Source, error) {
	if dist != InterArrivalExponential && dist != InterArrivalLogNormal {
		return nil, fmt.Errorf("workload: unknown inter-arrival distribution %d", dist)
	}
	out := make(map[model.RequestID]Source, len(p.Requests))
	for _, r := range p.Requests {
		s := rng.Derive(seed, "trace/"+string(r.ID))
		switch dist {
		case InterArrivalExponential:
			out[r.ID] = NewPoisson(r.Rate, s)
		case InterArrivalLogNormal:
			out[r.ID] = NewLogNormalRenewal(r.Rate, logNormalSigma, s)
		}
	}
	return out, nil
}

// Process selects a client class's arrival process shape.
type Process int

// Supported class processes.
const (
	// ProcessPoisson is the flat homogeneous process (the paper's model).
	ProcessPoisson Process = iota
	// ProcessDiurnal is a sinusoidal NHPP sampled by Lewis–Shedler thinning:
	// the class's load swells and ebbs over Period while preserving its mean.
	ProcessDiurnal
	// ProcessOnOff is a two-state MMPP: bursts at an elevated on-rate
	// separated by silent gaps, mean-preserving, inter-arrival CV > 1.
	ProcessOnOff
)

// Skew selects how a class's aggregate load is divided among its members.
type Skew int

// Supported per-client rate skews.
const (
	// SkewNone keeps every member's problem rate unchanged.
	SkewNone Skew = iota
	// SkewZipf multiplies member rates by 1/rank^ZipfS over a seeded random
	// rank permutation — a few heavy hitters, a long tail.
	SkewZipf
	// SkewLogNormal multiplies member rates by LogNormal(0, Sigma) draws.
	SkewLogNormal
)

// ClientClass describes one heterogeneous client population in the ServeGen
// style: a share of the problem's requests (Weight), an arrival-process
// shape (Process), and a skew of per-client mean rates within the class
// (Skew). Skew multipliers are renormalized so the class's aggregate offered
// load equals the sum of its members' problem rates — classes reshape
// traffic in time and across clients without changing the provisioned load.
type ClientClass struct {
	Name   string
	Weight float64 // relative share of requests assigned to this class

	Process Process

	Skew  Skew
	ZipfS float64 // SkewZipf exponent s (> 0); weights 1/rank^s
	Sigma float64 // SkewLogNormal log-scale (> 0)

	// ProcessDiurnal knobs: relative Amplitude in [0, 1), positive Period,
	// and Phase as a fraction of a period (members of a class peak together,
	// which is the point of diurnality).
	Amplitude float64
	Period    float64
	Phase     float64

	// ProcessOnOff knobs: mean on/off sojourns (both positive). The on-rate
	// is derived as rate·(MeanOn+MeanOff)/MeanOn so the mean is preserved;
	// the implied burst factor is (MeanOn+MeanOff)/MeanOn.
	MeanOn, MeanOff float64
}

func (c *ClientClass) validate(i int) error {
	if c.Name == "" {
		return fmt.Errorf("workload: class %d has no name", i)
	}
	if !(c.Weight > 0) || math.IsInf(c.Weight, 1) {
		return fmt.Errorf("workload: class %s weight %v must be positive and finite", c.Name, c.Weight)
	}
	switch c.Process {
	case ProcessPoisson:
	case ProcessDiurnal:
		if !(c.Amplitude >= 0 && c.Amplitude < 1) {
			return fmt.Errorf("workload: class %s amplitude %v outside [0, 1)", c.Name, c.Amplitude)
		}
		if !(c.Period > 0) || math.IsInf(c.Period, 1) {
			return fmt.Errorf("workload: class %s period %v must be positive and finite", c.Name, c.Period)
		}
		if math.IsNaN(c.Phase) || math.IsInf(c.Phase, 0) {
			return fmt.Errorf("workload: class %s phase %v must be finite", c.Name, c.Phase)
		}
	case ProcessOnOff:
		if !(c.MeanOn > 0) || math.IsInf(c.MeanOn, 1) || !(c.MeanOff > 0) || math.IsInf(c.MeanOff, 1) {
			return fmt.Errorf("workload: class %s on/off sojourns (%v, %v) must be positive and finite", c.Name, c.MeanOn, c.MeanOff)
		}
	default:
		return fmt.Errorf("workload: class %s has unknown process %d", c.Name, c.Process)
	}
	switch c.Skew {
	case SkewNone:
	case SkewZipf:
		if !(c.ZipfS > 0) || math.IsInf(c.ZipfS, 1) {
			return fmt.Errorf("workload: class %s Zipf exponent %v must be positive and finite", c.Name, c.ZipfS)
		}
	case SkewLogNormal:
		if !(c.Sigma > 0) || math.IsInf(c.Sigma, 1) {
			return fmt.Errorf("workload: class %s sigma %v must be positive and finite", c.Name, c.Sigma)
		}
	default:
		return fmt.Errorf("workload: class %s has unknown skew %d", c.Name, c.Skew)
	}
	return nil
}

// DefaultClasses is the reference heavy-traffic mix: a steady majority with
// Zipf-skewed rates, a diurnal population whose load swings ±80% over a
// 20-second "day" (scaled to simulation horizons), and a bursty minority
// spending 1s on for every 4s off — a 5× burst factor.
func DefaultClasses() []ClientClass {
	return []ClientClass{
		{Name: "steady", Weight: 0.60, Process: ProcessPoisson, Skew: SkewZipf, ZipfS: 1},
		{Name: "diurnal", Weight: 0.25, Process: ProcessDiurnal, Skew: SkewLogNormal, Sigma: 1, Amplitude: 0.8, Period: 20},
		{Name: "bursty", Weight: 0.15, Process: ProcessOnOff, Skew: SkewZipf, ZipfS: 1, MeanOn: 1, MeanOff: 4},
	}
}

// Assignment records which class a request landed in and the effective mean
// rate its source targets after skew renormalization.
type Assignment struct {
	Class string
	Rate  float64
}

// ClassWorkload is the output of BuildSources: one arrival source per
// request (superpose them with NewMergedStream for simulate.Config.Arrivals,
// or hand them to cluster flows) plus the per-request class assignment for
// reporting.
type ClassWorkload struct {
	Sources     map[model.RequestID]Source
	Assignments map[model.RequestID]Assignment
}

// BuildSources assigns every request of the problem to a client class and
// builds its arrival source. All randomness — class assignment, skew
// multipliers, and each source's draws — comes from streams derived from
// seed, so the construction is deterministic and any request's arrival
// process is invariant to the set of other requests in its class pulling
// arrivals. Per class, skew multipliers are renormalized so the class's
// aggregate mean rate equals the sum of its members' problem rates.
func BuildSources(p *model.Problem, classes []ClientClass, seed uint64) (*ClassWorkload, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("workload: no client classes")
	}
	weights := make([]float64, len(classes))
	for i := range classes {
		if err := classes[i].validate(i); err != nil {
			return nil, err
		}
		for j := 0; j < i; j++ {
			if classes[j].Name == classes[i].Name {
				return nil, fmt.Errorf("workload: duplicate class name %s", classes[i].Name)
			}
		}
		weights[i] = classes[i].Weight
	}

	// Deterministic class assignment, in problem request order.
	assign := rng.Derive(seed, "classes/assign")
	members := make([][]model.Request, len(classes))
	for _, r := range p.Requests {
		ci := assign.WeightedIndex(weights)
		members[ci] = append(members[ci], r)
	}

	cw := &ClassWorkload{
		Sources:     make(map[model.RequestID]Source, len(p.Requests)),
		Assignments: make(map[model.RequestID]Assignment, len(p.Requests)),
	}
	for ci := range classes {
		c := &classes[ci]
		ms := members[ci]
		if len(ms) == 0 {
			continue
		}
		// Skew multipliers, renormalized to preserve the class's aggregate
		// problem load: Σ rate_j·w_j·scale = Σ rate_j.
		mult := make([]float64, len(ms))
		for j := range mult {
			mult[j] = 1
		}
		skew := rng.Derive(seed, "classes/skew/"+c.Name)
		switch c.Skew {
		case SkewZipf:
			for j, rank := range skew.Perm(len(ms)) {
				mult[j] = 1 / math.Pow(float64(rank+1), c.ZipfS)
			}
		case SkewLogNormal:
			for j := range mult {
				mult[j] = skew.LogNormal(0, c.Sigma)
			}
		}
		var load, skewed float64
		for j, r := range ms {
			load += r.Rate
			skewed += r.Rate * mult[j]
		}
		scale := load / skewed

		for j, r := range ms {
			rate := r.Rate * mult[j] * scale
			st := rng.Derive(seed, "classes/src/"+c.Name+"/"+string(r.ID))
			var src Source
			switch c.Process {
			case ProcessDiurnal:
				rf, peak := Diurnal(rate, c.Amplitude, c.Period, c.Phase)
				src = NewNHPP(rf, peak, st)
			case ProcessOnOff:
				src = NewMMPP(rate*(c.MeanOn+c.MeanOff)/c.MeanOn, c.MeanOn, c.MeanOff, st)
			default:
				src = NewPoisson(rate, st)
			}
			cw.Sources[r.ID] = src
			cw.Assignments[r.ID] = Assignment{Class: c.Name, Rate: rate}
		}
	}
	return cw, nil
}

// MergedStream superposes per-request sources into one globally time-ordered
// arrival cursor: the pull-based counterpart of GenerateTrace-then-sort, a
// ready-made simulate.Config.Arrivals and tracegen CSV feed. Each source
// keeps exactly one staged arrival in a 4-ary min-heap, so memory is
// O(#sources) regardless of how many arrivals are pulled. Time ties break
// by request ID, matching Trace.sort's (time, request) order. A source that
// reports ok=false, or returns a time earlier than the one it was asked
// for (NaN included), is retired.
type MergedStream struct {
	slots []mergeSlot
	n     int // heap size: the live sources, once primed
	ready bool
}

// mergeSlot holds source i of the superposition (src, id), which never
// moves, and entry i of the merge heap (t, idx: the next arrival of source
// idx), which sifts. Keeping both in one slot costs one allocation, and
// the heap moves only pointer-free words.
type mergeSlot struct {
	src Source
	id  model.RequestID
	t   float64
	idx int32
}

// NewMergedStream builds the superposition of the given sources. The map is
// snapshotted in sorted-ID order, so construction is deterministic.
func NewMergedStream(sources map[model.RequestID]Source) *MergedStream {
	m := &MergedStream{slots: make([]mergeSlot, 0, len(sources))}
	for id, src := range sources {
		m.slots = append(m.slots, mergeSlot{src: src, id: id})
	}
	slices.SortFunc(m.slots, func(a, b mergeSlot) int { return cmp.Compare(a.id, b.id) })
	return m
}

// Reset empties the stream for reuse, keeping its buffer: Add then builds a
// new superposition without a map, allocation-free once the buffer fits.
func (m *MergedStream) Reset() {
	clear(m.slots)
	m.slots, m.n, m.ready = m.slots[:0], 0, false
}

// Add appends src as the arrival source of request id, at the next source
// index (what NextSource hands back). IDs must be distinct, and every Add
// precedes the first pull.
func (m *MergedStream) Add(id model.RequestID, src Source) {
	m.slots = append(m.slots, mergeSlot{src: src, id: id})
}

// before orders the arrival at ti of source i and the arrival at tj of
// source j by (time, request ID).
func (m *MergedStream) before(ti float64, i int32, tj float64, j int32) bool {
	return ti < tj || (ti == tj && m.slots[i].id < m.slots[j].id)
}

// siftDown writes the entry (t, idx) into heap slot i and sinks it to its
// position; the children of slot i are 4i+1 … 4i+4.
func (m *MergedStream) siftDown(i int, t float64, idx int32) {
	h := m.slots[:m.n]
	for {
		c := i<<2 + 1
		if c >= len(h) {
			break
		}
		best, bt, bi := c, h[c].t, h[c].idx
		for k := c + 1; k < min(c+4, len(h)); k++ {
			if m.before(h[k].t, h[k].idx, bt, bi) {
				best, bt, bi = k, h[k].t, h[k].idx
			}
		}
		if !m.before(bt, bi, t, idx) {
			break
		}
		h[i].t, h[i].idx = bt, bi
		i = best
	}
	h[i].t, h[i].idx = t, idx
}

// prime draws every source's first arrival (after 0) into the heap,
// leaving out the sources that have none, and heapifies.
func (m *MergedStream) prime() {
	m.ready = true
	for i := range m.slots {
		if t, ok := m.slots[i].src.Next(0); ok {
			m.slots[m.n].t, m.slots[m.n].idx = t, int32(i)
			m.n++
		}
	}
	for i := (m.n - 2) >> 2; i >= 0; i-- {
		m.siftDown(i, m.slots[i].t, m.slots[i].idx)
	}
}

// NextSource pops the earliest staged arrival, redraws its source, and
// returns the arrival time and the source's index in construction order
// (sorted-ID order for NewMergedStream, Add order after Reset). ok is false
// once every source is retired — generator sources never are, so callers
// bound the pull by their horizon.
func (m *MergedStream) NextSource() (t float64, src int, ok bool) {
	if !m.ready {
		m.prime()
	}
	if m.n == 0 {
		return 0, -1, false
	}
	t, idx := m.slots[0].t, m.slots[0].idx
	if nt, ok := m.slots[idx].src.Next(t); ok && nt >= t {
		m.siftDown(0, nt, idx)
	} else {
		m.n--
		if m.n > 0 {
			m.siftDown(0, m.slots[m.n].t, m.slots[m.n].idx)
		}
	}
	return t, int(idx), true
}

// NextArrival is NextSource with the request ID in place of the index: the
// ArrivalCursor view of the stream.
func (m *MergedStream) NextArrival() (float64, model.RequestID, bool) {
	t, i, ok := m.NextSource()
	if !ok {
		return 0, "", false
	}
	return t, m.slots[i].id, true
}

// Err reports the stream's error state; a generator superposition cannot
// fail, so it is always nil (present to satisfy ArrivalCursor).
func (m *MergedStream) Err() error { return nil }
