package model

import "fmt"

// Schedule maps each (request, VNF) pair to the service-instance index the
// request is assigned to (the paper's z_{r,k}^f, Eq. 5). Instance indexes are
// zero-based and must be < M_f.
type Schedule struct {
	// InstanceOf[r][f] = k means request r uses the k-th instance of VNF f.
	InstanceOf map[RequestID]map[VNFID]int `json:"instanceOf"`
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule {
	return &Schedule{InstanceOf: make(map[RequestID]map[VNFID]int)}
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := NewSchedule()
	for r, m := range s.InstanceOf {
		mm := make(map[VNFID]int, len(m))
		for f, k := range m {
			mm[f] = k
		}
		out.InstanceOf[r] = mm
	}
	return out
}

// Assign records that request r uses instance k of VNF f.
func (s *Schedule) Assign(r RequestID, f VNFID, k int) {
	m, ok := s.InstanceOf[r]
	if !ok {
		m = make(map[VNFID]int)
		s.InstanceOf[r] = m
	}
	m[f] = k
}

// Instance returns the instance of f serving request r, or false when
// unassigned.
func (s *Schedule) Instance(r RequestID, f VNFID) (int, bool) {
	m, ok := s.InstanceOf[r]
	if !ok {
		return 0, false
	}
	k, ok := m[f]
	return k, ok
}

// Validate checks Eq. 5 against the problem: every request is assigned to
// exactly one valid instance of every VNF in its chain, and to no VNF outside
// its chain.
func (s *Schedule) Validate(p *Problem) error {
	for _, r := range p.Requests {
		m := s.InstanceOf[r.ID]
		for _, f := range r.Chain {
			k, ok := m[f]
			if !ok {
				return fmt.Errorf("schedule: request %s unassigned for vnf %s", r.ID, f)
			}
			vnf, defined := p.VNF(f)
			if !defined {
				return fmt.Errorf("schedule: request %s assigned to undefined vnf %s", r.ID, f)
			}
			if k < 0 || k >= vnf.Instances {
				return fmt.Errorf("schedule: request %s vnf %s instance %d outside [0,%d)", r.ID, f, k, vnf.Instances)
			}
		}
		for f := range m {
			if !r.Uses(f) {
				return fmt.Errorf("schedule: request %s assigned to vnf %s outside its chain", r.ID, f)
			}
		}
	}
	return s.checkKnownRequests(p)
}

// ValidatePartial is Validate for post-admission schedules: a request may be
// entirely absent (it was rejected), but a present request must be assigned
// for exactly its whole chain, on valid instances.
func (s *Schedule) ValidatePartial(p *Problem) error {
	for _, r := range p.Requests {
		m := s.InstanceOf[r.ID]
		if len(m) == 0 {
			continue // rejected by admission control
		}
		for _, f := range r.Chain {
			k, ok := m[f]
			if !ok {
				return fmt.Errorf("schedule: request %s partially assigned: missing vnf %s", r.ID, f)
			}
			vnf, defined := p.VNF(f)
			if !defined {
				return fmt.Errorf("schedule: request %s assigned to undefined vnf %s", r.ID, f)
			}
			if k < 0 || k >= vnf.Instances {
				return fmt.Errorf("schedule: request %s vnf %s instance %d outside [0,%d)", r.ID, f, k, vnf.Instances)
			}
		}
		for f := range m {
			if !r.Uses(f) {
				return fmt.Errorf("schedule: request %s assigned to vnf %s outside its chain", r.ID, f)
			}
		}
	}
	return s.checkKnownRequests(p)
}

// checkKnownRequests reports a scheduled request the problem does not
// define, in linear time and without allocating (simulators validate their
// schedule on every Reset). With distinct request IDs, as Problem.Validate
// requires, every schedule key is a known request exactly when as many of
// the problem's requests appear in the schedule as it has keys; any other
// count takes the exact search, which names the unknown request.
func (s *Schedule) checkKnownRequests(p *Problem) error {
	matched := 0
	for _, r := range p.Requests {
		if _, ok := s.InstanceOf[r.ID]; ok {
			matched++
		}
	}
	if matched == len(s.InstanceOf) {
		return nil
	}
	known := make(map[RequestID]struct{}, len(p.Requests))
	for _, r := range p.Requests {
		known[r.ID] = struct{}{}
	}
	for r := range s.InstanceOf {
		if _, ok := known[r]; !ok {
			return fmt.Errorf("schedule: unknown request %s", r)
		}
	}
	return nil
}

// InstanceLoads returns, for VNF f, the effective total arrival rate Λ_k^f of
// each of its M_f instances (Eq. 7): Λ_k^f = Σ_r (λ_r/P_r)·z_{r,k}^f.
func (s *Schedule) InstanceLoads(p *Problem, f VNFID) []float64 {
	vnf, ok := p.VNF(f)
	if !ok {
		return nil
	}
	loads := make([]float64, vnf.Instances)
	for _, r := range p.Requests {
		if !r.Uses(f) {
			continue
		}
		if k, assigned := s.Instance(r.ID, f); assigned && k >= 0 && k < len(loads) {
			loads[k] += r.EffectiveRate()
		}
	}
	return loads
}

// RawInstanceLoads is like InstanceLoads but sums the external rates λ_r
// without the 1/P_r retransmission inflation (the denominator of Eq. 11).
func (s *Schedule) RawInstanceLoads(p *Problem, f VNFID) []float64 {
	vnf, ok := p.VNF(f)
	if !ok {
		return nil
	}
	loads := make([]float64, vnf.Instances)
	for _, r := range p.Requests {
		if !r.Uses(f) {
			continue
		}
		if k, assigned := s.Instance(r.ID, f); assigned && k >= 0 && k < len(loads) {
			loads[k] += r.Rate
		}
	}
	return loads
}
