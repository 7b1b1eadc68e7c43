package scheduling

import (
	"fmt"
	"slices"

	"nfvchain/internal/model"
)

// AdmissionResult is the outcome of admission control over a schedule.
type AdmissionResult struct {
	// Admitted is the schedule with rejected requests removed everywhere.
	Admitted *model.Schedule
	// Rejected lists the dropped requests, sorted by id.
	Rejected []model.RequestID
	// RejectionRate is |Rejected| / |requests with at least one assignment|,
	// the paper's job rejection rate metric (Figs. 15–16).
	RejectionRate float64
}

// ApplyAdmissionControl enforces ρ < 1 on every service instance: while any
// instance's effective arrival rate Λ_k^f reaches or exceeds its service
// rate µ_f, the *lowest-rate* request on that instance is rejected. Shedding
// light requests first removes the least traffic beyond what stability
// strictly requires — the admission controller "ensures the normal operation
// of the services" while carrying the most load — at the cost of more
// rejected jobs when an instance is badly overloaded, which is exactly the
// penalty the paper's job rejection rate measures. A rejected request is
// removed from *all* instances, since its whole chain stops being served.
func ApplyAdmissionControl(p *model.Problem, s *model.Schedule) (*AdmissionResult, error) {
	s = s.For(p)
	if err := s.Validate(p); err != nil {
		return nil, fmt.Errorf("scheduling: admission control on invalid schedule: %w", err)
	}
	admitted := s.Clone()
	ix := admitted.Index()
	res := &AdmissionResult{Admitted: admitted}

	// Iterate to a fixed point: rejecting a request may unload several
	// instances at once, and order must be deterministic.
	var loads []float64
	for changed := true; changed; {
		changed = false
		for fi, f := range p.VNFs {
			users, slots := ix.Users(fi), ix.UserSlots(fi)
			loads = admitted.LoadsInto(fi, loads)
			for k, load := range loads {
				if load < f.ServiceRate {
					continue
				}
				victim := lightestRequestOn(p, admitted, users, slots, k)
				if victim < 0 {
					continue
				}
				admitted.Remove(victim)
				res.Rejected = append(res.Rejected, p.Requests[victim].ID)
				changed = true
			}
		}
	}

	slices.Sort(res.Rejected)
	scheduled := 0
	for r := range p.Requests {
		if s.Assigned(r) {
			scheduled++
		}
	}
	if scheduled > 0 {
		res.RejectionRate = float64(len(res.Rejected)) / float64(scheduled)
	}
	return res, nil
}

// lightestRequestOn returns the ordinal of the lowest-effective-rate request
// of R_f (users, at slots) assigned to instance k (ties by id), or −1 when
// the instance is empty.
func lightestRequestOn(p *model.Problem, s *model.Schedule, users, slots []int32, k int) int {
	best := -1
	var bestRate float64
	for i, r := range users {
		if kk, ok := s.At(int(slots[i])); !ok || kk != k {
			continue
		}
		q := &p.Requests[r]
		rate := q.EffectiveRate()
		if best < 0 || rate < bestRate || (rate == bestRate && q.ID < p.Requests[best].ID) {
			best, bestRate = int(r), rate
		}
	}
	return best
}
