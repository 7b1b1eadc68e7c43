package simulate

import (
	"fmt"
	"math"

	"nfvchain/internal/model"
)

// Controller is the control plane's one seam into the simulator
// (Config.Controller). Its callbacks fire at deterministic simulated times,
// interleaved with traffic and fault events in (time, seq) order, and each
// receives the simulation's one ControlPlane handle, valid only for the
// duration of the callback:
//   - NodeDown fires when a node fails, after its instances have failed
//     their packets; NodeUp when it is back in service. Both need a
//     FaultPlan.
//   - PreemptionNotice fires at downAt − PreemptionPlan.LeadTime with the
//     drawn node group, before any of the nodes fail, so the controller can
//     migrate instances off them ahead of the loss. The nodes slice is only
//     valid for the duration of the callback.
//   - Tick fires every Config.ControlInterval simulated seconds (first tick
//     at the interval, last strictly before the horizon); an interval of 0
//     schedules no tick.
//
// Through the handle the controller may reshape the running deployment —
// add, retire or migrate instances, reroute requests, shed admissions —
// which is how internal/control runs its escalation ladder. A nil
// Controller leaves every event and RNG stream bit-identical to historical
// runs.
type Controller interface {
	NodeDown(now float64, node model.NodeID, cp *ControlPlane)
	NodeUp(now float64, node model.NodeID, cp *ControlPlane)
	PreemptionNotice(now float64, nodes []model.NodeID, downAt float64, cp *ControlPlane)
	Tick(now float64, cp *ControlPlane)
}

// PreemptionPlan extends a FaultPlan with spot-style correlated capacity
// loss: preemption events arrive as a Poisson process (mean interval
// MeanInterval) and each takes down a uniformly drawn group of GroupSize
// distinct nodes at once, all recovering after a fixed Recovery delay. The
// event times and group draws come from a dedicated "preempt" RNG stream, so
// enabling preemption leaves every existing per-node fault chain, arrival
// and service stream untouched — the same sample-path isolation the random
// MTBF/MTTR chains rely on. A nil Preemption keeps runs bit-identical to
// historical ones.
type PreemptionPlan struct {
	// MeanInterval is the mean time between preemption events (seconds,
	// exponentially distributed). Required: positive and finite.
	MeanInterval float64
	// GroupSize is how many distinct nodes each event takes down, clamped
	// to the node count. Required: at least 1.
	GroupSize int
	// Recovery is the fixed time until every node of the group returns to
	// service. Required: positive and finite.
	Recovery float64
	// LeadTime is the advance-notice window: when positive, the
	// Controller is told the drawn group LeadTime seconds before the loss
	// (clamped so notice never precedes the draw). Zero disables notices.
	LeadTime float64
}

// validate rejects unusable preemption plans.
func (pp *PreemptionPlan) validate() error {
	if !(pp.MeanInterval > 0) || math.IsInf(pp.MeanInterval, 1) {
		return fmt.Errorf("simulate: preemption mean interval %v must be positive and finite", pp.MeanInterval)
	}
	if pp.GroupSize < 1 {
		return fmt.Errorf("simulate: preemption group size %d must be at least 1", pp.GroupSize)
	}
	if !(pp.Recovery > 0) || math.IsInf(pp.Recovery, 1) {
		return fmt.Errorf("simulate: preemption recovery %v must be positive and finite", pp.Recovery)
	}
	if math.IsNaN(pp.LeadTime) || pp.LeadTime < 0 || math.IsInf(pp.LeadTime, 1) {
		return fmt.Errorf("simulate: preemption lead time %v must be non-negative and finite", pp.LeadTime)
	}
	return nil
}

// seedPreemption derives the dedicated preemption stream and schedules the
// first event. Called from seedFaults when the plan carries a Preemption.
func (s *simulation) seedPreemption() {
	s.preemptStream = s.namedStream("preempt", "")
	s.schedulePreempt(0)
}

// schedulePreempt draws the next preemption after t — its time and its node
// group — and pushes the preempt event (plus the advance notice when a lead
// time is configured). The group is drawn at scheduling time so the notice
// and the loss agree on it; at most one preemption is pending at a time, so
// one scratch group suffices.
func (s *simulation) schedulePreempt(t float64) {
	pp := s.cfg.FaultPlan.Preemption
	at := t + s.preemptStream.Exp(1/pp.MeanInterval)
	if at >= s.cfg.Horizon {
		return
	}
	n := len(s.nodes)
	g := pp.GroupSize
	if g > n {
		g = n
	}
	// Partial Fisher–Yates over the node indices: the first g entries of the
	// scratch permutation are a uniform distinct draw.
	perm := s.preemptPerm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, int32(i))
	}
	s.preemptPerm = perm
	group := s.preemptGroup[:0]
	for i := 0; i < g; i++ {
		j := i + s.preemptStream.IntN(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		group = append(group, perm[i])
	}
	s.preemptGroup = group
	s.preemptAt = at
	if pp.LeadTime > 0 {
		notice := at - pp.LeadTime
		if notice < t {
			notice = t
		}
		s.agenda.push(event{time: notice, kind: evPreemptNotice})
	}
	s.agenda.push(event{time: at, kind: evPreempt})
}

// preemptNotice delivers the advance notice for the pending preemption to
// the Controller.
func (s *simulation) preemptNotice() {
	if s.cfg.Controller == nil {
		return
	}
	ids := s.noticeIDs[:0]
	for _, nid := range s.preemptGroup {
		ids = append(ids, s.nodes[nid].id)
	}
	s.noticeIDs = ids
	s.cfg.Controller.PreemptionNotice(s.now, ids, s.preemptAt, s.plane(0))
}

// preemptFire takes down the pending group (each node through the same
// nodeDown path as outages, so overlapping intervals merge and the
// Controller hears of each node), schedules the group's fixed-delay recovery, and draws the
// next preemption.
func (s *simulation) preemptFire() {
	pp := s.cfg.FaultPlan.Preemption
	up := s.now + pp.Recovery
	for _, nid := range s.preemptGroup {
		s.nodeDown(nid, false)
		s.agenda.push(event{time: up, kind: evNodeUp, inst: nid})
	}
	s.schedulePreempt(s.now)
}

// InstanceObs is one instance's control-plane observation at a tick.
type InstanceObs struct {
	// Key identifies the instance; Node is its current hosting node.
	Key  InstanceKey
	Node model.NodeID
	// Queue is the waiting-room occupancy; Busy reports a packet in service.
	Queue int
	Busy  bool
	// Down mirrors the hosting node's state; Booting reports a setup or
	// migration still in progress; Retired marks an instance removed by
	// RemoveInstance that is draining its residual work.
	Down    bool
	Booting bool
	Retired bool
	// Utilization is the instance's busy fraction over the window that just
	// ended (the time since the previous tick, or since t=0 for the first).
	Utilization float64
}

// ControlPlane is the observation-and-actuation handle every Controller
// callback receives: it reroutes requests, adds, migrates and retires
// instances and sets the shedding valve, and observes the deployment. It is
// only valid for the duration of the callback.
type ControlPlane struct {
	s      *simulation
	window float64
}

// plane returns the simulation's one handle, set to the given observation
// window. A handle is only valid inside the callback that received it, so
// every callback reuses it instead of allocating a fresh one.
func (s *simulation) plane(window float64) *ControlPlane {
	s.handle = ControlPlane{s: s, window: window}
	return &s.handle
}

// Now returns the simulated time of the callback.
func (cp *ControlPlane) Now() float64 { return cp.s.now }

// Window returns the length of the observation window that just ended at a
// tick, and 0 in the other callbacks.
func (cp *ControlPlane) Window() float64 { return cp.window }

// Pending returns the number of admitted packets currently in flight.
func (cp *ControlPlane) Pending() int { return cp.s.live }

// Instances appends one observation per service instance (base instances
// first, then additions, in creation order — a deterministic order) to buf
// and returns it. Utilization is measured over the window that just ended;
// it reads 0 outside a tick.
func (cp *ControlPlane) Instances(buf []InstanceObs) []InstanceObs {
	s := cp.s
	for i := range s.instances {
		inst := &s.instances[i]
		util := 0.0
		if cp.window > 0 {
			util = (s.ctrlBusyNow(inst) - inst.ctrlMark) / cp.window
		}
		obs := InstanceObs{
			Key:         inst.key,
			Queue:       inst.qlen,
			Busy:        inst.busy >= 0,
			Down:        inst.down,
			Booting:     inst.bootUntil > s.now,
			Retired:     inst.retired,
			Utilization: util,
		}
		if inst.node >= 0 {
			obs.Node = s.nodes[inst.node].id
		}
		buf = append(buf, obs)
	}
	return buf
}

// ctrlBusyNow returns inst's cumulative raw busy time up to now, including
// the in-progress service.
func (s *simulation) ctrlBusyNow(inst *instance) float64 {
	b := inst.ctrlBusy
	if inst.busy >= 0 {
		b += s.now - inst.serviceStart
	}
	return b
}

// controlTick runs one controller tick: hand the Controller an observation
// window, then roll the per-instance utilization marks and schedule the next
// tick.
func (s *simulation) controlTick() {
	s.cfg.Controller.Tick(s.now, s.plane(s.now-s.lastTick))
	for i := range s.instances {
		inst := &s.instances[i]
		inst.ctrlMark = s.ctrlBusyNow(inst)
	}
	s.lastTick = s.now
	if next := s.now + s.cfg.ControlInterval; next < s.cfg.Horizon {
		s.agenda.push(event{time: next, kind: evControlTick})
	}
}

// shedNext implements deterministic fractional admission shedding with an
// error accumulator: over any long run of arrivals, exactly a shedFrac
// share returns true, with no RNG involved — so shedding never perturbs the
// arrival, service or fault streams.
func (s *simulation) shedNext() bool {
	s.shedAcc += s.shedFrac
	if s.shedAcc >= 1 {
		s.shedAcc--
		return true
	}
	return false
}

// SetShedFraction sets the deterministic admission-shedding rate: the given
// fraction of subsequent external arrivals (arrival rows, trace rows
// included, and injections alike) is counted as offered and shed instead
// of entering the network — the control plane's graceful-degradation valve
// under capacity shortage.
// Shedding is frac-of-arrivals exact via an error accumulator and draws no
// randomness, so it leaves every RNG stream untouched. Fraction 0 restores
// full admission.
func (cp *ControlPlane) SetShedFraction(frac float64) error {
	if math.IsNaN(frac) || frac < 0 || frac > 1 {
		return fmt.Errorf("simulate: shed fraction %v outside [0,1]", frac)
	}
	cp.s.shedFrac = frac
	return nil
}

// ShedFraction returns the current admission-shedding rate.
func (cp *ControlPlane) ShedFraction() float64 { return cp.s.shedFrac }

// MigrateInstance moves instance k of VNF f to the given node: the instance
// freezes now — an in-flight service is interrupted and its packet returns
// to the head of the queue — and resumes serving on the destination at
// resumeAt (the migration cost is resumeAt − Now(); the frozen interval
// counts toward queue sojourn but not utilization). Requests keep routing to
// the instance across the move; link hops are recomputed from the new
// hosting node. Migrating onto a down node parks the instance there until
// the node recovers.
func (cp *ControlPlane) MigrateInstance(f model.VNFID, k int, node model.NodeID, resumeAt float64) error {
	s := cp.s
	iid, ok := s.instIndex[InstanceKey{VNF: f, Instance: k}]
	if !ok {
		return fmt.Errorf("simulate: migrate: vnf %s has no live instance %d", f, k)
	}
	n, ok := s.ix.Node(node)
	nid := int32(n)
	if !ok {
		return fmt.Errorf("simulate: migrate: unknown node %s", node)
	}
	if math.IsNaN(resumeAt) || math.IsInf(resumeAt, 0) || resumeAt < s.now {
		return fmt.Errorf("simulate: migrate: resume time %v before now %v", resumeAt, s.now)
	}
	inst := &s.instances[iid]
	if inst.busy >= 0 {
		// Freeze: interrupt the in-flight service and put the packet back at
		// the head of the queue; the epoch bump invalidates the pending
		// completion event. The packet stays in the system, so population
		// accounting is untouched.
		inst.busyTime += overlap(inst.serviceStart, s.now, s.cfg.Warmup, s.cfg.Horizon)
		if s.ctrlOn {
			inst.ctrlBusy += s.now - inst.serviceStart
		}
		inst.epoch++
		pid := inst.busy
		inst.busy = -1
		inst.requeueFront(pid)
	}
	if old := inst.node; old >= 0 && old != nid {
		hosted := s.nodes[old].instances
		for i, id := range hosted {
			if id == iid {
				hosted[i] = hosted[len(hosted)-1]
				s.nodes[old].instances = hosted[:len(hosted)-1]
				break
			}
		}
	}
	if inst.node != nid {
		s.nodes[nid].instances = append(s.nodes[nid].instances, iid)
	}
	inst.node = nid
	inst.down = s.nodes[nid].downDepth > 0
	inst.bootUntil = resumeAt
	if resumeAt > s.now {
		s.agenda.push(event{time: resumeAt, kind: evInstanceReady, inst: iid})
	} else if !inst.down && inst.busy < 0 && inst.qlen > 0 {
		s.startService(inst, iid, inst.dequeue())
	}
	s.recomputeHops()
	return nil
}

// RemoveInstance retires instance k of VNF f from the deployment. The
// instance must already be routed away from (Reassign every request using it
// first); it then drains — packets still in flight toward it are served
// normally — and simply never receives new work. Retirement is what lets a
// scale-down shrink M_f without losing in-flight packets.
func (cp *ControlPlane) RemoveInstance(f model.VNFID, k int) error {
	s := cp.s
	iid, ok := s.instIndex[InstanceKey{VNF: f, Instance: k}]
	if !ok {
		return fmt.Errorf("simulate: remove: vnf %s has no live instance %d", f, k)
	}
	for _, target := range s.routeFlat {
		if target == iid {
			return fmt.Errorf("simulate: remove: instance %d of vnf %s still has routed requests (Reassign them first)", k, f)
		}
	}
	s.instances[iid].retired = true
	return nil
}

// recomputeHops rebuilds every request's link-hop vector from the instances'
// current hosting nodes — the post-migration counterpart of the per-request
// recomputation Reassign does. O(total chain stages), far off the hot path.
func (s *simulation) recomputeHops() {
	for ri := range s.requests {
		off := s.chainOff[ri]
		for stage := range s.requests[ri].Chain {
			o := off + int32(stage)
			hop := 0.0
			if stage > 0 && s.instances[s.routeFlat[o]].node != s.instances[s.routeFlat[o-1]].node {
				hop = s.cfg.LinkDelay
			}
			s.hopFlat[o] = hop
		}
	}
}
