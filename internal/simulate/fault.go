package simulate

import (
	"fmt"
	"math"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// FaultPlan injects computing-node failures into a run. A node going down
// fails every service instance placed on it: the in-service packet and all
// queued packets are handled per Config.FailurePolicy, and arrivals routed
// to a down instance meet the same fate until the node recovers (or a
// FaultHook reroutes them). Random faults and the deterministic outage list
// compose; overlapping down intervals are merged for downtime accounting.
//
// Fault times are drawn from a dedicated per-node RNG stream (derived from
// Config.Seed and the node id), so they are identical across runs with the
// same seed regardless of traffic, drop policy, or repair decisions — the
// property the availability experiment relies on to compare repair modes
// under the same failure sample path. A nil FaultPlan disables the subsystem
// entirely and leaves every event stream bit-identical to historical runs.
type FaultPlan struct {
	// MTBF is each node's mean time between failures (seconds of up time
	// before the next failure, exponentially distributed). Zero or +Inf
	// disables random faults; the Outages list still applies.
	MTBF float64
	// MTTR is each node's mean time to repair (seconds of down time,
	// exponentially distributed). Required (positive, finite) when random
	// faults are enabled.
	MTTR float64
	// Outages is an optional deterministic list of scheduled node outages,
	// for reproducible failure scenarios independent of any RNG.
	Outages []Outage
	// Preemption optionally adds spot-style correlated capacity loss:
	// events on a dedicated RNG stream each take down a drawn group of
	// nodes at once (see PreemptionPlan). nil keeps the plan's sample paths
	// bit-identical to historical runs.
	Preemption *PreemptionPlan
}

// Outage is one scheduled node outage: the node fails at DownAt and
// recovers at UpAt (simulated seconds).
type Outage struct {
	Node   model.NodeID
	DownAt float64
	UpAt   float64
}

// randomFaults reports whether the plan draws MTBF/MTTR faults.
func (fp *FaultPlan) randomFaults() bool {
	return fp.MTBF > 0 && !math.IsInf(fp.MTBF, 1)
}

// validate rejects unusable plans against the problem's node set.
func (fp *FaultPlan) validate(p *model.Problem) error {
	if math.IsNaN(fp.MTBF) || fp.MTBF < 0 {
		return fmt.Errorf("simulate: fault plan MTBF %v must be non-negative", fp.MTBF)
	}
	if math.IsNaN(fp.MTTR) || fp.MTTR < 0 {
		return fmt.Errorf("simulate: fault plan MTTR %v must be non-negative", fp.MTTR)
	}
	if fp.randomFaults() && (fp.MTTR <= 0 || math.IsInf(fp.MTTR, 1)) {
		return fmt.Errorf("simulate: fault plan with MTBF %v requires a positive finite MTTR, got %v", fp.MTBF, fp.MTTR)
	}
	for i, o := range fp.Outages {
		if _, ok := p.Node(o.Node); !ok {
			return fmt.Errorf("simulate: outage %d references unknown node %s", i, o.Node)
		}
		if math.IsNaN(o.DownAt) || math.IsInf(o.DownAt, 0) || o.DownAt < 0 {
			return fmt.Errorf("simulate: outage %d down time %v must be non-negative and finite", i, o.DownAt)
		}
		if math.IsNaN(o.UpAt) || o.UpAt <= o.DownAt {
			return fmt.Errorf("simulate: outage %d up time %v must exceed down time %v", i, o.UpAt, o.DownAt)
		}
	}
	if fp.Preemption != nil {
		if err := fp.Preemption.validate(); err != nil {
			return err
		}
	}
	return nil
}

// FailurePolicy selects the fate of packets caught at a failed instance —
// the in-service packet, the queued packets, and any packet arriving while
// the instance's node is down.
type FailurePolicy int

// Supported failure policies.
const (
	// FailDrop counts the packet as a failure drop and discards it — the
	// crash-loss model: state on a failed node is simply gone. The zero
	// value, so fault-free configs need no change.
	FailDrop FailurePolicy = iota
	// FailRetransmit re-injects the packet from its source after
	// Config.RetransmitDelay, reusing the NACK loss-feedback machinery of
	// DropRetransmit: the delivery check times out and the source retries,
	// so no packet is ever permanently lost to a failure.
	FailRetransmit
)

// FaultHook observes node state transitions mid-run, at the simulated time
// they occur, and may use the RepairControl to reroute requests or add
// replacement instances — the entry point for self-healing controllers (see
// internal/repair). NodeDown is invoked after the node's instances have
// failed their packets; NodeUp after the node is back in service. The
// control handle is only valid for the duration of the callback.
type FaultHook interface {
	NodeDown(now float64, node model.NodeID, ctrl *RepairControl)
	NodeUp(now float64, node model.NodeID, ctrl *RepairControl)
}

// nodeState is the runtime fault state of one computing node. Nodes are
// tracked only when a FaultPlan is configured.
type nodeState struct {
	id model.NodeID
	// downDepth counts overlapping down intervals (random faults plus
	// scheduled outages); the node is down while it is positive.
	downDepth int
	downStart float64
	downtime  float64
	// stream draws the node's random fault chain; nil without random faults.
	stream *rng.Stream
	// instances lists the instance-table indices hosted on this node.
	instances []int32
}

// buildFaults prepares the node table, the instance→node links, and the
// per-VNF instance counters of RepairControl.AddInstance. Called from build
// only when a FaultPlan or a control hook is configured.
func (s *simulation) buildFaults() error {
	p := s.cfg.Problem
	// Rebuild into the retained node table: slots up to the previous run's
	// capacity keep their instances backing arrays, so churn-heavy sweeps
	// stop re-allocating per-node state every trial.
	nodes := s.nodes[:cap(s.nodes)]
	for i, n := range p.Nodes {
		if i < len(nodes) {
			nodes[i] = nodeState{id: n.ID, instances: nodes[i].instances[:0]}
		} else {
			nodes = append(nodes, nodeState{id: n.ID})
		}
	}
	s.nodes = nodes[:len(p.Nodes)]
	for iid := range s.instances {
		inst := &s.instances[iid]
		node, ok := s.cfg.Placement.Node(inst.key.VNF)
		if !ok {
			return fmt.Errorf("simulate: fault plan: vnf %s unplaced", inst.key.VNF)
		}
		nid, _ := s.ix.Node(node)
		inst.node = int32(nid)
		s.nodes[nid].instances = append(s.nodes[nid].instances, int32(iid))
	}
	for _, f := range p.VNFs {
		s.nextInst = append(s.nextInst, f.Instances)
	}
	return nil
}

// seedFaults schedules the first random failure of every node and the
// deterministic outage list. Random fault chains alternate down/up events
// (flagged random=1 in the event's reqIndex) so each down draws its repair
// time and each up draws the next failure; scheduled outages push both
// edges up front.
func (s *simulation) seedFaults() {
	fp := s.cfg.FaultPlan
	if fp == nil {
		return
	}
	if fp.randomFaults() {
		for i := range s.nodes {
			nd := &s.nodes[i]
			nd.stream = s.namedStream("fault/", string(nd.id))
			t := nd.stream.Exp(1 / fp.MTBF)
			if t < s.cfg.Horizon {
				s.agenda.push(event{time: t, kind: evNodeDown, inst: int32(i), reqIndex: 1})
			}
		}
	}
	for _, o := range fp.Outages {
		if o.DownAt >= s.cfg.Horizon {
			continue
		}
		nid, _ := s.ix.Node(o.Node)
		s.agenda.push(event{time: o.DownAt, kind: evNodeDown, inst: int32(nid)})
		s.agenda.push(event{time: o.UpAt, kind: evNodeUp, inst: int32(nid)})
	}
	if fp.Preemption != nil {
		s.seedPreemption()
	}
}

// nodeDown processes one down edge: on the first overlapping interval the
// node's instances fail their packets and the hook fires; a random-chain
// edge additionally draws the repair time.
func (s *simulation) nodeDown(nid int32, random bool) {
	nd := &s.nodes[nid]
	nd.downDepth++
	if nd.downDepth == 1 {
		nd.downStart = s.now
		for _, iid := range nd.instances {
			s.failInstance(iid)
		}
		if s.cfg.FaultHook != nil {
			s.cfg.FaultHook.NodeDown(s.now, nd.id, s.repairControl())
		}
	}
	if random {
		s.agenda.push(event{
			time: s.now + nd.stream.Exp(1/s.cfg.FaultPlan.MTTR),
			kind: evNodeUp, inst: nid, reqIndex: 1,
		})
	}
}

// nodeUp processes one up edge: when the last overlapping interval ends the
// downtime is folded in, the node's instances accept work again, and the
// hook fires; a random-chain edge additionally draws the next failure time.
func (s *simulation) nodeUp(nid int32, random bool) {
	nd := &s.nodes[nid]
	nd.downDepth--
	if nd.downDepth == 0 {
		nd.downtime += s.now - nd.downStart
		for _, iid := range nd.instances {
			s.instances[iid].down = false
		}
		if s.cfg.FaultHook != nil {
			s.cfg.FaultHook.NodeUp(s.now, nd.id, s.repairControl())
		}
	}
	if random {
		t := s.now + nd.stream.Exp(1/s.cfg.FaultPlan.MTBF)
		if t < s.cfg.Horizon {
			s.agenda.push(event{time: t, kind: evNodeDown, inst: nid, reqIndex: 1})
		}
	}
}

// failInstance fails every packet held by the instance (in service and
// queued) per the failure policy and marks it down. Bumping the service
// epoch invalidates the pending completion event without touching the
// agenda.
func (s *simulation) failInstance(iid int32) {
	inst := &s.instances[iid]
	inst.down = true
	removed := 0
	if inst.busy >= 0 {
		inst.busyTime += overlap(inst.serviceStart, s.now, s.cfg.Warmup, s.cfg.Horizon)
		if s.ctrlOn {
			inst.ctrlBusy += s.now - inst.serviceStart
		}
		inst.epoch++
		pid := inst.busy
		inst.busy = -1
		removed++
		s.failPacket(pid, inst)
	}
	for inst.qlen > 0 {
		removed++
		s.failPacket(inst.dequeue(), inst)
	}
	if removed > 0 {
		inst.notePopulation(s.now, s.cfg.Warmup, s.cfg.Horizon, -removed)
	}
}

// failPacket applies the failure policy to one packet caught by a failure
// at inst: FailDrop loses it permanently; FailRetransmit re-injects it from
// its source after the NACK round-trip, keeping its birth time so measured
// latency includes the recovery passes.
func (s *simulation) failPacket(pid int32, inst *instance) {
	if s.cfg.FailurePolicy == FailRetransmit {
		s.results.FailRetransmits++
		p := &s.packets[pid]
		p.stage = 0
		s.agenda.push(event{
			time: s.now + s.cfg.RetransmitDelay,
			kind: evArrival,
			pkt:  pid,
			inst: s.routeFlat[s.chainOff[p.reqIndex]],
		})
		return
	}
	s.results.FailureDrops++
	inst.failureDrops++
	s.live--
	s.freePacket(pid)
}

// instanceReady fires when a replacement instance finishes booting: packets
// that queued during the boot start service (unless the hosting node has
// failed in the meantime).
func (s *simulation) instanceReady(iid int32) {
	inst := &s.instances[iid]
	if !inst.down && inst.busy < 0 && inst.qlen > 0 {
		s.startService(inst, iid, inst.dequeue())
	}
}

// repairControl returns the simulation's one hook handle as a RepairControl.
// A handle is only valid inside the callback that received it, so every
// hook invocation reuses it instead of allocating a fresh one.
func (s *simulation) repairControl() *RepairControl {
	s.handle = ControlPlane{RepairControl: RepairControl{s: s}}
	return &s.handle.RepairControl
}

// RepairControl lets a FaultHook repair the running simulation at the
// simulated time of a node transition: rerouting future packet visits to
// surviving instances and registering freshly booted replacement capacity.
// It is only valid inside the hook invocation that received it.
type RepairControl struct {
	s *simulation
}

// Now returns the simulated time of the transition being handled.
func (rc *RepairControl) Now() float64 { return rc.s.now }

// NodeIsUp reports whether the named node is currently in service.
func (rc *RepairControl) NodeIsUp(n model.NodeID) bool {
	idx, ok := rc.s.ix.Node(n)
	return ok && rc.s.nodes[idx].downDepth == 0
}

// AddInstance registers a new service instance of VNF f on the given node,
// serving at the VNF's rate from readyAt onward (the boot/setup cost is
// readyAt − Now()). Packets routed to it before readyAt wait in its buffer.
// It returns the new instance index, to be targeted with Reassign.
func (rc *RepairControl) AddInstance(f model.VNFID, node model.NodeID, readyAt float64) (int, error) {
	s := rc.s
	fo, ok := s.ix.VNF(f)
	if !ok {
		return 0, fmt.Errorf("simulate: repair: unknown vnf %s", f)
	}
	n, ok := s.ix.Node(node)
	if !ok {
		return 0, fmt.Errorf("simulate: repair: unknown node %s", node)
	}
	nid := int32(n)
	if math.IsNaN(readyAt) || math.IsInf(readyAt, 0) || readyAt < s.now {
		return 0, fmt.Errorf("simulate: repair: ready time %v before now %v", readyAt, s.now)
	}
	k := s.nextInst[fo]
	s.nextInst[fo]++
	key := InstanceKey{VNF: f, Instance: k}
	iid := s.addInstance(key, s.cfg.Problem.VNFs[fo].ServiceRate, s.serviceStream(f, k))
	s.instIndex[key] = iid
	inst := &s.instances[iid]
	inst.node = nid
	inst.bootUntil = readyAt
	inst.down = s.nodes[nid].downDepth > 0
	s.nodes[nid].instances = append(s.nodes[nid].instances, iid)
	if readyAt > s.now {
		s.agenda.push(event{time: readyAt, kind: evInstanceReady, inst: iid})
	}
	return k, nil
}

// Reassign reroutes every future visit of request r to VNF f onto instance
// k of f, effective immediately: packets advance to the new instance at
// their next stage transition (and failure retransmissions restart there).
// k must name a base instance of f or one added with AddInstance. Link-hop
// delays along the request's chain are recomputed from the instances'
// hosting nodes.
func (rc *RepairControl) Reassign(r model.RequestID, f model.VNFID, k int) error {
	s := rc.s
	ri, ok := s.requestIndex(r)
	if !ok {
		return fmt.Errorf("simulate: repair: unknown request %s", r)
	}
	fo, ok := s.ix.VNF(f)
	if !ok {
		return fmt.Errorf("simulate: repair: unknown vnf %s", f)
	}
	vnf := &s.cfg.Problem.VNFs[fo]
	key := InstanceKey{VNF: f, Instance: k}
	iid, exists := s.instIndex[key]
	if !exists {
		if k < 0 || k >= vnf.Instances {
			return fmt.Errorf("simulate: repair: vnf %s has no instance %d", f, k)
		}
		// A base instance nothing was scheduled on yet: materialize it on
		// the VNF's placed node, with the same derived service stream it
		// would have received at build time.
		node, ok := s.cfg.Placement.Node(f)
		if !ok {
			return fmt.Errorf("simulate: repair: vnf %s unplaced", f)
		}
		n, _ := s.ix.Node(node)
		nid := int32(n)
		iid = s.addInstance(key, vnf.ServiceRate, s.serviceStream(f, k))
		s.instIndex[key] = iid
		s.instances[iid].node = nid
		s.instances[iid].down = s.nodes[nid].downDepth > 0
		s.nodes[nid].instances = append(s.nodes[nid].instances, iid)
	}
	chain := s.requests[ri].Chain
	off := s.chainOff[ri]
	touched := false
	for stage, fid := range chain {
		if fid == f {
			s.routeFlat[off+int32(stage)] = iid
			touched = true
		}
	}
	if !touched {
		return fmt.Errorf("simulate: repair: request %s does not use vnf %s", r, f)
	}
	// Recompute the request's link hops from the instances' hosting nodes
	// (identical to the placement-derived hops until replacements spread a
	// VNF across nodes).
	for stage := range chain {
		o := off + int32(stage)
		hop := 0.0
		if stage > 0 && s.instances[s.routeFlat[o]].node != s.instances[s.routeFlat[o-1]].node {
			hop = s.cfg.LinkDelay
		}
		s.hopFlat[o] = hop
	}
	return nil
}

// finalizeFaults folds per-node downtime (clipping intervals still open at
// the horizon) into the results.
func (s *simulation) finalizeFaults() {
	for i := range s.nodes {
		nd := &s.nodes[i]
		dt := nd.downtime
		if nd.downDepth > 0 {
			dt += s.cfg.Horizon - nd.downStart
		}
		if dt > 0 {
			s.results.Downtime[nd.id] = dt
		}
	}
}
