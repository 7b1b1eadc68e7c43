// Package control implements the self-healing control plane of the
// fault-injected simulator (simulate.FaultPlan). One Controller keeps the
// deployment's instance inventory and climbs one escalation ladder (Policy),
// each rung adding a recovery move to those below it:
//
//   - Rescheduling (Section IV-B): when a VNF still has live instances, the
//     requests of its failed instances are rebalanced across the survivors
//     by re-running the request scheduler (RCKK by default) over the
//     surviving instance set — the same load-balancing objective as the
//     original schedule, restricted to what is still up. On node recovery
//     the VNFs hosted there are rebalanced again so the returned capacity is
//     used.
//
//   - Re-placement (Section IV-A): when a VNF loses every instance — the
//     common case, since the paper's placement model hosts all M_f instances
//     of a VNF on one node — replacement instances are placed onto surviving
//     nodes by BFDSU (Algorithm 1) over their residual capacities, one
//     replica at a time, each replica regarded as a new VNF as Section IV-A
//     suggests. Each replacement pays the paper's cited setup cost
//     (SetupCostVM ≈ 5 s for a middlebox VM, SetupCostClickOS ≈ 30 ms)
//     before it may serve.
//
//   - Autoscaling: at each periodic tick (simulate.Controller.Tick) a VNF
//     whose active instances run hot (mean ρ above Config.ScaleUpUtil) gains a
//     replica by the same BFDSU residual-capacity draw; one running cold
//     (mean ρ below Config.ScaleDownUtil, with slack to spare) drains and
//     retires an instance, shrinking M_f without losing in-flight packets.
//     When even the reshaped pool cannot cover the offered load at the
//     target utilization, the uncoverable admission fraction is shed
//     deterministically (ControlPlane.SetShedFraction) instead of letting
//     queues diverge.
//
//   - Migration: instances stranded on failed nodes, or crowded onto hot
//     nodes, are moved to better hosts for an explicit migration cost
//     (freeze + transfer delay), with requests rebalanced across the move.
//     When a correlated preemption announces itself ahead of time
//     (simulate.PreemptionPlan.LeadTime), the doomed nodes are evacuated
//     before the loss.
//
// The first two rungs act on node transitions alone, so they need no ticks
// (simulate.Config.ControlInterval 0); below PolicyAutoscale the tick and
// preemption-notice callbacks are inert.
// Every decision is deterministic given Config.Seed: affected VNFs are
// processed in sorted order, observation order follows the instance table
// and the problem's VNF order, placement draws derive from a per-decision
// seed, and shedding uses an RNG-free error accumulator, so equal seeds
// replay equal runs. Attaching no controller leaves runs bit-identical to
// historical ones.
package control

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
)

// Setup costs cited by the paper (seconds): the delay before a newly booted
// instance may serve.
const (
	SetupCostVM      = 5.0   // booting a Linux VM per middlebox
	SetupCostClickOS = 0.030 // ClickOS-style lightweight instantiation
)

// Policy selects how much of the control plane is active. Policies are
// ordered: each level includes everything below it.
type Policy int

// Supported policies.
const (
	// PolicyNone observes node transitions without acting — the
	// unmitigated baseline.
	PolicyNone Policy = iota
	// PolicyReschedule rebalances requests across a VNF's surviving
	// instances but never adds capacity. With the paper's one-node-per-VNF
	// placement a node failure leaves no survivors, so this policy only
	// helps once earlier replacements have spread a VNF across nodes.
	PolicyReschedule
	// PolicyRepair additionally re-places lost capacity: a VNF with no
	// surviving instance gets replacements booted on surviving nodes via
	// BFDSU, each paying Config.SetupCost before serving. It acts only on
	// node transitions: no autoscaling, no migration, no shedding.
	PolicyRepair
	// PolicyAutoscale adds the periodic tick loop: utilization-driven
	// scale-up/scale-down and deterministic admission shedding under
	// capacity shortage.
	PolicyAutoscale
	// PolicyAutoscaleMigrate additionally migrates instances — off failed
	// nodes, off hot nodes, and (given advance notice) off nodes about to
	// be preempted.
	PolicyAutoscaleMigrate
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyReschedule:
		return "reschedule"
	case PolicyRepair:
		return "repair"
	case PolicyAutoscale:
		return "autoscale"
	case PolicyAutoscaleMigrate:
		return "autoscale+migrate"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as String spells it, or "migrate" for
// PolicyAutoscaleMigrate.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "none":
		return PolicyNone, nil
	case "reschedule":
		return PolicyReschedule, nil
	case "repair":
		return PolicyRepair, nil
	case "autoscale":
		return PolicyAutoscale, nil
	case "autoscale+migrate", "migrate":
		return PolicyAutoscaleMigrate, nil
	default:
		return 0, fmt.Errorf("control: unknown policy %q (want none|reschedule|repair|autoscale|autoscale+migrate)", s)
	}
}

// Config parameterizes a Controller.
type Config struct {
	// Problem, Placement and Schedule describe the deployment being
	// simulated — the same values passed to simulate.Config.
	Problem   *model.Problem
	Placement *model.Placement
	Schedule  *model.Schedule

	// Policy selects the active mechanisms; the zero value is PolicyNone.
	Policy Policy

	// ScaleUpUtil is the mean window utilization above which a VNF gains a
	// replica (default 0.85); ScaleDownUtil the level below which it may
	// retire one (default 0.30). Hysteresis lives in the gap.
	ScaleUpUtil   float64
	ScaleDownUtil float64

	// TargetUtil is the per-VNF utilization ceiling the shedding valve
	// defends: admissions are shed so residual demand ≤ TargetUtil × active
	// capacity (default 0.95).
	TargetUtil float64

	// SetupCost is the boot delay (seconds) a replacement or scale-up
	// replica pays before serving; zero defaults to SetupCostVM (pass
	// SetupCostClickOS for the paper's lightweight alternative).
	SetupCost float64

	// MigrationCost is the freeze+transfer delay (seconds) a migrating
	// instance pays before resuming on its destination; zero defaults to
	// SetupCost.
	MigrationCost float64

	// Partitioner rebalances requests across instance sets; nil defaults to
	// RCKK, the paper's scheduler.
	Partitioner scheduling.Partitioner

	// Seed makes placement draws deterministic.
	Seed uint64
}

// Stats counts the controller's activity over one run.
type Stats struct {
	// NodeFailures and NodeRecoveries count the transitions observed.
	NodeFailures   int
	NodeRecoveries int
	// Reschedules counts VNF rebalances (after failures, recoveries and
	// every pool reshaping).
	Reschedules int
	// Replacements counts instances booted on surviving nodes after a VNF
	// lost every instance; ReplacementsFailed counts replicas that fit on no
	// surviving node.
	Replacements       int
	ReplacementsFailed int
	// Ticks counts controller ticks observed.
	Ticks int
	// ScaleUps and ScaleDowns count autoscaling actions.
	ScaleUps   int
	ScaleDowns int
	// SetupSecs is the total boot time paid by replacements and scale-ups.
	SetupSecs float64
	// Migrations counts tick-driven moves (off failed or hot nodes);
	// Evacuations counts preemption-notice moves ahead of a loss.
	// MigrationSecs is the total freeze+transfer time paid.
	Migrations    int
	Evacuations   int
	MigrationSecs float64
	// NodeSeconds integrates the number of nodes hosting at least one live
	// instance over the run — the cost axis of the cost-vs-SLO frontier.
	NodeSeconds float64
}

// Controller implements simulate.Controller — node transitions, periodic
// ticks and ahead-of-loss evacuation — over one instance inventory, the
// single placement authority for every rung. Create one per deployment and
// Reset it between runs; it is not safe for concurrent use, matching the
// simulator's single-goroutine loop.
type Controller struct {
	cfg  Config
	part scheduling.Partitioner

	// instances[f][k] = node hosting instance k of f, covering the base
	// instances (all on the placed node) plus every instance booted or moved
	// since.
	instances map[model.VNFID]map[int]model.NodeID
	// usage / usageExtras track committed demand per node so replica
	// placement sees true residual capacities.
	usage       map[model.NodeID]float64
	usageExtras map[model.NodeID][]float64
	// reqsOf[f] lists the scheduled requests using f, in problem order, for
	// deterministic rebalancing.
	reqsOf map[model.VNFID][]model.Request

	stats    Stats
	seq      uint64 // per-decision counter feeding placement seeds
	lastCost float64

	// noticed marks nodes under an active preemption notice (cleared when
	// the node actually goes down), so placements avoid doomed hosts.
	noticed map[model.NodeID]bool

	// Scratch reused across transitions and ticks. reuse is non-nil when
	// the partitioner supports scratch-backed calls (RCKK does).
	reuse      scheduling.ReusePartitioner
	partScr    scheduling.PartitionScratch
	items      []scheduling.Item
	affected   []model.VNFID
	insts      []int
	subProblem model.Problem
	subIndex   model.Index
	subVNFs    [1]model.VNF
	extrasBuf  []float64
	obs        []simulate.InstanceObs
	obsIdx     map[simulate.InstanceKey]int
	nodeSet    map[model.NodeID]struct{}
	nodeSum    map[model.NodeID]float64
	nodeN      map[model.NodeID]int
}

// New validates cfg and builds a controller primed with the initial
// placement's instance map and node usage.
func New(cfg Config) (*Controller, error) {
	if cfg.Policy < PolicyNone || cfg.Policy > PolicyAutoscaleMigrate {
		return nil, fmt.Errorf("control: unknown policy %d", cfg.Policy)
	}
	if cfg.Problem == nil || cfg.Placement == nil || cfg.Schedule == nil {
		return nil, errors.New("control: Problem, Placement and Schedule are required")
	}
	if cfg.ScaleUpUtil == 0 {
		cfg.ScaleUpUtil = 0.85
	}
	if cfg.ScaleDownUtil == 0 {
		cfg.ScaleDownUtil = 0.30
	}
	if cfg.TargetUtil == 0 {
		cfg.TargetUtil = 0.95
	}
	if !(cfg.ScaleDownUtil > 0 && cfg.ScaleDownUtil < cfg.ScaleUpUtil && cfg.ScaleUpUtil < 1) {
		return nil, fmt.Errorf("control: need 0 < ScaleDownUtil (%v) < ScaleUpUtil (%v) < 1",
			cfg.ScaleDownUtil, cfg.ScaleUpUtil)
	}
	if !(cfg.TargetUtil > 0 && cfg.TargetUtil <= 1) {
		return nil, fmt.Errorf("control: TargetUtil %v outside (0,1]", cfg.TargetUtil)
	}
	if !validCost(cfg.SetupCost) {
		return nil, fmt.Errorf("control: invalid setup cost %v", cfg.SetupCost)
	}
	if !validCost(cfg.MigrationCost) {
		return nil, fmt.Errorf("control: invalid migration cost %v", cfg.MigrationCost)
	}
	if cfg.SetupCost == 0 {
		cfg.SetupCost = SetupCostVM
	}
	if cfg.MigrationCost == 0 {
		cfg.MigrationCost = cfg.SetupCost
	}
	if err := cfg.Placement.Validate(cfg.Problem); err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	cfg.Schedule = cfg.Schedule.For(cfg.Problem)
	if err := cfg.Schedule.ValidatePartial(cfg.Problem); err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	c := &Controller{
		cfg:         cfg,
		part:        cfg.Partitioner,
		instances:   make(map[model.VNFID]map[int]model.NodeID),
		usage:       make(map[model.NodeID]float64),
		usageExtras: make(map[model.NodeID][]float64),
		reqsOf:      make(map[model.VNFID][]model.Request),
		noticed:     make(map[model.NodeID]bool),
		obsIdx:      make(map[simulate.InstanceKey]int),
		nodeSet:     make(map[model.NodeID]struct{}),
		nodeSum:     make(map[model.NodeID]float64),
		nodeN:       make(map[model.NodeID]int),
	}
	if c.part == nil {
		c.part = scheduling.RCKK{}
	}
	c.reuse, _ = c.part.(scheduling.ReusePartitioner)
	c.prime()
	return c, nil
}

// validCost reports whether d is a usable delay: finite and not negative.
func validCost(d float64) bool {
	return d >= 0 && !math.IsInf(d, 0)
}

// anyNode accepts every node: instancesOn(f, anyNode) is f's whole
// inventory.
func anyNode(model.NodeID) bool { return true }

// prime loads the initial placement into the instance map, node usage and
// per-VNF request lists. Called on construction and again from Reset.
func (c *Controller) prime() {
	for _, f := range c.cfg.Problem.VNFs {
		node, ok := c.cfg.Placement.Node(f.ID)
		if !ok {
			continue
		}
		hosts := c.instances[f.ID]
		if hosts == nil {
			hosts = make(map[int]model.NodeID, f.Instances)
		}
		for k := 0; k < f.Instances; k++ {
			hosts[k] = node
		}
		c.instances[f.ID] = hosts
		c.usage[node] += f.TotalDemand()
		for d, e := range f.TotalExtras() {
			c.extrasOf(node)[d] += e
		}
	}
	sched := c.cfg.Schedule
	for ri, r := range c.cfg.Problem.Requests {
		if !sched.Assigned(ri) {
			continue // rejected by admission control: generates no traffic
		}
		for _, f := range r.Chain {
			c.reqsOf[f] = append(c.reqsOf[f], r)
		}
	}
}

// Reset re-primes the controller to its initial-placement state with a new
// seed, retaining every map and scratch buffer — equivalent to New with the
// same Config and the given seed, so sweeps and benchmarks reuse one
// controller across runs.
func (c *Controller) Reset(seed uint64) {
	c.cfg.Seed = seed
	c.stats = Stats{}
	c.seq = 0
	c.lastCost = 0
	clear(c.noticed)
	for _, hosts := range c.instances {
		clear(hosts)
	}
	clear(c.usage)
	for _, e := range c.usageExtras {
		clear(e)
	}
	for f := range c.reqsOf {
		c.reqsOf[f] = c.reqsOf[f][:0]
	}
	c.prime()
}

// extrasOf returns node's extras-usage vector, allocating it on first use.
func (c *Controller) extrasOf(n model.NodeID) []float64 {
	e, ok := c.usageExtras[n]
	if !ok && c.cfg.Problem.ExtraResources() > 0 {
		e = make([]float64, c.cfg.Problem.ExtraResources())
		c.usageExtras[n] = e
	}
	return e
}

// Stats returns the controller's accumulated activity. NodeSeconds is
// integrated up to the last observed event; use StatsAt to fold it to the
// horizon after a run.
func (c *Controller) Stats() Stats { return c.stats }

// StatsAt folds the nodes-in-service cost integral up to now (typically the
// horizon, after the run ends) and returns the stats.
func (c *Controller) StatsAt(now float64) Stats {
	c.foldCost(now)
	return c.stats
}

// foldCost integrates nodes-in-service over [lastCost, now). Called before
// every inventory change so each interval is charged at the count that held
// throughout it.
func (c *Controller) foldCost(now float64) {
	if now > c.lastCost {
		c.stats.NodeSeconds += float64(c.nodesInService()) * (now - c.lastCost)
		c.lastCost = now
	}
}

// nodesInService counts distinct nodes hosting at least one live instance.
func (c *Controller) nodesInService() int {
	clear(c.nodeSet)
	for _, hosts := range c.instances {
		for _, n := range hosts {
			c.nodeSet[n] = struct{}{}
		}
	}
	return len(c.nodeSet)
}

// NodeDown implements simulate.Controller: from PolicyReschedule up,
// rebalance each affected VNF over its surviving instances, first (from
// PolicyRepair up) booting replacements when none survive.
func (c *Controller) NodeDown(now float64, node model.NodeID, cp *simulate.ControlPlane) {
	c.foldCost(now)
	delete(c.noticed, node) // the announced loss has landed
	c.stats.NodeFailures++
	if c.cfg.Policy < PolicyReschedule {
		return
	}
	for _, f := range c.affectedVNFs(node) {
		survivors := c.instancesOn(f, cp.NodeIsUp)
		if len(survivors) == 0 && c.cfg.Policy >= PolicyRepair {
			c.replace(f, len(c.instances[f]), now, cp)
			survivors = c.instancesOn(f, cp.NodeIsUp)
		}
		c.rebalance(f, survivors, cp)
	}
}

// NodeUp implements simulate.Controller: from PolicyReschedule up, rebalance
// each VNF hosted on the recovered node so its returned capacity is used
// again.
func (c *Controller) NodeUp(now float64, node model.NodeID, cp *simulate.ControlPlane) {
	c.foldCost(now)
	c.stats.NodeRecoveries++
	if c.cfg.Policy < PolicyReschedule {
		return
	}
	for _, f := range c.affectedVNFs(node) {
		c.rebalance(f, c.instancesOn(f, cp.NodeIsUp), cp)
	}
}

// affectedVNFs returns the VNFs with at least one instance on node, sorted
// for deterministic processing order. The returned slice is scratch, valid
// until the next call.
func (c *Controller) affectedVNFs(node model.NodeID) []model.VNFID {
	out := c.affected[:0]
	for f, hosts := range c.instances {
		for _, n := range hosts {
			if n == node {
				out = append(out, f)
				break
			}
		}
	}
	slices.Sort(out)
	c.affected = out
	return out
}

// instancesOn returns the instance indices of f hosted on nodes the
// predicate accepts, ascending. The returned slice is scratch, valid until
// the next call.
func (c *Controller) instancesOn(f model.VNFID, keep func(model.NodeID) bool) []int {
	out := c.insts[:0]
	for k, n := range c.instances[f] {
		if keep(n) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	c.insts = out
	return out
}

// offeredLoad returns the aggregate effective arrival rate of the scheduled
// requests that traverse f — the demand the VNF's instance pool must cover.
func (c *Controller) offeredLoad(f model.VNFID) float64 {
	var load float64
	for _, r := range c.reqsOf[f] {
		load += r.EffectiveRate()
	}
	return load
}

// record books instance k of vnf on node: the inventory entry plus the
// demand it commits against the node.
func (c *Controller) record(vnf *model.VNF, k int, node model.NodeID) {
	hosts := c.instances[vnf.ID]
	if hosts == nil {
		hosts = make(map[int]model.NodeID)
		c.instances[vnf.ID] = hosts
	}
	hosts[k] = node
	c.usage[node] += vnf.Demand
	for d, e := range vnf.Extras {
		c.extrasOf(node)[d] += e
	}
}

// forget removes instance k of vnf from the inventory, releasing its demand.
func (c *Controller) forget(vnf *model.VNF, k int) {
	hosts := c.instances[vnf.ID]
	node, ok := hosts[k]
	if !ok {
		return
	}
	delete(hosts, k)
	c.usage[node] -= vnf.Demand
	for d, e := range vnf.Extras {
		c.extrasOf(node)[d] -= e
	}
}

// replace boots count replacement instances of f on surviving nodes, one
// BFDSU placement per replica over the nodes' residual capacities (the
// paper's replicas-as-new-VNFs scale-out). Replicas that fit nowhere are
// counted and skipped — partial recovery beats none.
func (c *Controller) replace(f model.VNFID, count int, now float64, cp *simulate.ControlPlane) {
	vnf, ok := c.cfg.Problem.VNF(f)
	if !ok {
		return
	}
	for i := 0; i < count; i++ {
		if !c.boot(&vnf, now, cp, cp.NodeIsUp) {
			c.stats.ReplacementsFailed++
			continue
		}
		c.stats.Replacements++
	}
}

// boot adds one replica of vnf on a node the predicate accepts — the BFDSU
// draw of pickNode — ready after the setup cost, and books it. It reports
// whether a replica was booted.
func (c *Controller) boot(vnf *model.VNF, now float64, cp *simulate.ControlPlane, keep func(model.NodeID) bool) bool {
	node, ok := c.pickNode(vnf, keep)
	if !ok {
		return false
	}
	k, err := cp.AddInstance(vnf.ID, node, now+c.cfg.SetupCost)
	if err != nil {
		return false
	}
	c.record(vnf, k, node)
	c.stats.SetupSecs += c.cfg.SetupCost
	return true
}

// pickNode selects a host for one additional replica of vnf: BFDSU over the
// residual capacities of the nodes the predicate accepts. Each call
// advances the decision counter, keeping picks deterministic for a given
// seed and call sequence. ok is false when no accepted node fits the
// replica. The candidate sub-problem is rebuilt, and validated, in
// retained scratch (subProblem, extrasBuf, subIndex), so repeated picks
// only pay for the placement itself.
func (c *Controller) pickNode(vnf *model.VNF, keep func(model.NodeID) bool) (model.NodeID, bool) {
	c.seq++
	dims := c.cfg.Problem.ExtraResources()
	sub := &c.subProblem
	sub.Nodes = sub.Nodes[:0]
	sub.VNFs = sub.VNFs[:0]
	if need := len(c.cfg.Problem.Nodes) * dims; cap(c.extrasBuf) < need {
		c.extrasBuf = make([]float64, 0, need)
	}
	c.extrasBuf = c.extrasBuf[:0]
	for _, n := range c.cfg.Problem.Nodes {
		if !keep(n.ID) {
			continue
		}
		residual := n.Capacity - c.usage[n.ID]
		if residual < vnf.Demand {
			continue
		}
		start := len(c.extrasBuf)
		used := c.usageExtras[n.ID]
		fits := true
		for d := 0; d < dims; d++ {
			e := n.Extras[d]
			if used != nil {
				e -= used[d]
			}
			if d < len(vnf.Extras) && e < vnf.Extras[d] {
				fits = false
			}
			c.extrasBuf = append(c.extrasBuf, e)
		}
		if !fits {
			c.extrasBuf = c.extrasBuf[:start]
			continue
		}
		extras := c.extrasBuf[start:len(c.extrasBuf):len(c.extrasBuf)]
		sub.Nodes = append(sub.Nodes, model.Node{ID: n.ID, Capacity: residual, Extras: extras})
	}
	if len(sub.Nodes) == 0 {
		return "", false
	}
	replica := *vnf
	replica.ID = model.VNFID(fmt.Sprintf("%s#re%d", vnf.ID, c.seq))
	replica.Instances = 1
	c.subVNFs[0] = replica
	sub.VNFs = c.subVNFs[:1]
	alg := &placement.BFDSU{Seed: c.cfg.Seed ^ c.seq*0x9e3779b97f4a7c15}
	if c.subIndex.Rebuild(sub) != nil {
		return "", false
	}
	res, err := alg.PlaceValid(sub)
	if err != nil {
		return "", false
	}
	node, ok := res.Placement.Node(replica.ID)
	return node, ok
}

// rebalance re-partitions f's scheduled requests across the given instance
// indices of f (all live in the simulation) with the configured scheduler
// and reroutes them. No-op on an empty instance set.
func (c *Controller) rebalance(f model.VNFID, instances []int, cp *simulate.ControlPlane) {
	reqs := c.reqsOf[f]
	if len(instances) == 0 || len(reqs) == 0 {
		return
	}
	c.items = c.items[:0]
	for _, r := range reqs {
		c.items = append(c.items, scheduling.Item{ID: r.ID, Weight: r.EffectiveRate()})
	}
	var assign []int
	var err error
	if c.reuse != nil {
		assign, err = c.reuse.PartitionReuse(c.items, len(instances), &c.partScr)
	} else {
		assign, err = c.part.Partition(c.items, len(instances))
	}
	if err != nil {
		return
	}
	for i, r := range reqs {
		// Reassign only fails on stale references, which the instance map
		// precludes; a failed reroute simply leaves the old route in place.
		_ = cp.Reassign(r.ID, f, instances[assign[i]])
	}
	c.stats.Reschedules++
}

// migrate moves instance k of vnf onto target, paying the migration cost,
// and rehosts it in the inventory. It reports whether the move happened.
func (c *Controller) migrate(vnf *model.VNF, k int, target model.NodeID, now float64, cp *simulate.ControlPlane) bool {
	if err := cp.MigrateInstance(vnf.ID, k, target, now+c.cfg.MigrationCost); err != nil {
		return false
	}
	c.forget(vnf, k)
	c.record(vnf, k, target)
	c.stats.MigrationSecs += c.cfg.MigrationCost
	return true
}

// evacuate migrates every instance hosted on a node stranded accepts to a
// host picked among the up, un-noticed nodes, and rebalances each VNF it
// moved across the instances on nodes pool accepts. It returns the number
// of instances moved.
func (c *Controller) evacuate(now float64, cp *simulate.ControlPlane, stranded, pool func(model.NodeID) bool) int {
	safe := func(n model.NodeID) bool { return cp.NodeIsUp(n) && !c.noticed[n] }
	total := 0
	for i := range c.cfg.Problem.VNFs {
		f := &c.cfg.Problem.VNFs[i]
		moved := 0
		for _, k := range c.instancesOn(f.ID, stranded) {
			if target, ok := c.pickNode(f, safe); ok && c.migrate(f, k, target, now, cp) {
				moved++
			}
		}
		if moved > 0 {
			c.rebalance(f.ID, c.instancesOn(f.ID, pool), cp)
		}
		total += moved
	}
	return total
}

// PreemptionNotice implements simulate.Controller: under
// PolicyAutoscaleMigrate the controller evacuates every instance hosted on
// a doomed node to a surviving host ahead of the loss, paying the migration
// cost, and rebalances the affected VNFs onto their post-evacuation pools.
func (c *Controller) PreemptionNotice(now float64, nodes []model.NodeID, downAt float64, cp *simulate.ControlPlane) {
	if c.cfg.Policy < PolicyAutoscaleMigrate {
		return
	}
	c.foldCost(now)
	for _, n := range nodes {
		c.noticed[n] = true
	}
	doomed := func(n model.NodeID) bool { return c.noticed[n] }
	safe := func(n model.NodeID) bool { return cp.NodeIsUp(n) && !c.noticed[n] }
	c.stats.Evacuations += c.evacuate(now, cp, doomed, safe)
}

// Tick implements simulate.Controller: observe the window, autoscale each
// VNF, migrate under PolicyAutoscaleMigrate, and set the admission-shedding
// valve from the residual capacity shortfall.
func (c *Controller) Tick(now float64, cp *simulate.ControlPlane) {
	c.stats.Ticks++
	c.foldCost(now)
	if c.cfg.Policy < PolicyAutoscale {
		return
	}
	c.obs = cp.Instances(c.obs[:0])
	clear(c.obsIdx)
	for i := range c.obs {
		c.obsIdx[c.obs[i].Key] = i
	}

	// coverage is the worst-case fraction of offered load the active pools
	// can absorb at TargetUtil; anything beyond it gets shed.
	coverage := 1.0
	for i := range c.cfg.Problem.VNFs {
		f := &c.cfg.Problem.VNFs[i]
		insts := c.instancesOn(f.ID, anyNode)
		if len(insts) == 0 {
			continue
		}
		demand := c.offeredLoad(f.ID)
		var utilSum, capacity float64
		active := 0
		victim, victimSeen := -1, false
		for _, k := range insts {
			oi, ok := c.obsIdx[simulate.InstanceKey{VNF: f.ID, Instance: k}]
			if !ok || c.obs[oi].Down {
				continue
			}
			active++
			capacity += f.ServiceRate
			utilSum += c.obs[oi].Utilization
			if !victimSeen || k > victim {
				victim, victimSeen = k, true
			}
		}
		if demand > 0 {
			cov := 0.0
			if capacity > 0 {
				cov = math.Min(1, c.cfg.TargetUtil*capacity/demand)
			}
			coverage = math.Min(coverage, cov)
		}
		if active == 0 {
			// Every instance is down (replacements cover failures the
			// controller observes, but a fully preempted pool may still be
			// empty): try to boot a replica on any up node.
			c.scaleUp(f, now, cp)
			continue
		}
		mean := utilSum / float64(active)
		switch {
		case mean > c.cfg.ScaleUpUtil:
			c.scaleUp(f, now, cp)
		case mean < c.cfg.ScaleDownUtil && active > 1 &&
			demand <= c.cfg.TargetUtil*(capacity-f.ServiceRate):
			c.scaleDown(f, victim, cp)
		}
	}
	if c.cfg.Policy >= PolicyAutoscaleMigrate {
		down := func(n model.NodeID) bool { return !cp.NodeIsUp(n) }
		c.stats.Migrations += c.evacuate(now, cp, down, cp.NodeIsUp)
		c.hotNodeTick(now, cp)
	}
	shed := 1 - coverage
	if shed < 0 {
		shed = 0
	}
	_ = cp.SetShedFraction(shed)
}

// scaleUp boots one replica of f on an up node and rebalances f's requests
// across the enlarged pool.
func (c *Controller) scaleUp(f *model.VNF, now float64, cp *simulate.ControlPlane) {
	if !c.boot(f, now, cp, cp.NodeIsUp) {
		return
	}
	c.rebalance(f.ID, c.instancesOn(f.ID, cp.NodeIsUp), cp)
	c.stats.ScaleUps++
}

// scaleDown drains instance victim of f: requests are rebalanced onto the
// rest of the pool first, then the instance retires (finishing any residual
// work) and leaves the inventory.
func (c *Controller) scaleDown(f *model.VNF, victim int, cp *simulate.ControlPlane) {
	rest := slices.DeleteFunc(c.instancesOn(f.ID, cp.NodeIsUp), func(k int) bool { return k == victim })
	if len(rest) == 0 {
		return
	}
	c.rebalance(f.ID, rest, cp)
	if err := cp.RemoveInstance(f.ID, victim); err != nil {
		return
	}
	c.forget(f, victim)
	c.stats.ScaleDowns++
}

// hotNodeTick relieves the hottest node: when one node's instances run
// collectively above ScaleUpUtil while it hosts at least two of them, its
// least-utilized instance migrates to a host picked over the remaining
// nodes' residual capacities. One move per tick bounds churn; ties resolve
// in problem node order and instance-table order, keeping the decision
// deterministic.
func (c *Controller) hotNodeTick(now float64, cp *simulate.ControlPlane) {
	clear(c.nodeSum)
	clear(c.nodeN)
	for i := range c.obs {
		o := &c.obs[i]
		if o.Down || o.Retired || o.Node == "" {
			continue
		}
		c.nodeSum[o.Node] += o.Utilization
		c.nodeN[o.Node]++
	}
	var hot model.NodeID
	hotMean := c.cfg.ScaleUpUtil
	for _, n := range c.cfg.Problem.Nodes {
		cnt := c.nodeN[n.ID]
		if cnt < 2 {
			continue
		}
		if mean := c.nodeSum[n.ID] / float64(cnt); mean > hotMean {
			hot, hotMean = n.ID, mean
		}
	}
	if hot == "" {
		return
	}
	best := -1
	for i := range c.obs {
		o := &c.obs[i]
		if o.Node != hot || o.Down || o.Retired || o.Booting {
			continue
		}
		if best < 0 || o.Utilization < c.obs[best].Utilization {
			best = i
		}
	}
	if best < 0 {
		return
	}
	key := c.obs[best].Key
	vnf, ok := c.cfg.Problem.VNF(key.VNF)
	if !ok {
		return
	}
	safe := func(n model.NodeID) bool { return cp.NodeIsUp(n) && !c.noticed[n] && n != hot }
	target, ok := c.pickNode(&vnf, safe)
	if !ok || !c.migrate(&vnf, key.Instance, target, now, cp) {
		return
	}
	c.stats.Migrations++
	c.rebalance(key.VNF, c.instancesOn(key.VNF, cp.NodeIsUp), cp)
}

// Interface conformance.
var _ simulate.Controller = (*Controller)(nil)
